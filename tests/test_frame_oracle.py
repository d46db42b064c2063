"""Frame checks and point enumeration against the pair-set references.

brute_points is the reference: it tries every assignment of grades to
frame elements, in lexicographic order, and keeps the frame
homomorphisms into the grade chain, as fgml did before `points` used
Birkhoff's representation. The oracle_* functions are the sobriety,
spatiality and duality checks as they were then, each building its
points and point space afresh on top of brute_points. Points, their
order and every verdict must agree exactly.

ref_tables and ref_is_frame are the order-table checks as they were
before frames held down-set and up-set masks: meets and joins searched
in the pair set, and the cubic walk over every element triple. Verdicts
and violation strings must agree byte for byte, except that a failing
distributivity triple may differ; the one reported is re-checked to
fail under the reference meets and joins.
"""

from functools import cache
from itertools import product

import pytest

from fgml import (
    direct_image,
    duality_check,
    fs_leq,
    generate_topology,
    inverse_image,
    is_continuous,
    is_frame,
    is_sober,
    is_spatial,
    make_lattice,
    opens_frame,
    point_topology,
    points,
)
from fgml.errors import MalformedFrameError, NotSoberError, PreconditionError, ResourceLimitError
from fgml.frames import FiniteFrame, FramePoint, is_frame_hom
from fgml.fuzzyset import Carrier, CarrierMap, FuzzySet
from fgml.grades import GradeLattice

from modelgen import identity_zoo, powerset_zoo

DENS = (1, 2, 3)
LIMIT = 2 ** 15  # largest (d+1)^|frame| the brute force is run on


@cache  # the sobriety, spatiality and duality oracles share it
def brute_points(frame, lattice):
    chain = FiniteFrame.chain(lattice.values)
    return tuple(FramePoint(frame, values)
                 for values in product(lattice.values, repeat=len(frame))
                 if is_frame_hom(dict(zip(frame.elements, values)), frame, chain))


def oracle_point_space(frame, lattice):
    named = [(f"pt({','.join(str(g) for g in p.values)})", p)
             for p in brute_points(frame, lattice)]
    carrier = Carrier(tuple(name for name, _ in named))
    zeta = {a: FuzzySet(carrier, lattice, tuple(p(a) for _, p in named))
            for a in frame.elements}
    return named, zeta, generate_topology(carrier, lattice, list(zeta.values()), LIMIT)


def oracle_state_point_map(space):
    frame = opens_frame(space)
    named, zeta, point_space = oracle_point_space(frame, space.lattice)
    by_values = {p.values: name for name, p in named}
    eta = CarrierMap(space.carrier, point_space.carrier, tuple(
        by_values[tuple(o(s) for o in frame.elements)] for s in space.carrier))
    return eta, point_space, zeta


def oracle_is_sober(space):
    eta, point_space, _ = oracle_state_point_map(space)
    image = set(eta.assignment)
    return len(image) == len(space.carrier) and image == set(point_space.carrier)


def oracle_is_spatial(frame, lattice):
    _, zeta, space = oracle_point_space(frame, lattice)
    if len(set(zeta.values())) != len(frame.elements):
        return False
    for a in frame.elements:
        for b in frame.elements:
            if frame.holds(a, b) != fs_leq(zeta[a], zeta[b]):
                return False
    return set(zeta.values()) == set(space.opens)


def oracle_duality_items(space):
    if not oracle_is_sober(space):
        raise NotSoberError("duality_check requires a sober space")
    eta, point_space, evaluation = oracle_state_point_map(space)
    image = set(eta.assignment)
    return (
        ("eta bijective", len(image) == len(space.carrier)
         and image == set(point_space.carrier)),
        ("eta fuzzy continuous", is_continuous(eta, space, point_space)),
        ("eta open map",
         all(direct_image(eta, o) in point_space.opens for o in space.opens)),
        ("eta image equals evaluation open",
         all(direct_image(eta, o) == evaluation[o] for o in space.opens)),
        ("eta pullback recovers each open",
         all(inverse_image(eta, evaluation[o]) == o for o in space.opens)),
    )


def ref_tables(frame):
    """Meet and join tables searched in the pair set; None marks a missing bound."""
    elems = frame.elements
    down = {a: frozenset(c for c in elems if (c, a) in frame.leq) for a in elems}
    up = {a: frozenset(c for c in elems if (a, c) in frame.leq) for a in elems}
    meets, joins = {}, {}
    for a in elems:
        for b in elems:
            lower, upper = down[a] & down[b], up[a] & up[b]
            glb = [c for c in lower if lower <= down[c]]
            lub = [c for c in upper if upper <= up[c]]
            meets[a, b] = glb[0] if len(glb) == 1 else None
            joins[a, b] = lub[0] if len(lub) == 1 else None
    return meets, joins


def ref_is_frame(frame):
    """The cubic frame check on the pair set: (ok, violation)."""
    elems = frame.elements

    def holds(a, b):
        return (a, b) in frame.leq

    for a in elems:
        if not holds(a, a):
            raise MalformedFrameError(f"order not reflexive at {a!r}")
    for a in elems:
        for b in elems:
            if a != b and holds(a, b) and holds(b, a):
                raise MalformedFrameError(f"order not antisymmetric on {a!r}, {b!r}")
            for c in elems:
                if holds(a, b) and holds(b, c) and not holds(a, c):
                    raise MalformedFrameError(
                        f"order not transitive via {a!r} <= {b!r} <= {c!r}")
    for a in elems:
        if not holds(frame.bottom, a):
            return False, f"designated bottom is not below {a!r}"
        if not holds(a, frame.top):
            return False, f"designated top is not above {a!r}"
    meets, joins = ref_tables(frame)
    for a in elems:
        for b in elems:
            if meets[a, b] is None:
                return False, f"no meet for ({a!r}, {b!r})"
            if joins[a, b] is None:
                return False, f"no join for ({a!r}, {b!r})"
    for a in elems:
        for b in elems:
            for c in elems:
                if meets[a, joins[b, c]] != joins[meets[a, b], meets[a, c]]:
                    return False, f"distributivity fails on ({a!r}, {b!r}, {c!r})"
    return True, None


def check_is_frame(frame):
    """Compare is_frame, meet and join with the references; return the
    reference violation with its witness cut off (None when ok)."""
    try:
        ok, violation = ref_is_frame(frame)
    except MalformedFrameError as expected:
        with pytest.raises(MalformedFrameError) as got:
            is_frame(frame)
        assert str(got.value) == str(expected)
        return str(expected).split(" at ")[0].split(" on ")[0].split(" via ")[0]
    meets, joins = ref_tables(frame)
    assert {pair: frame.meet(*pair) for pair in meets} == meets
    assert {pair: frame.join(*pair) for pair in joins} == joins
    got = is_frame(frame)
    assert got.ok == ok
    if violation is not None and violation.startswith("distributivity"):
        named = [(a, b, c) for a, b, c in product(frame.elements, repeat=3)
                 if got.violation == f"distributivity fails on ({a!r}, {b!r}, {c!r})"]
        assert named, got.violation
        a, b, c = named[0]
        assert meets[a, joins[b, c]] != joins[meets[a, b], meets[a, c]]
    else:
        assert got.violation == violation
    return violation and violation.split(" (")[0].split(" is not")[0]


def product_frame(m, n):
    elements = tuple(product(range(m), range(n)))
    leq = frozenset((a, b) for a in elements for b in elements
                    if a[0] <= b[0] and a[1] <= b[1])
    return FiniteFrame(elements, leq, bottom=(0, 0), top=(m - 1, n - 1))


def _frames():
    frames = {f"chain{n}": FiniteFrame.chain(tuple(range(n))) for n in range(2, 8)}
    for m, n in ((2, 2), (2, 3), (2, 4), (3, 3)):
        frames[f"product{m}x{n}"] = product_frame(m, n)
    seen = set()
    for i, (model, _) in enumerate(powerset_zoo(3) + identity_zoo(5, dens=DENS)):
        frame = opens_frame(model.space)
        if frame.elements not in seen:
            seen.add(frame.elements)
            frames[f"zoo{i}"] = frame
    return frames


FRAMES = _frames()
CASES = [(name, d) for name, frame in FRAMES.items() for d in DENS
         if (d + 1) ** len(frame) <= LIMIT]


@pytest.mark.parametrize("name,d", CASES)
def test_points_match_brute_force(name, d):
    frame, lattice = FRAMES[name], make_lattice(d)
    assert [p.values for p in points(frame, lattice, LIMIT)] == \
        [p.values for p in brute_points(frame, lattice)]


def test_spatial_matches_oracle():
    checked = 0
    for name, d in CASES:
        frame, lattice = FRAMES[name], make_lattice(d)
        assert is_spatial(frame, lattice, LIMIT) == oracle_is_spatial(frame, lattice), name
        checked += 1
    assert checked > 50


def _spaces():
    spaces = [m.space for m, _ in powerset_zoo(3) + identity_zoo(5, dens=DENS)]
    for name, d in CASES:
        if not name.startswith("zoo"):
            spaces.append(point_topology(FRAMES[name], make_lattice(d), LIMIT))
    return [s for s in spaces if len(s.lattice) ** len(s.opens) <= LIMIT]


def test_sober_and_duality_match_oracle():
    sober = 0
    for space in _spaces():
        verdict = oracle_is_sober(space)
        assert is_sober(space, LIMIT) == verdict
        if verdict:
            sober += 1
            assert duality_check(space, LIMIT).items == oracle_duality_items(space)
        else:
            with pytest.raises(NotSoberError):
                duality_check(space, LIMIT)
    assert sober > 10


NON_DISTRIBUTIVE = {
    "M3": [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"),
           ("c", "top")],
    "N5": [("bot", "a"), ("a", "c"), ("bot", "b"), ("c", "top"), ("b", "top")],
}


@pytest.mark.parametrize("name", list(FRAMES) + list(NON_DISTRIBUTIVE))
def test_is_frame_matches_reference(name):
    if name in NON_DISTRIBUTIVE:
        frame = FiniteFrame.from_order(("bot", "a", "b", "c", "top"), NON_DISTRIBUTIVE[name])
        assert check_is_frame(frame) == "distributivity fails on"
    else:
        assert check_is_frame(FRAMES[name]) is None


def test_property_is_frame_matches_reference():
    # Random tables over at most 6 elements: arbitrary relations, their
    # reflexive closures, and partial orders, bounded or not.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tables(draw):
        n = draw(st.integers(1, 6))
        index = st.integers(0, n - 1)
        pairs = draw(st.sets(st.tuples(index, index), max_size=2 * n * n))
        bottom, top = draw(index), draw(index)
        kind = draw(st.sampled_from(["any", "reflexive", "order", "bounded order"]))
        if kind != "any":
            pairs |= {(a, a) for a in range(n)}
        if kind.endswith("order"):  # upward along a drawn ranking, then closed
            rank = draw(st.permutations(range(n)))
            pairs = naive_order({(a, b) for a, b in pairs if rank[a] <= rank[b]})
        if kind == "bounded order":
            bottom, top = rank.index(0), rank.index(n - 1)
            pairs = naive_order(pairs | {(bottom, a) for a in range(n)}
                                | {(a, top) for a in range(n)})
        return FiniteFrame(tuple(range(n)), frozenset(pairs), bottom, top)

    def bowtie(low, high):
        # 0 < both of low < both of high < 5: a bounded non-lattice
        pairs = {(0, a) for a in low} | {(a, b) for a in low for b in high} \
            | {(b, 5) for b in high} | {(a, a) for a in range(6)}
        return FiniteFrame(tuple(range(6)), frozenset(naive_order(pairs)), 0, 5)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(tables())
    @hypothesis.example(bowtie((1, 2), (3, 4)))  # no join for (1, 2)
    @hypothesis.example(bowtie((3, 4), (1, 2)))  # no meet for (1, 2)
    def check(frame):
        outcomes.add(check_is_frame(frame))

    outcomes = set()
    check()
    assert outcomes == {  # every kind of verdict was drawn
        "order not reflexive", "order not antisymmetric", "order not transitive",
        "designated bottom", "designated top", "no meet for", "no join for",
        "distributivity fails on", None}


def naive_order(pairs):
    """The transitive closure of a set of pairs."""
    closed = set(pairs)
    while True:
        more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


@pytest.mark.parametrize("name", list(NON_DISTRIBUTIVE))
def test_points_refuse_non_distributive_lattices(name):
    lattice = FiniteFrame.from_order(("bot", "a", "b", "c", "top"), NON_DISTRIBUTIVE[name])
    with pytest.raises(PreconditionError):
        points(lattice, make_lattice(1))
    with pytest.raises(PreconditionError):
        is_spatial(lattice, make_lattice(2))


def test_points_beyond_the_old_guard():
    # the old guard counted (d+1)^|frame| = 2^13 assignments, above the
    # default 4096; there are only 12 multichains to try
    chain13 = FiniteFrame.chain(tuple(range(13)))
    pts = points(chain13, make_lattice(1))
    assert [[g.num for g in p.values] for p in pts] == \
        [[0] * k + [1] * (13 - k) for k in range(12, 0, -1)]


def _refuse(*_):
    raise AssertionError("work started before the guard")


def test_guard_counts_the_order_pairs(monkeypatch):
    # a 65-chain at d=1: 65^2 = 4225 ordered element pairs for is_frame,
    # against 64 multichains and 2 grades
    monkeypatch.setattr("fgml.frames.is_frame", _refuse)
    with pytest.raises(ResourceLimitError) as exc:
        points(FiniteFrame.chain(tuple(range(65))), make_lattice(1))
    assert exc.value.size == 65 ** 2


def test_guard_counts_the_multichains(monkeypatch):
    # the subsets of a 3-set at d=31: C(3 + 31 - 1, 31) = 528 multichains
    # of the 3 singletons, against 8^2 = 64 element pairs and 32 grades
    cube = tuple(product((0, 1), repeat=3))
    frame = FiniteFrame.from_order(cube, [(a, b) for a in cube for b in cube
                                          if all(x <= y for x, y in zip(a, b))])
    lattice = make_lattice(31)
    assert len(points(frame, lattice, 528)) == 3  # the atoms are pairwise incomparable
    monkeypatch.setattr("fgml.frames.is_frame", _refuse)
    monkeypatch.setattr(GradeLattice, "values", property(_refuse))
    with pytest.raises(ResourceLimitError) as exc:
        points(frame, lattice, 527)
    assert exc.value.size == 528

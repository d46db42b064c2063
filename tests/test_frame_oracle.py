"""Point enumeration read off join-irreducibles against brute force.

brute_points is the reference: it tries every assignment of grades to
frame elements, in lexicographic order, and keeps the frame
homomorphisms into the grade chain, as fgml did before `points` used
Birkhoff's representation. The oracle_* functions are the sobriety,
spatiality and duality checks as they were then, each building its
points and point space afresh on top of brute_points. Points, their
order and every verdict must agree exactly.
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
    is_sober,
    is_spatial,
    make_lattice,
    opens_frame,
    point_topology,
    points,
)
from fgml.errors import NotSoberError, PreconditionError, ResourceLimitError
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


@pytest.mark.parametrize("pairs", [
    [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")],
    [("bot", "a"), ("a", "c"), ("bot", "b"), ("c", "top"), ("b", "top")],
], ids=["M3", "N5"])
def test_points_refuse_non_distributive_lattices(pairs):
    lattice = FiniteFrame.from_order(("bot", "a", "b", "c", "top"), pairs)
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


def test_guard_counts_the_frame_check_triples(monkeypatch):
    # a 17-chain at d=1: 17^3 triples for is_frame, against 16 multichains
    # and 2 grades
    monkeypatch.setattr("fgml.frames.is_frame", _refuse)
    with pytest.raises(ResourceLimitError) as exc:
        points(FiniteFrame.chain(tuple(range(17))), make_lattice(1))
    assert exc.value.size == 17 ** 3


def test_guard_counts_the_multichains(monkeypatch):
    # the subsets of a 3-set at d=31: C(3 + 31 - 1, 31) = 528 multichains
    # of the 3 singletons, against 8^3 = 512 triples and 32 grades
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

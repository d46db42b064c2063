"""The packed-field kernel against grade-by-grade reference operations.

The ref_* functions are the reference: they work on tuples of Grade
objects, one per atom, as fgml did before fuzzy sets were stored as
bitmasks. Every kernel result must have exactly the grades
the reference computes, and the same key() and str(). The round-trip
tests pin the boundary itself: grades given to the checked constructor
come back unchanged from .grades, key() and calls.
"""

from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    direct_image,
    fs_complement,
    fs_join,
    fs_leq,
    fs_meet,
    dual_lifting,
    fuzzy_powerset_functor,
    inverse_image,
    make_lattice,
    relation_image,
    relation_preimage,
)
from fgml.fuzzyset import _from_bits, all_fuzzy_sets
from fgml.grades import Grade, complement, join, meet

from modelgen import fuzzy_lifting, identity_zoo, powerset_zoo


def ref_meet(a, b):
    return tuple(meet(x, y) for x, y in zip(a, b))


def ref_join(a, b):
    return tuple(join(x, y) for x, y in zip(a, b))


def ref_leq(a, b):
    return all(x.num <= y.num for x, y in zip(a, b))


def ref_complement(a):
    return tuple(complement(g) for g in a)


def ref_subsets(n, lattice):
    return list(product(lattice.values, repeat=n))


def ref_dia_at(nu, mu, lattice):
    g = lattice.bottom
    for a, b in zip(nu, mu):
        g = join(g, meet(a, b))
    return g


def ref_box_at(nu, mu, lattice):
    g = lattice.top
    for a, b in zip(nu, mu):
        g = meet(g, join(complement(a), b))
    return g


def ref_dia(mu, n, lattice):
    return tuple(ref_dia_at(nu, mu, lattice) for nu in ref_subsets(n, lattice))


def ref_box(mu, n, lattice):
    return tuple(ref_box_at(nu, mu, lattice) for nu in ref_subsets(n, lattice))


def ref_direct_image(f, a, lattice):
    best = {s: lattice.bottom for s in f.target}
    for e, g in zip(f.source.elements, a):
        best[f(e)] = join(best[f(e)], g)
    return tuple(best[s] for s in f.target)


def ref_inverse_image(f, b):
    at = dict(zip(f.target.elements, b))
    return tuple(at[f(e)] for e in f.source)


def ref_relation_image(rel, a, lattice):
    at = dict(zip(rel.left.elements, a))
    best = {r: lattice.bottom for r in rel.right}
    for l, r in rel.pairs:
        best[r] = join(best[r], at[l])
    return tuple(best[r] for r in rel.right)


def ref_relation_preimage(rel, b, lattice):
    at = dict(zip(rel.right.elements, b))
    best = {l: lattice.bottom for l in rel.left}
    for l, r in rel.pairs:
        best[l] = join(best[l], at[r])
    return tuple(best[l] for l in rel.left)


def ref_str(carrier, grades):
    return "{" + ", ".join(f"{e}:{g}" for e, g in zip(carrier.elements, grades)) + "}"


ZOO = {
    "powerset3": lambda: powerset_zoo(3),
    "powerset2-dia-box": lambda: powerset_zoo(2, dens=(1, 2, 3),
                                              modalities=("dia", "box")),
    "identity5": lambda: identity_zoo(5, dens=(1, 2, 3)),
}


@pytest.fixture(scope="module", params=sorted(ZOO))
def zoo(request):
    return ZOO[request.param]()


def _spaces(zoo):
    """Each distinct space of the zoo, with its opens."""
    seen = set()
    for m, _ in zoo:
        if m.space not in seen:
            seen.add(m.space)
            yield m.space, m.space.sorted_opens()


def _maps(carrier):
    """The identity, every constant map, and a cyclic shift."""
    elems = carrier.elements
    yield CarrierMap.identity(carrier)
    for e in elems:
        yield CarrierMap(carrier, carrier, tuple(e for _ in elems))
    yield CarrierMap(carrier, carrier, elems[1:] + elems[:1])


def _relations(carrier):
    """Empty, diagonal, full, and each element to itself and its successor."""
    elems = carrier.elements
    yield Relation.of(carrier, carrier, [])
    yield Relation.diagonal(carrier)
    yield Relation.of(carrier, carrier, product(elems, repeat=2))
    yield Relation.of(carrier, carrier, [*zip(elems, elems), *zip(elems, elems[1:])])


def _same(kernel, carrier, lattice, grades):
    """The kernel's result has exactly the reference grades, and equals
    (with an equal hash) the set the checked constructor builds from them."""
    assert kernel.grades == grades
    expected = FuzzySet(carrier, lattice, grades)
    assert kernel == expected and hash(kernel) == hash(expected)


def test_lattice_operations_match_reference(zoo):
    for space, opens in _spaces(zoo):
        carrier, lattice = space.carrier, space.lattice
        for a in opens:
            _same(fs_complement(a), carrier, lattice, ref_complement(a.grades))
            for b in opens:
                _same(fs_meet(a, b), carrier, lattice, ref_meet(a.grades, b.grades))
                _same(fs_join(a, b), carrier, lattice, ref_join(a.grades, b.grades))
                assert fs_leq(a, b) == ref_leq(a.grades, b.grades)


def test_key_and_str_match_reference(zoo):
    for space, opens in _spaces(zoo):
        for a in opens:
            grades = tuple(a(e) for e in space.carrier)
            assert a.grades == grades
            assert a.key() == tuple(g.num for g in grades)
            assert str(a) == ref_str(space.carrier, grades)
            assert a.as_dict() == dict(zip(space.carrier.elements, grades))


def test_liftings_match_reference(zoo):
    for space, opens in _spaces(zoo):
        n, lattice = len(space.carrier), space.lattice
        _, sig = fuzzy_powerset_functor(lattice, ("dia", "box"))
        for mu in opens:
            for name, ref in (("dia", ref_dia), ("box", ref_box)):
                lifted = sig.lifting(name).apply(space, (mu,))
                _same(lifted, lifted.carrier, lattice, ref(mu.grades, n, lattice))


def test_images_match_reference(zoo):
    for space, opens in _spaces(zoo):
        carrier, lattice = space.carrier, space.lattice
        for f in _maps(carrier):
            for a in opens:
                _same(direct_image(f, a), carrier, lattice,
                      ref_direct_image(f, a.grades, lattice))
                _same(inverse_image(f, a), carrier, lattice,
                      ref_inverse_image(f, a.grades))
        for rel in _relations(carrier):
            for a in opens:
                _same(relation_image(rel, a), carrier, lattice,
                      ref_relation_image(rel, a.grades, lattice))
                _same(relation_preimage(rel, a), carrier, lattice,
                      ref_relation_preimage(rel, a.grades, lattice))


def test_structure_map_pullbacks_match_reference(zoo):
    for m, sig in zoo:
        image = sig.functor.on_space(m.space)
        sigma = CarrierMap(m.space.carrier, image.carrier, m.sigma.assignment)
        for o in image.sorted_opens():
            _same(inverse_image(sigma, o), m.space.carrier, m.space.lattice,
                  ref_inverse_image(sigma, o.grades))


def _ref_lift(name, mu, space):
    """The reference lift of the grades mu at every value of T S, in the
    carrier order of `on_space`: mu itself for "id"."""
    n, lattice = len(space.carrier), space.lattice
    return mu if name == "id" else {"dia": ref_dia, "box": ref_box}[name](mu, n, lattice)


def _by_hand(lifting):
    """The lifting rebuilt on fuzzy sets from the reference, through the
    test adapter `fuzzy_lifting`: its grade at each value read at."""
    def raw(space, args, at):
        mu, lattice = args[0].grades, space.lattice
        if lifting.name == "id":
            return FuzzySet(at, lattice, tuple(mu[space.carrier.index(s)] for s in at))
        ref = {"dia": ref_dia_at, "box": ref_box_at}[lifting.name]
        return FuzzySet(at, lattice, tuple(ref(nu.grades, mu, lattice) for nu in at))
    return fuzzy_lifting(f"{lifting.name}_by_hand", 1, lifting.functor, raw, lifting.keeps)


def test_kernels_along_sigma_match_the_reference_lift(zoo):
    """Each lifting's kernel along sigma, its dual's and its rebuilt
    `fuzzy_lifting`'s, against the pullback along sigma of the reference
    lift at all of T S (for the dual, of the complement of the reference
    lift of the complement)."""
    for m, sig in zoo:
        space, lattice = m.space, m.space.lattice
        image = sig.functor.on_space(space)
        sigma = CarrierMap(space.carrier, image.carrier, m.sigma.assignment)
        for lifting in sig.liftings:
            kernels = [lifting.kernel(space, m.sigma), _by_hand(lifting).kernel(space, m.sigma)]
            dual = dual_lifting(lifting).kernel(space, m.sigma)
            for mu in space.sorted_opens():
                want = ref_inverse_image(sigma, _ref_lift(lifting.name, mu.grades, space))
                for kernel in kernels:
                    assert _from_bits(space.carrier, lattice, kernel(mu.bits)).grades == want
                dual_want = ref_inverse_image(sigma, ref_complement(
                    _ref_lift(lifting.name, ref_complement(mu.grades), space)))
                assert _from_bits(space.carrier, lattice, dual(mu.bits)).grades == dual_want


@pytest.mark.parametrize("d, n", [(1, 0), (1, 4), (2, 3), (3, 3), (4, 2)])
def test_enumeration_round_trips(d, n):
    lattice = make_lattice(d)
    carrier = Carrier(tuple("abcd"[:n]))
    sets = all_fuzzy_sets(carrier, lattice)
    assert [s.grades for s in sets] == ref_subsets(n, lattice)
    for s, grades in zip(sets, ref_subsets(n, lattice)):
        _same(s, carrier, lattice, grades)
        assert s.key() == tuple(g.num for g in grades)
    assert len(set(sets)) == len(sets)


def test_property_cuts_hash_and_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def two_sets(draw):
        d = draw(st.integers(1, 6))
        n = draw(st.integers(0, 9))
        nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
        return d, draw(nums), draw(nums)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(two_sets())
    def check(case):
        d, xs, ys = case
        lattice = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(len(xs))))
        a = FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in xs))
        b = FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in ys))
        n = len(xs)
        for s in (a, b, fs_meet(a, b), fs_join(a, b), fs_complement(a)):
            # one d-bit field per atom, the first most significant, grade
            # k/d as the field's k low bits, nothing at or above bit n*d
            assert s.bits >> n * d == 0
            assert [s.bits >> (n - 1 - i) * d & (1 << d) - 1 for i in range(n)] == \
                [(1 << k) - 1 for k in s.key()]
        assert a.bits == sum(((1 << k) - 1) << (n - 1 - i) * d for i, k in enumerate(xs))
        assert a.key() == tuple(xs) and [g.num for g in a.grades] == xs
        assert [a(e).num for e in carrier] == xs
        assert FuzzySet(carrier, lattice, a.grades) == a
        assert fs_meet(a, b).key() == tuple(map(min, xs, ys))
        assert fs_join(a, b).key() == tuple(map(max, xs, ys))
        assert fs_complement(a).key() == tuple(d - x for x in xs)
        assert fs_leq(a, b) == all(x <= y for x, y in zip(xs, ys))
        assert (a == b) == (xs == ys)
        if a == b:
            assert hash(a) == hash(b)

    check()


def test_property_bits_order_is_the_key_order():
    # sorted_opens sorts on `bits`: its int order must be the order of key()
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def families(draw):
        d = draw(st.integers(1, 6))
        n = draw(st.integers(0, 9))
        nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
        return d, n, draw(st.lists(nums, max_size=12))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(families())
    def check(case):
        d, n, family = case
        lattice = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))
        sets = [FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in xs)) for xs in family]
        assert sorted(sets, key=lambda f: f.bits) == sorted(sets, key=FuzzySet.key)
        assert [f.key() for f in sorted(sets, key=FuzzySet.key)] == sorted(map(tuple, family))

    check()

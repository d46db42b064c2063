"""The semi-naive closure engine against naive round-by-round closure.

The naive_* functions are the reference: each round re-combines every
pair (every argument tuple) of the current family, as fgml did before
its least fixpoints moved onto one engine. Results must agree exactly,
down to dict order and the formula each definable open keeps. Topology
generation and validation sweep packed families instead; their
references are the naive closure and the pairwise scan over fuzzy sets.
Modal equivalence classes come from a formula-free closure; their
reference is the partition read off `definable_opens`. `fgml classes
--depth K` reads its oracle partition off `_depth_labels`, the depth-K
closure on packed bits whose last round only lifts; its references are
the partition read off the formulas of `naive_enumerate_formulas` at
depth K, and enumerating the formulas and evaluating each again.
"""

import json
from itertools import product

import pytest

from fgml import (
    And,
    Carrier,
    FuzzySet,
    Grade,
    Modal,
    Or,
    Prop,
    Signature,
    Top,
    definable_opens,
    dual_lifting,
    enumerate_formulas,
    evaluate,
    fs_complement,
    fs_join,
    fs_leq,
    fs_meet,
    fuzzy_powerset_functor,
    generate_topology,
    identity_functor,
    is_topology,
    make_lattice,
    modal_equivalence_classes,
    quotient_model,
)
from fgml.cli import LoadedModel, load_document, load_model, model_to_document, run_command
from fgml.errors import ResourceLimitError
from fgml.frames import FiniteFrame
from fgml.fuzzyset import DEFAULT_MAX_SIZE
from fgml.logic import _depth_labels
from fgml.topology import FuzzySpace, TopologyCheck

from modelgen import (
    complete_identity_model,
    complete_powerset_model,
    fuzzy_lifting,
    identity_zoo,
    powerset_zoo,
    pullback_closed_document,
)


def naive_generate_topology(carrier, lattice, subbasis, max_size=DEFAULT_MAX_SIZE):
    current = {FuzzySet.empty(carrier, lattice), FuzzySet.full(carrier, lattice)}
    current.update(subbasis)

    def close(op):
        while True:
            ordered = sorted(current, key=lambda f: f.key())
            fresh = {c for i, a in enumerate(ordered) for b in ordered[i:]
                     if (c := op(a, b)) not in current}
            if not fresh:
                return
            current.update(fresh)
            if len(current) > max_size:
                raise ResourceLimitError("topology generation", len(current), max_size)

    close(fs_meet)
    close(fs_join)
    return frozenset(current)


def naive_is_topology(space):
    opens = space.sorted_opens()
    if space.bottom_open not in space.opens:
        return TopologyCheck(False, "constant-0 fuzzy set missing")
    if space.top_open not in space.opens:
        return TopologyCheck(False, "constant-1 fuzzy set missing")
    for i, a in enumerate(opens):
        for b in opens[i:]:
            if fs_meet(a, b) not in space.opens:
                return TopologyCheck(False, f"meet of {a} and {b} not open")
            if fs_join(a, b) not in space.opens:
                return TopologyCheck(False, f"join of {a} and {b} not open")
    return TopologyCheck(True)


def naive_definable_opens(m, sig):
    found = {m.space.top_open: Top(), m.space.bottom_open: Or(())}
    for name, v in m.valuation:
        found.setdefault(v, Prop(name))
    while True:
        items = list(found.items())
        fresh = []

        def offer(fs, formula):
            if fs not in found and all(fs != g for g, _ in fresh):
                fresh.append((fs, formula))

        for i, (fa, pa) in enumerate(items):
            for fb, pb in items[i:]:
                offer(fs_meet(fa, fb), And(pa, pb))
                offer(fs_join(fa, fb), Or((pa, pb)))
        for lifting in sig.liftings:
            for combo in product(items, repeat=lifting.arity):
                args = tuple(fs for fs, _ in combo)
                formulas = tuple(p for _, p in combo)
                image = m.lift(lifting, args)
                offer(image, Modal(lifting.name, formulas))
        if not fresh:
            return found
        for fs, formula in fresh:
            found[fs] = formula


def naive_enumerate_formulas(models, sig, depth):
    reps = {}
    for formula in [Top(), Or(())] + [Prop(p) for p in models[0].props]:
        reps.setdefault(tuple(evaluate(m, sig, formula) for m in models), formula)
    for _ in range(depth):
        current = list(reps.items())
        fresh = {}

        def offer(key, formula):
            if key not in reps and key not in fresh:
                fresh[key] = formula

        for i, (va, fa) in enumerate(current):
            for vb, fb in current[i:]:
                offer(tuple(fs_meet(a, b) for a, b in zip(va, vb)), And(fa, fb))
                offer(tuple(fs_join(a, b) for a, b in zip(va, vb)), Or((fa, fb)))
        for lifting in sig.liftings:
            for combo in product(current, repeat=lifting.arity):
                formula = Modal(lifting.name, tuple(f for _, f in combo))
                key = tuple(
                    m.lift(lifting, tuple(v[i] for v, _ in combo))
                    for i, m in enumerate(models))
                offer(key, formula)
        if not fresh:
            break
        reps.update(fresh)
    return list(reps.values())


def naive_transitive_closure(elements, pairs):
    rel = {(a, a) for a in elements} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


ZOO = {
    "powerset3": lambda: powerset_zoo(3),
    "powerset2-dia-box": lambda: powerset_zoo(2, dens=(1, 2, 3),
                                              modalities=("dia", "box")),
    "identity5": lambda: identity_zoo(5, dens=(1, 2, 3)),
}


@pytest.fixture(scope="module", params=sorted(ZOO))
def zoo(request):
    return ZOO[request.param]()


def _labelled(pairs):
    return [(key, str(formula)) for key, formula in pairs]


def test_definable_opens_match_naive(zoo):
    for m, sig in zoo:
        assert _labelled(definable_opens(m, sig).items()) == \
            _labelled(naive_definable_opens(m, sig).items())


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enumerate_formulas_match_naive(zoo, depth):
    for m, sig in zoo:
        assert [str(f) for f in enumerate_formulas([m], sig, depth)] == \
            [str(f) for f in naive_enumerate_formulas([m], sig, depth)]
    sig = zoo[0][1]
    models = [m for m, s in zoo if s is sig and m.props == zoo[0][0].props][:3]
    assert [str(f) for f in enumerate_formulas(models, sig, depth)] == \
        [str(f) for f in naive_enumerate_formulas(models, sig, depth)]


def _generations(zoo):
    """Subbases from each model: the opens with their complements on the
    carrier, and the liftings of the opens on the image carrier."""
    for m, sig in zoo:
        space = m.space
        opens = space.sorted_opens()
        yield space.carrier, space.lattice, [*opens, *map(fs_complement, opens)]
        image = sig.functor.on_space(space)
        lifted = [lifting.apply(space, args) for lifting in sig.liftings
                  for args in product(opens, repeat=lifting.arity)]
        yield image.carrier, space.lattice, lifted


def test_generate_topology_matches_naive(zoo):
    for carrier, lattice, gens in _generations(zoo):
        assert generate_topology(carrier, lattice, gens).opens == \
            naive_generate_topology(carrier, lattice, gens)


def test_sorted_opens_is_the_key_order(zoo):
    # sorted_opens sorts on the packed bits; the numerator tuples must agree
    for m, _ in zoo:
        assert m.space.sorted_opens() == tuple(sorted(m.space.opens, key=FuzzySet.key))
    for carrier, lattice, gens in _generations(zoo):
        space = generate_topology(carrier, lattice, gens)
        assert space.sorted_opens() == tuple(sorted(space.opens, key=FuzzySet.key))


def test_is_topology_matches_naive(zoo):
    # Each generated topology, and the family left by dropping one of its
    # non-constant opens (every one, or about 20 spread over a large family).
    checked = failed = 0
    for carrier, lattice, gens in _generations(zoo):
        space = generate_topology(carrier, lattice, gens)
        opens = [o for o in space.sorted_opens()
                 if o not in (space.bottom_open, space.top_open)]
        spaces = [space] + [FuzzySpace(carrier, lattice, space.opens - {o})
                            for o in opens[::max(1, len(opens) // 20)]]
        for candidate in spaces:
            got, want = is_topology(candidate), naive_is_topology(candidate)
            assert (got.ok, got.violation) == (want.ok, want.violation)
            checked += 1
            failed += not got.ok
    assert failed and checked > failed


def _tripped_size(generate, *args):
    try:
        generate(*args)
    except ResourceLimitError as exc:
        return exc.size
    return None


def test_guard_trips_at_the_naive_size(zoo):
    # The engine trips on exactly the inputs the naive loop trips on, but
    # as soon as the family passes the limit: at limit + 1, or one past the
    # starting family (constants plus subbasis) when that is already over.
    sizes = []
    for carrier, lattice, gens in _generations(zoo):
        limit = len(generate_topology(carrier, lattice, gens).opens) // 2
        size = _tripped_size(generate_topology, carrier, lattice, gens, limit)
        naive = _tripped_size(naive_generate_topology, carrier, lattice, gens, limit)
        assert (size is None) == (naive is None)
        if size is not None:
            start = {FuzzySet.empty(carrier, lattice), FuzzySet.full(carrier, lattice),
                     *gens}
            assert size == max(limit, len(start)) + 1
            sizes.append(size)
    assert sizes


def test_guard_bounds_the_work_of_a_round():
    # This image topology grows from 222 to 3521 opens in one join round;
    # the next round offers about 6.2M pairs, and the guard must stop it
    # at the first open past the limit rather than after the round.
    with pytest.raises(ResourceLimitError) as exc:
        powerset_zoo(3, modalities=("dia", "box"))
    assert (exc.value.size, exc.value.limit) == (DEFAULT_MAX_SIZE + 1, DEFAULT_MAX_SIZE)


def test_from_order_matches_naive(zoo):
    for m, _ in zoo:
        opens = m.space.sorted_opens()
        below = [(a, b) for a in opens for b in opens if a != b and fs_leq(a, b)]
        covers = [(a, b) for a, b in below
                  if not any(fs_leq(a, c) and fs_leq(c, b)
                             for c in opens if c not in (a, b))]
        frame = FiniteFrame.from_order(opens, covers)
        assert frame.leq == naive_transitive_closure(opens, covers)
        assert frame.leq == frozenset((a, a) for a in opens) | frozenset(below)
        assert (frame.bottom, frame.top) == (m.space.bottom_open, m.space.top_open)


def test_property_generate_topology_matches_naive():
    # Random subbases over 4-6 states; a small max_size often trips the guard.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 3))
        n = draw(st.integers(4, 6))
        nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
        subbasis = draw(st.lists(nums, max_size=5))
        limit = draw(st.sampled_from([2, 4, 8, 16, 32, DEFAULT_MAX_SIZE]))
        return d, n, subbasis, limit

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        d, n, subbasis, limit = case
        lattice = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))
        gens = [FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in nums))
                for nums in subbasis]
        size = _tripped_size(generate_topology, carrier, lattice, gens, limit)
        naive = _tripped_size(naive_generate_topology, carrier, lattice, gens, limit)
        assert (size is None) == (naive is None)
        outcomes.add(size is None)
        if size is None:
            assert generate_topology(carrier, lattice, gens, limit).opens == \
                naive_generate_topology(carrier, lattice, gens, limit)
        else:
            start = {FuzzySet.empty(carrier, lattice), FuzzySet.full(carrier, lattice),
                     *gens}
            assert size == max(limit, len(start)) + 1

    outcomes = set()
    check()
    assert outcomes == {True, False}  # both closed and tripped cases were drawn


def definable_partition(m, sig):
    """States grouped by their grades on every member of `definable_opens`,
    classes by first member: the partition before the formula-free closure."""
    opens = list(definable_opens(m, sig))
    groups = {}
    for s in m.space.carrier:
        groups.setdefault(tuple(o(s) for o in opens), []).append(s)
    return tuple(map(tuple, groups.values()))


def _signatures(sig, binary=False):
    """The signature, the empty one, the signature with its duals, an
    antitone lifting (the complement of the first lifting: `neg` for the
    identity functor), the signature's declared liftings beside that
    undeclared one, the first lifting of the complement (`dia` of it
    sends joins to neither joins nor meets), if asked a binary lifting
    antitone in its second argument, and last the meet of the first
    lifting and the first of the complement (`dia(mu) & dia(1 - mu)`,
    read on every open: it keeps neither joins nor meets, and its values
    on the co-primes do not fix the partition)."""
    first = sig.liftings[0]
    yield sig
    yield Signature(sig.functor, ())
    yield Signature(sig.functor, sig.liftings + tuple(map(dual_lifting, sig.liftings)))
    neg = fuzzy_lifting("neg", 1, sig.functor,
                        lambda space, args, at: fs_complement(first.apply(space, args, at)))
    yield Signature(sig.functor, (neg,))
    yield Signature(sig.functor, sig.liftings + (neg,))
    yield Signature(sig.functor, (fuzzy_lifting(
        "of_not", 1, sig.functor,
        lambda space, args, at: first.apply(space, (fs_complement(args[0]),), at)),))
    if binary:
        yield Signature(sig.functor, (fuzzy_lifting(
            "but", 2, sig.functor,
            lambda space, args, at: fs_meet(
                first.apply(space, args[:1], at),
                fs_complement(first.apply(space, args[1:], at)))),))
    yield Signature(sig.functor, (fuzzy_lifting(
        "both_ways", 1, sig.functor, lambda space, args, at: fs_meet(
            first.apply(space, args, at), first.apply(space, (fs_complement(args[0]),), at))),))


def test_classes_match_definable_opens(zoo):
    coarse = 0
    for m, sig in zoo:
        small = len(m.space.carrier) <= 3 and m.space.lattice.den <= 2
        for variant in _signatures(sig, binary=small):
            classes = modal_equivalence_classes(m, variant)
            assert classes == definable_partition(m, variant)
            coarse += len(classes) < len(m.space.carrier)
    assert coarse  # some partitions need the whole closure, not the early stop


def test_classes_need_the_lattice_closure():
    # s and t agree on both valuations and on the pullback of each; only
    # the pullback of their meet (dia) or their join (box) separates s and t.
    lat = make_lattice(1)
    carrier = Carrier(("u", "v", "w", "s", "t"))

    def crisp(*names):
        return FuzzySet(carrier, lat, tuple(lat.grade(int(e in names)) for e in carrier))

    cases = [("dia", {"p": crisp("u", "w"), "q": crisp("v", "w")}, ("u", "v"), ("w",)),
             ("box", {"p": crisp("u"), "q": crisp("v")}, ("u", "v"), ("u", "w"))]
    for modality, valuation, succ_s, succ_t in cases:
        _, sig = fuzzy_powerset_functor(lat, (modality,))
        sigma_sets = {e: crisp() for e in carrier} | {"s": crisp(*succ_s), "t": crisp(*succ_t)}
        m = complete_powerset_model(carrier, lat, sigma_sets, valuation, sig)
        assert modal_equivalence_classes(m, sig) == definable_partition(m, sig) \
            == tuple((e,) for e in carrier)


def test_classes_read_an_undeclared_lifting_on_every_open():
    # p = {b, c, d} and its both-ways lift {a, b, d} are the co-primes of
    # the topology they generate. Only the lift of their meet {b, d} sets b
    # apart from d: it is {a, d}, as the successors of a and d meet both
    # {b, d} and its complement, and those of b and c do not. Read on the
    # co-primes alone, the lifting leaves b and d in one class.
    lat = make_lattice(1)
    carrier = Carrier(("a", "b", "c", "d"))

    def crisp(*names):
        return FuzzySet(carrier, lat, tuple(lat.grade(int(e in names)) for e in carrier))

    base = fuzzy_powerset_functor(lat, ("dia",))[1]
    sig = next(variant for variant in _signatures(base) if variant.names == ("both_ways",))
    sigma_sets = {"a": crisp("a", "c", "d"), "b": crisp("a", "c"), "c": crisp("b"),
                  "d": crisp("a", "c", "d")}
    m = complete_powerset_model(carrier, lat, sigma_sets, {"p": crisp("b", "c", "d")}, sig)
    assert modal_equivalence_classes(m, sig) == definable_partition(m, sig) \
        == tuple((e,) for e in carrier)


def test_an_undeclared_lifting_is_read_under_the_guard():
    # an undeclared lifting is read on every member of the topology the
    # generators generate, a binary one on every pair of them: both refuse
    # past the guard, in `classes` and in `quotient`, as `bisim` does
    lat = make_lattice(1)
    base = fuzzy_powerset_functor(lat, ("dia",))[1]
    unary = next(variant for variant in _signatures(base) if variant.names == ("both_ways",))
    binary = next(variant for variant in _signatures(base, binary=True)
                  if variant.names == ("but",))
    assert unary.liftings[0].keeps is None and binary.liftings[0].arity == 2
    four, two = Carrier(("a", "b", "c", "d")), Carrier(("a", "b"))

    def crisp(carrier, *names):
        return FuzzySet(carrier, lat, tuple(lat.grade(int(e in names)) for e in carrier))

    models = [
        (complete_powerset_model(four, lat, {"a": crisp(four, "a", "c", "d"),
                                             "b": crisp(four, "a", "c"), "c": crisp(four, "b"),
                                             "d": crisp(four, "a", "c", "d")},
                                 {"p": crisp(four, "b", "c", "d")}, unary), unary,
         ((1, 2), (4, 5)), 5),  # the fifth member first passes a guard of 4
        (complete_powerset_model(two, lat, {"a": crisp(two), "b": crisp(two, "a", "b")},
                                 {"p": crisp(two, "a", "b")}, binary), binary,
         ((1, 2), (3, 4)), 4)]  # two members make four pairs
    message = "definable open enumeration needs {} entries, above the guard of {}"
    for m, sig, refusals, enough in models:
        for guard, size in refusals:
            with pytest.raises(ResourceLimitError, match=message.format(size, guard)):
                modal_equivalence_classes(m, sig, guard)
            with pytest.raises(ResourceLimitError, match=message.format(size, guard)):
                quotient_model(m, sig, guard)
        assert modal_equivalence_classes(m, sig, enough) == definable_partition(m, sig)
        assert quotient_model(m, sig, enough).classes == definable_partition(m, sig)


def test_binary_liftings_pull_back_old_with_new_members():
    # The first round adds only constant-0 (but(top, top)); b leaves the
    # class of a only on but(top, 0) = dia(top), an old member with a new one.
    lat = make_lattice(1)
    carrier = Carrier(("a", "b"))
    full, empty = FuzzySet.full(carrier, lat), FuzzySet.empty(carrier, lat)
    sig = next(variant for variant in _signatures(
        fuzzy_powerset_functor(lat, ("dia",))[1], binary=True) if variant.names == ("but",))
    m = complete_powerset_model(carrier, lat, {"a": empty, "b": full}, {"p": full}, sig)
    assert modal_equivalence_classes(m, sig) == definable_partition(m, sig) == (("a",), ("b",))


def _random_models(st):
    """Random models of both functors; powerset models with dia, box or both."""

    @st.composite
    def models(draw):
        d = draw(st.integers(1, 2))
        lat = make_lattice(d)
        identity = draw(st.booleans())
        modalities = draw(st.sampled_from([("dia",), ("box",), ("dia", "box")]))
        n = draw(st.integers(1, 5 if identity else 2 if len(modalities) > 1 else 3))
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))
        grades = st.lists(st.integers(0, d), min_size=n, max_size=n).map(
            lambda nums: FuzzySet(carrier, lat, tuple(map(lat.grade, nums))))
        valuation = dict(zip(("p", "q"), draw(st.lists(grades, max_size=2))))
        if identity:
            _, sig = identity_functor()
            assignment = draw(st.lists(st.sampled_from(carrier.elements),
                                       min_size=n, max_size=n))
            return complete_identity_model(carrier, lat, tuple(assignment),
                                           valuation, sig), sig
        _, sig = fuzzy_powerset_functor(lat, modalities)
        sigma_sets = {s: draw(grades) for s in carrier}
        return complete_powerset_model(carrier, lat, sigma_sets, valuation, sig), sig

    return models()


def test_property_classes_match_definable_opens():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_random_models(st), st.integers(0, 7))
    def check(case, variant):
        m, sig = case
        sig = list(_signatures(sig, binary=True))[variant]
        classes = modal_equivalence_classes(m, sig)
        assert classes == definable_partition(m, sig)
        assert quotient_model(m, sig).classes == classes
        outcomes.add(len(classes) == len(m.space.carrier))

    outcomes = set()
    check()
    assert outcomes == {True, False}  # both early-stop and full-closure cases drawn


def closure_partition(m, sig, depth):
    """States grouped by their grades on every formula the naive closure
    keeps at that depth: the oracle partition of `classes --depth`."""
    values = [evaluate(m, sig, f) for f in naive_enumerate_formulas([m], sig, depth)]
    groups = {}
    for s in m.space.carrier:
        groups.setdefault(tuple(v(s) for v in values), set()).add(s)
    return {frozenset(g) for g in groups.values()}


def check_depth_labels(m, sig, depths=range(6)):
    """`_depth_labels` partitions the states as `closure_partition` does at
    each depth; returns the number of depths whose last round split a
    block, where a helper that skipped that round's lifts would fail (its
    meets and joins split none)."""
    splits, previous = 0, None
    for depth in depths:
        groups = {}
        for s, label in zip(m.space.carrier, _depth_labels(m, sig, depth)):
            groups.setdefault(label, set()).add(s)
        expected = closure_partition(m, sig, depth)
        assert {frozenset(g) for g in groups.values()} == expected, depth
        splits += previous is not None and expected != previous
        previous = expected
    return splits


def test_depth_labels_match_the_formula_closure(zoo):
    for m, sig in zoo:
        small = len(m.space.carrier) <= 3 and m.space.lattice.den <= 2
        for variant in _signatures(sig, binary=small):
            check_depth_labels(m, variant)


@pytest.mark.parametrize("n,seed", [(8, 5), (12, 8)])
def test_depth_labels_on_chain_documents(n, seed):
    # the documents whose depth-bounded oracle is coarser than the closure
    # up to depth 2 and 3: later rounds keep splitting blocks
    lm = load_document(pullback_closed_document(1, n, seed, duplicate=True))
    assert check_depth_labels(lm.model, lm.signature) >= 2


def test_property_depth_labels_match_the_formula_closure():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(_random_models(st), st.integers(0, 7))
    def check(case, variant):
        m, sig = case
        splits.append(check_depth_labels(m, list(_signatures(sig, binary=True))[variant]))

    splits = []
    check()
    assert any(splits)


def test_property_closures_match_naive():
    # the one closure engine against both naive closures, for every
    # signature variant: members, their order and each one's first formula
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(_random_models(st))
    def check(case):
        m, base = case
        for sig in _signatures(base, binary=True):
            assert _labelled(definable_opens(m, sig).items()) == \
                _labelled(naive_definable_opens(m, sig).items())
            for depth in range(4):
                assert [str(f) for f in enumerate_formulas([m], sig, depth)] == \
                    [str(f) for f in naive_enumerate_formulas([m], sig, depth)]

    check()


@pytest.mark.parametrize("make,sizes", [
    (lambda: powerset_zoo(2, dens=(2,), modalities=("dia", "box")), (1, 2)),
    (lambda: identity_zoo(5, dens=(2,)), (3, 5))], ids=["powerset", "identity"])
def test_joint_closure_on_carriers_of_different_sizes(make, sizes):
    # a joint vector packs each model's fields above the next one's, so on
    # carriers of different widths each order puts the fields at other offsets
    zoo = make()
    pick = [next((m, sig) for m, sig in zoo if len(m.space.carrier) == n and m.props == ("p",))
            for n in sizes]
    (first, sig), (second, _) = pick
    for variant in _signatures(sig, binary=True):
        for models in ([first, second], [second, first]):
            for depth in range(4):
                assert [str(f) for f in enumerate_formulas(models, variant, depth)] == \
                    [str(f) for f in naive_enumerate_formulas(models, variant, depth)]


def enumerate_then_evaluate(m, sig, depth):
    """Exit code and text lines of `fgml classes --depth` as it was when it
    enumerated the formulas and evaluated each one again."""
    classes = modal_equivalence_classes(m, sig)
    lines = [" ".join(c) for c in classes]
    if depth:
        values = [evaluate(m, sig, f) for f in enumerate_formulas([m], sig, depth)]
        by_vector = {}
        for s in m.space.carrier.elements:
            by_vector.setdefault(tuple(v(s) for v in values), []).append(s)
        oracle = [frozenset(c) for c in by_vector.values()]
        if not all(any(set(c) <= o for o in oracle) for c in classes):
            return 2, []
        if {frozenset(c) for c in classes} != set(oracle):
            lines.append(f"note: oracle at depth {depth} is coarser than the closure partition")
    return 0, lines


def check_cli_classes(path, capsys):
    """`fgml classes --depth K` for K = 0-3 against the enumerate-then-
    evaluate path; returns the number of "coarser" notes printed."""
    lm, notes = load_model(str(path)), 0
    for depth in range(4):
        code = run_command(["classes", "-m", str(path), "--depth", str(depth)])
        lines = capsys.readouterr().out.splitlines()
        assert (code, lines) == enumerate_then_evaluate(lm.model, lm.signature, depth)
        notes += lines[-1].startswith("note:")
    return notes


def test_cli_classes_match_enumerate_then_evaluate(zoo, tmp_path, capsys):
    # the oracle partition is read off the depth-K closure's own vectors
    for i, (m, sig) in enumerate(zoo):
        path = tmp_path / f"zoo{i}.json"
        path.write_text(json.dumps(model_to_document(LoadedModel(
            m, sig, m.space.lattice, sig.functor.name, sig.names, {}, {}))))
        check_cli_classes(path, capsys)


def test_cli_classes_on_a_pullback_closed_document(tmp_path, capsys):
    # s8 copies s7, so the two are modally equivalent; two more states
    # share a class as well
    path = tmp_path / "pullback.json"
    path.write_text(json.dumps(pullback_closed_document(1, 8, 5, duplicate=True)))
    lm = load_model(str(path))
    assert run_command(["--json", "classes", "-m", str(path)]) == 0
    classes = json.loads(capsys.readouterr().out)["classes"]
    assert classes == [list(c) for c in definable_partition(lm.model, lm.signature)]
    assert ["s7", "s8"] in classes and len(classes) < 8


@pytest.mark.parametrize("n,seed,notes", [(8, 5, 2), (12, 8, 3)])
def test_cli_classes_notes_match_enumerate_then_evaluate(tmp_path, capsys, n, seed, notes):
    # crisp states along sigma chains: the depth-bounded oracle is coarser
    # than the closure up to depth `notes`
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(pullback_closed_document(1, n, seed, duplicate=True)))
    assert check_cli_classes(path, capsys) == notes

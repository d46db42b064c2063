import os
import random
import subprocess
import sys
from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    FuzzySpace,
    Model,
    Relation,
    coherent_pairs,
    greatest_sigma_bisimulation,
    identity_functor,
    is_am_bisimulation,
    is_coherent,
    is_sigma_bisimulation,
    make_lattice,
)
from fgml.bisim import AmBisimReport, BisimReport, BisimWitness
from fgml.errors import CarrierMismatchError, LatticeMismatchError, PreconditionError
from fgml.signature import Signature
from fgml.topology import generate_topology, indiscrete_space

from bisim_oracles import (
    am_implies_sigma_suite,
    coherence_lemma_check,
    sigma_implies_modal_suite,
)
from modelgen import (
    complete_identity_model,
    duplicate_state,
    fuzzy_lifting,
    identity_zoo,
    m1_model,
    powerset_zoo,
)

D2 = make_lattice(2)
XY = Carrier(("x", "y"))
U = Carrier(("u",))


def fs(carrier, *nums):
    return FuzzySet(carrier, D2, tuple(D2.grade(k) for k in nums))


# ----------------------------------------------------------- coherent pairs

def test_empty_relation_everything_coherent():
    empty = Relation.of(XY, U, [])
    assert is_coherent(empty, fs(XY, 2, 1), fs(U, 0))


def test_identity_relation_diagonal_coherent():
    ident = Relation.diagonal(XY)
    mu = fs(XY, 1, 2)
    assert is_coherent(ident, mu, mu)


def test_incoherent_example():
    r = Relation.of(Carrier(("x",)), U, [("x", "u")])
    assert not is_coherent(r, fs(Carrier(("x",)), 2), fs(U, 1))


def test_constant_pairs_always_coherent():
    for pairs in ([], [("x", "u")], [("x", "u"), ("y", "u")]):
        r = Relation.of(XY, U, pairs)
        assert is_coherent(r, fs(XY, 0, 0), fs(U, 0))
        assert is_coherent(r, fs(XY, 2, 2), fs(U, 2))


def test_coherent_pairs_is_filtered_enumeration():
    space1 = generate_topology(XY, D2, [fs(XY, 2, 1)])
    space2 = indiscrete_space(U, D2)
    r = Relation.of(XY, U, [("x", "u")])
    expected = tuple((mu, eta)
                     for mu in space1.sorted_opens()
                     for eta in space2.sorted_opens()
                     if is_coherent(r, mu, eta))
    assert coherent_pairs(r, space1, space2) == expected
    assert (space1.bottom_open, space2.bottom_open) in expected
    assert (space1.top_open, space2.top_open) in expected
    # zoo model pairs on one lattice: diagonal (on shared names), empty,
    # full and seeded random relations
    rng = random.Random(4)
    zoo = [m for m, _ in powerset_zoo(3) + identity_zoo(5, dens=(1, 2, 3))]
    for m1, m2 in product(zoo, repeat=2):
        space1, space2 = m1.space, m2.space
        if space1.lattice != space2.lattice:
            continue
        c1, c2 = space1.carrier, space2.carrier
        full = [(a, b) for a in c1 for b in c2]
        for pairs in ([(a, a) for a in c1 if a in c2], [], full,
                      [p for p in full if rng.random() < 0.5]):
            r = Relation.of(c1, c2, pairs)
            assert coherent_pairs(r, space1, space2) == tuple(
                (mu, eta) for mu in space1.sorted_opens()
                for eta in space2.sorted_opens() if is_coherent(r, mu, eta))


def test_property_coherent_pairs_match_is_coherent():
    # random relations between zoo spaces on one lattice: the hash join on
    # pullbacks against is_coherent over opens x opens
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    zoo = [m.space for m, _ in powerset_zoo(3) + identity_zoo(5, dens=(1, 2, 3))]
    couples = [(s1, s2) for s1, s2 in product(zoo, repeat=2) if s1.lattice == s2.lattice]

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(couples), st.data())
    def check(spaces, data):
        space1, space2 = spaces
        full = list(product(space1.carrier, space2.carrier))
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        r = Relation.of(space1.carrier, space2.carrier,
                        [p for p, k in zip(full, keep) if k])
        got = coherent_pairs(r, space1, space2)
        assert got == tuple((mu, eta) for mu in space1.sorted_opens()
                            for eta in space2.sorted_opens() if is_coherent(r, mu, eta))
        sizes.add(len(got) > 2)  # more than the two pairs of constants

    sizes = set()
    check()
    assert sizes == {True, False}


def test_coherence_lemma_identity_and_random():
    space = generate_topology(XY, D2, [fs(XY, 2, 1), fs(XY, 1, 2)])
    assert coherence_lemma_check(Relation.diagonal(XY), space, space)
    universe = [(a, b) for a in XY for b in XY]
    for mask in range(1, 1 << len(universe)):
        pairs = {universe[i] for i in range(len(universe)) if mask >> i & 1}
        rel = Relation.of(XY, XY, pairs)
        assert coherence_lemma_check(rel, space, space)


def test_coherence_lemma_rejects_empty():
    space = indiscrete_space(XY, D2)
    with pytest.raises(PreconditionError):
        coherence_lemma_check(Relation.of(XY, XY, []), space, space)


# ------------------------------------------------------- sigma bisimulation

def test_empty_relation_vacuously_sigma():
    m1, sig = m1_model()
    empty = Relation.of(m1.space.carrier, m1.space.carrier, [])
    assert is_sigma_bisimulation(empty, m1, m1, sig).verdict


def test_diagonal_is_sigma_bisimulation():
    for model, sig in powerset_zoo(2):
        diag = Relation.diagonal(model.space.carrier)
        report = is_sigma_bisimulation(diag, model, model, sig)
        assert report.verdict, str(report)


def test_prop_mismatch_witnessed():
    m1, sig = m1_model()
    cross = Relation.of(m1.space.carrier, m1.space.carrier, [("x", "y")])
    report = is_sigma_bisimulation(cross, m1, m1, sig)
    assert not report.verdict
    assert report.witnesses[0].prop == "p"
    assert "prop" in report.witnesses[0].describe()


def test_greatest_on_m1_is_diagonal():
    m1, sig = m1_model()
    rel = greatest_sigma_bisimulation(m1, m1, sig)
    assert rel.sorted_pairs() == (("x", "x"), ("y", "y"))


def test_greatest_with_duplicate_states():
    m1, sig = m1_model()
    dup = duplicate_state(m1, sig, "y", "y2")
    rel = greatest_sigma_bisimulation(dup, dup, sig)
    assert set(rel.pairs) == {("x", "x"), ("y", "y"), ("y2", "y2"),
                              ("y", "y2"), ("y2", "y")}


def test_greatest_empty_when_props_disjoint():
    lat = make_lattice(2)
    carrier = Carrier(("a",))
    functor, sig = identity_functor()
    m_hi = complete_identity_model(carrier, lat, ("a",),
                                   {"p": FuzzySet(carrier, lat, (lat.grade(2),))},
                                   sig)
    m_lo = complete_identity_model(carrier, lat, ("a",),
                                   {"p": FuzzySet(carrier, lat, (lat.grade(0),))},
                                   sig)
    rel = greatest_sigma_bisimulation(m_hi, m_lo, sig)
    assert not rel.pairs


def _all_relations(c1: Carrier, c2: Carrier):
    universe = [(a, b) for a in c1 for b in c2]
    for mask in range(1 << len(universe)):
        yield Relation.of(c1, c2, {universe[i] for i in range(len(universe))
                                   if mask >> i & 1})


def test_greatest_matches_bruteforce_union():
    zoo = [mz for mz in powerset_zoo(2) if len(mz[0].space.carrier) == 2]
    for model, sig in zoo:
        union = set()
        for rel in _all_relations(model.space.carrier, model.space.carrier):
            if is_sigma_bisimulation(rel, model, model, sig).verdict:
                union |= rel.pairs
        greatest = greatest_sigma_bisimulation(model, model, sig)
        assert union == greatest.pairs
        assert is_sigma_bisimulation(
            Relation.of(model.space.carrier, model.space.carrier, union),
            model, model, sig).verdict


def test_refinement_never_exceeds_pair_budget():
    for model, sig in powerset_zoo(2):
        n = len(model.space.carrier) ** 2
        rel = greatest_sigma_bisimulation(model, model, sig)
        assert len(rel.pairs) <= n


# ------------------------------------------------------------ AM bisimulation

def test_am_identity_relation_identity_functor():
    functor, sig = identity_functor()
    carrier = Carrier(("a", "b"))
    vp = FuzzySet(carrier, D2, (D2.grade(2), D2.grade(1)))
    model = complete_identity_model(carrier, D2, ("b", "a"), {"p": vp}, sig)
    diag = Relation.diagonal(carrier)
    report = is_am_bisimulation(diag, model, model, sig)
    assert report.verdict
    gamma = report.mediating
    # the mediating map mirrors the structure map on the diagonal
    for a in carrier:
        assert gamma((a, a)) == (model.sigma(a), model.sigma(a))


SEPARATOR_NAMES = ("x,y", "(x", "y)", "\\")  # what a "(l,r)" name would have to escape


def renamed(model, names):
    """The model with its i-th state called names[i]."""
    lat, old = model.space.lattice, model.space.carrier
    carrier = Carrier(names[:len(old)])

    def move(v):
        return FuzzySet(carrier, lat, v.grades)

    if model.sigma.target == old:  # identity functor: sigma goes into the states
        to = dict(zip(old, carrier))
        sigma = CarrierMap(carrier, carrier, tuple(to[t] for t in model.sigma.assignment))
    else:
        sigma = CarrierMap.onto(carrier, [move(v) for v in model.sigma.assignment])
    return Model.create(FuzzySpace(carrier, lat, frozenset(map(move, model.space.opens))),
                        sigma, {name: move(v) for name, v in model.valuation})


def test_separator_names_keep_coherent_pairs_and_am_verdicts():
    rng = random.Random(11)
    verdicts = set()
    for model, sig in identity_zoo(3) + powerset_zoo(3):
        n = len(model.space.carrier)
        other = renamed(model, SEPARATOR_NAMES)
        for picks in ([(i, i) for i in range(n)],
                      rng.sample(list(product(range(n), repeat=2)), min(3, n * n))):
            rel, twin = (Relation.of(m.space.carrier, m.space.carrier,
                                     [(m.space.carrier.elements[i], m.space.carrier.elements[j])
                                      for i, j in picks]) for m in (model, other))
            assert twin.pair_carrier().elements == tuple(
                (SEPARATOR_NAMES[i], SEPARATOR_NAMES[j]) for i, j in sorted(picks))
            assert [(a.key(), b.key()) for a, b in coherent_pairs(twin, other.space, other.space)] \
                == [(a.key(), b.key()) for a, b in coherent_pairs(rel, model.space, model.space)]
            verdict = is_am_bisimulation(rel, model, model, sig).verdict
            assert is_am_bisimulation(twin, other, other, sig).verdict == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_am_diagonal_on_m1():
    m1, sig = m1_model()
    report = is_am_bisimulation(Relation.diagonal(m1.space.carrier), m1, m1, sig)
    assert report.verdict
    assert report.mediating is not None


def test_am_rejects_prop_disagreement():
    m1, sig = m1_model()
    cross = Relation.of(m1.space.carrier, m1.space.carrier, [("x", "y")])
    report = is_am_bisimulation(cross, m1, m1, sig)
    assert not report.verdict
    assert report.witnesses[0].prop == "p"


def test_am_empty_relation_vacuous():
    m1, sig = m1_model()
    empty = Relation.of(m1.space.carrier, m1.space.carrier, [])
    assert is_am_bisimulation(empty, m1, m1, sig).verdict


def test_reports_refuse_a_verdict_their_witnesses_contradict():
    # a public report holds witnesses iff its verdict is negative, also
    # under `python -O`, which drops assert statements
    witness = BisimWitness(("x", "x"), note="a witness")
    for report in (BisimReport, AmBisimReport):
        for verdict, witnesses in ((True, (witness,)), (False, ())):
            with pytest.raises(ValueError, match="witnesses iff its verdict is negative"):
                report(verdict, witnesses)
        assert report(True).verdict and not report(False, (witness,)).verdict
    code = ("from fgml.bisim import BisimReport\n"
            "try:\n    BisimReport(True, (1,))\nexcept ValueError:\n    raise SystemExit(3)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src)).returncode == 3


def test_am_blocking_pair_reported():
    # structure images differ so no mediating value can project onto both
    functor, sig = identity_functor()
    carrier = Carrier(("a", "b"))
    vp = FuzzySet.constant(carrier, D2, D2.grade(1))
    m_id = complete_identity_model(carrier, D2, ("a", "b"), {"p": vp}, sig)
    m_swap = complete_identity_model(carrier, D2, ("b", "a"), {"p": vp}, sig)
    rel = Relation.of(carrier, carrier, [("a", "a")])
    report = is_am_bisimulation(rel, m_id, m_swap, sig)
    assert not report.verdict
    assert report.witnesses[0].note is not None


def test_every_check_refuses_models_it_cannot_compare():
    # each prop is the top grade, so only the lattice or the prop name differs
    _, sig = identity_functor()

    def model(lat, prop):
        return complete_identity_model(XY, lat, ("x", "y"),
                                       {prop: FuzzySet.constant(XY, lat, lat.top)}, sig)

    m, diag = model(D2, "p"), Relation.diagonal(XY)
    for other, error, message in (
            (model(make_lattice(1), "p"), LatticeMismatchError,
             "the two spaces use different grade lattices"),
            (model(D2, "q"), PreconditionError, "models value different proposition sets")):
        for check in (lambda: is_sigma_bisimulation(diag, other, m, sig),
                      lambda: greatest_sigma_bisimulation(other, m, sig),
                      lambda: is_am_bisimulation(diag, other, m, sig)):
            with pytest.raises(error, match=message):
                check()


def test_relation_on_other_carriers_is_refused():
    # a relation must connect the two models' carriers, as for `bisim am`,
    # also when every pair it holds names states of both models
    _, sig = identity_functor()
    m = complete_identity_model(XY, D2, ("x", "y"), {"p": FuzzySet.constant(XY, D2, D2.top)}, sig)
    for left, right in ((Carrier(("x",)), XY), (XY, Carrier(("x", "y", "z")))):
        rel = Relation.of(left, right, [("x", "x")])
        for check in (is_sigma_bisimulation, is_am_bisimulation):
            with pytest.raises(CarrierMismatchError, match="relation does not connect"):
                check(rel, m, m, sig)


# ------------------------------------------------------------------ suites

def test_am_implies_sigma_exhaustive_small():
    zoo = [mz for mz in powerset_zoo(2) if len(mz[0].space.carrier) <= 2]
    for model, sig in zoo[:6]:
        report = am_implies_sigma_suite(model, model, sig)
        assert report.ok, str(report)


def test_am_implies_sigma_cross_models():
    zoo = [mz for mz in powerset_zoo(2)
           if len(mz[0].space.carrier) == 2 and mz[0].space.lattice.den == 2
           and mz[0].props == ("p",)]
    (ma, sig), (mb, _) = zoo[0], zoo[1]
    report = am_implies_sigma_suite(ma, mb, sig)
    assert report.ok, str(report)


def test_am_suite_requires_monotone():
    functor, _ = identity_functor()
    from fgml.fuzzyset import fs_complement

    antitone = fuzzy_lifting("neg", 1, functor, lambda space, args, at: fs_complement(args[0]))
    sig = Signature(functor, (antitone,))
    carrier = Carrier(("a",))
    vp = FuzzySet.constant(carrier, D2, D2.grade(2))
    model = complete_identity_model(carrier, D2, ("a",), {"p": vp}, sig)
    with pytest.raises(PreconditionError):
        am_implies_sigma_suite(model, model, sig)


def test_sigma_implies_modal_on_duplicates():
    m1, sig = m1_model()
    dup = duplicate_state(m1, sig, "y", "y2")
    report = sigma_implies_modal_suite(dup, dup, sig)
    assert report.ok, str(report)
    assert any("(y, y2)" in line for line in report.lines)


def test_sigma_implies_modal_across_zoo():
    zoo = [mz for mz in powerset_zoo(2) if len(mz[0].space.carrier) == 2]
    for model, sig in zoo:
        report = sigma_implies_modal_suite(model, model, sig, depth=2)
        assert report.ok, str(report)


def test_am_accepted_implies_sigma_pointwise():
    m1, sig = m1_model()
    for rel in _all_relations(m1.space.carrier, m1.space.carrier):
        am = is_am_bisimulation(rel, m1, m1, sig)
        if am.verdict:
            assert is_sigma_bisimulation(rel, m1, m1, sig).verdict

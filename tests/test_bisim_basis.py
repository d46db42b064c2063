"""The Sigma checks on the bases of the coherent pairs against the
oracles of `bisim_oracles`: the coherent bases against the alternating
fixpoint, and the greatest Sigma-bisimulation, both verdicts and the
witness lists against the full table and against the pair-dropping
refinement on fuzzy-set lifts, over zoo models and models on random
topologies."""

import json
import os
import random
import resource
import subprocess
import sys
import time
from functools import cache
from itertools import product
from operator import and_, or_

import pytest

from fgml import (
    Carrier,
    FuzzySet,
    Relation,
    coherent_pairs,
    fs_join,
    fs_meet,
    fuzzy_powerset_functor,
    greatest_sigma_bisimulation,
    identity_functor,
    is_sigma_bisimulation,
    make_lattice,
)
from fgml.bisim import _coherent_primes, _moves
from fgml.cli import load_model, run_command
from fgml.errors import ResourceLimitError
from fgml.fuzzyset import _from_bits, fs_complement
from fgml.signature import Lifting, Signature, dual_lifting
from fgml.topology import _read_on

from bisim_oracles import (
    alternating_coherent_basis,
    basis_sigma_check,
    full_table_greatest,
    full_table_sigma_check,
    pair_dropping_greatest,
)
from modelgen import (
    FIXTURES,
    complete_identity_model,
    complete_powerset_model,
    fuzzy_lifting,
    generated_chain_document,
    identity_zoo,
    powerset_zoo,
)

DENS = (1, 2, 3)
POWERSET_MODS = (("dia",), ("box",), ("dia", "box"))


def _random_set(rng, carrier, lat):
    return FuzzySet(carrier, lat, tuple(lat.grade(rng.randint(0, lat.den)) for _ in carrier))


def _random_models(rng, n, lat, sig, powerset):
    """Two models on n states whose topologies are completed from random
    extra opens, so they differ from the zoo's."""
    carrier = Carrier(tuple("abc"[:n]))
    for _ in range(2):
        valuation = {"p": _random_set(rng, carrier, lat)}
        extra = [_random_set(rng, carrier, lat) for _ in range(rng.randint(0, 2))]
        if powerset:
            sigma = {e: _random_set(rng, carrier, lat) for e in carrier}
            yield complete_powerset_model(carrier, lat, sigma, valuation, sig, extra)
        else:
            assignment = tuple(rng.choice(carrier.elements) for _ in carrier)
            yield complete_identity_model(carrier, lat, assignment, valuation, sig, extra)


@cache
def _pool():
    """(signature, first model, second model) on one lattice and one set
    of props: zoo models and random ones, at d up to 3 and at most 3
    states."""
    rng = random.Random(16)
    zoo = identity_zoo(3, dens=DENS)
    sig = zoo[0][1]
    pool = [(sig, [m for m, _ in zoo] + [m for d in DENS for n in (1, 2, 3) for m in
                                         _random_models(rng, n, make_lattice(d), sig, False)])]
    for mods in POWERSET_MODS:
        for d in DENS:
            lat = make_lattice(d)
            sig = fuzzy_powerset_functor(lat, mods)[1]
            # the dia+box image topology of 3 states passes the guard at d = 1 only
            models = [m for m, _ in powerset_zoo(3 if len(mods) == 1 else 2, dens=(d,),
                                                 modalities=mods)]
            models += [m for n in (1, 2) for m in _random_models(rng, n, lat, sig, True)]
            pool.append((sig, models))
    return [(sig, m1, m2) for sig, models in pool for m1, m2 in product(models, repeat=2)
            if m1.space.lattice == m2.space.lattice and m1.props == m2.props]


def _coherent_basis(rel, space1, space2, kinds):
    """The bases of the coherent primes that `bisim` walks to, decoded in
    packed order as `alternating_coherent_basis` gives them, which they
    must equal."""
    d, lattice = space1.lattice.den, space1.lattice
    primes = _coherent_primes(space1, space2, *_moves(rel, d))
    w2 = len(space2.carrier) * d
    bases = {kind: [(_from_bits(space1.carrier, lattice, p >> w2),
                     _from_bits(space2.carrier, lattice, p & (1 << w2) - 1))
                    for p in sorted(_read_on(kind, primes, len(primes), 1 << len(primes), 1,
                                             "oracle"))] for kind in kinds}
    assert bases == alternating_coherent_basis(rel, space1, space2, kinds)
    return bases


def _spans(basis, op):
    """Every op of a nonempty subfamily of the pairs, as (mu, eta) bits."""
    found = set()
    for mu, eta in basis:
        found |= {(mu.bits, eta.bits)} | {(op(mu.bits, a), op(eta.bits, b)) for a, b in found}
    return found


def test_property_bases_span_the_coherent_pairs():
    # the join basis generates every coherent pair by joins, the meet basis
    # by meets, and both consist of coherent pairs
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = _pool()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(cases), st.data())
    def check(case, data):
        _, m1, m2 = case
        full = list(product(m1.space.carrier, m2.space.carrier))
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        rel = Relation.of(m1.space.carrier, m2.space.carrier,
                          [p for p, k in zip(full, keep) if k])
        coherent = {(mu.bits, eta.bits) for mu, eta in coherent_pairs(rel, m1.space, m2.space)}
        bases = _coherent_basis(rel, m1.space, m2.space, {"joins", "meets"})
        n1, n2 = len(m1.space.carrier), len(m2.space.carrier)
        assert len(bases["joins"]) <= (n1 + n2) * m1.space.lattice.den + 1
        assert _spans(bases["joins"], or_) == coherent
        assert _spans(bases["meets"], and_) == coherent

    check()


def test_property_tuple_reading_is_coherent_pairs():
    # the closure of the coherent primes, decoded in packed order, is the
    # enumeration of `coherent_pairs`, pair for pair and in its order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = _pool()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(cases), st.data())
    def check(case, data):
        _, m1, m2 = case
        full = list(product(m1.space.carrier, m2.space.carrier))
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        rel = Relation.of(m1.space.carrier, m2.space.carrier,
                          [p for p, k in zip(full, keep) if k])
        assert _coherent_basis(rel, m1.space, m2.space, {None})[None] \
            == list(coherent_pairs(rel, m1.space, m2.space))

    check()


def _same_as_oracle(rel, m1, m2, sig):
    """The basis and the full table agree on the greatest relation and on
    the check of `rel` and of the greatest; returns the verdicts seen."""
    greatest = greatest_sigma_bisimulation(m1, m2, sig, 10 ** 6)
    assert greatest == full_table_greatest(m1, m2, sig, 10 ** 6)
    verdicts = set()
    for r in (rel, greatest):
        report = is_sigma_bisimulation(r, m1, m2, sig, 10 ** 6)
        oracle = full_table_sigma_check(r, m1, m2, sig, 10 ** 6)
        assert report.witnesses == oracle.witnesses
        assert str(report) == str(oracle)
        verdicts.add(report.verdict)
    return verdicts


def test_property_basis_matches_full_table():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = _pool()
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(cases), st.data(), st.booleans())
    def check(case, data, mixed):
        sig, m1, m2 = case
        full = list(product(m1.space.carrier, m2.space.carrier))
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        rel = Relation.of(m1.space.carrier, m2.space.carrier,
                          [p for p, k in zip(full, keep) if k])
        # the declared liftings, or those beside the undeclared `neg`
        variant = Signature(sig.functor, sig.liftings + (_neg(sig),)) if mixed else sig
        verdicts = _same_as_oracle(rel, m1, m2, variant)
        seen.update((variant.names, v) for v in verdicts)

    check()
    for names in (("id",),) + POWERSET_MODS:
        assert {(names, True), (names, False)} <= seen
        assert {(names + ("neg",), True), (names + ("neg",), False)} <= seen


def _neg(sig):
    """The antitone complement of the first lifting, which declares
    nothing and so takes the full table."""
    first = sig.liftings[0]
    return fuzzy_lifting("neg", 1, sig.functor,
                         lambda space, args, at: fs_complement(first.apply(space, args, at)))


def _but(sig):
    """A binary lifting, the first lifting of its first argument met with
    the complement of the first lifting of its second: antitone in the
    second argument, declaring nothing."""
    first = sig.liftings[0]
    return fuzzy_lifting("but", 2, sig.functor, lambda space, args, at: fs_meet(
        first.apply(space, args[:1], at), fs_complement(first.apply(space, args[1:], at))))


def test_property_refinement_matches_the_pair_dropping_oracle():
    # distinct models, each signature with its duals, beside the antitone
    # `neg` or the binary `but`: the coherent bases equal the alternating
    # fixpoint's (`_coherent_basis` asserts it), the greatest relation the
    # pair-dropping refinement's, and each check its verdict and witnesses
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = [(sig, m1, m2) for sig, m1, m2 in _pool() if m1 != m2]
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(cases), st.integers(0, 3), st.data())
    def check(case, pick, data):
        sig, m1, m2 = case
        extra = (tuple(map(dual_lifting, sig.liftings)), (_neg(sig),), (_but(sig),), ())[pick]
        variant = Signature(sig.functor, sig.liftings + extra)
        full = list(product(m1.space.carrier, m2.space.carrier))
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        rel = Relation.of(m1.space.carrier, m2.space.carrier,
                          [p for p, k in zip(full, keep) if k])
        _coherent_basis(rel, m1.space, m2.space, {"joins", "meets", None})
        greatest = greatest_sigma_bisimulation(m1, m2, variant, 10 ** 6)
        assert greatest == pair_dropping_greatest(m1, m2, variant, 10 ** 6)
        for r in (rel, greatest):
            report = is_sigma_bisimulation(r, m1, m2, variant, 10 ** 6)
            oracle = basis_sigma_check(r, m1, m2, variant, 10 ** 6)
            assert (report.verdict, report.witnesses) == (oracle.verdict, oracle.witnesses)
            seen.add((sig.functor.name, report.verdict))
        seen.add((sig.functor.name, "split") if 0 < len(greatest) < len(full) else None)

    check()
    for functor in ("identity", "fuzzy-powerset"):
        assert {(functor, True), (functor, False), (functor, "split")} <= seen


def _variants(sig):
    """The signature with its duals, `neg` alone, and the signature's
    declared liftings beside `neg`."""
    return (Signature(sig.functor, sig.liftings + tuple(map(dual_lifting, sig.liftings))),
            Signature(sig.functor, (_neg(sig),)),
            Signature(sig.functor, sig.liftings + (_neg(sig),)))


def test_duals_and_undeclared_liftings_match_full_table():
    rng = random.Random(5)
    zoo = identity_zoo(3) + powerset_zoo(2, modalities=("dia", "box"))
    for model, sig in zoo:
        c = model.space.carrier
        full = list(product(c, repeat=2))
        for variant in _variants(sig):
            for pairs in ([(a, a) for a in c], rng.sample(full, rng.randint(0, len(full)))):
                _same_as_oracle(Relation.of(c, c, pairs), model, model, variant)


def test_declared_liftings_keep_what_they_declare():
    zoo = identity_zoo(3, dens=DENS) + powerset_zoo(2, dens=DENS, modalities=("dia", "box"))
    for model, sig in zoo:
        space = model.space
        for lifting in sig.liftings + tuple(map(dual_lifting, sig.liftings)):
            op = {"joins": fs_join, "meets": fs_meet}[lifting.keeps]
            for a, b in product(space.sorted_opens(), repeat=2):
                assert lifting.apply(space, (op(a, b),)) == op(
                    lifting.apply(space, (a,)), lifting.apply(space, (b,)))


def test_keeps_is_declared_not_named():
    functor, sig = identity_functor()
    assert [l.keeps for l in sig.liftings] == ["joins"]
    _, both = fuzzy_powerset_functor(make_lattice(2), ("dia", "box"))
    assert [l.keeps for l in both.liftings] == ["joins", "meets"]
    assert [dual_lifting(l).keeps for l in both.liftings] == ["meets", "joins"]
    by_hand = Lifting("dia", 1, functor, sig.liftings[0].kernel)
    assert by_hand.keeps is None
    with pytest.raises(ValueError):
        Lifting("pair", 2, functor, sig.liftings[0].kernel, keeps="joins")
    with pytest.raises(ValueError):
        Lifting("id", 1, functor, sig.liftings[0].kernel, keeps="both")


def test_basis_answers_where_the_tuple_guard_refused(capsys):
    # 53 coherent pairs pass a guard of 16 only on the basis; the answer
    # is the full table's at a raised guard
    lm = load_model(f"{FIXTURES}/dia_d2n5.json")
    m, sig = lm.model, lm.signature
    with pytest.raises(ResourceLimitError, match="coherent tuple enumeration needs 53"):
        full_table_greatest(m, m, sig, 16)
    greatest = greatest_sigma_bisimulation(m, m, sig, 16)
    assert greatest == full_table_greatest(m, m, sig, 10 ** 6)
    path = f"{FIXTURES}/dia_d2n5.json"
    assert run_command(["--max-size", "16", "bisim", "greatest", "-m", path, "-n", path]) == 0
    assert capsys.readouterr().out.split("\n")[:-1] == [f"{a} {b}" for a, b in greatest.sorted_pairs()]


def test_tuple_guard_refuses_before_every_pair_is_closed(tmp_path, capsys):
    # a negative `bisim check` lists witnesses on every coherent pair; the
    # guard refuses once their closure passes it, not after closing them
    # all (1.7 million pairs at n = 8, out of memory at n = 10)
    def chain(n: int) -> str:
        doc = generated_chain_document(2, n)
        doc["relations"]["pair"] = [["s0", "s1"]]
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    argv = ["bisim", "check", "-r", "pair", "-m", chain(10), "-n", chain(10)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    limit = (1 << 30, 1 << 30)  # a run that closes every pair fails here, not the machine
    proc = subprocess.run([sys.executable, "-m", "fgml", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert proc.returncode == 2
    assert "coherent tuple enumeration needs 4097 entries" in proc.stderr
    assert "Traceback" not in proc.stderr
    start = time.perf_counter()
    assert run_command(argv) == 2
    assert time.perf_counter() - start < 1
    capsys.readouterr()
    # past the default guard at n = 5; a raised one lists the oracle's witnesses
    lm = load_model(path := chain(5))
    m, sig = lm.model, lm.signature
    rel = Relation.of(m.space.carrier, m.space.carrier, lm.relations["pair"])
    report = is_sigma_bisimulation(rel, m, m, sig, 10 ** 5)
    assert report.witnesses == basis_sigma_check(rel, m, m, sig, 10 ** 5).witnesses
    assert run_command(["bisim", "check", "-r", "pair", "-m", path, "-n", path]) == 2
    assert run_command(["--max-size", str(10 ** 5), "bisim", "check", "-r", "pair",
                        "-m", path, "-n", path]) == 1
    assert capsys.readouterr().out == str(report) + "\n"


def test_same_document_is_loaded_once(monkeypatch, capsys):
    import fgml.cli as cli
    loads = []
    monkeypatch.setattr(cli, "load_model", lambda *a: loads.append(a) or load_model(*a))
    path = f"{FIXTURES}/m1.json"
    for mode in (["greatest"], ["check", "-r", "diag"], ["am", "-r", "diag"]):
        assert run_command(["bisim", mode[0], "-m", path, "-n", path] + mode[1:]) == 0
    assert len(loads) == 3
    assert run_command(["bisim", "greatest", "-m", path, "-n", f"{FIXTURES}/dia_d2n5.json"]) == 2
    assert len(loads) == 5

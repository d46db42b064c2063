"""Aczel-Mendler bisimulation without T R.

`is_am_bisimulation` builds neither T R nor the opens of the relation
space: it tries the map of each pair's greatest candidate, reads
continuity on the relation space's primes, and enumerates candidates
only when that map fails, under the one guard `max_size`. The oracle,
`bisim_oracles.image_am_search`, enumerates T R and generates every open
of the relation space. Verdicts and witnesses must agree wherever the
oracle answers; every mediating map goes onto the values it takes,
projects onto both structure maps and is continuous into the eager image
topology read at those values.
"""

import dataclasses
import gc
import json
import re
import weakref
from itertools import product

import pytest

import fgml
from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    FuzzySpace,
    Model,
    Relation,
    Signature,
    direct_image,
    fuzzy_powerset_functor,
    identity_functor,
    inverse_image,
    is_am_bisimulation,
    make_lattice,
    validate_model,
)
from fgml.cli import LoadedModel, load_model, model_to_document
from fgml.errors import CarrierMismatchError, ResourceLimitError

from bisim_oracles import image_am_search
from modelgen import (
    FIXTURES,
    all_opens_subbasis,
    all_opens_subspace_topology,
    complete_identity_model,
    complete_powerset_model,
    identity_zoo,
    powerset_zoo,
    singleton_document,
)
from test_image_subbasis import past_greedy_case
from test_structure_values import _run

BIG = 10 ** 6


def relations(left: Carrier, right: Carrier):
    universe = list(product(left, right))
    for mask in range(1 << len(universe)):
        yield Relation.of(left, right, {p for i, p in enumerate(universe) if mask >> i & 1})


def check_mediating(report, rel: Relation, m1, m2, sig) -> None:
    """A mediating map goes onto its values, projects onto sigma1 and
    sigma2, and pulls each lifting of every open of the relation space,
    read at its values, back to an open: these generate the eager image
    topology read there, and inverse images keep meets and joins."""
    gamma = report.mediating
    assert gamma.source == rel.pair_carrier()
    assert gamma.target.elements == tuple(dict.fromkeys(gamma.assignment))
    pi1, pi2 = rel.projections()
    for (b1, b2), t in zip(rel.sorted_pairs(), gamma.assignment):
        if sig.functor.name == "identity":
            assert t == (m1.sigma(b1), m2.sigma(b2))
        else:
            assert (direct_image(pi1, t), direct_image(pi2, t)) == (m1.sigma(b1), m2.sigma(b2))
    rel_space = all_opens_subspace_topology(rel, m1.space, m2.space, BIG)
    for g in all_opens_subbasis(sig, rel_space, gamma.target):
        assert inverse_image(gamma, g) in rel_space.opens


def agrees_with_oracle(rel: Relation, m1, m2, sig) -> bool | None:
    """The verdict, after checking it, its witnesses and its mediating map
    against the oracle; None where the oracle refuses."""
    try:
        expected = image_am_search(rel, m1, m2, sig, BIG)
    except ResourceLimitError:
        return None
    report = is_am_bisimulation(rel, m1, m2, sig, BIG)
    assert (report.verdict, report.witnesses) == (expected.verdict, expected.witnesses)
    if report.mediating is not None:
        check_mediating(report, rel, m1, m2, sig)
    return report.verdict


def test_am_matches_the_image_oracle_on_the_zoos():
    verdicts = []
    zoo = (powerset_zoo(2, dens=(1, 2)) + powerset_zoo(2, dens=(1,), modalities=("box",))
           + identity_zoo(3, dens=(1,)))
    for m, sig in zoo:
        carrier = m.space.carrier
        verdicts += [agrees_with_oracle(rel, m, m, sig) for rel in relations(carrier, carrier)]
    assert None not in verdicts
    assert len(verdicts) == 1802 and verdicts.count(True) == 129


def test_property_am_matches_the_image_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 2))
        lat = make_lattice(d)
        identity = draw(st.booleans())
        modalities = draw(st.sampled_from([("dia",), ("box",), ("dia", "box")]))
        n = draw(st.integers(1, 3 if identity or len(modalities) == 1 else 2))
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))
        sets = st.lists(st.integers(0, d), min_size=n, max_size=n).map(
            lambda nums: FuzzySet(carrier, lat, tuple(map(lat.grade, nums))))
        _, sig = identity_functor() if identity else fuzzy_powerset_functor(lat, modalities)
        models = []
        for _ in range(1 if draw(st.booleans()) else 2):
            extra = draw(st.lists(sets, max_size=2))
            if identity:
                assignment = tuple(draw(st.sampled_from(carrier.elements)) for _ in carrier)
                models.append(complete_identity_model(
                    carrier, lat, assignment, {"p": FuzzySet.full(carrier, lat)}, sig, extra))
            else:
                sigma = {s: draw(sets) for s in carrier}
                models.append(complete_powerset_model(
                    carrier, lat, sigma, {"p": FuzzySet.full(carrier, lat)}, sig, extra))
        keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        pairs = [p for p, k in zip(product(carrier, carrier), keep) if k]
        rel = Relation.of(carrier, carrier, pairs)
        return rel, models[0], models[-1], sig

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        seen.add(agrees_with_oracle(*case))

    seen = set()
    check()
    assert {True, False} <= seen


def _guard(what: str, total: int, k: int) -> str:
    return f"{what} needs {total} entries, above the guard of {k}; raise max_size to override"


def _document(tmp_path, name: str, m, sig, relations) -> str:
    doc = model_to_document(LoadedModel(m, sig, m.space.lattice, sig.functor.name,
                                        sig.names, relations, {}))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_library_and_cli_refuse_at_the_same_count(tmp_path):
    sig, m, rel = past_greedy_case()
    path = _document(tmp_path, "past", m, sig, {"r": tuple(rel.sorted_pairs())})
    for k, refusal in ((63, _guard("structure value enumeration", 64, 63)),
                       (71, _guard("mediating map search", 72, 71)), (72, None)):
        code, out, err = _run(["--max-size", str(k), "bisim", "am", "-m", path, "-n", path,
                               "-r", "r"])
        lm = load_model(path, k)
        if refusal is None:
            assert is_am_bisimulation(rel, lm.model, lm.model, lm.signature, k).verdict
            assert (code, out, err) == (0, "bisimulation: yes\n", "")
            continue
        with pytest.raises(ResourceLimitError, match=re.escape(refusal)):
            is_am_bisimulation(rel, lm.model, lm.model, lm.signature, k)
        assert (code, out, err) == (2, "", f"error: {refusal}\n")


def test_am_search_past_the_greedy_choice_finds_the_oracle_map():
    sig, m, rel = past_greedy_case()
    report = is_am_bisimulation(rel, m, m, sig)
    assert report.mediating.assignment == image_am_search(rel, m, m, sig).mediating.assignment
    check_mediating(report, rel, m, m, sig)


def _refuse(*args, **kwargs):
    raise AssertionError("T R or the relation space's opens were built")


def test_am_never_builds_t_r_or_the_relation_space(monkeypatch, tmp_path):
    # every fixture that loads, against itself on its diagonal, and the
    # 10-state singleton document whose T R of 3^10 values the parent refused
    paths, expected = [], []
    for name in ("m1", "m1_dup", "dia_d2n5", "chain_d1n8", "tiny_identity"):
        lm = load_model(f"{FIXTURES}/{name}.json")
        diag = Relation.diagonal(lm.model.space.carrier)
        paths.append(_document(tmp_path, name, lm.model, lm.signature,
                               {"diag": tuple(diag.sorted_pairs())}))
        oracle = image_am_search(diag, lm.model, lm.model, lm.signature, BIG)
        expected.append(0 if oracle.verdict else 1)
    singletons = tmp_path / "singletons.json"
    singletons.write_text(json.dumps(singleton_document(2, 10, 3)))
    paths.append(str(singletons))
    expected.append(0)

    original = fgml.fuzzyset.all_fuzzy_sets
    for module in (fgml, fgml.fuzzyset, fgml.topology, fgml.signature, fgml.logic,
                   fgml.bisim, fgml.cli):
        if getattr(module, "all_fuzzy_sets", None) is original:
            monkeypatch.setattr(module, "all_fuzzy_sets", _refuse)
    for module in (fgml, fgml.topology):
        monkeypatch.setattr(module, "subspace_topology", _refuse)
    # a generated topology, such as the relation space, closes its opens only here
    monkeypatch.setattr(fgml.topology.FuzzySpace.packed, "func", _refuse)
    for make in ("fuzzy_powerset_functor", "identity_functor"):
        def without_image(*args, _make=getattr(fgml.cli, make), **kwargs):
            functor, sig = _make(*args, **kwargs)
            functor = dataclasses.replace(functor, on_space=_refuse)
            return functor, Signature(functor, sig.liftings)

        monkeypatch.setattr(fgml.cli, make, without_image)
    got = [_run(["bisim", "am", "-m", path, "-n", path, "-r", "diag"]) for path in paths]
    assert [code for code, _, _ in got] == expected
    assert all(err == "" for _, _, err in got)
    assert expected.count(0) >= 3


def test_identity_am_generates_no_relation_space(monkeypatch):
    # the identity functor's answer is the map of the pairs of structure
    # values: the relation space is never generated, nor searched
    monkeypatch.setattr(fgml.bisim, "_subspace", _refuse)
    verdicts = []
    for m, sig in identity_zoo(3):
        carrier = m.space.carrier
        for rel in relations(carrier, carrier):
            report, expected = is_am_bisimulation(rel, m, m, sig, BIG), image_am_search(rel, m, m, sig, BIG)
            assert (report.verdict, report.witnesses) == (expected.verdict, expected.witnesses)
            if report.verdict:
                assert report.mediating.assignment == expected.mediating.assignment
                check_mediating(report, rel, m, m, sig)
            verdicts.append(report.verdict)
        foreign = Relation.of(Carrier(carrier.elements + ("z",)), carrier, [])
        with pytest.raises(CarrierMismatchError, match="relation does not connect"):
            is_am_bisimulation(foreign, m, m, sig)
    assert {True, False} <= set(verdicts)


def test_identity_am_reads_continuity_from_the_structure_maps():
    # a hand-built identity model whose sigma, the swap of x and y, is not
    # continuous for the opens {}, {x}, {x, y}: validation refuses it, and
    # `is_am_bisimulation` returns the map of the structure values on the
    # diagonal all the same, as it holds only for continuous structure maps
    lat, xy = make_lattice(1), Carrier(("x", "y"))
    _, sig = identity_functor()
    opens = [FuzzySet(xy, lat, tuple(map(lat.grade, nums))) for nums in ((0, 0), (1, 0), (1, 1))]
    m = Model.create(FuzzySpace(xy, lat, frozenset(opens)), CarrierMap(xy, xy, ("y", "x")), {})
    assert not validate_model(m, sig)
    diag = Relation.diagonal(xy)
    report = is_am_bisimulation(diag, m, m, sig)
    assert report.verdict
    assert report.mediating.assignment == (("y", "y"), ("x", "x"))


def test_carriers_of_values_die_once_apply_returns():
    """A lifting keeps nothing of the carrier of values it is read at: each
    carrier that `apply` reads `dia` at, between repeated library checks,
    can be collected once `apply` returns."""
    m, sig = next((m, sig) for m, sig in powerset_zoo(2, dens=(2,)) if len(m.space.carrier) == 2)
    rels = list(relations(m.space.carrier, m.space.carrier))
    assert len(rels) == 16
    dia, refs = sig.lifting("dia"), []
    for rel in rels:
        is_am_bisimulation(rel, m, m, sig)
        at = Carrier(m.sigma.target.elements)
        assert dia.apply(m.space, [m.space.top_open], at).carrier is at
        refs.append(weakref.ref(at))
        del at
    gc.collect()
    assert [r() for r in refs] == [None] * len(rels)

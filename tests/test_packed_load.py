"""Documents load and are written on packed bits.

The loader decodes each fuzzy set of a document straight to its packed
bits (`cli._packed_from_doc`) and declares explicit opens as packed ints,
so a load builds no fuzzy set per open, and `quotient` writes its opens
from their bits. Kept here as the oracle: the loader's checked decoder as
it was before, which sends every object through its checks and builds a
`FuzzySet` through the checked constructor.
"""

import json
from itertools import product
from unittest import mock

import pytest

import fgml.cli as cli
import fgml.fuzzyset as fuzzyset
from fgml.cli import load_document, model_to_document, run_command
from fgml.errors import DocumentError, FgmlError
from fgml.fuzzyset import FuzzySet

from modelgen import FIXTURES, generated_chain_document

ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def checked_fuzzy_set_from_doc(obj, carrier, lattice, what: str) -> FuzzySet:
    """The loader's checked decoder: shape, unknown and missing elements,
    then each grade through the canonical table or `GradeLattice.parse`."""
    table = {str(g): g.num for g in lattice.values}
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object mapping element to grade")
    extra = set(obj) - set(carrier.elements)
    if extra:
        raise DocumentError(f"{what} mentions unknown elements {sorted(extra)}")
    missing = [e for e in carrier if e not in obj]
    if missing:
        raise DocumentError(f"{what} is missing elements {missing}")
    try:
        nums = [table[g] if isinstance(g := obj[e], str) and g in table
                else lattice.parse(g).num for e in carrier]
    except (ValueError, FgmlError) as exc:
        raise DocumentError(f"{what}: {exc}") from None
    return FuzzySet(carrier, lattice, tuple(lattice.grade(k) for k in nums))


def oracle_packed(objs, carrier, lattice, what):
    return [checked_fuzzy_set_from_doc(o, carrier, lattice, what(i)).bits
            for i, o in enumerate(objs)]


def _outcome(doc):
    """The loaded model with its hash and sorted opens, or the error text."""
    try:
        lm = load_document(doc)
    except DocumentError as exc:
        return str(exc)
    return lm.model, hash(lm.model), lm.model.space.sorted_opens()


def _spellings(k: int, d: int):
    """Grade k/d spelled otherwise: forms the checked path reads as k/d,
    then forms it refuses."""
    return [f" {k}/{d}", f"{k}/{d}".translate(ARABIC), f"0{k}/{d}",
            f"{2 * k}/{2 * d}", k, True, None, [k], f"{k}/{d}/"]


def test_property_decode_matches_the_checked_decoder():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"model": 0, "error": 0}

    @st.composite
    def objects(draw, states, d):
        """One document object for a fuzzy set on the states: mostly
        canonical, else keys out of carrier order, a grade spelled
        otherwise, an extra or a missing key, or no object at all."""
        grades = {s: f"{draw(st.integers(0, d))}/{d}" for s in states}
        form = draw(st.sampled_from(["canonical"] * 6 + [
            "reordered", "spelled", "extra", "missing", "swapped", "not an object"]))
        if form == "reordered":
            return dict(draw(st.permutations(list(grades.items()))))
        if form == "spelled" and states:
            s = draw(st.sampled_from(states))
            k = int(grades[s].split("/")[0])
            return {**grades, s: draw(st.sampled_from(_spellings(k, d)))}
        if form == "extra":
            return {**grades, "z": f"0/{d}"}
        if form in ("missing", "swapped") and states:
            rest = dict(list(grades.items())[1:])
            return {**rest, "z": f"0/{d}"} if form == "swapped" else rest
        if form == "not an object":
            return draw(st.sampled_from([[], "a", 1, None, True, [grades]]))
        return grades

    @st.composite
    def documents(draw):
        d, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
        states = ["a", "b", "c"][:n]
        functor = draw(st.sampled_from(["identity", "fuzzy-powerset"]))
        valuation = {name: draw(objects(states, d)) for name in ("p", "q")}
        doc = {"lattice": d, "functor": functor, "carrier": states, "valuation": valuation}
        if draw(st.booleans()):  # every fuzzy set: a topology, bar a dropped one
            opens = [{s: f"{k}/{d}" for s, k in zip(states, nums)}
                     for nums in product(range(d + 1), repeat=n)]
            for i in draw(st.lists(st.integers(0, len(opens) - 1), max_size=2)):
                opens[i] = draw(objects(states, d))
            if draw(st.integers(0, 4)) == 0:
                del opens[draw(st.integers(0, len(opens) - 1))]
            doc["opens"] = opens
        else:
            doc["generate_from"] = draw(st.lists(objects(states, d), max_size=3)) \
                + list(valuation.values())
        if functor == "identity":
            doc["sigma"] = {s: s for s in states}
        else:  # each state to its crisp singleton: continuous in every topology
            doc["sigma"] = {s: draw(objects(states, d)) if draw(st.integers(0, 5)) == 0
                            else {t: f"{d if t == s else 0}/{d}" for t in states}
                            for s in states}
        return doc

    def check(doc):
        got = _outcome(doc)
        with mock.patch.object(cli, "_packed_from_doc", oracle_packed):
            want = _outcome(doc)
        assert got == want
        seen["error" if isinstance(got, str) else "model"] += 1

    hypothesis.settings(max_examples=400, deadline=None, derandomize=True)(
        hypothesis.given(documents())(check))()
    assert seen["model"] > 50 and seen["error"] > 50, seen


def _explicit_documents():
    """Two explicit-opens documents with more than 60 opens and a "diag"
    relation: the closed n = 5 chain (identity functor, 123 opens) and
    every fuzzy set on five states at d = 2 (dia and box, 243 opens), each
    state sent to its crisp singleton."""
    chain = model_to_document(load_document(generated_chain_document(2, 5)))
    states, d = ["a", "b", "c", "d", "e"], 2
    discrete = {"lattice": d, "functor": "fuzzy-powerset", "modalities": ["dia", "box"],
                "carrier": states,
                "opens": [{s: f"{k}/{d}" for s, k in zip(states, nums)}
                          for nums in product(range(d + 1), repeat=len(states))],
                "sigma": {s: {t: f"{d if t == s else 0}/{d}" for t in states} for s in states},
                "valuation": {"p": {"a": "1/2", "b": "2/2", "c": "0/2", "d": "1/2", "e": "0/2"}},
                "relations": {"diag": [[s, s] for s in states]}}
    return {"chain": chain, "discrete": discrete}


@pytest.mark.parametrize("name", ["chain", "discrete"])
def test_loads_build_no_set_per_open(name, tmp_path, monkeypatch, capsys):
    """On explicit opens, `validate`, `eval`, `classes`, the three `bisim`
    modes and `quotient` leave every loaded space without its opens as
    fuzzy sets, and make fewer fuzzy sets of any kind than there are opens."""
    doc = _explicit_documents()[name]
    opens = len(doc["opens"])
    assert opens > 60
    path = str(tmp_path / f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    loaded, made = [], [0]
    load_model, init = cli.load_model, fuzzyset._init

    def recording_load(*args):
        loaded.append(lm := load_model(*args))
        return lm

    def counting_init(*args):  # every FuzzySet, checked or not, is made through _init
        made[0] += 1
        init(*args)

    monkeypatch.setattr(cli, "load_model", recording_load)
    monkeypatch.setattr(fuzzyset, "_init", counting_init)
    modality = doc.get("modalities", ["id"])[0]
    for command in (["validate"], ["eval", "-f", f"<{modality}>(p)"], ["classes"],
                    ["bisim", "greatest", "-n", path],
                    ["bisim", "check", "-n", path, "-r", "diag"],
                    ["bisim", "am", "-n", path, "-r", "diag"],
                    ["quotient"], ["--json", "quotient"]):
        loaded.clear()
        made[0] = 0
        argv = command + ["-m", path]
        assert run_command(argv) == 0, (argv, capsys.readouterr().err)
        assert loaded and all("opens" not in vars(lm.model.space) for lm in loaded), argv
        assert made[0] < opens, (argv, made[0])


@pytest.mark.parametrize("fixture, spelled", [("m1.json", ["dia"]),
                                               ("generated_chain_d2n8.json", ["id"])])
def test_bisim_reads_the_signature_not_its_spelling(fixture, spelled, tmp_path):
    """A document that omits `modalities` and one that spells out the
    default share a signature, so `bisim` compares them (exit 0, where
    comparing the raw `modalities` refused with exit 2)."""
    with open(f"{FIXTURES}/{fixture}", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("modalities", None)
    omitted, spelled_out = tmp_path / "omitted.json", tmp_path / "spelled.json"
    omitted.write_text(json.dumps(doc))
    spelled_out.write_text(json.dumps({**doc, "modalities": spelled}))
    for mode in (["greatest"], ["check", "-r", "diag"], ["am", "-r", "diag"]):
        for first, second in ((omitted, spelled_out), (spelled_out, omitted)):
            argv = ["bisim", mode[0], "-m", str(first), "-n", str(second), *mode[1:]]
            assert run_command(argv) == 0, argv


@pytest.mark.parametrize("name", ["chain", "discrete"])
def test_bisim_and_classes_make_no_set_past_the_load(name, tmp_path, monkeypatch, capsys):
    """`bisim greatest`, a positive `bisim check`, `classes --depth 3`
    and `quotient` read every lifting through the models' packed lifts:
    the first three make no more fuzzy sets than `validate`, which makes
    only the load's (sigma's values and the valuation), and `quotient`
    adds only its own model's: a valuation per proposition and, for the
    powerset functor, each state's structure value moved to the classes
    (counted at `fuzzyset._init`)."""
    doc = _explicit_documents()[name]
    path = str(tmp_path / f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    made, init = [0], fuzzyset._init

    def counting_init(*args):
        made[0] += 1
        init(*args)

    def count(argv):
        made[0] = 0
        assert run_command(argv + ["-m", path]) == 0, (argv, capsys.readouterr().err)
        return made[0]

    monkeypatch.setattr(fuzzyset, "_init", counting_init)
    validate = count(["validate"])
    for argv in (["bisim", "greatest", "-n", path], ["bisim", "check", "-n", path, "-r", "diag"],
                 ["classes", "--depth", "3"]):
        assert count(argv) <= validate, argv
    own = len(doc["valuation"]) + (len(doc["carrier"]) if doc["functor"] != "identity" else 0)
    for argv in (["quotient"], ["--json", "quotient"]):
        assert count(argv) <= validate + own, argv

import json
import os
import subprocess
import sys
import time
from itertools import product

import pytest

from fgml.cli import (
    LoadedModel,
    _fuzzy_set_to_doc,
    _packed_from_doc,
    _json,
    load_document,
    load_model,
    model_to_document,
    run_command,
)
from fgml.errors import DocumentError, FgmlError
from fgml.fuzzyset import Carrier, FuzzySet, _from_bits, _pack
from fgml.grades import make_lattice
from fgml.logic import MAX_NESTING, parse_formula

from modelgen import FIXTURES, duplicate_state, m1_model

M1 = f"{FIXTURES}/m1.json"
BAD = f"{FIXTURES}/bad_sigma.json"
TINY = f"{FIXTURES}/tiny_identity.json"


def test_load_m1():
    lm = load_model(M1)
    assert lm.model.space.carrier.elements == ("x", "y")
    assert lm.functor_name == "fuzzy-powerset"
    assert "diag" in lm.relations


def test_load_minimal_identity_document():
    lm = load_model(TINY)
    assert lm.functor_name == "identity"
    assert len(lm.model.space.carrier) == 1


def test_generate_from_adds_constants():
    lm = load_model(M1)
    assert lm.model.space.bottom_open in lm.model.space.opens
    assert lm.model.space.top_open in lm.model.space.opens


def test_discontinuous_sigma_rejected():
    with pytest.raises(DocumentError) as err:
        load_model(BAD)
    assert "not continuous" in str(err.value)


def test_load_save_load_fixpoint():
    # both documents generate their opens; the saves write them out
    for path in (M1, f"{FIXTURES}/generated_chain_d2n8.json"):
        lm = load_model(path)
        doc = model_to_document(lm)
        lm2 = load_document(doc)
        doc2 = model_to_document(
            LoadedModel(lm2.model, lm2.signature, lm2.lattice, lm2.functor_name,
                        lm2.modalities, lm2.relations, lm2.formulas))
        assert doc == doc2
        assert lm2.model == lm.model


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(DocumentError):
        load_model(str(tmp_path / "nope.json"))
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(DocumentError):
        load_model(str(p))


def test_cli_eval_golden(capsys):
    code = run_command(["eval", "-m", M1, "-f", "<dia>(p)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["x: 1/2", "y: 1/2"]


def test_cli_eval_named_formula(capsys):
    code = run_command(["eval", "-m", M1, "-f", "diap"])
    assert code == 0
    assert "x: 1/2" in capsys.readouterr().out


def test_cli_validate_bad_exit_2(capsys):
    code = run_command(["validate", "-m", BAD])
    assert code == 2
    assert "not continuous" in capsys.readouterr().err


def test_cli_validate_good(capsys):
    assert run_command(["validate", "-m", M1]) == 0
    assert "valid model" in capsys.readouterr().out


def test_cli_bisim_greatest_diagonal(capsys):
    code = run_command(["bisim", "greatest", "-m", M1, "-n", M1])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["x x", "y y"]


def test_cli_bisim_check_verdicts(capsys):
    assert run_command(["bisim", "check", "-m", M1, "-n", M1,
                        "-r", "diag"]) == 0
    assert run_command(["bisim", "check", "-m", M1, "-n", M1,
                        "-r", "cross"]) == 1
    capsys.readouterr()


def test_cli_bisim_am_verdicts(capsys):
    assert run_command(["bisim", "am", "-m", M1, "-n", M1, "-r", "diag"]) == 0
    assert run_command(["bisim", "am", "-m", M1, "-n", M1, "-r", "cross"]) == 1
    capsys.readouterr()


def test_cli_unknown_relation(capsys):
    assert run_command(["bisim", "check", "-m", M1, "-n", M1,
                        "-r", "nope"]) == 2
    capsys.readouterr()


def test_cli_classes_with_oracle(capsys):
    code = run_command(["classes", "-m", M1, "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[:2] == ["x", "y"]


def test_cli_classes_refuses_a_negative_depth(capsys, monkeypatch):
    assert run_command(["classes", "-m", M1, "--depth", "-1"]) == 2
    assert "argument --depth: must not be negative: -1" in capsys.readouterr().err

    def refuse(*args):
        raise AssertionError("--depth 0 runs the depth-bounded oracle")

    monkeypatch.setattr("fgml.cli._depth_labels", refuse)
    assert run_command(["classes", "-m", M1, "--depth", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x", "y"]


def test_cli_classes_runs_no_formula_closure(capsys, monkeypatch):
    # the depth-bounded oracle works on packed bits: no formula is built
    # from the closure's offers and no formula variant is constructed
    def refuse(*args):
        raise AssertionError("classes builds formulas")

    for name in ("_formulas", "Top", "Prop", "And", "Or", "Modal"):
        monkeypatch.setattr(f"fgml.logic.{name}", refuse)
    for depth in ("2", "3"):
        assert run_command(["classes", "-m", M1, "--depth", depth]) == 0
        assert capsys.readouterr().out.splitlines() == ["x", "y"]


def test_cli_quotient(capsys):
    code = run_command(["quotient", "-m", M1])
    out = capsys.readouterr().out
    assert code == 0
    assert "classes: x; y" in out


def test_cli_quotient_document_loads_back(capsys):
    code = run_command(["--json", "quotient", "-m", M1])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    reloaded = load_document(payload["model"])
    assert reloaded.model.space.carrier.elements == ("x", "y")


def test_cli_quotient_text_is_the_json_model(capsys):
    # the text form is built only without --json, from the same document
    assert run_command(["--json", "quotient", "-m", M1]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert run_command(["quotient", "-m", M1]) == 0
    first, rest = capsys.readouterr().out.split("\n", 1)
    assert first == "classes: x; y"
    assert json.loads(rest) == payload["model"]


def test_classes_and_quotient_build_no_formulas(tmp_path, capsys, monkeypatch):
    import fgml.logic
    from fgml import modal_equivalence_classes, quotient_model

    m1, sig = m1_model()
    dup = duplicate_state(m1, sig, "y", "y2")
    lm = load_model(M1)
    path = _write(tmp_path / "dup.json", model_to_document(
        LoadedModel(dup, sig, lm.lattice, lm.functor_name, lm.modalities, {}, {})))

    def refuse(*args):
        raise AssertionError("definable_opens builds formulas")

    monkeypatch.setattr(fgml.logic, "definable_opens", refuse)
    classes = (("x",), ("y", "y2"))
    assert modal_equivalence_classes(dup, sig) == classes
    assert quotient_model(dup, sig).classes == classes
    for command in ("classes", "quotient"):
        assert run_command(["--json", command, "-m", path]) == 0
        assert json.loads(capsys.readouterr().out)["classes"] == [list(c) for c in classes]


def test_box_of_the_constant_zero_is_definable(tmp_path, capsys):
    # <box>(\/[]) is 1 at x and 0 at y: the definable family holds the
    # constant 0, so its box separates the two states
    doc = {"lattice": 1, "functor": "fuzzy-powerset", "modalities": ["box"],
           "carrier": ["x", "y"],
           "opens": [{"x": "0/1", "y": "0/1"}, {"x": "1/1", "y": "1/1"},
                     {"x": "1/1", "y": "0/1"}],
           "sigma": {"x": {"x": "0/1", "y": "0/1"}, "y": {"x": "1/1", "y": "0/1"}},
           "valuation": {}}
    path = _write(tmp_path / "zero.json", doc)
    assert run_command(["--json", "classes", "-m", path]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == [["x"], ["y"]]
    assert run_command(["quotient", "-m", path]) == 0
    capsys.readouterr()


def test_closed_stdout_exits_2_without_traceback():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-m", "fgml", "quotient", "-m", M1],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader leaves before the CLI writes
    err = proc.stderr.read()
    assert proc.wait() == 2
    assert b"Traceback" not in err and b"Error" not in err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def fgml(*argv):
        return subprocess.run([sys.executable, "-m", "fgml", *argv], env=env,
                              capture_output=True, text=True).returncode

    assert fgml("validate", "-m", M1) == 0
    assert fgml("validate", "-m", str(tmp_path / "missing.json")) == 2


def test_cli_sig_check(capsys):
    code = run_command(["sig", "check", "-m", M1])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotone[dia]: PASS" in out
    assert "characteristic: PASS" in out


def test_cli_duality(capsys):
    code = run_command(["duality", "-m", TINY])
    out = capsys.readouterr().out
    assert code == 0
    assert "eta bijective: PASS" in out


def test_cli_duality_non_sober_is_error(capsys):
    # M1's space is not sober at d=2: precondition failure, not a verdict
    code = run_command(["duality", "-m", M1])
    err = capsys.readouterr().err
    assert code == 2
    assert "sober" in err


def test_cli_duality_on_thirteen_chain_point_space(tmp_path, capsys):
    # the opens form a 13-chain: (d+1)^13 = 8192 brute-force assignments
    # at d=1, past the default guard, but only 12 points
    states = [f"s{i}" for i in range(12)]
    doc = {"lattice": 1, "functor": "identity", "carrier": states,
           "opens": [{s: "1/1" if i >= k else "0/1" for i, s in enumerate(states)}
                     for k in range(13)],
           "sigma": {s: s for s in states}, "valuation": {}}
    path = tmp_path / "chain13.json"
    path.write_text(json.dumps(doc))
    code = run_command(["--json", "duality", "-m", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert len(payload["items"]) == 5
    assert all(ok for _, ok in payload["items"])


def test_cli_duality_on_many_opens_is_answered_at_once(tmp_path, capsys):
    # the crisp discrete topology on 7 states has 2^7 opens but only 7
    # primes: sobriety reads the primes, not the 128^2 order table of opens
    states = [f"s{i}" for i in range(7)]
    doc = {"lattice": 1, "functor": "identity", "carrier": states,
           "opens": [{s: f"{bit}/1" for s, bit in zip(states, bits)}
                     for bits in product((0, 1), repeat=7)],
           "sigma": {s: s for s in states}, "valuation": {}}
    path = tmp_path / "discrete7.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = run_command(["duality", "-m", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(": PASS") == 5
    assert elapsed < 1


def _indiscrete_identity_document(states):
    return {"lattice": 1, "functor": "identity", "carrier": states,
            "opens": [{s: "0/1" for s in states}, {s: "1/1" for s in states}],
            "sigma": {s: s for s in states}, "valuation": {}}


def test_cli_sig_check_guards_the_self_maps(tmp_path, capsys):
    # 5 states have 5^5 = 3125 self-maps; the guard refuses before any is built
    path = tmp_path / "indiscrete5.json"
    path.write_text(json.dumps(_indiscrete_identity_document([f"s{i}" for i in range(5)])))
    assert run_command(["--max-size", "3124", "sig", "check", "-m", str(path)]) == 2
    assert "needs 3125 entries" in capsys.readouterr().err
    assert run_command(["sig", "check", "-m", str(path)]) == 0


def test_cli_sig_check_refuses_before_the_lifting_checks(tmp_path, capsys, monkeypatch):
    # every fuzzy set on 4 states is open at d=3, so the topology on the
    # 4^4 values of T S outgrows the default guard of 4096 opens
    def refuse(*args):
        raise AssertionError("a lifting check ran before the guard")

    monkeypatch.setattr("fgml.signature._monotone", refuse)
    monkeypatch.setattr("fgml.signature._natural", refuse)
    states = ["a", "b", "c", "d"]
    doc = {"lattice": 3, "functor": "fuzzy-powerset", "modalities": ["dia", "box"],
           "carrier": states,
           "opens": [{s: f"{k}/3" for s, k in zip(states, nums)}
                     for nums in product(range(4), repeat=4)],
           "sigma": {s: {t: "1/3" if s == t else "0/3" for t in states} for s in states},
           "valuation": {}}
    path = tmp_path / "discrete_d3n4.json"
    path.write_text(json.dumps(doc))
    assert run_command(["sig", "check", "-m", str(path)]) == 2
    assert "topology generation needs 4097 entries" in capsys.readouterr().err


def _parsed_fuzzy_set(obj, carrier, lattice, what):
    """The loader as it was before the grade table: every grade through parse."""
    try:
        grades = tuple(lattice.parse(obj[e]) for e in carrier)
    except (ValueError, FgmlError) as exc:
        raise DocumentError(f"{what}: {exc}") from None
    return FuzzySet(carrier, lattice, grades)


def _decoded(obj, carrier, lattice, what):
    """The loader's decoder on one object, as a fuzzy set."""
    (bits,) = _packed_from_doc([obj], carrier, lattice, lambda _: what)
    return _from_bits(carrier, lattice, bits)


def _outcome(read, obj, carrier, lattice):
    try:
        return read(obj, carrier, lattice, "open #0")
    except DocumentError as exc:
        return str(exc)


GRADE_FORMS = ["0/2", "1/2", "2/2", "01/2", " 1/2", "1/ 2", "+1/2", "3/2", "-1/2", "1/3",
               "1/2/2", "1/", "/2", "", "x", "1_0/2", 1, 0.5, None, True, [1], {"1": 2}]


def test_grade_table_reads_every_form_as_parse_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    carrier, lattice = Carrier(("s", "t")), make_lattice(2)

    def check(first, second):
        obj = {"s": first, "t": second}
        assert _outcome(_decoded, obj, carrier, lattice) == \
            _outcome(_parsed_fuzzy_set, obj, carrier, lattice)

    for form in GRADE_FORMS:
        check("1/2", form)
        check(form, "x")
    forms = st.one_of(st.sampled_from(GRADE_FORMS), st.text("012/ +-x", max_size=5))
    hypothesis.settings(max_examples=300, deadline=None, derandomize=True)(
        hypothesis.given(forms, forms)(check))()


def test_cli_json_output(capsys):
    code = run_command(["--json", "eval", "-m", M1, "-f", "<dia>(p)"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["grades"] == {"x": "1/2", "y": "1/2"}


def test_cli_json_bisim_report(capsys):
    code = run_command(["--json", "bisim", "check", "-m", M1, "-n", M1,
                        "-r", "cross"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["witnesses"]


def test_cli_unknown_subcommand(capsys):
    assert run_command(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_parse_error_exit_2(capsys):
    assert run_command(["eval", "-m", M1, "-f", "(p &"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("opening, closing", [("<id>(", ")"), ("(p & ", ")"),
                                              ("\\/[", "]")])
def test_deeply_nested_formula_exits_2_with_one_error_line(tmp_path, capsys,
                                                           opening, closing):
    path = _write(tmp_path / "p.json", {
        "lattice": 1, "functor": "identity", "carrier": ["s"], "generate_from": [],
        "sigma": {"s": "s"}, "valuation": {"p": {"s": "1/1"}}})
    deep = opening * 3000 + "p" + closing * 3000
    assert run_command(["eval", "-m", path, "-f", deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: formula nested deeper than") and err.count("\n") == 1
    # the deepest accepted formula evaluates and prints, as text and as JSON
    limit = opening * MAX_NESTING + "p" + closing * MAX_NESTING
    assert run_command(["eval", "-m", path, "-f", limit]) == 0
    assert capsys.readouterr().out == "s: 1/1\n"
    assert run_command(["--json", "eval", "-m", path, "-f", limit]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert parse_formula(payload["formula"]) == parse_formula(limit)
    over = opening + limit + closing
    assert run_command(["eval", "-m", path, "-f", over]) == 2
    capsys.readouterr()


def test_cli_valid_command_after_parse_failure(capsys):
    # the parser is built once per process and reused by every command
    assert run_command(["eval", "-m", M1]) == 2
    capsys.readouterr()
    assert run_command(["eval", "-m", M1, "-f", "<dia>(p)"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x: 1/2", "y: 1/2"]


def _set(key, value, inside=None):
    def edit(doc):
        (doc if inside is None else doc[inside])[key] = value
    return edit


@pytest.mark.parametrize("fixture, edit, argv", [
    (M1, _set("p", {"x": 1, "y": "1/2"}, inside="valuation"), ["validate"]),
    (M1, _set("valuation", []), ["validate"]),
    (M1, _set("sigma", ["x", "y"]), ["validate"]),
    (M1, _set("diag", 3, inside="relations"), ["validate"]),
    (M1, _set("diag", [[["x"], "x"]], inside="relations"), ["validate"]),
    (TINY, _set("opens", 3), ["validate"]),
    (M1, _set("generate_from", None), ["validate"]),
    (M1, _set("modalities", 1), ["validate"]),
    (M1, _set("relations", []), ["validate"]),
    (M1, _set("formulas", ["diap"]), ["validate"]),
    (M1, _set("diap", 3, inside="formulas"), ["eval", "-f", "diap"]),
    (TINY, _set("s", ["s"], inside="sigma"), ["validate"]),
    (TINY, _set("opens", [{"s": "1/1"}]), ["validate"]),
], ids=["grade-number", "valuation-list", "sigma-list", "relation-not-list",
        "relation-pair-not-names", "opens-not-list", "generate-from-not-list",
        "modalities-not-list", "relations-list", "formulas-list",
        "formula-not-string", "identity-sigma-list", "opens-not-topology"])
def test_malformed_document_exits_2(tmp_path, capsys, fixture, edit, argv):
    with open(fixture) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_command([argv[0], "-m", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_lattice_denominator_over_guard_exits_2(tmp_path, capsys):
    doc = {"lattice": 1_000_000, "functor": "identity", "carrier": ["s"],
           "opens": [{"s": "0/1000000"}, {"s": "1000000/1000000"}],
           "sigma": {"s": "s"}, "valuation": {}}
    assert run_command(["validate", "-m", _write(tmp_path / "d.json", doc)]) == 2
    assert "guard of 4096" in capsys.readouterr().err


@pytest.mark.parametrize("den", [1.5, True, "2"])
def test_lattice_denominator_must_be_a_json_integer(tmp_path, capsys, den):
    # int() read 1.5 as a /1 lattice and true as 1
    doc = {"lattice": den, "functor": "identity", "carrier": ["s"],
           "opens": [{"s": "0/1"}, {"s": "1/1"}], "sigma": {"s": "s"}, "valuation": {}}
    assert run_command(["validate", "-m", _write(tmp_path / "d.json", doc)]) == 2
    assert "bad lattice denominator" in capsys.readouterr().err


def test_bisim_am_with_punctuated_state_names(tmp_path, capsys):
    # the pairs ("a,b", "c") and ("a", "b,c") need distinct pair atoms
    def doc(states, relations):
        return {"lattice": 1, "functor": "identity", "carrier": states,
                "opens": [{s: g for s in states} for g in ("0/1", "1/1")],
                "sigma": {s: s for s in states}, "valuation": {},
                "relations": relations}

    left = _write(tmp_path / "l.json",
                  doc(["a,b", "a"], {"r": [["a,b", "c"], ["a", "b,c"]]}))
    right = _write(tmp_path / "r.json", doc(["c", "b,c"], {}))
    assert run_command(["bisim", "am", "-m", left, "-n", right, "-r", "r"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_cli_max_size_guard(capsys):
    # a load never enumerates the 3^2 fuzzy sets of T S, and needs a guard
    # of only the 2 * 2 bits of a packed set; `sig check` enumerates them
    # and is refused under a guard below 9. `bisim am` enumerates nothing
    # once the greatest candidates assemble, as they do on the diagonal
    assert run_command(["--max-size", "4", "validate", "-m", M1]) == 0
    assert run_command(["--max-size", "8", "sig", "check", "-m", M1]) == 2
    assert run_command(["--max-size", "8", "bisim", "am", "-m", M1, "-n", M1,
                        "-r", "diag"]) == 0
    assert capsys.readouterr().err.count("fuzzy-set enumeration needs 9 entries") == 1


def test_box_model_document_round_trip(tmp_path):
    # a dia+box model built by completion survives save/load and keeps
    # its box semantics
    from fgml import Carrier, FuzzySet, evaluate, fuzzy_powerset_functor, make_lattice
    from fgml.logic import parse_formula
    from modelgen import complete_powerset_model

    lat = make_lattice(2)
    carrier = Carrier(("x", "y"))
    g = lat.grade
    _, sig = fuzzy_powerset_functor(lat, ("dia", "box"))
    sigma_sets = {"x": FuzzySet(carrier, lat, (g(0), g(2))),
                  "y": FuzzySet(carrier, lat, (g(1), g(0)))}
    vp = FuzzySet(carrier, lat, (g(2), g(1)))
    model = complete_powerset_model(carrier, lat, sigma_sets, {"p": vp}, sig)
    lm = LoadedModel(model, sig, lat, "fuzzy-powerset", ("dia", "box"),
                     {}, {"boxp": "<box>(p)"})
    path = tmp_path / "box_model.json"
    path.write_text(json.dumps(model_to_document(lm)))
    reloaded = load_model(str(path))
    assert reloaded.model == model
    result = evaluate(reloaded.model, reloaded.signature,
                      parse_formula(reloaded.formulas["boxp"],
                                    reloaded.signature))
    assert {e: str(gr) for e, gr in result.as_dict().items()} == \
        {"x": "1/2", "y": "2/2"}


def test_verdicts_match_library(capsys):
    # CLI wraps the same library calls: cross-check one of each verdict type
    from fgml import Relation, is_sigma_bisimulation

    lm = load_model(M1)
    rel = Relation.of(lm.model.space.carrier, lm.model.space.carrier,
                      lm.relations["diag"])
    assert is_sigma_bisimulation(rel, lm.model, lm.model,
                                 lm.signature).verdict is True
    code = run_command(["bisim", "check", "-m", M1, "-n", M1, "-r", "diag"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_json_printer_writes_fuzzy_sets_as_their_documents(d):
    """A FuzzySet leaf is written from its bits as json.dumps writes its
    `_fuzzy_set_to_doc`: every fuzzy set on two 3-state carriers whose
    names need escaping and sort out of carrier order, at the top and
    nested, beside a fuzzy set on the other carrier, and the empty carrier."""
    lat = make_lattice(d)
    quoted, accented = Carrier(("z", 'q"uote', "a\\b")), Carrier(("\u00e9t\u00e9", "b", "\u2603"))
    assert list(quoted.elements) != sorted(quoted.elements)
    assert list(accented.elements) != sorted(accented.elements)
    other = _from_bits(accented, lat, _pack((d, 0, 1), d))
    empty = _from_bits(Carrier(()), lat, 0)
    for carrier in (quoted, accented):
        for nums in product(range(d + 1), repeat=3):
            fs = _from_bits(carrier, lat, _pack(nums, d))
            for sort in (True, False):
                doc = _fuzzy_set_to_doc(fs)
                assert _json(fs, sort) == json.dumps(doc, indent=2, sort_keys=sort)
                nested = {"k": [fs, {"m": fs}], "a": other, "e": [empty]}
                assert _json(nested, sort) == json.dumps(
                    {"k": [doc, {"m": doc}], "a": _fuzzy_set_to_doc(other), "e": [{}]},
                    indent=2, sort_keys=sort)
    assert _json(empty) == _json(empty, sort=False) == json.dumps({}) == "{}"


def test_property_json_printer_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)  # non-ASCII too
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | text
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                          | st.dictionaries(text, inner, max_size=4), max_leaves=20)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(values)
    def check(value):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)
        assert _json(value, sort=False) == json.dumps(value, indent=2)

    check()
    assert _json({"a": [], "b": {}, "c": ["\u00e9\u2603", 1.5, None]}) == \
        json.dumps({"a": [], "b": {}, "c": ["\u00e9\u2603", 1.5, None]}, indent=2, sort_keys=True)
    assert _json({"b": 1, "a": {"d": [], "c": 2}}, sort=False) == \
        json.dumps({"b": 1, "a": {"d": [], "c": 2}}, indent=2)

"""Structure values are the elements of T S themselves.

A powerset model's structure map goes onto the fuzzy sets it takes, and
each lifting is evaluated at those at most n values. The eager path kept
here as the oracle (`modelgen.eager_model`) takes the structure map into
the whole carrier of T S, applies each lifting over all of it and pulls
back from there: evaluation, modal-equivalence classes, the greatest
Sigma-bisimulation and validation verdicts must agree with it. Loads and
the commands that read structure values never enumerate T S.
"""

import json
import time

import pytest

import fgml
from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    Model,
    evaluate,
    fuzzy_powerset_functor,
    generate_topology,
    greatest_sigma_bisimulation,
    identity_functor,
    inverse_image,
    is_topology,
    make_lattice,
    modal_equivalence_classes,
    validate_model,
)
from fgml.cli import LoadedModel, model_to_document, run_command

from modelgen import (
    FIXTURES,
    complete_identity_model,
    complete_powerset_model,
    eager_model,
    identity_zoo,
    m1_model,
    oracle_formulas,
    powerset_zoo,
    singleton_document,
)

ZOO = {
    "powerset3": lambda: powerset_zoo(3),
    "powerset2-dia-box": lambda: powerset_zoo(2, dens=(1, 2, 3),
                                              modalities=("dia", "box")),
    "identity5": lambda: identity_zoo(5, dens=(1, 2, 3)),
}


@pytest.fixture(scope="module", params=sorted(ZOO))
def zoo(request):
    return ZOO[request.param]()


def eager_valid(m: Model, sig) -> bool:
    """Topology, open valuations, and every open of the whole image
    topology pulled back along the eager structure map is open."""
    image = sig.functor.on_space(m.space)
    sigma = eager_model(m, sig).sigma
    return bool(is_topology(m.space)) \
        and all(v in m.space.opens for _, v in m.valuation) \
        and all(inverse_image(sigma, o) in m.space.opens for o in image.opens)


def assert_matches_eager_path(m: Model, sig, other: Model | None = None) -> None:
    full = eager_model(m, sig)
    for formula in oracle_formulas([m], sig, 2):
        assert evaluate(m, sig, formula) == evaluate(full, sig, formula), formula
    assert modal_equivalence_classes(m, sig) == modal_equivalence_classes(full, sig)
    assert validate_model(m, sig).ok == eager_valid(m, sig)
    pairs = [(m, full)] if other is None else [(m, full), (other, eager_model(other, sig))]
    for (a, full_a) in pairs:
        for (b, full_b) in pairs:
            assert greatest_sigma_bisimulation(a, b, sig) == \
                greatest_sigma_bisimulation(full_a, full_b, sig)


def test_zoo_matches_the_eager_path(zoo):
    for (m, sig), (other, other_sig) in zip(zoo, zoo[1:] + zoo[:1]):
        same = other_sig is sig and other.props == m.props \
            and other.space.lattice == m.space.lattice
        assert_matches_eager_path(m, sig, other if same else None)


def test_property_random_models_match_the_eager_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def models(draw):
        identity = draw(st.booleans())
        d = draw(st.integers(1, 2))
        # T S of at most 9 values keeps the eager image topology small
        n = draw(st.integers(1, 4 if identity else (3 if d == 1 else 2)))
        lat = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))
        sets = st.lists(st.integers(0, d), min_size=n, max_size=n).map(
            lambda nums: FuzzySet(carrier, lat, tuple(map(lat.grade, nums))))
        space = generate_topology(carrier, lat, draw(st.lists(sets, max_size=3)))
        valuation = {"p": draw(st.sampled_from(space.sorted_opens()) | sets)}
        if draw(st.booleans()):
            valuation["q"] = draw(sets)
        complete = draw(st.booleans())  # a valid model, else often a broken one
        if identity:
            _, sig = identity_functor()
            assignment = tuple(draw(st.sampled_from(carrier.elements)) for _ in carrier)
            if complete:
                return complete_identity_model(carrier, lat, assignment, valuation, sig,
                                               space.opens), sig
            return Model.create(space, CarrierMap(carrier, carrier, assignment),
                                valuation), sig
        _, sig = fuzzy_powerset_functor(
            lat, draw(st.sampled_from([("dia",), ("box",), ("dia", "box")])))
        values = {s: draw(sets) for s in carrier}
        if complete:
            return complete_powerset_model(carrier, lat, values, valuation, sig,
                                           space.opens), sig
        return Model.create(space, CarrierMap.onto(carrier, list(values.values())),
                            valuation), sig

    verdicts = set()

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(models())
    def check(model):
        m, sig = model
        assert_matches_eager_path(m, sig)
        verdicts.add(validate_model(m, sig).ok)

    check()
    assert verdicts == {True, False}


def _run(argv):
    """Exit code, output and error of one CLI command."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _zoo_documents(tmp_path):
    paths = [f"{FIXTURES}/m1.json", f"{FIXTURES}/dia_d2n5.json"]
    for i, (m, sig) in enumerate(powerset_zoo(3) + identity_zoo(3)):
        name = sig.functor.name
        modalities = sig.names if name == "fuzzy-powerset" else ()
        diagonal = tuple((s, s) for s in m.space.carrier)
        doc = model_to_document(LoadedModel(
            m, sig, m.space.lattice, name, modalities, {"diag": diagonal},
            {"diap": f"<{sig.names[0]}>(p)"}))
        path = tmp_path / f"zoo{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_commands_on_structure_values_never_enumerate_the_image(monkeypatch, tmp_path):
    commands = [["validate"], ["eval", "-f", "diap"], ["classes", "--depth", "2"], ["quotient"],
                ["bisim", "greatest", "-n"], ["bisim", "check", "-r", "diag", "-n"]]

    paths = _zoo_documents(tmp_path)

    def run_all():
        return [_run([*argv, path, "-m", path] if argv[0] == "bisim"
                     else [*argv, "-m", path])
                for path in paths for argv in commands]

    expected = run_all()
    assert [code for code, _, _ in expected].count(0) > len(expected) * 0.9

    original = fgml.fuzzyset.all_fuzzy_sets

    def refuse(*args, **kwargs):
        raise AssertionError("the carrier of T S was enumerated")

    for module in (fgml, fgml.fuzzyset, fgml.topology, fgml.signature, fgml.logic,
                   fgml.bisim, fgml.frames, fgml.cli):
        if getattr(module, "all_fuzzy_sets", None) is original:
            monkeypatch.setattr(module, "all_fuzzy_sets", refuse)
    assert run_all() == expected


def test_many_state_powerset_model_is_served_under_the_default_guard(tmp_path):
    # sigma(s) = {s} on 10 states at d = 2: the (d+1)^n carrier has 59049
    # fuzzy sets; every command below but `sig check` answers without it
    doc = singleton_document(2, 10, 3)
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps(doc))
    states = doc["carrier"]
    grades = {s: (doc["valuation"]["p"][s], doc["valuation"]["q"][s]) for s in states}
    groups: dict[tuple, list[str]] = {}
    for s in states:
        groups.setdefault(grades[s], []).append(s)
    classes = list(groups.values())
    assert len(classes) < len(states)  # some states are modally equivalent

    def run(*argv):
        start = time.perf_counter()
        code, out, err = _run(["--json", *argv])
        assert time.perf_counter() - start < 1.0, argv
        return code, json.loads(out) if code != 2 else err

    code, report = run("validate", "-m", str(path))
    assert code == 0 and report["states"] == 10
    assert run("eval", "-m", str(path), "-f", "<dia>(p)") == \
        (0, {"formula": "<dia>(p)", "grades": doc["valuation"]["p"]})
    meet = {s: min(p, q, key=lambda g: int(g.split("/")[0])) for s, (p, q) in grades.items()}
    assert run("eval", "-m", str(path), "-f", "<box>((p & q))")[1]["grades"] == meet
    assert run("classes", "--depth", "0", "-m", str(path)) == (0, {"classes": classes})
    code, quotient = run("quotient", "-m", str(path))
    assert (code, quotient["classes"]) == (0, classes)
    pairs = [[s, t] for s in states for t in states if grades[s] == grades[t]]
    assert run("bisim", "greatest", "-m", str(path), "-n", str(path)) == (0, {"pairs": pairs})
    assert run("bisim", "am", "-m", str(path), "-n", str(path), "-r", "diag") == \
        (0, {"verdict": True, "witnesses": []})
    # the one command that enumerates T S stays under the guard
    code, err = run("sig", "check", "-m", str(path))
    assert code == 2 and "above the guard of 4096" in err


def test_structure_value_outside_the_image_is_a_problem(tmp_path):
    m, sig = m1_model()
    carrier, lattice = m.space.carrier, m.space.lattice
    strangers = [FuzzySet.full(Carrier(("x", "z")), lattice),
                 FuzzySet.full(carrier, make_lattice(3)), "x"]
    for value in strangers:
        sigma = CarrierMap.onto(carrier, [value, m.sigma("y")])
        check = validate_model(Model(m.space, sigma, m.valuation), sig)
        assert not check.ok
        assert check.problems[-1].startswith("structure map leaves the functor image")
    _, identity = identity_functor()
    sigma = CarrierMap(carrier, Carrier(("x", "zz")), ("zz", "x"))
    check = validate_model(Model(m.space, sigma, m.valuation), identity)
    assert not check.ok and "leaves the functor image" in check.problems[-1]

    with open(f"{FIXTURES}/m1.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    for value in ({"x": "1/3", "y": "0/2"}, {"x": "0/2", "z": "0/2"}, "x"):
        path = tmp_path / "stranger.json"
        path.write_text(json.dumps({**doc, "sigma": {**doc["sigma"], "x": value}}))
        code, _, err = _run(["validate", "-m", str(path)])
        assert code == 2 and err.startswith("error: ")
    path.write_text(json.dumps({**doc, "functor": "identity", "modalities": ["id"],
                                "sigma": {"x": "y", "y": "zz"}}))
    code, _, err = _run(["validate", "-m", str(path)])
    assert code == 2 and "unknown state" in err

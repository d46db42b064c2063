"""Continuity into the functor image, checked on the functor's subbasis.

`validate_model`, `is_am_bisimulation` and the document loader read a
subbasis of the image topology, restricted to the structure values at
hand, through `image_subbasis`, without building T S. The eager check
kept here as the oracle builds T S with `on_space`, sends each state to
its value in that whole carrier and pulls back every one of its opens.
"""

import dataclasses
import json
import re
from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    FunctorInstance,
    FuzzySpace,
    Model,
    Relation,
    Signature,
    check_characteristic,
    fuzzy_powerset_functor,
    image_subbasis,
    inverse_image,
    is_am_bisimulation,
    is_continuous,
    make_lattice,
    subspace_topology,
    validate_model,
)
from fgml.cli import load_model, run_command
from fgml.errors import ResourceLimitError

from modelgen import FIXTURES, dia_closed_document, identity_zoo, powerset_zoo

M1 = f"{FIXTURES}/m1.json"
BAD = f"{FIXTURES}/bad_sigma.json"
DIA_D2N5 = f"{FIXTURES}/dia_d2n5.json"

_WITNESS = re.compile(r"structure map not continuous: pullback of (.*) is not open\Z")


def restrict(o: FuzzySet, at: Carrier) -> FuzzySet:
    """An image open read at the values in `at`."""
    return inverse_image(CarrierMap(at, o.carrier, at.elements), o)


def eager_discontinuities(m: Model, sig: Signature):
    """The image opens of `on_space` whose pullback along sigma, taken
    into the whole image carrier, is not open."""
    image = sig.functor.on_space(m.space)
    sigma = CarrierMap(m.space.carrier, image.carrier, m.sigma.assignment)
    return image, [o for o in image.sorted_opens()
                   if inverse_image(sigma, o) not in m.space.opens]


def perturbations(m: Model, sig: Signature):
    """The model itself, then sigma changed at one state to each other
    element of T S; an identity model's sigma keeps the states as its
    target, a powerset model's goes onto the values it takes."""
    yield m
    carrier = m.space.carrier
    for i, s in enumerate(carrier):
        for t in sig.functor.on_space(m.space).carrier:
            if t != m.sigma(s):
                assignment = m.sigma.assignment[:i] + (t,) + m.sigma.assignment[i + 1:]
                sigma = CarrierMap(carrier, carrier, assignment) \
                    if sig.functor.name == "identity" else CarrierMap.onto(carrier, assignment)
                yield Model(m.space, sigma, m.valuation)


def _zoos():
    return (powerset_zoo(3)
            + powerset_zoo(2, dens=(1, 2, 3), modalities=("dia", "box"))
            + identity_zoo(5, dens=(1, 2, 3)))


def test_validate_matches_eager_continuity_oracle():
    cases = negatives = 0
    for model, sig in _zoos():
        bare = Signature(sig.functor, ())  # continuity needs no lifting of the signature
        # as a tracer rebuilds it: the `on_space` fallback, read at sigma's values
        rebuilt = Signature(FunctorInstance(sig.functor.name, sig.functor.on_space,
                                            sig.functor.on_map), sig.liftings)
        for m in perturbations(model, sig):
            image, failures = eager_discontinuities(m, sig)
            check = validate_model(m, sig)
            assert check.ok == (not failures)
            assert validate_model(m, bare) == check
            assert validate_model(m, rebuilt).ok == check.ok
            cases += 1
            if check.ok:
                continue
            negatives += 1
            (problem,) = check.problems
            witness = _WITNESS.match(problem).group(1)
            # the witness is a failing image open read at sigma's values
            named = [o for o in failures if str(restrict(o, m.sigma.target)) == witness]
            assert named
            if sig.functor.name == "identity":  # the same open as the eager walk
                assert named[0] == failures[0]
    assert cases == 1175 and 0 < negatives < cases


def test_functor_without_subbasis_falls_back_to_on_space():
    model, sig = powerset_zoo(2)[-1]
    eager = dataclasses.replace(sig.functor, subbasis=None, elements=None)
    image = eager.on_space(model.space)
    at = model.sigma.target
    assert image_subbasis(eager, model.space, at) == \
        tuple(restrict(o, at) for o in image.sorted_opens())
    assert image_subbasis(eager, model.space, image.carrier) == image.sorted_opens()


def _relations(m: Model):
    universe = list(product(m.space.carrier, repeat=2))
    for mask in range(1 << len(universe)):
        yield Relation.of(m.space.carrier, m.space.carrier,
                          {p for i, p in enumerate(universe) if mask >> i & 1})


def test_am_mediating_maps_are_continuous_into_the_eager_image():
    accepted = refused = 0
    for m, sig in powerset_zoo(2, dens=(1, 2)) + identity_zoo(3, dens=(1,)):
        eager = FunctorInstance(sig.functor.name, sig.functor.on_space, sig.functor.on_map)
        eager_sig = Signature(eager, sig.liftings)
        for rel in _relations(m):
            report = is_am_bisimulation(rel, m, m, sig)
            assert report == is_am_bisimulation(rel, m, m, eager_sig)
            if report.mediating is None:
                refused += not report.verdict
                continue
            rel_space = subspace_topology(rel, m.space, m.space)
            assert is_continuous(report.mediating, rel_space, eager.on_space(rel_space))
            accepted += 1
    assert accepted and refused


S3 = Carrier(("s0", "s1", "s2"))


def crisp_box_models(*specs):
    """The `box` signature over the crisp lattice and, for each (opens,
    sigma sets) spec, a valid model on s0, s1, s2 with p the constant 1;
    sets are bit tuples."""
    lat = make_lattice(1)
    _, sig = fuzzy_powerset_functor(lat, ("box",))

    def crisp(bits):
        return FuzzySet(S3, lat, tuple(map(lat.grade, bits)))

    models = []
    for opens, sigma_sets in specs:
        space = FuzzySpace(S3, lat, frozenset(map(crisp, opens)))
        sigma = CarrierMap.onto(S3, [crisp(v) for v in sigma_sets])
        models.append(Model.create(space, sigma, {"p": crisp((1, 1, 1))}))
        assert validate_model(models[-1], sig)
    return sig, models


def test_am_refuses_when_no_choice_is_continuous():
    # a crisp box model pair found by random search: every pair has
    # structure values projecting onto both sides, but no choice of them
    # pulls each subbasis member back to an open of the relation space
    sig, (m1, m2) = crisp_box_models(
        ([(0, 0, 0), (0, 0, 1), (1, 1, 1)], [(0, 1, 1), (1, 1, 0), (1, 1, 0)]),
        ([(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)], [(1, 0, 1), (1, 0, 1), (1, 0, 0)]))
    rel = Relation.of(S3, S3, [("s0", "s0"), ("s0", "s2"), ("s1", "s0"),
                               ("s2", "s0"), ("s2", "s2")])
    report = is_am_bisimulation(rel, m1, m2, sig)
    assert not report.verdict and "none assemble" in report.witnesses[0].note
    eager = dataclasses.replace(sig.functor, subbasis=None, elements=None)
    assert is_am_bisimulation(rel, m1, m2, Signature(eager, sig.liftings)) == report


def test_am_search_finds_a_map_past_the_greedy_choice():
    # a crisp box model pair found by random search: the greedy choice of
    # each pair's first candidate is not continuous, a later choice of the
    # 42-entry search is, and the guard is checked only once greedy fails
    opens = [(0, 0, 0), (1, 0, 0), (1, 1, 1)]
    sig, (m1, m2) = crisp_box_models((opens, [(0, 1, 1), (1, 1, 0), (1, 1, 1)]),
                                     (opens, [(1, 1, 0), (0, 1, 0), (1, 0, 1)]))
    rel = Relation.of(S3, S3, [("s0", "s0"), ("s0", "s1"), ("s0", "s2"), ("s1", "s0"),
                               ("s1", "s1"), ("s2", "s1"), ("s2", "s2")])
    with pytest.raises(ResourceLimitError, match=re.escape(
            "mediating map search needs 42 entries, above the guard of 8; "
            "raise max_size to override")):
        is_am_bisimulation(rel, m1, m2, sig, max_size=8)
    report = is_am_bisimulation(rel, m1, m2, sig)
    assert report.verdict and is_am_bisimulation(rel, m1, m2, sig, max_size=64) == report
    eager = FunctorInstance(sig.functor.name, sig.functor.on_space, sig.functor.on_map)
    assert is_am_bisimulation(rel, m1, m2, Signature(eager, sig.liftings)) == report
    rel_space = subspace_topology(rel, m1.space, m2.space)
    assert is_continuous(report.mediating, rel_space, eager.on_space(rel_space))


def _no_image_topology(monkeypatch):
    """Make the powerset functor's `on_space` fail for every CLI command."""
    import fgml.cli

    make = fgml.cli.fuzzy_powerset_functor

    def refuse(space):
        raise AssertionError("the image topology was built")

    def without_image(*args, **kwargs):
        functor, sig = make(*args, **kwargs)
        functor = dataclasses.replace(functor, on_space=refuse)
        return functor, Signature(functor, sig.liftings)

    monkeypatch.setattr(fgml.cli, "fuzzy_powerset_functor", without_image)


def test_cli_commands_never_build_the_image_topology(monkeypatch, capsys):
    _no_image_topology(monkeypatch)
    # exit codes as given when the image topology was built on every load
    expected = [
        (["validate", "-m", M1], 0),
        (["validate", "-m", BAD], 2),
        (["eval", "-m", M1, "-f", "<dia>(p)"], 0),
        (["classes", "-m", M1], 0),
        (["quotient", "-m", M1], 0),
        (["bisim", "greatest", "-m", M1, "-n", M1], 0),
        (["bisim", "check", "-m", M1, "-n", M1, "-r", "diag"], 0),
        (["bisim", "check", "-m", M1, "-n", M1, "-r", "cross"], 1),
        (["bisim", "am", "-m", M1, "-n", M1, "-r", "diag"], 0),
        (["bisim", "am", "-m", M1, "-n", M1, "-r", "cross"], 1),
    ]
    for argv, code in expected:
        assert run_command(argv) == code, argv
    assert "not continuous" in capsys.readouterr().err


def test_dia_fixture_is_its_seeded_build():
    with open(DIA_D2N5, encoding="utf-8") as fh:
        assert json.load(fh) == dia_closed_document(2, 5, 11)


def test_large_image_model_loads_under_the_default_guard(capsys):
    # 53 opens whose image topology has more than 4096 opens: generating
    # it on load refused the model with "topology generation needs 4097
    # entries"; only `sig check` still builds it
    assert run_command(["validate", "-m", DIA_D2N5]) == 0
    assert "5 states, 53 opens" in capsys.readouterr().out
    assert run_command(["classes", "-m", DIA_D2N5]) == 0
    assert capsys.readouterr().out.split() == ["s0", "s1", "s2", "s3", "s4"]
    lm = load_model(DIA_D2N5)
    with pytest.raises(ResourceLimitError, match="topology generation needs 4097"):
        check_characteristic(lm.signature, lm.model.space)


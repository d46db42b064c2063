from itertools import product

import pytest

from fgml import (
    And,
    Carrier,
    CarrierMap,
    FuzzySet,
    Modal,
    Model,
    Or,
    Prop,
    Top,
    check_model_morphism,
    check_truth_preservation,
    definable_opens,
    enumerate_formulas,
    evaluate,
    identity_functor,
    inverse_image,
    make_lattice,
    modal_equivalence_classes,
    parse_formula,
    quotient_model,
    validate_model,
)
from fgml.errors import (
    ArityMismatchError,
    ParseError,
    PreconditionError,
    UnboundPropositionError,
    UnknownModalityError,
)
from fgml.fuzzyset import all_fuzzy_sets
from fgml.signature import Signature
from fgml.topology import discrete_space

from modelgen import (
    complete_identity_model,
    duplicate_state,
    identity_zoo,
    m1_model,
    oracle_partition,
    powerset_zoo,
)

D2 = make_lattice(2)


# ------------------------------------------------------------------ parser

def test_parse_top():
    assert parse_formula("top") == Top()


def test_parse_nested():
    assert parse_formula("(p & <dia>(q))") == \
        And(Prop("p"), Modal("dia", (Prop("q"),)))


def test_parse_disjunction_list():
    assert parse_formula("\\/[p, q, top]") == \
        Or((Prop("p"), Prop("q"), Top()))
    assert parse_formula("\\/[]") == Or(())


def test_parse_whitespace_insensitive():
    assert parse_formula(" ( p &\n<dia> ( q ) ) ") == \
        parse_formula("(p&<dia>(q))")


def test_parse_round_trip():
    texts = ["top", "(p & q)", "\\/[p, top]", "<dia>(p)",
             "(<dia>((p & q)) & \\/[])"]
    for text in texts:
        formula = parse_formula(text)
        assert parse_formula(str(formula)) == formula


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("(p & ")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_formula("(p\n& % )")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_formula("top top")


def test_parse_validates_against_signature():
    _, sig = m1_model()[1], m1_model()[1]
    with pytest.raises(UnknownModalityError):
        parse_formula("<box>(p)", sig)
    with pytest.raises(ArityMismatchError):
        parse_formula("<dia>(p, q)", sig)
    assert parse_formula("<dia>(p)", sig) == Modal("dia", (Prop("p"),))


def test_evaluate_checks_arity_of_a_formula_parsed_without_signature():
    m1, sig = m1_model()
    with pytest.raises(ArityMismatchError, match="<dia> takes 1 arguments, got 2"):
        evaluate(m1, sig, parse_formula("<dia>(p, p)"))


# --------------------------------------------------------------- semantics

def test_evaluate_top_is_one():
    m1, sig = m1_model()
    assert evaluate(m1, sig, Top()) == m1.space.top_open


def test_evaluate_empty_or_is_zero():
    m1, sig = m1_model()
    assert evaluate(m1, sig, Or(())) == m1.space.bottom_open


def test_m1_golden_value():
    # frozen from the pre-build brute-force sup-min oracle
    m1, sig = m1_model()
    result = evaluate(m1, sig, parse_formula("<dia>(p)", sig))
    assert {e: str(g) for e, g in result.as_dict().items()} == \
        {"x": "1/2", "y": "1/2"}


def test_evaluate_unbound_prop():
    m1, sig = m1_model()
    with pytest.raises(UnboundPropositionError):
        evaluate(m1, sig, Prop("q"))
    with pytest.raises(UnknownModalityError):
        evaluate(m1, sig, Modal("box", (Prop("p"),)))


def test_evaluate_lands_in_opens():
    for model, sig in powerset_zoo(2):
        for formula in enumerate_formulas([model], sig, 2):
            assert evaluate(model, sig, formula) in model.space.opens


def test_evaluate_idempotent_and_commutative():
    m1, sig = m1_model()
    p, d = Prop("p"), Modal("dia", (Prop("p"),))
    assert evaluate(m1, sig, And(p, p)) == evaluate(m1, sig, p)
    assert evaluate(m1, sig, Or((p,))) == evaluate(m1, sig, p)
    assert evaluate(m1, sig, And(p, d)) == evaluate(m1, sig, And(d, p))
    assert evaluate(m1, sig, Or((p, d))) == evaluate(m1, sig, Or((d, p)))
    assert evaluate(m1, sig, And(And(p, d), p)) == \
        evaluate(m1, sig, And(p, And(d, p)))


def test_box_worked_value():
    # frozen from the pre-build brute-force inf-max oracle
    from fgml import fuzzy_powerset_functor

    lat = make_lattice(2)
    carrier = Carrier(("x", "y"))
    g = lat.grade
    _, sig = fuzzy_powerset_functor(lat, ("dia", "box"))
    from modelgen import complete_powerset_model

    sigma_sets = {"x": FuzzySet(carrier, lat, (g(0), g(2))),
                  "y": FuzzySet(carrier, lat, (g(1), g(0)))}
    vp = FuzzySet(carrier, lat, (g(2), g(1)))
    model = complete_powerset_model(carrier, lat, sigma_sets, {"p": vp}, sig)
    result = evaluate(model, sig, parse_formula("<box>(p)", sig))
    assert {e: str(gr) for e, gr in result.as_dict().items()} == \
        {"x": "1/2", "y": "2/2"}
    # box is the De Morgan dual of dia through the structure map
    from fgml import fs_complement, inverse_image

    dia = sig.lifting("dia")
    dual_route = fs_complement(inverse_image(
        model.sigma, dia.apply(model.space, (fs_complement(vp),), model.sigma.target)))
    assert dual_route == result


def test_three_quarter_lattice_end_to_end():
    # frozen from the pre-build brute-force sup-min oracle at d=3
    from fgml import fuzzy_powerset_functor, greatest_sigma_bisimulation

    lat = make_lattice(3)
    carrier = Carrier(("x", "y"))
    g = lat.grade
    _, sig = fuzzy_powerset_functor(lat, ("dia",))
    from modelgen import complete_powerset_model

    sigma_sets = {"x": FuzzySet(carrier, lat, (g(0), g(2))),
                  "y": FuzzySet(carrier, lat, (g(2), g(1)))}
    vp = FuzzySet(carrier, lat, (g(3), g(1)))
    model = complete_powerset_model(carrier, lat, sigma_sets, {"p": vp}, sig)
    result = evaluate(model, sig, parse_formula("<dia>(p)", sig))
    assert {e: str(gr) for e, gr in result.as_dict().items()} == \
        {"x": "1/3", "y": "2/3"}
    assert modal_equivalence_classes(model, sig) == (("x",), ("y",))
    rel = greatest_sigma_bisimulation(model, model, sig)
    assert rel.sorted_pairs() == (("x", "x"), ("y", "y"))
    result2 = quotient_model(model, sig)
    assert result2.ok and result2.model == model


# --------------------------------------------------------- definable opens

def test_definable_opens_no_props():
    functor, sig = identity_functor()
    carrier = Carrier(("s",))
    space = discrete_space(carrier, D2)
    model = Model.create(space, CarrierMap.identity(carrier), {})
    found = definable_opens(model, sig)
    # id lifting keeps everything fixed, so only the two constants appear
    assert set(found) == {space.top_open, space.bottom_open}


def test_definable_opens_single_prop_no_modalities():
    functor, _ = identity_functor()
    sig = Signature(functor, ())
    carrier = Carrier(("x", "y"))
    vp = FuzzySet(carrier, D2, (D2.grade(2), D2.grade(1)))
    model = complete_identity_model(carrier, D2, ("x", "y"), {"p": vp},
                                    Signature(functor, ()))
    found = definable_opens(model, sig)
    assert set(found) == {model.space.top_open, model.space.bottom_open, vp}


def test_definable_opens_m1_contains_dia_p():
    m1, sig = m1_model()
    dia_p = FuzzySet(m1.space.carrier, D2, (D2.grade(1), D2.grade(1)))
    found = definable_opens(m1, sig)
    assert dia_p in found


def test_definable_opens_provenance_reevaluates():
    for model, sig in powerset_zoo(2)[:8]:
        for fs, formula in definable_opens(model, sig).items():
            assert evaluate(model, sig, formula) == fs


# ------------------------------------------------------- modal equivalence

def test_classes_single_when_states_identical():
    lat = make_lattice(2)
    carrier = Carrier(("a", "b"))
    vp = FuzzySet.constant(carrier, lat, lat.grade(1))
    functor, sig = identity_functor()
    model = complete_identity_model(carrier, lat, ("a", "a"), {"p": vp},
                                    sig, extra_opens=())
    assert modal_equivalence_classes(model, sig) == (("a", "b"),)


def test_classes_m1_separated_by_prop():
    m1, sig = m1_model()
    assert modal_equivalence_classes(m1, sig) == (("x",), ("y",))


def test_classes_match_formula_oracle():
    for model, sig in powerset_zoo(2) + identity_zoo(2):
        closure = {frozenset(c) for c in modal_equivalence_classes(model, sig)}
        oracle = oracle_partition(model, sig, 3)
        assert closure == oracle, (model, closure, oracle)


def test_classes_refine_valuation_partition():
    for model, sig in powerset_zoo(3)[:10]:
        classes = modal_equivalence_classes(model, sig)
        for cls in classes:
            for name, v in model.valuation:
                assert len({v(s) for s in cls}) == 1


# ---------------------------------------------------------- morphism checks

def test_identity_is_morphism():
    for model, sig in powerset_zoo(2)[:6] + identity_zoo(2)[:4]:
        ident = CarrierMap.identity(model.space.carrier)
        assert check_model_morphism(ident, model, model, sig).ok


def test_valuation_violation_reported():
    m1, sig = m1_model()
    swap = CarrierMap(m1.space.carrier, m1.space.carrier, ("y", "x"))
    check = check_model_morphism(swap, m1, m1, sig)
    assert not check.ok
    assert any("'p'" in f or "continuous" in f or "square" in f
               for f in check.failures)


def test_truth_preservation_identity_and_top():
    m1, sig = m1_model()
    ident = CarrierMap.identity(m1.space.carrier)
    formulas = [Top(), parse_formula("<dia>(p)", sig)]
    assert check_truth_preservation(ident, m1, m1, sig, formulas)


def test_truth_preservation_requires_morphism():
    m1, sig = m1_model()
    swap = CarrierMap(m1.space.carrier, m1.space.carrier, ("y", "x"))
    with pytest.raises(PreconditionError):
        check_truth_preservation(swap, m1, m1, sig, [Top()])


def test_truth_preservation_all_small_morphisms():
    zoo = powerset_zoo(2)
    groups: dict[tuple, list] = {}
    for model, sig in zoo:
        groups.setdefault((model.space.lattice.den, model.props),
                          []).append((model, sig))
    for key, models in groups.items():
        for (ma, sig), (mb, _) in product(models, repeat=2):
            formulas = enumerate_formulas([ma, mb], sig, 2)
            for assignment in product(mb.space.carrier.elements,
                                      repeat=len(ma.space.carrier)):
                f = CarrierMap(ma.space.carrier, mb.space.carrier, assignment)
                if check_model_morphism(f, ma, mb, sig).ok:
                    assert check_truth_preservation(f, ma, mb, sig, formulas)


# ------------------------------------------------------------- quotients

def test_quotient_of_distinct_states_is_same_model():
    m1, sig = m1_model()
    result = quotient_model(m1, sig)
    assert result.ok
    assert result.classes == (("x",), ("y",))
    assert result.model == m1


def test_quotient_merges_duplicates():
    m1, sig = m1_model()
    dup = duplicate_state(m1, sig, "y", "y2")
    result = quotient_model(dup, sig)
    assert result.ok
    assert result.classes == (("x",), ("y", "y2"))
    q = result.quotient_map
    assert q("y") == q("y2") != q("x")
    assert check_model_morphism(q, dup, result.model, sig).ok
    formulas = enumerate_formulas([dup, result.model], sig, 2)
    assert check_truth_preservation(q, dup, result.model, sig, formulas)


def test_quotient_output_validates():
    for model, sig in powerset_zoo(2)[:8]:
        result = quotient_model(model, sig)
        assert result.ok
        assert validate_model(result.model, sig).ok


def test_quotient_identity_functor_collapses_constant_model():
    functor, sig = identity_functor()
    carrier = Carrier(("a", "b"))
    vp = FuzzySet.constant(carrier, D2, D2.grade(1))
    model = complete_identity_model(carrier, D2, ("a", "a"), {"p": vp}, sig)
    result = quotient_model(model, sig)
    assert result.ok
    assert result.classes == (("a", "b"),)
    assert len(result.model.space.carrier) == 1
    assert check_model_morphism(result.quotient_map, model, result.model, sig).ok


def test_quotient_reports_representative_dependence():
    # positive modal logic cannot separate sigma(s) = {w, u} from
    # sigma(t) = {u} when w lies strictly below u in specialization, yet
    # their direct images in the quotient differ: the failure must be
    # reported, not patched
    from fgml import fuzzy_powerset_functor

    lat = make_lattice(1)
    carrier = Carrier(("s", "t", "u", "w"))
    g = lat.grade
    vp = FuzzySet(carrier, lat, (g(0), g(0), g(1), g(0)))
    functor, sig = fuzzy_powerset_functor(lat, ("dia",))
    from modelgen import complete_powerset_model

    sigma_sets = {
        "s": FuzzySet(carrier, lat, (g(0), g(0), g(1), g(1))),
        "t": FuzzySet(carrier, lat, (g(0), g(0), g(1), g(0))),
        "u": FuzzySet.empty(carrier, lat),
        "w": FuzzySet.empty(carrier, lat),
    }
    model = complete_powerset_model(carrier, lat, sigma_sets, {"p": vp}, sig)
    classes = modal_equivalence_classes(model, sig)
    assert ("s", "t") in [c[:2] for c in classes]  # s and t really merge
    result = quotient_model(model, sig)
    assert not result.ok
    assert result.model is None
    assert "'s'" in result.failure and "'t'" in result.failure


def oracle_quotient_opens(model, q):
    """The final topology by its definition: every fuzzy set on the
    quotient carrier whose pullback along q is open."""
    return frozenset(w for w in all_fuzzy_sets(q.target, model.space.lattice)
                     if inverse_image(q, w) in model.space.opens)


def test_quotient_topology_matches_oracle():
    zoo = powerset_zoo(3) + identity_zoo(5, dens=(1, 2, 3))
    zoo += [(duplicate_state(m, sig, m.space.carrier.elements[0], "z"), sig)
            for m, sig in powerset_zoo(3)]
    # a and b agree on p, so they merge, yet {a} is open: the zoo's opens
    # are all constant on the classes, this one is not
    _, sig = identity_functor()
    lat = make_lattice(1)
    carrier = Carrier(("a", "b", "c"))
    only = {e: FuzzySet(carrier, lat, tuple(lat.grade(int(x == e)) for x in carrier))
            for e in carrier}
    split = complete_identity_model(carrier, lat, carrier.elements, {"p": only["c"]},
                                    sig, extra_opens=[only["a"]])
    zoo.append((split, sig))
    for model, sig in zoo:
        result = quotient_model(model, sig)
        assert result.ok
        assert result.model.space.opens == \
            oracle_quotient_opens(model, result.quotient_map)
    assert quotient_model(split, sig).classes == (("a", "b"), ("c",))


def test_quotient_beyond_the_fuzzy_set_guard():
    # 7 classes at d=3: 4^7 = 16384 fuzzy sets on the quotient carrier,
    # past the default guard of 4096
    _, sig = identity_functor()
    lat = make_lattice(3)
    carrier = Carrier(tuple("abcdefg"))
    p = FuzzySet(carrier, lat, tuple(lat.grade(i % 4) for i in range(7)))
    q = FuzzySet(carrier, lat, tuple(lat.grade(i // 4) for i in range(7)))
    model = complete_identity_model(carrier, lat, carrier.elements,
                                    {"p": p, "q": q}, sig)
    result = quotient_model(model, sig)
    assert result.ok
    assert len(result.classes) == 7
    assert result.model.space.opens == model.space.opens


# ------------------------------------------------------ formula enumeration

def test_enumerate_formulas_distinct_vectors():
    m1, sig = m1_model()
    formulas = enumerate_formulas([m1], sig, 3)
    vectors = [evaluate(m1, sig, f) for f in formulas]
    assert len(vectors) == len(set(vectors))


def test_enumerate_formulas_requires_shared_props():
    m1, sig = m1_model()
    other = powerset_zoo(1)[0][0]
    renamed = Model.create(other.space, other.sigma,
                           {"q": dict(other.valuation)["p"]})
    with pytest.raises(PreconditionError):
        enumerate_formulas([m1, renamed], sig)

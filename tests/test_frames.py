import pytest

from fgml import (
    Carrier,
    duality_check,
    generate_topology,
    is_frame,
    is_frame_hom,
    is_sober,
    is_spatial,
    make_lattice,
    opens_frame,
    point_topology,
    points,
    pt_on_morphism,
)
from fgml.errors import MalformedFrameError, NotSoberError, PreconditionError
from fgml.frames import FiniteFrame, named_points
from fgml.topology import discrete_space, indiscrete_space

D1 = make_lattice(1)
D2 = make_lattice(2)

CHAIN2 = FiniteFrame.chain(("bot", "top"))
CHAIN3 = FiniteFrame.chain(("bot", "m", "top"))


def test_chains_are_frames():
    assert is_frame(CHAIN2).ok
    assert is_frame(CHAIN3).ok
    assert is_frame(FiniteFrame.chain(tuple("abcde"))).ok


def test_diamond_m3_not_a_frame():
    m3 = FiniteFrame.from_order(
        ("bot", "a", "b", "c", "top"),
        [("bot", "a"), ("bot", "b"), ("bot", "c"),
         ("a", "top"), ("b", "top"), ("c", "top")])
    check = is_frame(m3)
    assert not check.ok
    assert "distributivity" in check.violation


def test_boolean_square_is_frame():
    square = FiniteFrame.from_order(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    assert is_frame(square).ok


def test_malformed_orders_raise():
    bad = FiniteFrame(("a", "b"), frozenset({("a", "a"), ("b", "b"),
                                             ("a", "b"), ("b", "a")}),
                      bottom="a", top="b")
    with pytest.raises(MalformedFrameError):
        is_frame(bad)
    with pytest.raises(MalformedFrameError):
        FiniteFrame(("a",), frozenset({("a", "zzz")}), bottom="a", top="a")
    with pytest.raises(MalformedFrameError):
        FiniteFrame.from_order(("a", "b"), [("a", "b"), ("b", "zzz")])


def test_frame_hom_examples():
    ident = {e: e for e in CHAIN3.elements}
    assert is_frame_hom(ident, CHAIN3, CHAIN3)
    to_top = {"bot": "top", "top": "top"}
    assert not is_frame_hom(to_top, CHAIN2, CHAIN2)
    embed = {"bot": "bot", "top": "top"}
    assert is_frame_hom(embed, CHAIN2, CHAIN3)


def test_points_of_two_chain():
    for lat in (D1, D2):
        pts = points(CHAIN2, lat)
        assert len(pts) == 1
        assert pts[0].values == (lat.bottom, lat.top)


def test_points_of_three_chain():
    pts = points(CHAIN3, D2)
    assert [[str(g) for g in p.values] for p in pts] == [
        ["0/2", "0/2", "2/2"],
        ["0/2", "1/2", "2/2"],
        ["0/2", "2/2", "2/2"],
    ]


def test_point_topology_two_chain_single_point():
    space = point_topology(CHAIN2, D2)
    assert len(space.carrier) == 1


def test_point_topology_three_chain():
    space = point_topology(CHAIN3, D2)
    assert len(space.carrier) == 3
    assert (0, 1, 2) in {o.key() for o in space.opens}
    frame = opens_frame(space)
    assert is_frame(frame).ok
    assert len(frame) == len(CHAIN3)


def test_pt_on_morphism_identity():
    ident = {e: e for e in CHAIN3.elements}
    m = pt_on_morphism(ident, CHAIN3, CHAIN3, D2)
    assert m.assignment == m.source.elements


def test_pt_on_morphism_collapses():
    embed = {"bot": "bot", "top": "top"}
    m = pt_on_morphism(embed, CHAIN2, CHAIN3, D2)
    assert len(m.source) == 3
    assert len(set(m.assignment)) == 1


def test_pt_on_morphism_rejects_non_hom():
    not_hom = {"bot": "bot", "top": "m"}  # top not preserved
    with pytest.raises(PreconditionError):
        pt_on_morphism(not_hom, CHAIN2, CHAIN3, D2)


def test_pt_functoriality():
    chain4 = FiniteFrame.chain(("bot", "m", "n", "top"))
    f = {"bot": "bot", "top": "top"}                      # 2-chain -> 3-chain
    g = {"bot": "bot", "m": "m", "top": "top"}            # 3-chain -> 4-chain
    gf = {a: g[f[a]] for a in CHAIN2.elements}
    lhs = pt_on_morphism(gf, CHAIN2, chain4, D2)
    ptg = pt_on_morphism(g, CHAIN3, chain4, D2)
    ptf = pt_on_morphism(f, CHAIN2, CHAIN3, D2)
    assert lhs.assignment == ptf.compose(ptg).assignment


def test_sober_examples():
    single = Carrier(("s",))
    assert is_sober(discrete_space(single, D1))
    assert not is_sober(indiscrete_space(Carrier(("x", "y")), D2))
    assert is_sober(point_topology(CHAIN3, D2))
    # at d=2 the one-point discrete space has three opens but three points
    assert not is_sober(discrete_space(single, D2))


def test_spatial_examples():
    assert is_spatial(CHAIN2, D1)
    assert is_spatial(CHAIN2, D2)
    assert is_spatial(CHAIN3, D2)
    assert is_spatial(CHAIN3, D1)


def test_duality_on_sober_one_point():
    report = duality_check(discrete_space(Carrier(("s",)), D1))
    assert report.passed
    assert len(report.items) == 5


def test_duality_on_point_topology():
    report = duality_check(point_topology(CHAIN3, D2))
    assert report.passed
    text = str(report)
    assert "eta bijective: PASS" in text


def test_duality_rejects_non_sober():
    with pytest.raises(NotSoberError):
        duality_check(indiscrete_space(Carrier(("x", "y")), D2))


def test_named_points_deterministic():
    names = [n for n, _ in named_points(CHAIN3, D2)]
    assert names == sorted(names)


def test_opens_frame_is_frame_across_zoo():
    from modelgen import powerset_zoo

    for model, _ in powerset_zoo(3):
        assert is_frame(opens_frame(model.space)).ok


def test_every_sober_small_space_passes_duality():
    # all spaces generated from one- or two-set subbases on two states
    from itertools import combinations_with_replacement

    from fgml.fuzzyset import all_fuzzy_sets
    from fgml.topology import generate_topology

    carrier = Carrier(("x", "y"))
    sober_seen = 0
    spaces = set()
    for pick in combinations_with_replacement(all_fuzzy_sets(carrier, D2), 2):
        spaces.add(generate_topology(carrier, D2, list(pick)))
    for space in spaces:
        if is_sober(space, max_size=30000):
            sober_seen += 1
            assert duality_check(space, max_size=30000).passed
    assert sober_seen > 0


def test_pt_on_morphism_continuous_between_point_topologies():
    from fgml import is_continuous

    embed = {"bot": "bot", "top": "top"}
    m = pt_on_morphism(embed, CHAIN2, CHAIN3, D2)
    assert is_continuous(m, point_topology(CHAIN3, D2), point_topology(CHAIN2, D2))

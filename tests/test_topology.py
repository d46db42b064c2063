from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    FuzzySpace,
    Relation,
    generate_topology,
    inverse_image,
    is_continuous,
    is_frame,
    is_t0,
    is_topology,
    make_lattice,
    subspace_topology,
)
from fgml.errors import CarrierMismatchError
from fgml.fuzzyset import all_fuzzy_sets
from fgml.topology import discrete_space, indiscrete_space

from modelgen import identity_zoo, opens_frame, oracle_is_t0, oracle_topology, powerset_zoo

LAT = make_lattice(2)
XY = Carrier(("x", "y"))


def fs(carrier, *nums):
    return FuzzySet(carrier, LAT, tuple(LAT.grade(k) for k in nums))


def test_indiscrete_is_topology():
    assert is_topology(indiscrete_space(XY, LAT)).ok


def test_discrete_is_topology():
    assert is_topology(discrete_space(XY, LAT)).ok


def test_missing_meet_reported():
    mu, nu = fs(XY, 2, 1), fs(XY, 1, 2)  # meet (1,1) not in the family
    space = FuzzySpace(XY, LAT, frozenset({fs(XY, 0, 0), fs(XY, 2, 2), mu, nu}))
    check = is_topology(space)
    assert not check.ok
    assert "meet" in check.violation or "join" in check.violation


def test_missing_constants_reported():
    space = FuzzySpace(XY, LAT, frozenset({fs(XY, 2, 2)}))
    assert "constant-0" in is_topology(space).violation


def test_space_takes_equal_carriers_and_refuses_others():
    full = fs(XY, 2, 2)  # on XY and LAT
    twin, lat = Carrier(("x", "y")), make_lattice(2)  # equal to them, other objects
    assert twin is not XY and lat is not LAT
    assert FuzzySpace(twin, lat, frozenset({full})).opens == {full}
    with pytest.raises(CarrierMismatchError, match="carrier"):
        FuzzySpace(Carrier(("x", "z")), LAT, frozenset({full}))
    with pytest.raises(CarrierMismatchError, match="lattice"):
        FuzzySpace(XY, make_lattice(3), frozenset({full}))


def test_generate_empty_subbasis_gives_indiscrete():
    assert generate_topology(XY, LAT, []).opens == indiscrete_space(XY, LAT).opens


def test_generate_single_open():
    mu = fs(XY, 2, 1)
    space = generate_topology(XY, LAT, [mu])
    assert space.opens == frozenset({fs(XY, 0, 0), fs(XY, 2, 2), mu})


def test_generate_matches_intersection_oracle():
    subbasis = [fs(XY, 2, 1), fs(XY, 0, 2)]
    space = generate_topology(XY, LAT, subbasis)
    assert sorted(o.key() for o in space.opens) == \
        [(0, 0), (0, 1), (0, 2), (2, 1), (2, 2)]
    assert space.opens == oracle_topology(XY, LAT, subbasis)


def test_generate_always_topology_and_idempotent():
    for pick in product(all_fuzzy_sets(XY, LAT), repeat=2):
        space = generate_topology(XY, LAT, list(pick))
        assert is_topology(space).ok
        assert generate_topology(XY, LAT, space.opens).opens == space.opens


def test_t0_examples():
    assert is_t0(discrete_space(XY, LAT))
    assert not is_t0(indiscrete_space(XY, LAT))
    assert is_t0(generate_topology(XY, LAT, [fs(XY, 2, 1)]))


def test_t0_matches_the_pairwise_scan_across_zoo():
    spaces = [m.space for m, _ in powerset_zoo(3) + identity_zoo(5, dens=(1, 2, 3))]
    verdicts = [is_t0(space) for space in spaces]
    assert verdicts == [oracle_is_t0(space) for space in spaces]
    assert True in verdicts and False in verdicts


def test_continuity_identity_and_indiscrete_target():
    space = generate_topology(XY, LAT, [fs(XY, 2, 1)])
    assert is_continuous(CarrierMap.identity(XY), space, space)
    indiscrete = indiscrete_space(XY, LAT)
    for assignment in product(XY.elements, repeat=2):
        assert is_continuous(CarrierMap(XY, XY, assignment), space, indiscrete)


def test_constant_map_into_discrete_discontinuous():
    source = indiscrete_space(XY, LAT)
    target = discrete_space(XY, LAT)
    const = CarrierMap(XY, XY, ("x", "x"))
    assert not is_continuous(const, source, target)


def test_continuity_composes():
    spaces = [generate_topology(XY, LAT, [g]) for g in all_fuzzy_sets(XY, LAT)]
    for s1, s2, s3 in product(spaces[:4], repeat=3):
        for a1 in product(XY.elements, repeat=2):
            f = CarrierMap(XY, XY, a1)
            if not is_continuous(f, s1, s2):
                continue
            for a2 in product(XY.elements, repeat=2):
                g = CarrierMap(XY, XY, a2)
                if is_continuous(g, s2, s3):
                    assert is_continuous(g.compose(f), s1, s3)


def test_opens_frame_indiscrete_two_chain():
    frame = opens_frame(indiscrete_space(XY, LAT))
    assert len(frame) == 2
    assert is_frame(frame).ok


def test_opens_frame_discrete_point_three_chain():
    single = Carrier(("s",))
    frame = opens_frame(discrete_space(single, LAT))
    assert len(frame) == 3
    assert is_frame(frame).ok
    assert [g.key() for g in frame.elements] == [(0,), (1,), (2,)]


def test_opens_frame_generated_example():
    space = generate_topology(XY, LAT, [fs(XY, 2, 1), fs(XY, 0, 2)])
    frame = opens_frame(space)
    assert is_frame(frame).ok
    assert len(frame) == 5


def test_subspace_topology_is_topology():
    space = generate_topology(XY, LAT, [fs(XY, 2, 1)])
    rel = Relation.of(XY, XY, [("x", "x"), ("x", "y"), ("y", "y")])
    sub = subspace_topology(rel, space, space)
    assert is_topology(sub).ok
    pi1, pi2 = rel.projections()
    for o in space.opens:
        assert inverse_image(pi1, o) in sub.opens
        assert inverse_image(pi2, o) in sub.opens

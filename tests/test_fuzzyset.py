from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    direct_image,
    fs_complement,
    fs_join,
    fs_leq,
    fs_meet,
    inverse_image,
    make_lattice,
    relation_image,
    relation_preimage,
)
from fgml.errors import CarrierMismatchError, ResourceLimitError
from fgml.frames import FiniteFrame, points
from fgml.fuzzyset import all_fuzzy_sets
from fgml.grades import GradeLattice

LAT = make_lattice(2)
XY = Carrier(("x", "y"))
UV = Carrier(("u", "v"))


def fs(carrier, *nums):
    return FuzzySet(carrier, LAT, tuple(LAT.grade(k) for k in nums))


def test_carrier_rejects_duplicates():
    with pytest.raises(ValueError):
        Carrier(("x", "x"))


def test_fs_leq_pointwise():
    assert fs_leq(fs(XY, 0, 1), fs(XY, 1, 1))
    a = fs(XY, 1, 2)
    assert fs_leq(a, a)
    assert not fs_leq(fs(XY, 2, 0), fs(XY, 0, 2))


def test_fs_leq_carrier_mismatch():
    with pytest.raises(CarrierMismatchError):
        fs_leq(fs(XY, 0, 0), fs(UV, 0, 0))


def test_fs_lattice_ops():
    assert fs_meet(fs(XY, 2, 1), fs(XY, 1, 2)) == fs(XY, 1, 1)
    mu = fs(XY, 1, 2)
    assert fs_join(mu, fs(XY, 0, 0)) == mu
    assert fs_complement(fs(XY, 0, 2)) == fs(XY, 2, 0)


def test_direct_image_sup_over_fiber():
    f = CarrierMap.from_dict(XY, Carrier(("u",)), {"x": "u", "y": "u"})
    assert direct_image(f, fs(XY, 1, 2)).as_dict() == {"u": LAT.grade(2)}


def test_direct_image_injective_relabels():
    f = CarrierMap.from_dict(XY, UV, {"x": "u", "y": "v"})
    out = direct_image(f, fs(XY, 1, 2))
    assert out == fs(UV, 1, 2)
    g = CarrierMap.from_dict(Carrier(("x",)), UV, {"x": "u"})
    out = direct_image(g, FuzzySet(Carrier(("x",)), LAT, (LAT.grade(1),)))
    assert out.as_dict() == {"u": LAT.grade(1), "v": LAT.grade(0)}


def test_inverse_image_composition():
    ident = CarrierMap.identity(XY)
    b = fs(XY, 2, 1)
    assert inverse_image(ident, b) == b
    f = CarrierMap.from_dict(XY, UV, {"x": "u", "y": "u"})
    assert inverse_image(f, fs(UV, 1, 2)) == fs(XY, 1, 1)
    const = CarrierMap.from_dict(XY, UV, {"x": "v", "y": "v"})
    assert inverse_image(const, fs(UV, 1, 2)) == fs(XY, 2, 2)


def test_relation_image_examples():
    r = Relation.of(XY, Carrier(("u",)), [("x", "u"), ("y", "u")])
    assert relation_image(r, fs(XY, 1, 2)).as_dict() == {"u": LAT.grade(2)}
    empty = Relation.of(XY, UV, [])
    assert relation_image(empty, fs(XY, 2, 2)) == fs(UV, 0, 0)


def test_relation_image_of_graph_is_direct_image():
    for assignment in product(UV.elements, repeat=2):
        f = CarrierMap(XY, UV, assignment)
        graph = Relation.graph(f)
        for a in all_fuzzy_sets(XY, LAT):
            assert relation_image(graph, a) == direct_image(f, a)


def test_relation_preimage_examples():
    empty = Relation.of(XY, UV, [])
    assert relation_preimage(empty, fs(UV, 2, 2)) == fs(XY, 0, 0)
    full = Relation.of(XY, UV, [(a, b) for a in XY for b in UV])
    assert relation_preimage(full, fs(UV, 1, 1)) == fs(XY, 1, 1)
    r = Relation.of(XY, UV, [("x", "u")])
    assert relation_preimage(r, fs(UV, 1, 2)) == fs(XY, 1, 0)


def test_inverse_image_preserves_joins_and_meets():
    for assignment in product(UV.elements, repeat=2):
        f = CarrierMap(XY, UV, assignment)
        for a in all_fuzzy_sets(UV, LAT):
            for b in all_fuzzy_sets(UV, LAT):
                assert inverse_image(f, fs_join(a, b)) == \
                    fs_join(inverse_image(f, a), inverse_image(f, b))
                assert inverse_image(f, fs_meet(a, b)) == \
                    fs_meet(inverse_image(f, a), inverse_image(f, b))


def test_direct_after_inverse_below_identity():
    for assignment in product(UV.elements, repeat=2):
        f = CarrierMap(XY, UV, assignment)
        for b in all_fuzzy_sets(UV, LAT):
            assert fs_leq(direct_image(f, inverse_image(f, b)), b)


def test_relation_pairs_validated():
    with pytest.raises(CarrierMismatchError):
        Relation.of(XY, UV, [("x", "zzz")])


def test_relation_membership_and_size():
    r = Relation.of(XY, UV, [("x", "u"), ("y", "v"), ("x", "u")])
    assert ("x", "u") in r and ("y", "v") in r
    assert ("x", "v") not in r and ("u", "x") not in r
    assert len(r) == 2 and len(Relation.of(XY, UV, [])) == 0


def test_fuzzy_set_from_dict_needs_every_element():
    assert FuzzySet.from_dict(XY, LAT, {"y": LAT.grade(2), "x": LAT.grade(1)}) == fs(XY, 1, 2)
    with pytest.raises(ValueError, match=r"membership not total, missing \['y'\]"):
        FuzzySet.from_dict(XY, LAT, {"x": LAT.grade(1)})


def test_pair_carrier_deterministic():
    r = Relation.of(XY, UV, [("y", "u"), ("x", "v"), ("x", "u")])
    assert r.pair_carrier().elements == (("x", "u"), ("x", "v"), ("y", "u"))
    pi1, pi2 = r.projections()
    assert pi1.assignment == ("x", "x", "y")
    assert pi2.assignment == ("u", "v", "u")


def test_pair_atoms_keep_names_with_separators_apart():
    # written "(l,r)" without escapes, the first two pairs would both be "(x,y,z)"
    left, right = Carrier(("x", "x,y", "(a", "\\")), Carrier(("y,z", "z", "b)", "\\"))
    pairs = [("x,y", "z"), ("x", "y,z"), ("(a", "b)"), ("\\", "\\"), ("(a", "\\")]
    r = Relation.of(left, right, pairs)
    atoms = r.pair_carrier().elements
    assert len(atoms) == len(pairs) and set(atoms) == set(pairs)
    pi1, pi2 = r.projections()
    assert [(pi1(p), pi2(p)) for p in atoms] == list(atoms)


@pytest.mark.parametrize("enumerate_grades", [
    lambda lat: all_fuzzy_sets(XY, lat),
    lambda lat: points(FiniteFrame.chain(("bot", "top")), lat),
], ids=["fuzzy-sets", "frame-points"])
def test_guard_fires_before_grades_are_built(monkeypatch, enumerate_grades):
    def refuse(self):
        raise AssertionError("grade values built before the guard")

    monkeypatch.setattr(GradeLattice, "values", property(refuse))
    with pytest.raises(ResourceLimitError):
        enumerate_grades(make_lattice(1_000_000))

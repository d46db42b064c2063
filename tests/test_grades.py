import operator
from itertools import product

import pytest

from fgml import Grade, complement, join, make_lattice, meet
from fgml.errors import InvalidLatticeError, LatticeMismatchError


def test_make_lattice_boolean():
    lat = make_lattice(1)
    assert [str(g) for g in lat.values] == ["0/1", "1/1"]


def test_make_lattice_three_valued():
    lat = make_lattice(2)
    assert [str(g) for g in lat.values] == ["0/2", "1/2", "2/2"]


def test_make_lattice_five_valued():
    lat = make_lattice(4)
    assert [str(g) for g in lat.values] == ["0/4", "1/4", "2/4", "3/4", "4/4"]


def test_make_lattice_rejects_zero():
    with pytest.raises(InvalidLatticeError):
        make_lattice(0)


def test_grade_bounds():
    with pytest.raises(ValueError):
        Grade(3, 2)
    with pytest.raises(ValueError):
        Grade(-1, 2)


def test_meet_join_complement_examples():
    lat = make_lattice(4)
    g = lat.grade
    assert meet(g(2), g(4)) == g(2)
    assert join(g(0), g(3)) == g(3)
    assert complement(g(1)) == g(3)


def test_mixed_lattices_rejected():
    a = make_lattice(2).grade(1)
    b = make_lattice(4).grade(1)
    with pytest.raises(LatticeMismatchError):
        meet(a, b)
    with pytest.raises(LatticeMismatchError):
        join(a, b)
    with pytest.raises(LatticeMismatchError):
        a <= b


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_de_morgan_exhaustive(d):
    vals = make_lattice(d).values
    for a, b in product(vals, repeat=2):
        assert complement(meet(a, b)) == join(complement(a), complement(b))
        assert complement(join(a, b)) == meet(complement(a), complement(b))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_complement_involution(d):
    for a in make_lattice(d).values:
        assert complement(complement(a)) == a


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distributivity_exhaustive(d):
    vals = make_lattice(d).values
    for a, b, c in product(vals, repeat=3):
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


def test_chain_order_total():
    lat = make_lattice(3)
    vals = lat.values
    for a, b in product(vals, repeat=2):
        assert a <= b or b <= a
    assert lat.bottom <= lat.top


def test_strict_and_reverse_orders():
    lat = make_lattice(3)
    for a, b in product(lat.values, repeat=2):
        assert (a < b) == (a.num < b.num) and (a > b) == (a.num > b.num)
        assert (a >= b) == (a.num >= b.num)
    low, high = make_lattice(2).grade(0), make_lattice(4).grade(4)
    for compare in (operator.lt, operator.gt, operator.ge):
        with pytest.raises(LatticeMismatchError, match="grades from different lattices"):
            compare(low, high)


def test_lattice_holds_only_its_own_grades():
    lat = make_lattice(2)
    assert all(g in lat for g in lat.values)
    assert make_lattice(3).grade(1) not in lat
    assert "1/2" not in lat and 1 not in lat


def test_serialization_round_trip():
    lat = make_lattice(2)
    for g in lat.values:
        assert lat.parse(str(g)) == g
    with pytest.raises(LatticeMismatchError):
        lat.parse("1/4")
    with pytest.raises(ValueError):
        lat.parse("nonsense")

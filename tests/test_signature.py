import gc
import weakref
from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    check_characteristic,
    check_monotone,
    check_natural,
    dual_lifting,
    fuzzy_powerset_functor,
    generate_topology,
    identity_functor,
    is_continuous,
    make_lattice,
)
from fgml.errors import DiscontinuousMapError, ResourceLimitError, UnknownModalityError
from fgml.fuzzyset import all_fuzzy_sets
from fgml.signature import Signature
from fgml.topology import discrete_space, indiscrete_space

from modelgen import fuzzy_lifting

D1 = make_lattice(1)
D2 = make_lattice(2)
XY = Carrier(("x", "y"))


def fs(carrier, lat, *nums):
    return FuzzySet(carrier, lat, tuple(lat.grade(k) for k in nums))


def spaces_xy():
    gens = [fs(XY, D2, 2, 1), fs(XY, D2, 0, 2), fs(XY, D2, 1, 1)]
    return [generate_topology(XY, D2, [g]) for g in gens] \
        + [indiscrete_space(XY, D2), discrete_space(XY, D2)]


def test_identity_functor_is_identity():
    functor, sig = identity_functor()
    for space in spaces_xy():
        assert functor.on_space(space) is space
        lifting = sig.lifting("id")
        for o in space.opens:
            assert lifting.apply(space, (o,)) == o
    f = CarrierMap(XY, XY, ("y", "x"))
    assert functor.on_map(f, spaces_xy()[0], spaces_xy()[0]) is f


def test_identity_naturality_trivial():
    _, sig = identity_functor()
    space = discrete_space(XY, D2)
    for assignment in product(XY.elements, repeat=2):
        f = CarrierMap(XY, XY, assignment)
        assert check_natural(sig.lifting("id"), f, space, space).ok


def test_powerset_carrier_boolean_point():
    single = Carrier(("x",))
    functor, sig = fuzzy_powerset_functor(D1, ("dia",))
    space = discrete_space(single, D1)
    image = functor.on_space(space)
    bottom, top = FuzzySet.empty(single, D1), FuzzySet.full(single, D1)
    assert image.carrier.elements == (bottom, top)
    lifted = sig.lifting("dia").apply(space, (top,))
    assert lifted(top) == D1.top
    assert lifted(bottom) == D1.bottom


def test_dia_of_bottom_is_bottom():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    space = indiscrete_space(XY, D2)
    lifted = sig.lifting("dia").apply(space, (space.bottom_open,))
    assert all(g == D2.bottom for g in lifted.grades)


def test_dia_sup_min_worked_value():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    space = generate_topology(XY, D2, [fs(XY, D2, 2, 1)])
    mu = fs(XY, D2, 2, 1)
    lifted = sig.lifting("dia").apply(space, (mu,))
    assert str(lifted(fs(XY, D2, 0, 2))) == "1/2"
    at = Carrier((fs(XY, D2, 0, 2), fs(XY, D2, 2, 0)))
    assert str(sig.lifting("dia").apply(space, (mu,), at)) == "{{x:0/2, y:2/2}:1/2, {x:2/2, y:0/2}:2/2}"


def test_dual_of_dia_is_box_pointwise():
    functor, sig = fuzzy_powerset_functor(D2, ("dia", "box"))
    dia, box = sig.lifting("dia"), sig.lifting("box")
    dual = dual_lifting(dia)
    for space in spaces_xy():
        for mu in all_fuzzy_sets(XY, D2):
            assert dual.apply(space, (mu,)) == box.apply(space, (mu,))


def test_dual_is_involution():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    dia = sig.lifting("dia")
    double = dual_lifting(dual_lifting(dia))
    space = spaces_xy()[0]
    for mu in all_fuzzy_sets(XY, D2):
        assert double.apply(space, (mu,)) == dia.apply(space, (mu,))


def test_dual_of_identity_lifting():
    functor, sig = identity_functor()
    lifting = sig.lifting("id")
    dual = dual_lifting(lifting)
    space = discrete_space(XY, D2)
    for mu in all_fuzzy_sets(XY, D2):
        assert dual.apply(space, (mu,)) == mu


def test_dia_and_box_monotone():
    functor, sig = fuzzy_powerset_functor(D2, ("dia", "box"))
    for space in spaces_xy():
        for lifting in sig.liftings:
            assert check_monotone(lifting, space).ok


def test_antitone_lifting_reported():
    functor, sig = identity_functor()
    from fgml.fuzzyset import fs_complement

    antitone = fuzzy_lifting("neg", 1, functor, lambda space, args, at: fs_complement(args[0]))
    space = discrete_space(XY, D2)
    check = check_monotone(antitone, space)
    assert not check.ok
    assert check.witness is not None


def test_dual_of_monotone_is_monotone():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    dual = dual_lifting(sig.lifting("dia"))
    for space in spaces_xy():
        assert check_monotone(dual, space).ok


def test_dia_naturality_exhaustive_small():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    dia = sig.lifting("dia")
    spaces = spaces_xy()
    for source in spaces:
        for target in spaces:
            for assignment in product(XY.elements, repeat=2):
                f = CarrierMap(XY, XY, assignment)
                if not is_continuous(f, source, target):
                    continue
                assert check_natural(dia, f, source, target).ok


def test_dia_naturality_three_state_spaces():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    dia = sig.lifting("dia")
    xyz = Carrier(("x", "y", "z"))
    spaces = [generate_topology(xyz, D2, [fs(xyz, D2, 2, 1, 0)]),
              indiscrete_space(xyz, D2)]
    for source in spaces:
        for target in spaces:
            for assignment in product(xyz.elements, repeat=3):
                f = CarrierMap(xyz, xyz, assignment)
                if not is_continuous(f, source, target):
                    continue
                assert check_natural(dia, f, source, target).ok
    for space in spaces:
        assert check_monotone(dia, space).ok
        assert check_characteristic(sig, space)


def test_natural_rejects_discontinuous():
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))
    source = indiscrete_space(XY, D2)
    target = discrete_space(XY, D2)
    with pytest.raises(DiscontinuousMapError):
        check_natural(sig.lifting("dia"), CarrierMap.identity(XY), source, target)


def test_broken_lifting_fails_naturality():
    # the sup over states replaced by reading one fixed slot
    functor, sig = fuzzy_powerset_functor(D2, ("dia",))

    def broken(space, args, at):
        good = sig.lifting("dia").apply(space, args, at)
        first = args[0](space.carrier.elements[0])
        return FuzzySet.constant(good.carrier, D2, first)

    lifting = fuzzy_lifting("broken", 1, functor, broken)
    space = generate_topology(XY, D2, [fs(XY, D2, 2, 1), fs(XY, D2, 1, 2)])
    swap = CarrierMap(XY, XY, ("y", "x"))
    assert is_continuous(swap, space, space)
    check = check_natural(lifting, swap, space, space)
    assert not check.ok
    assert check.witness is not None


def test_characteristic_by_construction():
    for mods in (("dia",), ("dia", "box")):
        functor, sig = fuzzy_powerset_functor(D2, mods)
        for space in spaces_xy():
            assert check_characteristic(sig, space)
    functor, sig = identity_functor()
    for space in spaces_xy():
        assert check_characteristic(sig, space)


def test_characteristic_fails_on_extended_topology():
    functor, sig = fuzzy_powerset_functor(D1, ("dia",))
    space = indiscrete_space(XY, D1)
    image = functor.on_space(space)
    extra = None
    for candidate in all_fuzzy_sets(image.carrier, D1):
        if candidate not in image.opens:
            bigger = generate_topology(image.carrier, D1,
                                       list(image.opens) + [candidate])
            if bigger.opens != image.opens:
                extra = bigger
                break
    assert extra is not None
    padded = FunctorWithTopology(functor, space, extra)
    fake_sig = Signature(padded.instance(), sig.liftings)
    assert not check_characteristic(fake_sig, space)


class FunctorWithTopology:
    """Wrap a functor but report a manually extended image topology."""

    def __init__(self, base, space, padded_image):
        self.base = base
        self.space = space
        self.padded = padded_image

    def instance(self):
        from fgml.signature import FunctorInstance

        def on_space(s):
            return self.padded if s == self.space else self.base.on_space(s)

        return FunctorInstance("padded", on_space, self.base.on_map)


def test_functor_laws_on_map():
    functor, _ = fuzzy_powerset_functor(D2, ("dia",))
    spaces = spaces_xy()[:3]
    values = all_fuzzy_sets(XY, D2)
    for space in spaces:
        image_id = functor.on_map(CarrierMap.identity(XY), space, space)
        assert all(image_id(nu) == nu for nu in values)
    for s1, s2, s3 in product(spaces, repeat=3):
        for a1 in product(XY.elements, repeat=2):
            f = CarrierMap(XY, XY, a1)
            for a2 in product(XY.elements, repeat=2):
                g = CarrierMap(XY, XY, a2)
                lhs = functor.on_map(g.compose(f), s1, s3)
                image_f, image_g = functor.on_map(f, s1, s2), functor.on_map(g, s2, s3)
                assert all(lhs(nu) == image_g(image_f(nu)) for nu in values)


def test_on_map_preserves_continuity():
    functor, _ = fuzzy_powerset_functor(D2, ("dia",))
    spaces = spaces_xy()
    for source in spaces[:3]:
        for target in spaces[:3]:
            for assignment in product(XY.elements, repeat=2):
                f = CarrierMap(XY, XY, assignment)
                if not is_continuous(f, source, target):
                    continue
                image_f = functor.on_map(f, source, target)
                image_s, image_t = functor.on_space(source), functor.on_space(target)
                assert is_continuous(
                    CarrierMap(image_s.carrier, image_t.carrier,
                               tuple(map(image_f, image_s.carrier))),
                    image_s, image_t)


def test_resource_guard():
    big = Carrier(tuple(f"s{i}" for i in range(13)))
    functor, sig = fuzzy_powerset_functor(D1, ("dia",))
    with pytest.raises(ResourceLimitError):
        functor.on_space(indiscrete_space(big, D1))


def test_images_die_with_their_spaces():
    # on_space keeps an image, with its (d+1)^n carrier, only while its
    # space lives; meanwhile the space gets the same image back
    functor, _ = fuzzy_powerset_functor(D2, ("dia",))
    images = functor.on_space.__closure__[
        functor.on_space.__code__.co_freevars.index("images")].cell_contents
    carrier = Carrier(tuple(f"s{i}" for i in range(5)))
    refs = []
    for _ in range(6):
        space = discrete_space(carrier, D2)
        image = functor.on_space(space)
        assert functor.on_space(space) is image and len(image.carrier) == 3 ** 5
        refs += [weakref.ref(space), weakref.ref(image), weakref.ref(image.carrier)]
    assert len(images) == 1  # the last space is still alive
    del space, image
    gc.collect()
    assert len(images) == 0 and all(ref() is None for ref in refs)


def test_an_image_outliving_its_space_keeps_its_guard():
    # past max_size the guard reads the space's every open, also once the
    # space itself is gone: the constants and the lifted opens, 8 distinct
    # sets, start the family, so the guard trips at 9
    functor, _ = fuzzy_powerset_functor(D1, ("dia", "box"), max_size=4)
    image = functor.on_space(discrete_space(XY, D1))
    gc.collect()
    with pytest.raises(ResourceLimitError) as exc:
        image.packed
    assert (exc.value.size, exc.value.limit) == (9, 4)


def test_unknown_modality_rejected():
    with pytest.raises(UnknownModalityError):
        fuzzy_powerset_functor(D2, ("triangle",))
    _, sig = fuzzy_powerset_functor(D2, ("dia",))
    with pytest.raises(UnknownModalityError):
        sig.lifting("box")

"""Endofunctor instances on finite fuzzy spaces and their modal liftings.

Two built-in functors: the identity functor with its identity lifting,
and a fuzzy powerset functor. An element of T S is a value: a state for
the identity functor, a `FuzzySet` on S for the powerset. A lifting is
evaluated at a given carrier of values, so a structure map sigma needs
it only at the at most n values sigma takes. The diamond lifting is
sup-min composition, box is its De Morgan dual; the topology on the
image space is generated by the chosen liftings' images, so the
built-in signatures are characteristic by construction.

A subbasis of the image topology of a topology S, read at any carrier
of values, comes without building the image, and from a basis of S, not
from every open: the distinct primes of S for the identity functor; for
the powerset functor, dia applied to the primes and box applied to the
co-primes (`topology`): dia keeps joins and every open is the join of
the primes below it, box keeps meets and every open is the meet of the
co-primes above it. So at most n*d sets per lifting generate the image
topology, which `on_space` generates from them and closes only when
its opens are read. A functor without a subbasis of its own gives every
open of `on_space`. A map f into T S is
fuzzy continuous iff every subbasis member pulls back to an open,
provided the source opens form a topology: inverse images keep the
constants, meets and joins, and f factors through the values it takes.
This is exact for every signature. Only `sig check` enumerates the
(d+1)^n carrier of the powerset image, under the size guard; `bisim am`
reads the subbasis of a relation space, known by its primes, at the at
most |R| values of a candidate mediating map.
"""

from __future__ import annotations

import weakref
from copy import copy
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    ArityMismatchError,
    CarrierMismatchError,
    DiscontinuousMapError,
    UnknownModalityError,
)
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    Carrier,
    CarrierMap,
    FuzzySet,
    _from_bits,
    _pack,
    all_fuzzy_sets,
    direct_image,
    fs_complement,
    fs_leq,
    inverse_image,
)
from .grades import GradeLattice
from .topology import FuzzySpace, _coprimes, generate_topology, is_continuous


@dataclass(frozen=True)
class FunctorInstance:
    """Concrete endofunctor: `on_space(S)` is T S with its topology, its
    carrier holding every value; `on_map(f, S, S')` is T f on single values.

    Optionally, `subbasis(S, at, every_open)` gives fuzzy sets on the
    carrier `at` of values that generate the topology of `on_space(S)`
    read at `at`, for a topology S, raising `CarrierMismatchError` for a
    value outside T S: the generating liftings applied to a basis of S,
    or to every open in order when `every_open` is true. Without it,
    `image_subbasis` reads `on_space`.
    """

    name: str
    on_space: Callable[[FuzzySpace], FuzzySpace]
    on_map: Callable[[CarrierMap, FuzzySpace, FuzzySpace], Callable[[Hashable], Hashable]]
    subbasis: Callable[[FuzzySpace, Carrier, bool], tuple[FuzzySet, ...]] | None = None


def image_elements(functor: FunctorInstance, space: FuzzySpace) -> Carrier:
    """Every value of T S: the carrier of `on_space`."""
    return functor.on_space(space).carrier


def _restrict(sets: Sequence[FuzzySet], carrier: Carrier, at: Carrier) -> tuple[FuzzySet, ...]:
    """The fuzzy sets on `carrier` read at the elements of `at`, which must
    lie in it, through one map."""
    if at is carrier or at == carrier:  # an identity model's sigma goes into S
        return tuple(sets)
    restrict = CarrierMap(at, carrier, at.elements)
    return tuple(inverse_image(restrict, fs) for fs in sets)


def image_subbasis(functor: FunctorInstance, space: FuzzySpace, at: Carrier,
                   every_open: bool = False) -> tuple[FuzzySet, ...]:
    """A subbasis of T S's topology read at the values in `at`: the
    functor's own, on a basis of S or on every open of S, or every open
    of `on_space(space)`."""
    if functor.subbasis is not None:
        return functor.subbasis(space, at, every_open)
    image = functor.on_space(space)
    return _restrict(image.sorted_opens(), image.carrier, at)


def _basis(space: FuzzySpace, packed: Iterable[int]) -> list[FuzzySet]:
    """The distinct packed sets on the space in bits order."""
    return [_from_bits(space.carrier, space.lattice, p) for p in sorted(set(packed))]


@dataclass(frozen=True)
class Lifting:
    """n-ary modal lifting: opens on S to a fuzzy set on values of T S.

    Outputs are opens of the image space whenever the lifting belongs to
    the generating signature; derived duals may fall outside the image
    topology, so apply() accepts arbitrary fuzzy sets mechanically.

    `keeps` declares that a unary lifting keeps binary "joins" or "meets"
    of its argument, pointwise; every reader of the lifting then reads it
    on that basis (`topology._read_on`): the Sigma-bisimulation checks on
    one of the coherent pairs (`bisim`), modal equivalence on one of the
    definable opens (`logic`). None, the default, claims nothing.
    """

    name: str
    arity: int
    functor: FunctorInstance
    _raw: Callable[[FuzzySpace, tuple[FuzzySet, ...], Carrier], FuzzySet]
    keeps: str | None = None

    def __post_init__(self):
        if self.keeps not in (None, "joins", "meets"):
            raise ValueError(f"keeps must be None, 'joins' or 'meets', not {self.keeps!r}")
        if self.keeps and self.arity != 1:
            raise ValueError("only a unary lifting declares what it keeps")

    def apply(self, space: FuzzySpace, args: Sequence[FuzzySet],
              at: Carrier | None = None) -> FuzzySet:
        """The lifting's values at each element of `at`, a carrier of
        values of T S; all of T S when omitted."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityMismatchError(
                f"lifting {self.name!r} takes {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.carrier != space.carrier:
                raise CarrierMismatchError("lifting argument not on the space's carrier")
        if at is None:
            at = image_elements(self.functor, space)
        return self._raw(space, args, at)


@dataclass(frozen=True)
class Signature:
    """A functor with its chosen collection of liftings."""

    functor: FunctorInstance
    liftings: tuple[Lifting, ...]

    def lifting(self, name: str) -> Lifting:
        for l in self.liftings:
            if l.name == name:
                return l
        raise UnknownModalityError(f"no lifting named {name!r} in the signature")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(l.name for l in self.liftings)


def identity_functor() -> tuple[FunctorInstance, Signature]:
    """T S = S and T f = f, with the identity lifting named "id"; the
    image subbasis is the distinct primes, or the opens, read at the
    given states."""

    def subbasis(space: FuzzySpace, at: Carrier, every_open: bool) -> tuple[FuzzySet, ...]:
        opens = space.sorted_opens() if every_open else _basis(space, space.primes)
        return _restrict(opens, space.carrier, at)

    functor = FunctorInstance(name="identity", on_space=lambda space: space,
                              on_map=lambda f, source, target: f, subbasis=subbasis)
    lifting = Lifting("id", 1, functor,
                      lambda space, args, at: _restrict(args, space.carrier, at)[0], keeps="joins")
    return functor, Signature(functor, (lifting,))


def fuzzy_powerset_functor(lattice: GradeLattice,
                           modalities: Iterable[str] = ("dia",),
                           max_size: int = DEFAULT_MAX_SIZE
                           ) -> tuple[FunctorInstance, Signature]:
    """Fuzzy powerset functor with the requested generating signature.

    T S holds every lattice-valued fuzzy subset of S, enumerated only by
    `on_space`, which keeps each image only while its space lives; the
    arrow part sends a subset to its
    direct image. Diamond is dia(m)(v) = sup_s min(v(s), m(s)); box is
    box(m)(v) = inf_s max(1 - v(s), m(s)), computed as 1 - dia(1 - m)(v).
    The topology on the image is generated by the images of the
    requested modalities over all opens, which makes the returned
    signature characteristic for the functor; `subbasis` returns, at the
    given values and without generating the topology, dia's images of
    the primes and box's of the co-primes, which generate it too, or
    the images of every open.
    """
    mods = tuple(modalities)
    for m in mods:
        if m not in ("dia", "box"):
            raise UnknownModalityError(f"unknown built-in modality {m!r}")
    if not mods:
        raise UnknownModalityError("at least one generating modality is required")

    keeps = {"dia": "joins", "box": "meets"}
    # each image by its space, held weakly: an entry goes when its space dies
    images: weakref.WeakKeyDictionary[FuzzySpace, FuzzySpace] = weakref.WeakKeyDictionary()
    # per carrier of values lifted at, by identity and held weakly (an entry
    # counts only while its carrier lives; dead ones go before each new entry):
    # one row per state s packing nu(s) for every value nu, each grade k/d as often
    rows_cache: dict[int, tuple[weakref.ref, list[int], list[int]]] = {}

    def subbasis(space: FuzzySpace, at: Carrier, every_open: bool) -> tuple[FuzzySet, ...]:
        for nu in at:
            if not (isinstance(nu, FuzzySet) and (nu.carrier, nu.lattice) == (space.carrier, lattice)):
                raise CarrierMismatchError(f"{nu} is not a fuzzy set on the space")
        if every_open:
            lifted = dict.fromkeys(mods, space.sorted_opens())
        else:  # dia keeps joins and box meets: a join basis and a meet basis
            width = len(space.carrier) * lattice.den
            lifted = {m: _basis(space, space.primes if keeps[m] == "joins"
                                else _coprimes(space.primes, width)) for m in mods}
        return tuple(raw[m](space, (o,), at) for m in mods for o in lifted[m])  # unary

    def on_space(space: FuzzySpace) -> FuzzySpace:
        if (image := images.get(space)) is None:
            at = Carrier(all_fuzzy_sets(space.carrier, lattice, max_size))
            twin = copy(space)  # the image's guard reads a copy, so it does not keep space alive
            image = images[space] = FuzzySpace._generate(
                at, lattice, subbasis(space, at, False), lambda: subbasis(twin, at, True), max_size)
        return image

    functor = FunctorInstance(
        name="fuzzy-powerset", on_space=on_space,
        on_map=lambda f, source, target: partial(direct_image, f), subbasis=subbasis)

    # min(nu(s), mu(s)) is rows[s] & consts[mu(s)] for all values nu at once
    def dia_raw(space: FuzzySpace, args: tuple[FuzzySet, ...], at: Carrier) -> FuzzySet:
        (mu,) = args
        alive, rows, consts = rows_cache.get(id(at), (None, None, None))
        if alive is None or alive() is not at:
            for key in [key for key, (ref, _, _) in rows_cache.items() if ref() is None]:
                del rows_cache[key]
            d, keys = lattice.den, [nu.key() for nu in at]
            low = _pack([1] * len(at), d)
            rows = [_pack((key[s] for key in keys), d) for s in range(len(space.carrier))]
            consts = [low * ((1 << k) - 1) for k in range(d + 1)]
            rows_cache[id(at)] = (weakref.ref(at), rows, consts)
        bits = 0
        for row, k in zip(rows, mu.key()):
            bits |= row & consts[k]
        return _from_bits(at, lattice, bits)

    raw = {"dia": dia_raw, "box": lambda space, args, at: fs_complement(
        dia_raw(space, tuple(map(fs_complement, args)), at))}
    liftings = tuple(Lifting(m, 1, functor, raw[m], keeps[m]) for m in mods)
    return functor, Signature(functor, liftings)


def dual_lifting(l: Lifting) -> Lifting:
    """Pointwise complement of the lifting applied to complemented arguments;
    the complement swaps joins and meets, and so what the dual keeps."""

    def raw(space: FuzzySpace, args: tuple[FuzzySet, ...], at: Carrier) -> FuzzySet:
        return fs_complement(l.apply(space, tuple(fs_complement(a) for a in args), at))

    swap = {"joins": "meets", "meets": "joins", None: None}
    return Lifting(f"dual_{l.name}", l.arity, l.functor, raw, swap[l.keeps])


@dataclass(frozen=True)
class LiftingCheck:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_monotone(l: Lifting, space: FuzzySpace) -> LiftingCheck:
    """Pointwise order preservation over every comparable open tuple; the
    lifting is applied once per tuple, at all of T S."""
    at = image_elements(l.functor, space)
    table = [(args, l.apply(space, args, at))
             for args in product(space.sorted_opens(), repeat=l.arity)]
    for lo, lo_value in table:
        for hi, hi_value in table:
            if all(fs_leq(a, b) for a, b in zip(lo, hi)) \
                    and not fs_leq(lo_value, hi_value):
                return LiftingCheck(
                    False,
                    f"{l.name} not monotone on "
                    f"{tuple(map(str, lo))} <= {tuple(map(str, hi))}")
    return LiftingCheck(True)


def check_natural(l: Lifting, f: CarrierMap, source: FuzzySpace,
                  target: FuzzySpace) -> LiftingCheck:
    """Naturality square for one continuous map, on every open tuple, at
    all of T S."""
    if not is_continuous(f, source, target):
        raise DiscontinuousMapError("check_natural requires a fuzzy continuous map")
    at = image_elements(l.functor, source)
    image_map = CarrierMap(at, image_elements(l.functor, target),
                           tuple(map(l.functor.on_map(f, source, target), at)))
    for args in product(target.sorted_opens(), repeat=l.arity):
        lhs = l.apply(source, tuple(inverse_image(f, a) for a in args), at)
        rhs = inverse_image(image_map, l.apply(target, args, image_map.target))
        if lhs != rhs:
            return LiftingCheck(
                False,
                f"{l.name} naturality fails on opens {tuple(map(str, args))}")
    return LiftingCheck(True)


def check_characteristic(sig: Signature, space: FuzzySpace,
                         max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """The liftings' images over opens generate exactly the image topology."""
    image_space = sig.functor.on_space(space)
    gens = [l.apply(space, args, image_space.carrier) for l in sig.liftings
            for args in product(space.sorted_opens(), repeat=l.arity)]
    return generate_topology(image_space.carrier, space.lattice, gens, max_size) == image_space

"""Endofunctor instances on finite fuzzy spaces and their modal liftings.

Two built-in functors: the identity functor with its identity lifting,
and a fuzzy powerset functor. An element of T S is a value: a state for
the identity functor, a `FuzzySet` on S for the powerset. A lifting is
evaluated at a given carrier of values, so a structure map sigma needs
it only at the at most n values sigma takes. The diamond lifting is
sup-min composition, box is its De Morgan dual; the topology on the
image space is generated by the chosen liftings' images, so the
built-in signatures are characteristic by construction.

A subbasis of the image topology of a topology S, pulled back along any
map f into T S, comes packed on f's source (`_pullbacks`), without
building the image, and from a basis of S, not from every open: the
distinct primes of S for the identity functor; for the powerset functor,
dia applied to the primes and box applied to the co-primes (`topology`):
dia keeps joins and every open is the join of the primes below it, box
keeps meets and every open is the meet of the co-primes above it. The
pullback of dia(mu) is the join over the states t of row_t & const[mu(t)],
where row_t packs f(x)(t) over the source elements x, and box's the meet
of the complement rows joined with the same constants (`_lift`). So
at most n*d sets per lifting generate the image topology, which
`on_space` generates from them and closes only when its opens are read.
The same rows over a structure map's values give the lift of any packed
mu pulled back along it, which is how every reader of a model reads a
built-in lifting (`Lifting._packed`).
A functor without a subbasis of its own gives every open of `on_space`.
A map f into T S is fuzzy continuous iff every subbasis member pulls
back to an open, provided the source opens form a topology: inverse
images keep the constants, meets and joins, and f factors through the
values it takes. This is exact for every signature. Only `sig check`
enumerates the (d+1)^n carrier of the powerset image, under the size
guard; `bisim am` reads the subbasis of a relation space, known by its
primes, at the at most |R| values of a candidate mediating map.
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
    _complement,
    _fields_along,
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

    Optionally, `subbasis(S, f, every_open)` gives, for a topology S and
    a map f whose target holds values of T S, the packed pullbacks along
    f, on f's source, of fuzzy sets that generate the topology of
    `on_space(S)` read at f's target, raising `CarrierMismatchError` for a
    target value outside T S: the generating liftings applied to a basis
    of S, or to every open in order when `every_open` is true. Without
    it, `_pullbacks` reads `on_space`.
    """

    name: str
    on_space: Callable[[FuzzySpace], FuzzySpace]
    on_map: Callable[[CarrierMap, FuzzySpace, FuzzySpace], Callable[[Hashable], Hashable]]
    subbasis: Callable[[FuzzySpace, CarrierMap, bool], list[int]] | None = None


def image_elements(functor: FunctorInstance, space: FuzzySpace) -> Carrier:
    """Every value of T S: the carrier of `on_space`."""
    return functor.on_space(space).carrier


def _back(carrier: Carrier, f: CarrierMap) -> Sequence[tuple[int, int]]:
    """The edges of `_fields_along` that pull a packed set on `carrier`
    back along f, whose target must lie in `carrier`."""
    if f.target == carrier:  # a map into the states themselves
        return f._back
    for t in f.target:
        if t not in carrier:
            raise CarrierMismatchError(f"{t!r} is not in the target carrier")
    last, top = len(carrier) - 1, len(f.source) - 1
    return [(last - carrier.index(t), top - i) for i, t in enumerate(f.assignment)]


def _lifted_basis(kernels: Iterable[tuple[str, Callable]], space: FuzzySpace, f: CarrierMap,
                  every_open: bool) -> list[int]:
    """For each (keeps, packed kernel) of a generating lifting, the packed
    lifts along f (`Lifting._packed`) of the basis of S it keeps, in bits
    order: the distinct primes for joins, the co-primes for meets; or of
    every open."""
    width = len(space.carrier) * space.lattice.den
    return [lift(mu) for keeps, kernel in kernels for lift in [kernel(space, f)]
            for mu in sorted(space.packed if every_open else set(
                space.primes if keeps == "joins" else _coprimes(space.primes, width)))]


def _pullbacks(functor: FunctorInstance, space: FuzzySpace, f: CarrierMap,
               every_open: bool = False) -> list[int]:
    """A subbasis of T S's topology pulled back along f, a map into T S,
    packed on f's source: the functor's own, on a basis of S or on every
    open of S, or every open of `on_space(space)` in bits order."""
    if functor.subbasis is not None:
        return functor.subbasis(space, f, every_open)
    image, d = functor.on_space(space), space.lattice.den
    back = _back(image.carrier, f)
    return [_fields_along(p, d, back) for p in sorted(image.packed)]


def image_subbasis(functor: FunctorInstance, space: FuzzySpace, at: Carrier,
                   every_open: bool = False) -> tuple[FuzzySet, ...]:
    """A subbasis of T S's topology read at the values in `at`, as fuzzy
    sets: `_pullbacks` along the identity of `at`."""
    return tuple(_from_bits(at, space.lattice, g)
                 for g in _pullbacks(functor, space, CarrierMap.identity(at), every_open))


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

    `_packed`, set only by the built-in functors, is the lifting's packed
    kernel: `_packed(space, sigma)` maps packed arguments to the packed
    sigma^-1(lambda(args)), which `Model._lifted` reads.
    """

    name: str
    arity: int
    functor: FunctorInstance
    _raw: Callable[[FuzzySpace, tuple[FuzzySet, ...], Carrier], FuzzySet]
    keeps: str | None = None
    _packed: Callable[[FuzzySpace, CarrierMap], Callable[..., int]] | None = None

    def __post_init__(self):
        if self.keeps not in (None, "joins", "meets"):
            raise ValueError(f"keeps must be None, 'joins' or 'meets', not {self.keeps!r}")
        if self.keeps and self.arity != 1:
            raise ValueError("only a unary lifting declares what it keeps")

    def _checked(self, space: FuzzySpace, args: Sequence[FuzzySet]) -> tuple[FuzzySet, ...]:
        """The arguments, as many as the arity and each on the space's carrier."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityMismatchError(
                f"lifting {self.name!r} takes {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.carrier != space.carrier:
                raise CarrierMismatchError("lifting argument not on the space's carrier")
        return args

    def apply(self, space: FuzzySpace, args: Sequence[FuzzySet],
              at: Carrier | None = None) -> FuzzySet:
        """The lifting's values at each element of `at`, a carrier of
        values of T S; all of T S when omitted."""
        return self._raw(space, self._checked(space, args),
                         image_elements(self.functor, space) if at is None else at)


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
    image subbasis is the distinct primes, or the opens, pulled back
    along the given map into the states, and so is the packed lift of
    "id" along a structure map."""

    def pullback(space: FuzzySpace, sigma: CarrierMap) -> Callable[[int], int]:
        d, back = space.lattice.den, _back(space.carrier, sigma)
        return lambda mu: _fields_along(mu, d, back)

    functor = FunctorInstance(name="identity", on_space=lambda space: space,
                              on_map=lambda f, source, target: f,
                              subbasis=partial(_lifted_basis, [("joins", pullback)]))
    # an identity model's sigma goes into S, so its lifts are read at the states themselves
    lifting = Lifting("id", 1, functor, lambda space, args, at: args[0] if at == space.carrier
                      else inverse_image(CarrierMap(at, space.carrier, at.elements), args[0]),
                      "joins", pullback)
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
    box(m)(v) = inf_s max(1 - v(s), m(s)), which is 1 - dia(1 - m)(v).
    The topology on the image is generated by the images of the
    requested modalities over all opens, which makes the returned
    signature characteristic for the functor; `subbasis` returns, pulled
    back along the given map and without generating the topology, dia's
    images of the primes and box's of the co-primes, which generate it
    too, or the images of every open. The packed lift of dia or box
    along a structure map is `_lift` on the rows of sigma's values, the
    lift and its pullback in one pass.
    """
    mods = tuple(modalities)
    for m in mods:
        if m not in ("dia", "box"):
            raise UnknownModalityError(f"unknown built-in modality {m!r}")
    if not mods:
        raise UnknownModalityError("at least one generating modality is required")

    # each image by its space, held weakly: an entry goes when its space dies
    images: weakref.WeakKeyDictionary[FuzzySpace, FuzzySpace] = weakref.WeakKeyDictionary()
    # the `_rows` of each carrier of values lifted at, by identity, while it lives
    rows_cache: dict[int, tuple[list[int], list[int], int]] = {}

    def packed(kind: str, space: FuzzySpace, sigma: CarrierMap) -> Callable[[int], int]:
        rows = _rows(sigma.assignment, len(space.carrier), lattice.den, kind == "box")
        return lambda mu: _lift(kind, rows, mu, lattice.den)

    # each modality's (keeps, packed kernel): the subbasis reads these, not the
    # liftings, which refer to the functor, so that no cycle keeps the functor alive
    kernels = [({"dia": "joins", "box": "meets"}[m], partial(packed, m)) for m in mods]

    def subbasis(space: FuzzySpace, f: CarrierMap, every_open: bool) -> list[int]:
        for nu in f.target:
            if not (isinstance(nu, FuzzySet) and (nu.carrier, nu.lattice) == (space.carrier, lattice)):
                raise CarrierMismatchError(f"{nu} is not a fuzzy set on the space")
        return _lifted_basis(kernels, space, f, every_open)

    def on_space(space: FuzzySpace) -> FuzzySpace:
        if (image := images.get(space)) is None:
            every = CarrierMap.identity(Carrier(all_fuzzy_sets(space.carrier, lattice, max_size)))
            twin = copy(space)  # the image's guard reads a copy, so it does not keep space alive
            image = images[space] = FuzzySpace._generate(
                every.target, lattice, subbasis(space, every, False),
                lambda: subbasis(twin, every, True), max_size)
        return image

    functor = FunctorInstance(
        name="fuzzy-powerset", on_space=on_space,
        on_map=lambda f, source, target: partial(direct_image, f), subbasis=subbasis)

    def lifting(kind: str) -> Callable[[FuzzySpace, tuple[FuzzySet, ...], Carrier], FuzzySet]:
        def raw(space: FuzzySpace, args: tuple[FuzzySet, ...], at: Carrier) -> FuzzySet:
            if (rows := rows_cache.get(id(at))) is None:
                rows = rows_cache[id(at)] = _rows(at.elements, len(space.carrier), lattice.den,
                                                  "box" in mods)
                weakref.finalize(at, rows_cache.pop, id(at))
            return _from_bits(at, lattice, _lift(kind, rows, args[0].bits, lattice.den))
        return raw

    liftings = tuple(Lifting(m, 1, functor, lifting(m), *kernel) for m, kernel in zip(mods, kernels))
    return functor, Signature(functor, liftings)


def _rows(values: Sequence[FuzzySet], n: int, d: int,
          box: bool) -> tuple[list[int], list[int], int]:
    """For fuzzy sets on n states: the row of each state t, counted from
    the last, packing nu(t) for every value nu in order; for `box`, its
    complement, packing 1 - nu(t); and the low bit of every field of a row."""
    field, rows = (1 << d) - 1, [0] * n
    for nu in values:
        bits = nu.bits
        for p in range(n):
            rows[p] = rows[p] << d | bits >> p * d & field
    return (rows, [_complement(r, len(values), d) for r in rows] if box else [],
            _pack([1] * len(values), d))


def _lift(kind: str, rows: tuple[list[int], list[int], int], mu: int, d: int) -> int:
    """dia or box of the packed set mu at every value of `_rows`.
    dia(mu)(nu) = sup_t min(nu(t), mu(t)) is the join over t of t's row
    meeting the constant mu(t), low * (mu's field at t); box(mu)(nu) =
    inf_t max(1 - nu(t), mu(t)) = 1 - dia(1 - mu)(nu) is the meet over t
    of t's complement row joining it."""
    plain, complements, low = rows
    field = (1 << d) - 1
    if kind == "dia":
        out = 0
        for p, row in enumerate(plain):
            out |= row & low * (mu >> p * d & field)
        return out
    out = low * field
    for p, row in enumerate(complements):
        out &= row | low * (mu >> p * d & field)
    return out


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

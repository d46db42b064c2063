"""Endofunctor instances on finite fuzzy spaces and their modal liftings.

Two built-in functors: the identity functor with its identity lifting,
and a fuzzy powerset functor whose carrier at S enumerates every
lattice-valued fuzzy subset of S. The diamond lifting is sup-min
composition, box is its De Morgan dual; the topology on the image space
is generated by the chosen liftings' images, so the built-in signatures
are characteristic by construction.

Both built-in functors also give a subbasis of the image topology
without building it: the space's opens for the identity functor, the
generating liftings applied to the opens for the powerset functor.
`image_subbasis` reads it, falling back to all opens of `on_space` for
a functor without one. A map f into T S is fuzzy continuous iff every
subbasis member pulls back to an open, provided the source opens form
a topology: inverse images keep the constants, meets and joins, so the
pullbacks of the generated topology are the meets and joins of the
pullbacks of the subbasis. This needs the functor's own subbasis, not a
signature's liftings, so it is exact for every signature. Only
`check_characteristic` builds T S among the library's checks; the
(d+1)^n carrier of the powerset image is still enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

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
from .topology import FuzzySpace, generate_topology, is_continuous


@dataclass(frozen=True)
class FunctorInstance:
    """Concrete endofunctor: object part, arrow part and, optionally, a
    subbasis of the image topology.

    `subbasis(S)` returns the carrier of T S and fuzzy sets on it that
    generate the topology of `on_space(S)`. Continuity into T S is then
    checked on those generators alone (exact, by the argument in the
    module docstring); without it, callers of `image_subbasis` build T S.
    """

    name: str
    on_space: Callable[[FuzzySpace], FuzzySpace]
    on_map: Callable[[CarrierMap, FuzzySpace, FuzzySpace], CarrierMap]
    subbasis: Callable[[FuzzySpace], tuple[Carrier, tuple[FuzzySet, ...]]] | None = None


def image_subbasis(functor: FunctorInstance, space: FuzzySpace
                   ) -> tuple[Carrier, tuple[FuzzySet, ...]]:
    """Carrier of T S and a subbasis of its topology: the functor's own,
    or every open of `on_space(space)` for a functor without one."""
    if functor.subbasis is not None:
        return functor.subbasis(space)
    image = functor.on_space(space)
    return image.carrier, image.sorted_opens()


@dataclass(frozen=True)
class Lifting:
    """n-ary modal lifting: opens on S to a fuzzy set on the image of S.

    Outputs are opens of the image space whenever the lifting belongs to
    the generating signature; derived duals may fall outside the image
    topology, so apply() accepts arbitrary fuzzy sets mechanically.
    """

    name: str
    arity: int
    functor: FunctorInstance
    _raw: Callable[[FuzzySpace, tuple[FuzzySet, ...]], FuzzySet]

    def apply(self, space: FuzzySpace, args: Sequence[FuzzySet]) -> FuzzySet:
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityMismatchError(
                f"lifting {self.name!r} takes {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.carrier != space.carrier:
                raise CarrierMismatchError("lifting argument not on the space's carrier")
        return self._raw(space, args)


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
    """T S = S and T f = f, with the identity lifting named "id"."""
    functor = FunctorInstance(
        name="identity",
        on_space=lambda space: space,
        on_map=lambda f, source, target: f,
        subbasis=lambda space: (space.carrier, space.sorted_opens()),
    )
    lifting = Lifting("id", 1, functor, lambda space, args: args[0])
    return functor, Signature(functor, (lifting,))


@lru_cache(maxsize=None)
def _powerset_atoms(carrier: Carrier, lattice: GradeLattice, max_size: int
                    ) -> tuple[Carrier, tuple[FuzzySet, ...], tuple[tuple[int, ...], ...]]:
    """Carrier of all fuzzy subsets (as named atoms), the subsets themselves
    in matching enumeration order, and three tables of packed fields over
    the atoms: at[s] gives each atom nu the field of nu(s), co[s] that of
    1 - nu(s), and const[k] the constant k/d."""
    subsets = all_fuzzy_sets(carrier, lattice, max_size)
    names = tuple(map(powerset_atom_name, subsets))
    d, keys = lattice.den, [nu.key() for nu in subsets]
    at = tuple(_pack((key[s] for key in keys), d) for s in range(len(carrier)))
    co = tuple(_pack((d - key[s] for key in keys), d) for s in range(len(carrier)))
    low = _pack([1] * len(subsets), d)
    return Carrier(names), subsets, (at, co, tuple(low * ((1 << k) - 1) for k in range(d + 1)))


def powerset_atom_name(fs: FuzzySet) -> str:
    """Canonical atom name of a fuzzy subset inside the powerset carrier."""
    return ",".join(f"{k}/{fs.lattice.den}" for k in fs.key()) or "{}"


def fuzzy_powerset_functor(lattice: GradeLattice,
                           modalities: Iterable[str] = ("dia",),
                           max_size: int = DEFAULT_MAX_SIZE
                           ) -> tuple[FunctorInstance, Signature]:
    """Fuzzy powerset functor with the requested generating signature.

    The image of a space S has one atom per lattice-valued fuzzy subset
    of S; the arrow part sends a subset to its direct image. Diamond is
    dia(m)(v) = sup_s min(v(s), m(s)); box is box(m)(v) =
    inf_s max(1 - v(s), m(s)). The topology on the image is generated by
    the images of the requested modalities over all opens, which makes
    the returned signature characteristic for the functor; `subbasis`
    returns those images without generating the topology.
    """
    mods = tuple(modalities)
    for m in mods:
        if m not in ("dia", "box"):
            raise UnknownModalityError(f"unknown built-in modality {m!r}")
    if not mods:
        raise UnknownModalityError("at least one generating modality is required")

    generating: list[Lifting] = []
    subbasis_cache: dict[FuzzySpace, tuple[Carrier, tuple[FuzzySet, ...]]] = {}
    space_cache: dict[FuzzySpace, FuzzySpace] = {}
    map_cache: dict[tuple[CarrierMap, Carrier, Carrier], CarrierMap] = {}

    def subbasis(space: FuzzySpace) -> tuple[Carrier, tuple[FuzzySet, ...]]:
        if space not in subbasis_cache:
            opens = space.sorted_opens()
            subbasis_cache[space] = (
                _powerset_atoms(space.carrier, lattice, max_size)[0],
                tuple(l.apply(space, args) for l in generating
                      for args in product(opens, repeat=l.arity)))
        return subbasis_cache[space]

    def on_space(space: FuzzySpace) -> FuzzySpace:
        if space not in space_cache:
            atoms, gens = subbasis(space)
            space_cache[space] = generate_topology(atoms, lattice, gens, max_size)
        return space_cache[space]

    def on_map(f: CarrierMap, source: FuzzySpace, target: FuzzySpace) -> CarrierMap:
        key = (f, source.carrier, target.carrier)
        if key not in map_cache:
            src_atoms, src_subsets, _ = _powerset_atoms(source.carrier, lattice, max_size)
            tgt_atoms = _powerset_atoms(target.carrier, lattice, max_size)[0]
            assignment = tuple(powerset_atom_name(direct_image(f, nu))
                               for nu in src_subsets)
            map_cache[key] = CarrierMap(src_atoms, tgt_atoms, assignment)
        return map_cache[key]

    functor = FunctorInstance(name="fuzzy-powerset", on_space=on_space, on_map=on_map,
                              subbasis=subbasis)

    # per state s, min(nu(s), mu(s)) is at[s] & const[mu(s)] and
    # max(1 - nu(s), mu(s)) is co[s] | const[mu(s)], for every atom nu at once
    def dia_raw(space: FuzzySpace, args: tuple[FuzzySet, ...]) -> FuzzySet:
        (mu,) = args
        atoms, _, (at, _, const) = _powerset_atoms(space.carrier, lattice, max_size)
        bits = 0
        for row, k in zip(at, mu.key()):
            bits |= row & const[k]
        return _from_bits(atoms, lattice, bits)

    def box_raw(space: FuzzySpace, args: tuple[FuzzySet, ...]) -> FuzzySet:
        (mu,) = args
        atoms, _, (_, co, const) = _powerset_atoms(space.carrier, lattice, max_size)
        bits = const[-1]
        for row, k in zip(co, mu.key()):
            bits &= row | const[k]
        return _from_bits(atoms, lattice, bits)

    raw = {"dia": dia_raw, "box": box_raw}
    liftings = tuple(Lifting(m, 1, functor, raw[m]) for m in mods)
    generating.extend(liftings)
    return functor, Signature(functor, liftings)


def dual_lifting(l: Lifting) -> Lifting:
    """Pointwise complement of the lifting applied to complemented arguments."""

    def raw(space: FuzzySpace, args: tuple[FuzzySet, ...]) -> FuzzySet:
        return fs_complement(l.apply(space, tuple(fs_complement(a) for a in args)))

    return Lifting(f"dual_{l.name}", l.arity, l.functor, raw)


@dataclass(frozen=True)
class LiftingCheck:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_monotone(l: Lifting, space: FuzzySpace) -> LiftingCheck:
    """Pointwise order preservation over every comparable open tuple."""
    opens = space.sorted_opens()
    for lo in product(opens, repeat=l.arity):
        for hi in product(opens, repeat=l.arity):
            if all(fs_leq(a, b) for a, b in zip(lo, hi)):
                if not fs_leq(l.apply(space, lo), l.apply(space, hi)):
                    return LiftingCheck(
                        False,
                        f"{l.name} not monotone on "
                        f"{tuple(map(str, lo))} <= {tuple(map(str, hi))}")
    return LiftingCheck(True)


def check_natural(l: Lifting, f: CarrierMap, source: FuzzySpace,
                  target: FuzzySpace) -> LiftingCheck:
    """Naturality square for one continuous map, on every open tuple."""
    if not is_continuous(f, source, target):
        raise DiscontinuousMapError("check_natural requires a fuzzy continuous map")
    image_map = l.functor.on_map(f, source, target)
    for args in product(target.sorted_opens(), repeat=l.arity):
        lhs = l.apply(source, tuple(inverse_image(f, a) for a in args))
        rhs = inverse_image(image_map, l.apply(target, args))
        if lhs != rhs:
            return LiftingCheck(
                False,
                f"{l.name} naturality fails on opens {tuple(map(str, args))}")
    return LiftingCheck(True)


def check_characteristic(sig: Signature, space: FuzzySpace,
                         max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """The liftings' images over opens generate exactly the image topology."""
    image_space = sig.functor.on_space(space)
    gens = []
    for l in sig.liftings:
        for args in product(space.sorted_opens(), repeat=l.arity):
            gens.append(l.apply(space, args))
    regenerated = generate_topology(image_space.carrier, space.lattice,
                                    gens, max_size)
    return regenerated.opens == image_space.opens

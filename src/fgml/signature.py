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
mu pulled back along it.

A lifting is one packed kernel (`Lifting.kernel`): for a space S and a
map f into values of T S, it maps packed arguments on S to the packed
f^-1(lambda(args)) on f's source. Every reader reads it so: a model
along its sigma (`Model._lifted`), `apply` along the identity of the
carrier of values it is read at, and the image subbasis along the map it
is pulled back along. `sig check` (`check_signature`) builds T S once
and lifts each tuple of opens once per lifting, at every value of T S:
one table per lifting that the monotone, natural and characteristic
checks all read, and one kernel along T f per continuous self-map f.
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

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    ArityMismatchError,
    CarrierMismatchError,
    DiscontinuousMapError,
    ResourceLimitError,
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
)
from .grades import GradeLattice
from .topology import FuzzySpace, _basis, is_continuous


@dataclass(frozen=True)
class FunctorInstance:
    """Concrete endofunctor: `on_space(S)` is T S with its topology, its
    carrier holding every value; `on_map(f, S, S')` is T f on single values.

    Optionally, `subbasis(S, f)` gives, for a topology S and a map f
    whose target holds values of T S, the packed pullbacks along f, on
    f's source, of fuzzy sets that generate the topology of `on_space(S)`
    read at f's target, raising `CarrierMismatchError` for a target value
    outside T S: the generating liftings applied to the basis of S each
    keeps (`_lifted_basis`). Its order depends on S alone, so the k-th
    member along f is the pullback along f of the k-th along the identity
    of f's target. Without it, `_pullbacks` reads `on_space`.
    """

    name: str
    on_space: Callable[[FuzzySpace], FuzzySpace]
    on_map: Callable[[CarrierMap, FuzzySpace, FuzzySpace], Callable[[Hashable], Hashable]]
    subbasis: Callable[[FuzzySpace, CarrierMap], list[int]] | None = None


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


def _lifted_basis(kernels: Iterable[tuple[str, Callable]], space: FuzzySpace,
                  f: CarrierMap) -> list[int]:
    """For each (keeps, packed kernel) of a generating lifting, in order,
    the packed lifts along f (`Lifting.kernel`) of the basis of S it
    keeps, in bits order: the distinct primes for joins, the co-primes for
    meets (`topology._basis`). No open of S beyond that basis is read."""
    width = len(space.carrier) * space.lattice.den
    return [lift(mu) for keeps, kernel in kernels for lift in [kernel(space, f)]
            for mu in sorted(_basis(keeps, space.primes, width))]


def _pullbacks(functor: FunctorInstance, space: FuzzySpace, f: CarrierMap) -> list[int]:
    """A subbasis of T S's topology pulled back along f, a map into T S,
    packed on f's source: the functor's own, lifted from a basis of S, or
    every open of `on_space(space)` in bits order. Either order depends on
    S alone, so the k-th member along f pulls the k-th along the identity
    of f's target back along f."""
    if functor.subbasis is not None:
        return functor.subbasis(space, f)
    image, d = functor.on_space(space), space.lattice.den
    back = _back(image.carrier, f)
    return [_fields_along(p, d, back) for p in sorted(image.packed)]


def image_subbasis(functor: FunctorInstance, space: FuzzySpace,
                   at: Carrier) -> tuple[FuzzySet, ...]:
    """A subbasis of T S's topology read at the values in `at`, as fuzzy
    sets: `_pullbacks` along the identity of `at`."""
    return tuple(_from_bits(at, space.lattice, g)
                 for g in _pullbacks(functor, space, CarrierMap.identity(at)))


@dataclass(frozen=True)
class Lifting:
    """n-ary modal lifting: opens on S to a fuzzy set on values of T S,
    given by its packed kernel alone. `kernel(space, f)`, for a map f into
    values of T S, maps packed arguments on S to the packed
    f^-1(lambda(args)) on f's source.

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
    kernel: Callable[[FuzzySpace, CarrierMap], Callable[..., int]]
    keeps: str | None = None

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
        values of T S; all of T S when omitted: the kernel along the
        identity of `at`."""
        at = image_elements(self.functor, space) if at is None else at
        bits = (a.bits for a in self._checked(space, args))
        return _from_bits(at, space.lattice, self.kernel(space, CarrierMap.identity(at))(*bits))


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
    image subbasis is the distinct primes pulled back along the given map
    into the states, and the kernel of "id" is that pullback."""

    def pullback(space: FuzzySpace, sigma: CarrierMap) -> Callable[[int], int]:
        d, back = space.lattice.den, _back(space.carrier, sigma)
        return lambda mu: _fields_along(mu, d, back)

    functor = FunctorInstance(name="identity", on_space=lambda space: space,
                              on_map=lambda f, source, target: f,
                              subbasis=partial(_lifted_basis, [("joins", pullback)]))
    return functor, Signature(functor, (Lifting("id", 1, functor, pullback, "joins"),))


def fuzzy_powerset_functor(lattice: GradeLattice,
                           modalities: Iterable[str] = ("dia",),
                           max_size: int = DEFAULT_MAX_SIZE
                           ) -> tuple[FunctorInstance, Signature]:
    """Fuzzy powerset functor with the requested generating signature.

    T S holds every lattice-valued fuzzy subset of S, enumerated only by
    `on_space`, which keeps no image; the arrow part sends a subset to
    its direct image. Diamond is dia(m)(v) = sup_s min(v(s), m(s)); box
    is box(m)(v) = inf_s max(1 - v(s), m(s)), which is 1 - dia(1 - m)(v).
    The topology on the image is generated by the images of the
    requested modalities over all opens, which makes the returned
    signature characteristic for the functor; `subbasis` returns, pulled
    back along the given map and without generating the topology, dia's
    images of the primes and box's of the co-primes, which generate it
    too and are all that `on_space` generates from. The kernel of dia or
    box along a map f is `_lift` on the rows of f's values, the lift and
    its pullback in one pass.
    """
    mods = tuple(modalities)
    for m in mods:
        if m not in ("dia", "box"):
            raise UnknownModalityError(f"unknown built-in modality {m!r}")
    if not mods:
        raise UnknownModalityError("at least one generating modality is required")

    def kernel(kind: str, space: FuzzySpace, f: CarrierMap) -> Callable[[int], int]:
        rows = _rows(f.assignment, len(space.carrier), lattice.den, kind == "box")
        return lambda mu: _lift(kind, rows, mu, lattice.den)

    # each modality's (keeps, kernel): the subbasis reads these, not the
    # liftings, which refer to the functor, so that no cycle keeps the functor alive
    kernels = [({"dia": "joins", "box": "meets"}[m], partial(kernel, m)) for m in mods]

    def subbasis(space: FuzzySpace, f: CarrierMap) -> list[int]:
        for nu in f.target:
            if not (isinstance(nu, FuzzySet) and (nu.carrier, nu.lattice) == (space.carrier, lattice)):
                raise CarrierMismatchError(f"{nu} is not a fuzzy set on the space")
        return _lifted_basis(kernels, space, f)

    def on_space(space: FuzzySpace) -> FuzzySpace:
        every = CarrierMap.identity(Carrier(all_fuzzy_sets(space.carrier, lattice, max_size)))
        return FuzzySpace._generate(every.target, lattice, subbasis(space, every), max_size)

    functor = FunctorInstance(
        name="fuzzy-powerset", on_space=on_space,
        on_map=lambda f, source, target: partial(direct_image, f), subbasis=subbasis)
    return functor, Signature(functor, tuple(
        Lifting(m, 1, functor, k, keeps) for m, (keeps, k) in zip(mods, kernels)))


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
    the complement swaps joins and meets, and so what the dual keeps. A
    pullback keeps complements, so the dual's kernel complements the
    arguments over S and the result over f's source."""

    def kernel(space: FuzzySpace, f: CarrierMap) -> Callable[..., int]:
        lift, n, d = l.kernel(space, f), len(space.carrier), space.lattice.den
        return lambda *args: _complement(lift(*(_complement(a, n, d) for a in args)),
                                         len(f.source), d)

    swap = {"joins": "meets", "meets": "joins", None: None}
    return Lifting(f"dual_{l.name}", l.arity, l.functor, kernel, swap[l.keeps])


@dataclass(frozen=True)
class LiftingCheck:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _lift_table(l: Lifting, space: FuzzySpace, at: Carrier) -> dict[tuple[int, ...], int]:
    """Each tuple of the packed opens, in order, with its packed lift at
    every value in `at`: one kernel along the identity of `at`."""
    lift = l.kernel(space, CarrierMap.identity(at))
    return {args: lift(*args) for args in product(sorted(space.packed), repeat=l.arity)}


def _strs(space: FuzzySpace, args: Sequence[int]) -> tuple[str, ...]:
    return tuple(str(_from_bits(space.carrier, space.lattice, a)) for a in args)


def _monotone(l: Lifting, space: FuzzySpace, table: dict[tuple[int, ...], int]) -> LiftingCheck:
    """Pointwise order preservation over every comparable tuple of the
    lift table, on packed ints."""
    for lo, lo_value in table.items():
        for hi, hi_value in table.items():
            if not any(a & ~b for a, b in zip(lo, hi)) and lo_value & ~hi_value:
                return LiftingCheck(
                    False, f"{l.name} not monotone on {_strs(space, lo)} <= {_strs(space, hi)}")
    return LiftingCheck(True)


def _natural(l: Lifting, f: CarrierMap, image_map: CarrierMap, target: FuzzySpace,
             table: dict[tuple[int, ...], int]) -> LiftingCheck:
    """The naturality square of the continuous map f on every tuple of
    target opens: the lift at T S of the tuple pulled back along f, an
    open tuple of f's source read from its lift table, against the lift
    along T f (`image_map`), one kernel."""
    rhs, d = l.kernel(target, image_map), target.lattice.den
    for args in product(sorted(target.packed), repeat=l.arity):
        if table[tuple(_fields_along(a, d, f._back) for a in args)] != rhs(*args):
            return LiftingCheck(False, f"{l.name} naturality fails on opens {_strs(target, args)}")
    return LiftingCheck(True)


def _characteristic(space: FuzzySpace, image: FuzzySpace,
                    tables: Iterable[dict[tuple[int, ...], int]], max_size: int) -> bool:
    """Whether the lifts in the tables generate exactly the image
    topology, closed under the guard of `generate_topology`."""
    gens = {v for table in tables for v in table.values()}
    generated = FuzzySpace._generate(image.carrier, space.lattice, gens, max_size)
    generated.packed  # closed now: the guard trips here
    return generated == image


def check_monotone(l: Lifting, space: FuzzySpace) -> LiftingCheck:
    """Pointwise order preservation over every comparable open tuple; the
    lifting is read once per tuple, at all of T S, on packed ints."""
    return _monotone(l, space, _lift_table(l, space, l.functor.on_space(space).carrier))


def check_natural(l: Lifting, f: CarrierMap, source: FuzzySpace,
                  target: FuzzySpace) -> LiftingCheck:
    """Naturality square for one continuous map, on every open tuple, at
    all of T S: the lift at T S of the pulled-back opens against the lift
    along T f, each one kernel, on packed ints."""
    if not is_continuous(f, source, target):
        raise DiscontinuousMapError("check_natural requires a fuzzy continuous map")
    at = l.functor.on_space(source).carrier
    to = at if target is source else l.functor.on_space(target).carrier
    image_map = CarrierMap(at, to, tuple(map(l.functor.on_map(f, source, target), at)))
    return _natural(l, f, image_map, target, _lift_table(l, source, at))


def check_characteristic(sig: Signature, space: FuzzySpace,
                         max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """The liftings' images over opens generate exactly the image topology,
    under the guard of `generate_topology`."""
    image = sig.functor.on_space(space)
    return _characteristic(space, image, [_lift_table(l, space, image.carrier)
                                          for l in sig.liftings], max_size)


def check_signature(sig: Signature, space: FuzzySpace,
                    max_size: int = DEFAULT_MAX_SIZE) -> tuple[bool, list[str]]:
    """`sig check` on a topology: whether every lifting is monotone and
    natural along every continuous self-map of the space, and the
    liftings generate the image topology, with one line per lifting, one
    per failing map and lifting, and a natural and a characteristic line.

    It refuses an n-state space with more than max_size self-maps, then
    builds T S once, lifts each tuple of opens once per lifting at every
    value of T S, and closes the topology those lifts generate under the
    guard, before any check reads them. The space's opens are a topology,
    so every open is a join of primes and inverse images keep joins: a
    self-map is continuous iff each distinct prime pulls back to an open,
    and only a continuous one becomes a `CarrierMap`, with one T f map
    that every lifting reads. Its pulled-back opens are opens, so the
    left side of each square is read from the table.
    """
    n = len(space.carrier)
    if n ** n > max_size:
        raise ResourceLimitError("self-map enumeration", n ** n, max_size)
    image = sig.functor.on_space(space)
    at, tables = image.carrier, [_lift_table(l, space, image.carrier) for l in sig.liftings]
    characteristic = _characteristic(space, image, tables, max_size)
    monotone = [_monotone(l, space, table) for l, table in zip(sig.liftings, tables)]
    lines = [f"monotone[{l.name}]: {'PASS' if m else 'FAIL'}"
             for l, m in zip(sig.liftings, monotone)]
    d, last, states = space.lattice.den, n - 1, space.carrier.elements
    primes, natural = set(space.primes), True
    for targets in product(range(n), repeat=n):
        back = [(last - t, last - i) for i, t in enumerate(targets)]  # its CarrierMap._back
        if not all(space.is_open(_fields_along(j, d, back)) for j in primes):
            continue
        f = CarrierMap(space.carrier, space.carrier, tuple(states[t] for t in targets))
        image_map = CarrierMap(at, at, tuple(map(sig.functor.on_map(f, space, space), at)))
        for l, table in zip(sig.liftings, tables):
            if not _natural(l, f, image_map, space, table):
                natural = False
                lines.append(f"natural[{l.name}] on {f.assignment}: FAIL")
    lines += [f"natural: {'PASS' if natural else 'FAIL'} (all continuous self-maps)",
              f"characteristic: {'PASS' if characteristic else 'FAIL'}"]
    return all(monotone) and natural and characteristic, lines

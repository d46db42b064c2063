"""Finite fuzzy topological spaces.

A space is a carrier together with an explicit finite family of fuzzy
opens. Over a finite carrier and a finite grade chain every family of
fuzzy sets is finite, so closure under arbitrary joins coincides with
closure under binary joins.

Generation and validation work on each set's packed `bits`, where bit
(n-1-i)*d + k-1 is set iff the grade at state i is at least k/d. The
prime j_b of a bit b is the meet of the constant 1 and the members with
bit b set. In the topology a family generates, j_b is the smallest open
holding bit b, every open is the join of the primes of its bits, and the
distinct primes are exactly the join-irreducible opens: the fuzzy-point
form of minimal neighbourhoods (Pu and Liu, "Fuzzy topology I", 1980)
and of Birkhoff's representation. So the generated topology is the joins
of at most n*d primes, swept in one prime at a time, and a family holding
both constants is a topology iff that closure is no larger than it.

A space computes its primes (`FuzzySpace.primes`) and its `is_topology`
verdict once, and a generated space is handed those of its generators,
which are the same, and a verdict of yes. The primes are a join basis:
a join-preserving map, such as an inverse image, is known on every open
once it is known on the distinct primes. The co-prime c_b of
a topology, the join of the opens that lack bit b, is the join of the
primes that lack it, and every open is the meet of the co-primes of the
bits it lacks: the co-primes are a meet basis, for the maps that keep
meets. So a subspace pulls back the primes of each side, not every open,
and every reader of a lifting reads it on the basis it keeps (`_read_on`),
or on every open when it keeps neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter, or_
from typing import Callable, Iterable

from .errors import CarrierMismatchError, LatticeMismatchError, ResourceLimitError
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    _from_bits,
    all_fuzzy_sets,
    inverse_image,
)
from .grades import GradeLattice


@dataclass(frozen=True)
class FuzzySpace:
    """Carrier plus its declared family of fuzzy opens."""

    carrier: Carrier
    lattice: GradeLattice
    opens: frozenset[FuzzySet]

    def __post_init__(self):
        for o in self.opens:  # `is` first: the opens of a load share its carrier
            if o.carrier is not self.carrier and o.carrier != self.carrier:
                raise CarrierMismatchError("open not on the space's carrier")
            if o.lattice is not self.lattice and o.lattice != self.lattice:
                raise CarrierMismatchError("open uses a foreign grade lattice")

    @property
    def bottom_open(self) -> FuzzySet:
        return FuzzySet.empty(self.carrier, self.lattice)

    @property
    def top_open(self) -> FuzzySet:
        return FuzzySet.full(self.carrier, self.lattice)

    def sorted_opens(self) -> tuple[FuzzySet, ...]:
        """Opens in canonical numerator-tuple order."""
        return tuple(sorted(self.opens, key=attrgetter("bits")))

    @cached_property
    def _verdict(self) -> TopologyCheck:
        """`is_topology`'s verdict; computed once."""
        return _check_topology(self)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The packed prime of each bit, indexed by bit; computed once."""
        return _primes((o.bits for o in self.opens),
                       len(self.carrier) * self.lattice.den)


@dataclass(frozen=True)
class TopologyCheck:
    """Verdict of is_topology; violation names the first failing witness."""

    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _primes(family: Iterable[int], width: int) -> tuple[int, ...]:
    """The prime j_b of each bit b below `width`, indexed by b: the meet of
    the constant 1 and the packed members with bit b set."""
    primes = [(1 << width) - 1] * width
    for p in family:
        rest = p
        while rest:
            b = rest.bit_length() - 1
            primes[b] &= p
            rest ^= 1 << b
    return tuple(primes)


def _coprimes(primes: Iterable[int], width: int) -> list[int]:
    """The co-prime c_b of each bit b of a topology with these primes: the
    join of the distinct primes that lack bit b."""
    distinct = set(primes)
    return [reduce(or_, (j for j in distinct if not j >> b & 1), 0) for b in range(width)]


def _closure(primes: Iterable[int], limit: int) -> set[int] | None:
    """The packed topology the primes generate, as their joins swept in
    one prime at a time; None once it holds more than `limit` members. A
    sweep at most doubles the family."""
    found = {0}
    for j in set(primes):
        found.update([j | x for x in found])
        if len(found) > limit:
            return None
    return found


def _up(primes: tuple[int, ...], x: int) -> int:
    """The least open above the packed set x, the join of the primes of its
    bits; x is open iff it is its own `_up`."""
    out = 0
    while x:  # a bit inside an open already joined needs no prime: its prime is below
        out |= primes[x.bit_length() - 1]
        x &= ~out
    return out


def _read_on(keeps: str | None, primes: Iterable[int], width: int) -> set[int]:
    """The packed members of the topology with these primes on which a
    lifting that keeps `keeps` is read. One that keeps "joins" is known on
    the distinct primes and 0, as every open is the join of the primes
    below it (0 for none); one that keeps "meets" on the co-primes and 1,
    as every open is the meet of the co-primes above it (1 for none); any
    other lifting on every open."""
    if keeps == "joins":
        return set(primes) | {0}
    if keeps == "meets":
        return set(_coprimes(primes, width)) | {(1 << width) - 1}
    return _closure(primes, 1 << width)


def is_topology(space: FuzzySpace) -> TopologyCheck:
    """Constants present and binary meet/join closure; first violation reported.

    A family holding both constants is a topology iff the topology it
    generates is no larger. Only a negative verdict walks the rows of
    meets and joins in canonical order, for the first failing pair. The
    verdict is kept on the space, as its primes are.
    """
    return space._verdict


def _check_topology(space: FuzzySpace) -> TopologyCheck:
    """The verdict `is_topology` returns, computed from the opens."""
    width = len(space.carrier) * space.lattice.den
    family = {o.bits for o in space.opens}
    if 0 not in family:
        return TopologyCheck(False, "constant-0 fuzzy set missing")
    if (1 << width) - 1 not in family:
        return TopologyCheck(False, "constant-1 fuzzy set missing")
    if _closure(space.primes, len(family)) is not None:
        return TopologyCheck(True)
    packed = sorted(family)
    kind, a, b = next((kind, a, b) for i, a in enumerate(packed) for b in packed[i:]
                      for kind, c in (("meet", a & b), ("join", a | b)) if c not in family)
    a, b = (_from_bits(space.carrier, space.lattice, p) for p in (a, b))
    return TopologyCheck(False, f"{kind} of {a} and {b} not open")


def _start(carrier: Carrier, lattice: GradeLattice, sets: Iterable[FuzzySet]) -> set[int]:
    """The two constants and the packed sets, checked to lie on the carrier."""
    found = {0, (1 << len(carrier) * lattice.den) - 1}
    for s in sets:
        if s.carrier != carrier:
            raise CarrierMismatchError("subbasis member not on the given carrier")
        if s.lattice != lattice:
            raise LatticeMismatchError("subbasis member uses a foreign grade lattice")
        found.add(s.bits)
    return found


def _generate(carrier: Carrier, lattice: GradeLattice, basis: Iterable[FuzzySet],
              family: Callable[[], Iterable[FuzzySet]], max_size: int) -> FuzzySpace:
    """generate_topology(carrier, lattice, family(), max_size), where the
    sets `basis` generate the same topology as `family()`. The family is
    built only when the topology has more than max_size opens, because
    the guard's bound is max(max_size, its starting family)."""
    primes = _primes(_start(carrier, lattice, basis), len(carrier) * lattice.den)
    closed = _closure(primes, max_size)
    if closed is None:
        limit = max(max_size, len(_start(carrier, lattice, family())))
        closed = _closure(primes, limit) if limit > max_size else None
        if closed is None:
            raise ResourceLimitError("topology generation", limit + 1, max_size)
    space = FuzzySpace(carrier, lattice,
                       frozenset(_from_bits(carrier, lattice, p) for p in closed))
    vars(space)["primes"] = primes  # the generators' primes are the topology's
    vars(space)["_verdict"] = TopologyCheck(True)  # a closure is a topology
    return space


def generate_topology(carrier: Carrier, lattice: GradeLattice,
                      subbasis: Iterable[FuzzySet],
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Smallest fuzzy topology containing the subbasis.

    Adds the two constants and closes under binary meets and joins, as
    the joins of the primes. The family of all fuzzy sets here is
    finite, so closure under binary joins realizes closure under
    arbitrary joins. The guard trips once the family passes
    max(max_size, starting family) and reports that bound + 1.
    """
    subbasis = tuple(subbasis)
    return _generate(carrier, lattice, subbasis, lambda: subbasis, max_size)


def discrete_space(carrier: Carrier, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """All fuzzy sets open."""
    return FuzzySpace(carrier, lattice,
                      frozenset(all_fuzzy_sets(carrier, lattice, max_size)))


def indiscrete_space(carrier: Carrier, lattice: GradeLattice) -> FuzzySpace:
    """Only the two constants open."""
    return FuzzySpace(carrier, lattice,
                      frozenset({FuzzySet.empty(carrier, lattice),
                                 FuzzySet.full(carrier, lattice)}))


def _t0(primes: tuple[int, ...], d: int) -> bool:
    """The states' chains of primes j(s,1), ..., j(s,d) are distinct."""
    return len({tuple(primes[k:k + d]) for k in range(0, len(primes), d)}) * d == len(primes)


def is_t0(space: FuzzySpace) -> bool:
    """Some open separates the grades of every pair of distinct states:
    the n states' chains of primes j(s,1), ..., j(s,d) are distinct."""
    return _t0(space.primes, space.lattice.den)


def is_continuous(f: CarrierMap, source: FuzzySpace, target: FuzzySpace) -> bool:
    """Every pullback of a target open is open in the source."""
    if f.source != source.carrier or f.target != target.carrier:
        raise CarrierMismatchError("map does not connect the two spaces")
    return all(inverse_image(f, o) in source.opens for o in target.opens)


class _PrimeSpace(FuzzySpace):
    """The topology that the generators generate on the carrier, known by
    its primes, which are theirs (`_generate`): its opens, the joins of
    the primes, are generated only when something reads them."""

    def __init__(self, carrier: Carrier, lattice: GradeLattice, generators: Iterable[FuzzySet]):
        primes = _primes((g.bits for g in generators), len(carrier) * lattice.den)
        vars(self).update(carrier=carrier, lattice=lattice, primes=primes,
                          _verdict=TopologyCheck(True))

    @cached_property
    def opens(self) -> frozenset[FuzzySet]:
        closed = _closure(self.primes, 1 << len(self.primes))
        return frozenset(_from_bits(self.carrier, self.lattice, p) for p in closed)


def _pullback_basis(rel: Relation, left: FuzzySpace, right: FuzzySpace):
    """The projections with their sides, and the pullbacks of both sides'
    distinct primes, which generate the subspace topology and have its
    primes (`subspace_topology`)."""
    if rel.left != left.carrier or rel.right != right.carrier:
        raise CarrierMismatchError("relation does not connect the two spaces")
    sides = tuple(zip(rel.projections(), (left, right)))
    return sides, [inverse_image(pi, _from_bits(side.carrier, side.lattice, j))
                   for pi, side in sides for j in sorted(set(side.primes))]


def subspace_topology(rel: Relation, left: FuzzySpace, right: FuzzySpace,
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Topology on a relation's pair carrier, generated by the pullbacks of
    the two sides' opens along the projections.

    Each open is the join of the primes of its bits and each prime a meet
    of opens, and inverse images keep both, so the pullbacks of the
    distinct primes generate it, for any two families, and their primes
    are its primes. Every open is pulled back only when the topology
    passes the guard, to size it.
    """
    sides, basis = _pullback_basis(rel, left, right)
    return _generate(sides[0][0].source, left.lattice, basis, lambda: [
        inverse_image(pi, o) for pi, side in sides for o in side.sorted_opens()], max_size)

"""Finite fuzzy topological spaces.

A space is a carrier together with its fuzzy opens: a declared finite
family, or the topology a family generates, known by its primes until a
reader needs every open. Over a finite carrier and a finite grade chain
every family of fuzzy sets is finite, so closure under arbitrary joins
coincides with closure under binary joins.

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

A space holds its opens as packed ints and makes them fuzzy sets only
when a reader asks for them (`FuzzySpace.opens`). It computes its primes
(`FuzzySpace.primes`) and its `is_topology` verdict once, and a generated
space is handed those of its generators, which are the same, and a
verdict of yes; it closes its packed opens only when they are read
(`FuzzySpace.packed`), and tests one set for openness
(`FuzzySpace.is_open`) as its own join of primes. The primes are a join basis:
a join-preserving map, such as an inverse image, is known on every open
once it is known on the distinct primes. The co-prime c_b of
a topology, the join of the opens that lack bit b, is the join of the
primes that lack it, and every open is the meet of the co-primes of the
bits it lacks: the co-primes are a meet basis, for the maps that keep
meets. So a subspace pulls back the primes of each side, not every open,
and every reader of a lifting reads it on the basis it keeps (`_read_on`),
or on every open when it keeps neither.

A generated topology counts its opens without closing them
(`FuzzySpace.count_opens`). The opens are a finite distributive lattice
whose join-irreducibles are the distinct primes, so by Birkhoff's
representation o -> {primes below o} is a bijection from the opens onto
the down-sets of the distinct primes under inclusion, with inverse the
join. `_down_sets` counts those down-sets of a remaining set P of primes
by I(P) = I(P - x) + I(P - down(x)) for a maximal x: a down-set without x
is a down-set of P - x, and one with x is down(x) joined to a down-set of
P - down(x), and both are bijections. Where the comparability graph of P
falls apart, a down-set is one down-set of each component, so I(P) is
the product of their counts. Counting down-sets is #P-complete in
general (Provan and Ball, "The complexity of counting cuts and of
computing the probability that a graph is connected", SIAM J. Comput.
1983), so the memo of counts by remaining set is bounded by the guard.
That memo never holds more entries than there are opens. By induction,
the entries reached from R, 0 included, number at most I(R): R's two
parts A and B reach at most I(A) + I(B) - 1, as both reach 0, and R adds
one, which makes I(R) for a sum and at most I(A) * I(B) for a product,
as both counts are then at least 2. So the count answers under any guard
the closure answers under.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter, or_
from typing import Callable, Iterable, TypeVar

from .errors import CarrierMismatchError, LatticeMismatchError, ResourceLimitError
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    _fields_along,
    _from_bits,
    all_fuzzy_sets,
)
from .grades import GradeLattice

T = TypeVar("T")


@dataclass(frozen=True)
class TopologyCheck:
    """Verdict of is_topology; violation names the first failing witness."""

    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class FuzzySpace:
    """A carrier with its fuzzy opens, known by its primes.

    `FuzzySpace(carrier, lattice, opens)` declares a family, a topology or
    not, and keeps only its packed bits (`packed`), as `_declared` does for
    packed sets; its opens are made fuzzy sets when first read (`opens`,
    `sorted_opens`). A topology generated by `_generate` holds the primes
    of its generators, which are its own, and a verdict of yes; its opens,
    the joins of the primes, are closed when a reader first needs every
    open (`packed`, `opens`, `sorted_opens`), under the guard it was
    generated with. `is_open` tests one packed set without them, and
    `count_opens` counts them without closing them.

    Two spaces are equal iff their carriers, lattices and primes agree
    and either both are topologies or both declare the same family. A
    topology is fixed by its primes: each open is the join of the primes
    of its bits (`_up`), so two topologies with the same primes have the
    same opens, and a family that is not a topology differs from every
    topology. The hash is over the carrier, the lattice and the primes.
    """

    def __init__(self, carrier: Carrier, lattice: GradeLattice, opens: Iterable[FuzzySet]):
        packed = set()
        for o in opens:
            if o.carrier is not carrier and o.carrier != carrier:
                raise CarrierMismatchError("open not on the space's carrier")
            if o.lattice is not lattice and o.lattice != lattice:
                raise CarrierMismatchError("open uses a foreign grade lattice")
            packed.add(o.bits)
        vars(self).update(carrier=carrier, lattice=lattice, packed=frozenset(packed))

    @classmethod
    def _declared(cls, carrier: Carrier, lattice: GradeLattice, packed: frozenset[int]) -> FuzzySpace:
        """The space declaring the packed sets, each one field of
        lattice.den bits per carrier element, as its opens."""
        space = cls.__new__(cls)
        vars(space).update(carrier=carrier, lattice=lattice, packed=packed)
        return space

    @classmethod
    def _generate(cls, carrier: Carrier, lattice: GradeLattice, basis: Iterable[int],
                  max_size: int) -> FuzzySpace:
        """The topology that the packed sets `basis` generate, known by
        their primes, with the guard of generate_topology for `basis` for
        when its opens are read or counted (`_guarded`): the guard trips
        once the work passes max(max_size, starting family), where the
        starting family is the two constants and the distinct generators."""
        width, basis = len(carrier) * lattice.den, set(basis)
        space = cls.__new__(cls)
        vars(space).update(carrier=carrier, lattice=lattice, primes=_primes(basis, width),
                           _verdict=TopologyCheck(True),
                           _guard=(max_size, max(max_size, len(basis | {0, (1 << width) - 1}))))
        return space

    def __setattr__(self, name, value):
        raise AttributeError(f"FuzzySpace is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySpace):
            return NotImplemented
        ok = self._verdict.ok
        return (self.carrier, self.lattice, self.primes, ok) == (other.carrier, other.lattice,
                other.primes, other._verdict.ok) and (ok or self.packed == other.packed)

    def __hash__(self) -> int:
        return hash((self.carrier, self.lattice, self.primes))

    @property
    def bottom_open(self) -> FuzzySet:
        return FuzzySet.empty(self.carrier, self.lattice)

    @property
    def top_open(self) -> FuzzySet:
        return FuzzySet.full(self.carrier, self.lattice)

    @cached_property
    def packed(self) -> frozenset[int]:
        """The packed opens of a generated topology, closed once under the
        guard (`_guarded`)."""
        return frozenset(self._guarded("topology generation", _closure))

    def _guarded(self, what: str, run: Callable[[tuple[int, ...], int], T | None]) -> T:
        """run(primes, limit), which gives None once its work passes the
        limit, run once under the guard of a generated topology
        (`_generate`) and reporting that bound + 1 when it trips."""
        max_size, limit = self._guard
        if (out := run(self.primes, limit)) is None:
            raise ResourceLimitError(what, limit + 1, max_size)
        return out

    @cached_property
    def opens(self) -> frozenset[FuzzySet]:
        """The opens as fuzzy sets, made once from `packed` when first read."""
        return frozenset(_from_bits(self.carrier, self.lattice, p) for p in self.packed)

    def sorted_opens(self) -> tuple[FuzzySet, ...]:
        """Opens in canonical numerator-tuple order."""
        return tuple(sorted(self.opens, key=attrgetter("bits")))

    def count_opens(self) -> int:
        """How many opens there are: `packed`'s size once that is known,
        else, in a generated topology, the down-sets of its distinct primes
        (`_down_sets`), whose memo the guard bounds as it bounds `packed`
        (`_guarded`)."""
        if "packed" in vars(self):
            return len(self.packed)
        return self._guarded("open count", _down_sets)

    def is_open(self, bits: int) -> bool:
        """Whether the packed set is open: a member of `packed` once that is
        known, else, in a generated topology, the join of the primes of its
        bits (`_up`)."""
        return bits in self.packed if "packed" in vars(self) else _up(self.primes, bits) == bits

    @cached_property
    def _verdict(self) -> TopologyCheck:
        """`is_topology`'s verdict on the declared family, computed once."""
        for name, constant in (("0", 0), ("1", (1 << len(self.carrier) * self.lattice.den) - 1)):
            if constant not in self.packed:
                return TopologyCheck(False, f"constant-{name} fuzzy set missing")
        if _closure(self.primes, len(self.packed)) is not None:
            return TopologyCheck(True)
        packed = sorted(self.packed)
        kind, a, b = next((kind, a, b) for i, a in enumerate(packed) for b in packed[i:]
                          for kind, c in (("meet", a & b), ("join", a | b))
                          if c not in self.packed)
        a, b = (_from_bits(self.carrier, self.lattice, p) for p in (a, b))
        return TopologyCheck(False, f"{kind} of {a} and {b} not open")

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The packed prime of each bit, indexed by bit; computed once (a
        generated topology is handed its generators')."""
        return _primes(self.packed, len(self.carrier) * self.lattice.den)


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


def _basis(keeps: str, primes: Iterable[int], width: int) -> set[int]:
    """The basis of a topology with these primes that a map keeping
    `keeps` is read on: for "joins" the distinct primes; for "meets" the
    co-primes, where the co-prime c_b of bit b is the join of the distinct
    primes that lack bit b."""
    distinct = set(primes)
    if keeps == "joins":
        return distinct
    return {reduce(or_, (j for j in distinct if not j >> b & 1), 0) for b in range(width)}


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


def _down_sets(primes: Iterable[int], limit: int) -> int | None:
    """The number of down-sets of the distinct primes under inclusion.

    The remaining primes are a bitmask over the distinct primes in int
    order, which extends inclusion, so the top one left is maximal. A
    remaining set whose lowest prime's component is not all of it is the
    product of that component and the rest; a connected one is the sum
    over its top prime x of the sets without x and without down(x). The
    counts are memoized by remaining set and taken in post-order from a
    stack, where a tuple marks a set whose parts are pushed above it; None
    once the memo holds more than `limit` entries."""
    distinct = sorted(set(primes))
    linked = [1 << i for i in range(len(distinct))]  # the comparable primes of each
    for i, p in enumerate(distinct):
        for k in range(i):  # a smaller int is never above p
            if not distinct[k] & ~p:
                linked[i] |= 1 << k
                linked[k] |= 1 << i
    full = (1 << len(distinct)) - 1
    counts, todo = {0: 1}, [full]
    while todo:
        if type(rest := todo.pop()) is tuple:  # its parts are counted
            rest, a, b, joined = rest
            counts[rest] = counts[a] + counts[b] if joined else counts[a] * counts[b]
            if len(counts) > limit:
                return None
            continue
        if rest in counts:
            continue
        part = grow = rest & -rest  # the component of the lowest remaining prime
        while grow:
            b = grow.bit_length() - 1
            new = linked[b] & rest & ~part
            part, grow = part | new, grow ^ 1 << b | new
        if part == rest:  # connected: the top prime x is maximal, so down(x) is its links
            x = rest.bit_length() - 1
            a, b = rest ^ 1 << x, rest & ~linked[x]
        else:
            a, b = part, rest ^ part
        todo += ((rest, a, b, part == rest), a, b)
    return counts[full]


def _up(primes: tuple[int, ...], x: int) -> int:
    """The least open above the packed set x, the join of the primes of its
    bits; x is open iff it is its own `_up`."""
    out = 0
    while x:  # a bit inside an open already joined needs no prime: its prime is below
        out |= primes[x.bit_length() - 1]
        x &= ~out
    return out


def _read_on(keeps: str | None, primes: Iterable[int], width: int, limit: int, arity: int,
             what: str) -> set[int]:
    """The packed members of the topology with these primes on which a
    lifting of this arity that keeps `keeps` is read. One that keeps
    "joins" is known on the distinct primes and 0, as every open is the
    join of the primes below it (0 for none); one that keeps "meets" on
    the co-primes and 1, as every open is the meet of the co-primes above
    it (1 for none); any other lifting on every open, under the guard: a
    `ResourceLimitError` for `what` once the opens pass `limit`, reporting
    limit + 1 before they are all closed, or once their tuples of this
    arity do, reporting the tuple count."""
    if keeps in ("joins", "meets"):
        return _basis(keeps, primes, width) | {0 if keeps == "joins" else (1 << width) - 1}
    if (found := _closure(primes, limit)) is None:
        raise ResourceLimitError(what, limit + 1, limit)
    if (total := len(found) ** arity) > limit:
        raise ResourceLimitError(what, total, limit)
    return found


def is_topology(space: FuzzySpace) -> TopologyCheck:
    """Constants present and binary meet/join closure; first violation reported.

    A family holding both constants is a topology iff the topology it
    generates is no larger. Only a negative verdict walks the rows of
    meets and joins in canonical order, for the first failing pair. The
    verdict is kept on the space, as its primes are.
    """
    return space._verdict


def generate_topology(carrier: Carrier, lattice: GradeLattice,
                      subbasis: Iterable[FuzzySet],
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Smallest fuzzy topology containing the subbasis.

    Adds the two constants and closes under binary meets and joins, as
    the joins of the primes. The family of all fuzzy sets here is
    finite, so closure under binary joins realizes closure under
    arbitrary joins. The guard trips once the family passes
    max(max_size, starting family), the starting family being the
    constants and the distinct subbasis members, and reports that bound + 1.
    """
    packed = set()
    for s in subbasis:
        if s.carrier != carrier:
            raise CarrierMismatchError("subbasis member not on the given carrier")
        if s.lattice != lattice:
            raise LatticeMismatchError("subbasis member uses a foreign grade lattice")
        packed.add(s.bits)
    space = FuzzySpace._generate(carrier, lattice, packed, max_size)
    space.packed  # closed now: the guard trips at the call
    return space


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


def is_t0(space: FuzzySpace) -> bool:
    """Some open separates the grades of every pair of distinct states:
    the n states' chains of primes j(s,1), ..., j(s,d) are distinct."""
    primes, d = space.primes, space.lattice.den
    return len({tuple(primes[k:k + d]) for k in range(0, len(primes), d)}) * d == len(primes)


def is_continuous(f: CarrierMap, source: FuzzySpace, target: FuzzySpace) -> bool:
    """Every pullback of a target open is open in the source."""
    if f.source != source.carrier or f.target != target.carrier:
        raise CarrierMismatchError("map does not connect the two spaces")
    same, d = source.lattice == target.lattice, target.lattice.den
    return all(same and source.is_open(_fields_along(o, d, f._back)) for o in target.packed)


def _subspace(rel: Relation, left: FuzzySpace, right: FuzzySpace, max_size: int):
    """The projections, and the subspace topology on the pair carrier known
    by its primes: those of the pullbacks of both sides' distinct primes
    (`subspace_topology`), which also start its guard's family."""
    if rel.left != left.carrier or rel.right != right.carrier:
        raise CarrierMismatchError("relation does not connect the two spaces")
    if left.lattice != right.lattice:
        raise LatticeMismatchError("subbasis member uses a foreign grade lattice")
    sides, d = tuple(zip(projections := rel.projections(), (left, right))), left.lattice.den
    basis = [_fields_along(j, d, pi._back) for pi, side in sides for j in set(side.primes)]
    return projections, FuzzySpace._generate(projections[0].source, left.lattice, basis, max_size)


def subspace_topology(rel: Relation, left: FuzzySpace, right: FuzzySpace,
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Topology on a relation's pair carrier, generated by the pullbacks of
    the two sides' opens along the projections.

    Each open is the join of the primes of its bits and each prime a meet
    of opens, and inverse images keep both, so the pullbacks of the
    distinct primes generate it, for any two families, and their primes
    are its primes. No open of either side is read: the guard's starting
    family is those pullbacks and the constants, as in generate_topology.
    """
    space = _subspace(rel, left, right, max_size)[1]
    space.packed  # closed now: the guard trips at the call
    return space

"""Finite fuzzy topological spaces, and the closure engine behind them.

A space is a carrier together with an explicit finite family of fuzzy
opens. Over a finite carrier and a finite grade chain every family of
fuzzy sets is finite, so closure under arbitrary joins coincides with
closure under binary joins.

Generation and validation pack each set's cuts into one int, so that a
meet or a join is a single `&` or `|`. A family closed under such an
idempotent, commutative, associative operation is its generators swept
in turn over the growing family: no fixpoint rounds are needed.

The provenance-keeping least fixpoints are computed by `_close`, round
by round and semi-naively (Bancilhon and Ramakrishnan, 1986): a round
offers only the argument tuples that use an element added by the round
before, in the order a naive round over all elements would. Older tuples
were offered before, so results, their order and each element's
provenance (its first offer) are the naive ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product, repeat
from operator import and_, or_
from typing import Iterable

from .errors import CarrierMismatchError, LatticeMismatchError, ResourceLimitError
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    _from_cuts,
    all_fuzzy_sets,
    fs_join,
    fs_meet,
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
        for o in self.opens:
            if o.carrier != self.carrier:
                raise CarrierMismatchError("open not on the space's carrier")
            if o.lattice != self.lattice:
                raise CarrierMismatchError("open uses a foreign grade lattice")

    @property
    def bottom_open(self) -> FuzzySet:
        return FuzzySet.empty(self.carrier, self.lattice)

    @property
    def top_open(self) -> FuzzySet:
        return FuzzySet.full(self.carrier, self.lattice)

    def sorted_opens(self) -> tuple[FuzzySet, ...]:
        """Opens in canonical numerator-tuple order."""
        return tuple(sorted(self.opens, key=lambda f: f.key()))

    def is_open(self, f: FuzzySet) -> bool:
        return f in self.opens


@dataclass(frozen=True)
class TopologyCheck:
    """Verdict of is_topology; violation names the first failing witness."""

    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _packing(carrier: Carrier, lattice: GradeLattice):
    """pack(s) puts cut k + 1 of s in bits k*n up to (k+1)*n of one int;
    unpack inverts it."""
    n, d = len(carrier), lattice.den
    full = (1 << n) - 1
    return (lambda s: sum(cut << k * n for k, cut in enumerate(s.cuts)),
            lambda p: _from_cuts(carrier, lattice, tuple(p >> k * n & full for k in range(d))))


def is_topology(space: FuzzySpace) -> TopologyCheck:
    """Constants present and binary meet/join closure; first violation reported."""
    opens = space.sorted_opens()
    if space.bottom_open not in space.opens:
        return TopologyCheck(False, "constant-0 fuzzy set missing")
    if space.top_open not in space.opens:
        return TopologyCheck(False, "constant-1 fuzzy set missing")
    pack, _ = _packing(space.carrier, space.lattice)
    packed = list(map(pack, opens))
    family = set(packed)
    for i, p in enumerate(packed):  # meet and join commute
        if family.issuperset(map(p.__and__, packed[i:])) \
                and family.issuperset(map(p.__or__, packed[i:])):
            continue
        a = opens[i]  # the failing row, walked again for its first witness
        for b in opens[i:]:
            if fs_meet(a, b) not in space.opens:
                return TopologyCheck(False, f"meet of {a} and {b} not open")
            if fs_join(a, b) not in space.opens:
                return TopologyCheck(False, f"join of {a} and {b} not open")
    return TopologyCheck(True)


def _new_combos(items: list, old: int, arity: int, symmetric: bool, start: int = 0):
    """Tuples from `product(items, repeat=arity)`, or if symmetric from
    `combinations_with_replacement(items[start:], arity)`, in that order,
    that use an item at index >= old; all of them when old == 0."""
    if old == 0:
        yield from (combinations_with_replacement(items[start:], arity) if symmetric
                    else product(items, repeat=arity))
    elif arity:
        for i in range(start if arity > 1 else max(start, old), len(items)):
            for tail in _new_combos(items, old if i < old else 0, arity - 1,
                                    symmetric, i if symmetric else 0):
                yield (items[i], *tail)


def _close(found: dict, operations: list, rounds: int | None = None) -> None:
    """Extend `found` (element -> provenance) in place to the least dict
    closed under the operations (arity, symmetric, fn): fn maps a tuple of
    (element, provenance) items to the items it derives, and a symmetric
    operation gets each multiset of arguments once. At most `rounds` rounds
    run."""
    items, old = list(found.items()), 0
    for _ in repeat(None) if rounds is None else range(rounds):
        fresh: dict = {}
        for arity, symmetric, fn in operations:
            for args in _new_combos(items, old, arity, symmetric):
                for element, provenance in fn(*args):
                    if element not in found and element not in fresh:
                        fresh[element] = provenance
        if not fresh:
            break
        found.update(fresh)
        old = len(items)
        items += fresh.items()


def generate_topology(carrier: Carrier, lattice: GradeLattice,
                      subbasis: Iterable[FuzzySet],
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Smallest fuzzy topology containing the subbasis.

    Adds the two constants, then closes under binary meets (yielding a
    basis) and binary joins. The family of all fuzzy sets here is finite,
    so closure under binary joins realizes closure under arbitrary joins.
    The guard trips when a sweep adds an open and the family passes
    max_size, and reports max(max_size, starting family) + 1; a sweep at
    most doubles the family, so it bounds the work as well.
    """
    pack, unpack = _packing(carrier, lattice)
    found = {pack(FuzzySet.empty(carrier, lattice)), pack(FuzzySet.full(carrier, lattice))}
    for s in subbasis:
        if s.carrier != carrier:
            raise CarrierMismatchError("subbasis member not on the given carrier")
        if s.lattice != lattice:
            raise LatticeMismatchError("subbasis member uses a foreign grade lattice")
        found.add(pack(s))

    # meets first give a basis; meets of joins reduce to joins of basis meets
    start = len(found)
    for op in (and_, or_):
        for g in list(found):
            size = len(found)
            found.update([op(g, x) for x in found])
            if size < len(found) > max_size:
                raise ResourceLimitError("topology generation", max(max_size, start) + 1,
                                         max_size)
    return FuzzySpace(carrier, lattice, frozenset(map(unpack, found)))


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
    """Some open separates the grades of every pair of distinct points."""
    for i, x in enumerate(space.carrier.elements):
        for y in space.carrier.elements[i + 1:]:
            if all(o(x) == o(y) for o in space.opens):
                return False
    return True


def is_continuous(f: CarrierMap, source: FuzzySpace, target: FuzzySpace) -> bool:
    """Every pullback of a target open is open in the source."""
    if f.source != source.carrier or f.target != target.carrier:
        raise CarrierMismatchError("map does not connect the two spaces")
    return all(inverse_image(f, o) in source.opens for o in target.opens)


def subspace_topology(rel: Relation, left: FuzzySpace, right: FuzzySpace,
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Topology on a relation's pair carrier, generated by the pullbacks of
    the two sides' opens along the projections."""
    if rel.left != left.carrier or rel.right != right.carrier:
        raise CarrierMismatchError("relation does not connect the two spaces")
    pi1, pi2 = rel.projections()
    gens = [inverse_image(pi1, o) for o in left.sorted_opens()]
    gens += [inverse_image(pi2, o) for o in right.sorted_opens()]
    return generate_topology(rel.pair_carrier(), left.lattice, gens, max_size)


def opens_frame(space: FuzzySpace):
    """The opens ordered pointwise, as a finite frame."""
    from .frames import FiniteFrame

    opens = space.sorted_opens()
    pack, _ = _packing(space.carrier, space.lattice)
    packed = list(zip(opens, map(pack, opens)))
    leq = frozenset((a, b) for a, p in packed for b, q in packed if p & ~q == 0)
    return FiniteFrame(opens, leq, bottom=space.bottom_open, top=space.top_open)

"""Finite fuzzy topological spaces, and the closure engine behind them.

A space is a carrier together with an explicit finite family of fuzzy
opens. Over a finite carrier and a finite grade chain every family of
fuzzy sets is finite, so closure under arbitrary joins coincides with
closure under binary joins; generation and validation both work by
binary fixpoint.

Every least fixpoint in the package is computed by `_close`, round by
round and semi-naively (Bancilhon and Ramakrishnan, 1986): a round
offers only the argument tuples that use an element added by the round
before, in the order a naive round over all elements would. Older tuples
were offered before, so results, their order and each element's
provenance (its first offer) are the naive ones, and a guard trips on
the same inputs, though at the first element past its limit rather than
at the end of the round.
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
    fs_leq,
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


def is_topology(space: FuzzySpace) -> TopologyCheck:
    """Constants present and binary meet/join closure; first violation reported."""
    opens = space.sorted_opens()
    if space.bottom_open not in space.opens:
        return TopologyCheck(False, "constant-0 fuzzy set missing")
    if space.top_open not in space.opens:
        return TopologyCheck(False, "constant-1 fuzzy set missing")
    for i, a in enumerate(opens):
        for b in opens[i:]:  # meet and join commute
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


def _close(found: dict, operations: list, rounds: int | None = None,
           guard: tuple[str, int] | None = None) -> None:
    """Extend `found` (element -> provenance) in place to the least dict
    closed under the operations (arity, symmetric, fn): fn maps a tuple of
    (element, provenance) items to the items it derives, and a symmetric
    operation gets each multiset of arguments once. At most `rounds` rounds
    run; a guard (what, max_size) raises ResourceLimitError at the first new
    element past max_size, mid-round, so that it bounds the work and not
    only the result; it reports max_size + 1, or one past the starting dict
    when that is already larger."""
    items, old = list(found.items()), 0
    room = guard[1] - len(found) if guard is not None else None
    for _ in repeat(None) if rounds is None else range(rounds):
        fresh: dict = {}
        for arity, symmetric, fn in operations:
            for args in _new_combos(items, old, arity, symmetric):
                for element, provenance in fn(*args):
                    if element not in found and element not in fresh:
                        fresh[element] = provenance
                        if room is not None and len(fresh) > room:
                            raise ResourceLimitError(guard[0], len(found) + len(fresh),
                                                     guard[1])
        if not fresh:
            break
        found.update(fresh)
        if room is not None:
            room -= len(fresh)
        old = len(items)
        items += fresh.items()


def generate_topology(carrier: Carrier, lattice: GradeLattice,
                      subbasis: Iterable[FuzzySet],
                      max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Smallest fuzzy topology containing the subbasis.

    Adds the two constants, then closes under binary meets (yielding a
    basis) and binary joins, iterating to a fixpoint. The family of all
    fuzzy sets here is finite, so the fixpoint exists and realizes
    closure under arbitrary joins.
    """
    # The closure runs on each set's cuts packed into one int, cut k + 1 in
    # bits k*n up to (k+1)*n, so that a meet or a join is a single & or |.
    n, d = len(carrier), lattice.den
    full = (1 << n) - 1
    found = dict.fromkeys([0, sum(full << k * n for k in range(d))])
    for s in subbasis:
        if s.carrier != carrier:
            raise CarrierMismatchError("subbasis member not on the given carrier")
        if s.lattice != lattice:
            raise LatticeMismatchError("subbasis member uses a foreign grade lattice")
        found[sum(cut << k * n for k, cut in enumerate(s.cuts))] = None

    # meets first give a basis; meets of joins reduce to joins of basis meets
    for op in (and_, or_):
        _close(found, [(2, True, lambda a, b, op=op: ((op(a[0], b[0]), None),))],
               guard=("topology generation", max_size))
    return FuzzySpace(carrier, lattice, frozenset(
        _from_cuts(carrier, lattice, tuple(p >> k * n & full for k in range(d)))
        for p in found))


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
    leq = frozenset((a, b) for a in opens for b in opens if fs_leq(a, b))
    return FiniteFrame(opens, leq, bottom=space.bottom_open, top=space.top_open)

"""Finite frames, their points, and finite-instance duality checks.

A finite frame is a finite distributive lattice given by an explicit
order table, held as each element's down-set and up-set bitmask with a
dict from each mask back to its element: the meet of a and b is the
element whose down-set is down(a) & down(b), their join the one whose
up-set is up(a) & up(b), so a table of n elements is checked in O(n^2)
mask operations. Points are frame homomorphisms into a grade chain, read
off the multichains of join-irreducible elements (Birkhoff's
representation of finite distributive lattices), so sobriety and
spatiality verdicts are always relative to the chosen lattice and
reported as such. A space's opens frame is never built as a table: its
join-irreducibles are the space's distinct primes (see `topology`), so
sobriety counts their multichains. A point space's carrier holds each
point as its tuple of numerators in element order, and its opens are
exactly the evaluation opens h -> h(a), which points keep closed under
meets and joins. The duality check reads a space's point space on the
join basis of its opens, the distinct primes and 0: every map it
compares keeps joins, so it is known there (`duality_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Hashable, Iterable, Mapping

from .errors import MalformedFrameError, NotSoberError, PreconditionError, ResourceLimitError
from .fuzzyset import DEFAULT_MAX_SIZE, Carrier, CarrierMap, FuzzySet, _fields_along, _pack
from .grades import Grade, GradeLattice
from .topology import FuzzySpace, _primes, _up, is_t0, is_topology


@dataclass(frozen=True)
class FiniteFrame:
    """Finite lattice: ordered elements, full <= table, designated ends.

    Bit j of `_down[i]` (`_up[i]`) is set iff element j is below (above)
    element i; `_by_down` and `_by_up` map each mask back to its element.
    `_irreducible` has a bit for each join-irreducible j: one whose strictly
    lower elements are the down-set of one element.
    """

    elements: tuple[Hashable, ...]
    leq: frozenset[tuple[Hashable, Hashable]]
    bottom: Hashable
    top: Hashable

    def __post_init__(self):
        if not self.elements:
            raise MalformedFrameError("a frame needs at least one element")
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise MalformedFrameError("duplicate frame elements")
        down, up = [0] * len(index), [0] * len(index)
        for a, b in self.leq:
            if a not in index or b not in index:
                raise MalformedFrameError(f"order pair ({a!r}, {b!r}) uses unknown elements")
            down[index[b]] |= 1 << index[a]
            up[index[a]] |= 1 << index[b]
        if self.bottom not in index or self.top not in index:
            raise MalformedFrameError("designated top/bottom not among the elements")
        by_down = dict(zip(down, self.elements))
        irreducible = sum(1 << j for j, mask in enumerate(down) if mask & ~(1 << j) in by_down)
        for name, value in (("_index", index), ("_down", tuple(down)), ("_up", tuple(up)),
                            ("_by_down", by_down), ("_by_up", dict(zip(up, self.elements))),
                            ("_irreducible", irreducible)):
            object.__setattr__(self, name, value)

    @classmethod
    def chain(cls, elements: tuple[Hashable, ...] | list[Hashable]) -> "FiniteFrame":
        """Total order in ascending listing order."""
        elems = tuple(elements)
        return cls.from_order(elems, zip(elems, elems[1:]))

    @classmethod
    def from_order(cls, elements, pairs) -> "FiniteFrame":
        """Build from a strict-or-partial pair list; takes the
        reflexive-transitive closure and derives top/bottom."""
        elems = tuple(elements)
        index = {e: i for i, e in enumerate(elems)}
        up = [1 << i for i in range(len(elems))]
        for a, b in pairs:
            if a not in index or b not in index:
                raise MalformedFrameError(f"order pair ({a!r}, {b!r}) uses unknown elements")
            up[index[a]] |= 1 << index[b]
        for k in range(len(up)):  # Warshall: after step k, paths may pass 0..k
            for i, row in enumerate(up):
                if row >> k & 1:
                    up[i] = row | up[k]
        leq = frozenset((a, b) for a, row in zip(elems, up)
                        for j, b in enumerate(elems) if row >> j & 1)
        bottoms = [a for a, row in zip(elems, up) if row == (1 << len(elems)) - 1]
        tops = [b for j, b in enumerate(elems) if all(row >> j & 1 for row in up)]
        if len(bottoms) != 1 or len(tops) != 1:
            raise MalformedFrameError("order has no unique top/bottom")
        return cls(elems, leq, bottom=bottoms[0], top=tops[0])

    def holds(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def meet(self, a: Hashable, b: Hashable) -> Hashable | None:
        return self._by_down.get(self._down[self._index[a]] & self._down[self._index[b]])

    def join(self, a: Hashable, b: Hashable) -> Hashable | None:
        return self._by_up.get(self._up[self._index[a]] & self._up[self._index[b]])

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FrameCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_frame(candidate: FiniteFrame) -> FrameCheck:
    """Finite lattice completeness plus the distributive law.

    A table that is not a partial order at all raises MalformedFrameError;
    lattice or distributivity failures are reported with a witness.
    Distributivity is Birkhoff's test: a finite lattice is distributive
    iff each join-irreducible j below a v b is below a or below b, and a
    j that is neither makes (j, a, b) fail the law.
    """
    elems, index, down, up = candidate.elements, candidate._index, candidate._down, candidate._up
    for i, a in enumerate(elems):
        if not up[i] >> i & 1:
            raise MalformedFrameError(f"order not reflexive at {a!r}")
    for (i, a), (j, b) in product(enumerate(elems), repeat=2):
        if not up[i] >> j & 1:
            continue
        if a != b and up[j] >> i & 1:
            raise MalformedFrameError(f"order not antisymmetric on {a!r}, {b!r}")
        beyond = up[j] & ~up[i]  # the c with b <= c but not a <= c; take the first
        if beyond:
            c = elems[(beyond & -beyond).bit_length() - 1]
            raise MalformedFrameError(f"order not transitive via {a!r} <= {b!r} <= {c!r}")
    for a in elems:
        if not candidate.holds(candidate.bottom, a):
            return FrameCheck(False, f"designated bottom is not below {a!r}")
        if not candidate.holds(a, candidate.top):
            return FrameCheck(False, f"designated top is not above {a!r}")
    for a, b in product(elems, repeat=2):
        if candidate.meet(a, b) is None:
            return FrameCheck(False, f"no meet for ({a!r}, {b!r})")
        if candidate.join(a, b) is None:
            return FrameCheck(False, f"no join for ({a!r}, {b!r})")
    for (i, a), (k, b) in combinations(enumerate(elems), 2):
        missing = down[index[candidate.join(a, b)]] & candidate._irreducible \
            & ~(down[i] | down[k])
        if missing:
            j = elems[missing.bit_length() - 1]
            return FrameCheck(False, f"distributivity fails on ({j!r}, {a!r}, {b!r})")
    return FrameCheck(True)


def is_frame_hom(f: Mapping[Hashable, Hashable], source: FiniteFrame,
                 target: FiniteFrame) -> bool:
    """Preserves binary meets, binary joins, top and bottom.

    Binary preservation suffices here: in a finite lattice every join is
    an iterated binary join and the empty cases are the designated ends.
    False, not an error, when f misses a source element or leaves the
    target, or when a pair of source elements has no meet or no join.
    """
    if any(a not in f or f[a] not in target._index for a in source.elements):
        return False
    if f[source.bottom] != target.bottom or f[source.top] != target.top:
        return False
    for a, b in product(source.elements, repeat=2):
        meet, join = source.meet(a, b), source.join(a, b)
        if meet is None or join is None or f[meet] != target.meet(f[a], f[b]) \
                or f[join] != target.join(f[a], f[b]):
            return False
    return True


@dataclass(frozen=True)
class FramePoint:
    """Frame homomorphism into a grade chain, stored in element order."""

    frame: FiniteFrame
    values: tuple[Grade, ...]

    def __call__(self, element: Hashable) -> Grade:
        return self.values[self.frame._index[element]]


def points(frame: FiniteFrame, lattice: GradeLattice,
           max_size: int = DEFAULT_MAX_SIZE) -> tuple[FramePoint, ...]:
    """All lattice-valued frame homomorphisms, in lexicographic value order.

    Precondition: `frame` passes `is_frame`; otherwise PreconditionError.
    In a finite distributive lattice each cut {a : h(a) >= k/d} of a point
    h is a principal filter of a join-irreducible j_k (Birkhoff, "Rings of
    sets", 1937), so the points are exactly the multichains j_1 <= ... <= j_d
    of join-irreducibles, with h(a) = #{k : j_k <= a}/d. The guard, checked
    before `is_frame`, counts the n^2 ordered element pairs whose masks
    `is_frame` combines (n = |frame|), the candidate multichains,
    C(|J| + d - 1, d), and the d + 1 grades.
    """
    down, up = frame._down, frame._up
    irreducibles = sorted((j for j in range(len(frame)) if frame._irreducible >> j & 1),
                          key=lambda j: down[j].bit_count())  # a linear extension
    d = lattice.den
    size = max(len(frame) ** 2, comb(len(irreducibles) + d - 1, d), d + 1)
    if size > max_size:
        raise ResourceLimitError("point enumeration", size, max_size)
    check = is_frame(frame)
    if not check:
        raise PreconditionError(f"points requires a frame: {check.violation}")
    found = sorted(
        tuple(sum(mask >> j & 1 for j in chain) for mask in down)
        for chain in combinations_with_replacement(irreducibles, d)
        if all(up[j] >> k & 1 for j, k in zip(chain, chain[1:])))
    vals = lattice.values
    return tuple(FramePoint(frame, tuple(vals[k] for k in nums)) for nums in found)


def _point_space(elements: tuple[Hashable, ...], nums: Iterable[tuple[int, ...]],
                 lattice: GradeLattice):
    """The evaluation open h -> h(a) of each element a, on the carrier of
    points held as their numerator tuples in element order, and the space
    of those opens. Points keep h(a & b) = min, h(a | b) = max, h(bottom) = 0
    and h(top) = 1, so the evaluation opens are closed under meets and
    joins and hold both constants: they are the topology they generate
    (Johnstone, "Stone Spaces", 1982, II.1)."""
    carrier, vals = Carrier(tuple(nums)), lattice.values
    evaluation = {a: FuzzySet(carrier, lattice, tuple(vals[h[i]] for h in carrier))
                  for i, a in enumerate(elements)}
    return evaluation, FuzzySpace(carrier, lattice, frozenset(evaluation.values()))


def point_topology(frame: FiniteFrame, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Space of points with the topology generated by evaluation opens:
    one open per frame element a, valued h -> h(a)."""
    nums = (tuple(g.num for g in p.values) for p in points(frame, lattice, max_size))
    return _point_space(frame.elements, nums, lattice)[1]


def pt_on_morphism(f: Mapping[Hashable, Hashable], source: FiniteFrame,
                   target: FiniteFrame, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> CarrierMap:
    """Precomposition with a frame homomorphism f: source -> target,
    as a map from the points of the target to the points of the source."""
    if not is_frame_hom(f, source, target):
        raise PreconditionError("pt_on_morphism requires a frame homomorphism")
    src, tgt = (point_topology(frame, lattice, max_size).carrier
                for frame in (source, target))
    at = [target._index[f[a]] for a in source.elements]
    return CarrierMap(tgt, src, tuple(tuple(h[i] for i in at) for h in tgt))


def is_sober(space: FuzzySpace) -> bool:
    """True iff the state-to-point map s -> (open g -> g(s)) into the points
    of the opens frame is bijective (lattice-relative).

    Precondition: the opens are a topology; otherwise PreconditionError.
    The join-irreducible opens are the distinct primes of `topology`, so
    the points are their multichains j_1 <= ... <= j_d, and state s is the
    point j(s,1) <= ... <= j(s,d). Sober iff these n chains are distinct
    (T0) and there are n multichains, counted one length at a time.
    """
    check = is_topology(space)
    if not check:
        raise PreconditionError(f"sobriety requires a topology: {check.violation}")
    n, d, irreducible = len(space.carrier), space.lattice.den, set(space.primes)
    if len(irreducible) > n or not is_t0(space):  # each j <= ... <= j is a point
        return False
    ending = dict.fromkeys(irreducible, 1)  # multichains of length 1 ending at j
    for _ in range(d - 1):
        if sum(ending.values()) > n:
            return False
        ending = {j: sum(c for i, c in ending.items() if not i & ~j) for j in irreducible}
    return sum(ending.values()) == n


def is_spatial(frame: FiniteFrame, lattice: GradeLattice,
               max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """True iff a -> (evaluation open of a) is an isomorphism onto the
    opens frame of the point space (lattice-relative). Points preserve
    meets and joins, so the evaluation opens are all the opens they
    generate and the map is a lattice homomorphism onto them: an
    isomorphism iff the points separate the elements."""
    pts = points(frame, lattice, max_size)
    return len({tuple(h(a) for h in pts) for a in frame.elements}) == len(frame)


@dataclass(frozen=True)
class DualityReport:
    """One line per duality check; all must pass on a sober space."""

    items: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.items)

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        return "\n".join(f"{name}: {'PASS' if ok else 'FAIL'}"
                         for name, ok in self.items)


def duality_check(space: FuzzySpace) -> DualityReport:
    """Verify the state-to-point map eta is a fuzzy homeomorphism.

    Checks, one line each: bijectivity, fuzzy continuity, openness of
    direct images, that each open's direct image is exactly the
    evaluation open of that open in the point space, and that its
    pullback is the open again. A space that is not sober raises
    NotSoberError; sobriety is eta's bijectivity.

    The lines are read on the join basis B of the opens, the distinct
    primes and 0 (`topology`), on packed ints (`_eta_lines`). Each open is
    the join of the members of B below it, and each map a line reads
    keeps joins: the direct and inverse images along eta, and the
    evaluation o -> (h -> h(o)), as every point h keeps joins. Two maps
    that keep joins and agree on B agree on every open; one that keeps
    joins and sends B into a family closed under joins, as the opens of
    either space are, sends every open there. So each line holds on every
    open iff it holds on B. For the same reason a point is fixed by its
    grades at B, which name it, and the point space's opens, the
    evaluation opens, are the joins of those of B: the topology they
    generate. Sobriety makes the space T0, so the names separate the
    states, and the points are the states' names, sorted.
    """
    if not is_sober(space):
        raise NotSoberError("duality_check requires a sober space")
    return _eta_lines(space, *_state_names(space))


def _state_names(space: FuzzySpace) -> tuple[list[int], list[tuple[int, ...]]]:
    """The packed join basis of the opens, the distinct primes and 0 in
    int order, and each state's name: its numerators there, in carrier
    order."""
    basis, n, d = sorted({0, *space.primes}), len(space.carrier), space.lattice.den
    return basis, [tuple((b >> shift & (1 << d) - 1).bit_length() for b in basis)
                   for shift in range((n - 1) * d, -1, -d)]


def _eta_lines(space: FuzzySpace, basis: list[int],
               names: list[tuple[int, ...]]) -> DualityReport:
    """The five lines of `duality_check` for the map eta from state i to
    the point named names[i], its numerators at the packed join basis
    `basis`. The point space's carrier is the names, sorted; the
    evaluation open of a member b of the basis holds h(b) at each point
    h, and an open of the point space is its own join of the primes of
    the evaluation opens."""
    n, d = len(space.carrier), space.lattice.den
    points = sorted(names)
    position = {h: n - 1 - k for k, h in enumerate(points)}
    forward = [(n - 1 - i, position[h]) for i, h in enumerate(names)]  # eta's edges
    back = [(j, i) for i, j in forward]
    evaluation = [_pack([h[k] for h in points], d) for k in range(len(basis))]
    images = [_fields_along(b, d, forward) for b in basis]
    pullbacks = [_fields_along(e, d, back) for e in evaluation]
    point_primes = _primes(evaluation, n * d)
    return DualityReport((
        ("eta bijective", True),  # the NotSoberError check above
        ("eta fuzzy continuous", all(_up(space.primes, p) == p for p in pullbacks)),
        ("eta open map", all(_up(point_primes, x) == x for x in images)),
        ("eta image equals evaluation open", images == evaluation),
        ("eta pullback recovers each open", pullbacks == basis),
    ))

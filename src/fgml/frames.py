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
reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Hashable, Mapping

from .errors import (
    MalformedFrameError,
    NotSoberError,
    PreconditionError,
    ResourceLimitError,
)
from .fuzzyset import DEFAULT_MAX_SIZE, Carrier, CarrierMap, FuzzySet, direct_image, inverse_image
from .grades import Grade, GradeLattice
from .topology import FuzzySpace, generate_topology, is_continuous, opens_frame


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
    """
    if any(a not in f for a in source.elements):
        return False
    if f[source.bottom] != target.bottom or f[source.top] != target.top:
        return False
    return all(f[source.meet(a, b)] == target.meet(f[a], f[b])
               and f[source.join(a, b)] == target.join(f[a], f[b])
               for a, b in product(source.elements, repeat=2))


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


def named_points(frame: FiniteFrame, lattice: GradeLattice,
                 max_size: int = DEFAULT_MAX_SIZE
                 ) -> tuple[tuple[str, FramePoint], ...]:
    """Points with their canonical carrier-atom names."""
    return tuple((f"pt({','.join(str(g) for g in p.values)})", p)
                 for p in points(frame, lattice, max_size))


def _point_space(frame: FiniteFrame, lattice: GradeLattice, max_size: int):
    """The named points, the evaluation open h -> h(a) of each element a,
    and the topology those opens generate on the points."""
    named = named_points(frame, lattice, max_size)
    carrier = Carrier(tuple(name for name, _ in named))
    evaluation = {a: FuzzySet(carrier, lattice, tuple(p(a) for _, p in named))
                  for a in frame.elements}
    return named, evaluation, generate_topology(carrier, lattice, evaluation.values(),
                                                max_size)


def point_topology(frame: FiniteFrame, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Space of points with the topology generated by evaluation opens:
    one generator per frame element a, valued h -> h(a)."""
    return _point_space(frame, lattice, max_size)[2]


def pt_on_morphism(f: Mapping[Hashable, Hashable], source: FiniteFrame,
                   target: FiniteFrame, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> CarrierMap:
    """Precomposition with a frame homomorphism f: source -> target,
    as a map from the points of the target to the points of the source."""
    if not is_frame_hom(f, source, target):
        raise PreconditionError("pt_on_morphism requires a frame homomorphism")
    src_named = named_points(source, lattice, max_size)
    tgt_named = named_points(target, lattice, max_size)
    src_by_values = {p.values: name for name, p in src_named}
    assignment = []
    for _, h in tgt_named:
        composite = tuple(h(f[a]) for a in source.elements)
        assignment.append(src_by_values[composite])
    return CarrierMap(Carrier(tuple(n for n, _ in tgt_named)),
                      Carrier(tuple(n for n, _ in src_named)),
                      tuple(assignment))


def _bijective(eta: CarrierMap) -> bool:
    return len(set(eta.assignment)) == len(eta.source) == len(eta.target)


def state_point_map(space: FuzzySpace, max_size: int = DEFAULT_MAX_SIZE
                    ) -> tuple[CarrierMap, FuzzySpace, FiniteFrame, dict[FuzzySet, FuzzySet]]:
    """The canonical map s -> (open g -> g(s)) into the points of the
    opens frame, plus the point space, the opens frame, and each open's
    evaluation open h -> h(g) in the point space."""
    pairs = len(space.opens) ** 2
    if pairs > max_size:  # before opens_frame compares every pair of opens
        raise ResourceLimitError("point enumeration", pairs, max_size)
    frame = opens_frame(space)
    named, evaluation, point_space = _point_space(frame, space.lattice, max_size)
    by_values = {p.values: name for name, p in named}
    eta = CarrierMap(space.carrier, point_space.carrier, tuple(
        by_values[tuple(o(s) for o in frame.elements)] for s in space.carrier))
    return eta, point_space, frame, evaluation


def is_sober(space: FuzzySpace, max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """True iff the state-to-point map is bijective (lattice-relative)."""
    return _bijective(state_point_map(space, max_size)[0])


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


def duality_check(space: FuzzySpace, max_size: int = DEFAULT_MAX_SIZE) -> DualityReport:
    """Verify the state-to-point map is a fuzzy homeomorphism.

    Checks, one line each: bijectivity, fuzzy continuity, openness of
    direct images, and that each open's direct image is exactly the
    evaluation open of that open in the point space. A space that is
    not sober raises NotSoberError.
    """
    eta, point_space, _, evaluation = state_point_map(space, max_size)
    if not _bijective(eta):
        raise NotSoberError("duality_check requires a sober space")
    return DualityReport((
        ("eta bijective", True),  # the NotSoberError check above
        ("eta fuzzy continuous", is_continuous(eta, space, point_space)),
        ("eta open map",
         all(direct_image(eta, o) in point_space.opens for o in space.opens)),
        ("eta image equals evaluation open",
         all(direct_image(eta, o) == evaluation[o] for o in space.opens)),
        ("eta pullback recovers each open",
         all(inverse_image(eta, evaluation[o]) == o for o in space.opens)),
    ))

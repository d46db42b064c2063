"""Finite frames, their points, and finite-instance duality checks.

A finite frame is a finite distributive lattice given by an explicit
order table. Points are frame homomorphisms into a grade chain, found by
exhaustive enumeration, so sobriety and spatiality verdicts are always
relative to the chosen lattice and reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .errors import (
    MalformedFrameError,
    NotSoberError,
    PreconditionError,
    ResourceLimitError,
)
from .fuzzyset import DEFAULT_MAX_SIZE, Carrier, CarrierMap, FuzzySet, direct_image, inverse_image
from .grades import Grade, GradeLattice
from .topology import FuzzySpace, _close, generate_topology, is_continuous, opens_frame


@dataclass(frozen=True)
class FiniteFrame:
    """Finite lattice: ordered elements, full <= table, designated ends."""

    elements: tuple[Hashable, ...]
    leq: frozenset[tuple[Hashable, Hashable]]
    bottom: Hashable
    top: Hashable

    def __post_init__(self):
        if not self.elements:
            raise MalformedFrameError("a frame needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise MalformedFrameError("duplicate frame elements")
        known = set(self.elements)
        for a, b in self.leq:
            if a not in known or b not in known:
                raise MalformedFrameError(f"order pair ({a!r}, {b!r}) uses unknown elements")
        if self.bottom not in known or self.top not in known:
            raise MalformedFrameError("designated top/bottom not among the elements")
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})

    @classmethod
    def chain(cls, elements: tuple[Hashable, ...] | list[Hashable]) -> "FiniteFrame":
        """Total order in ascending listing order."""
        elems = tuple(elements)
        leq = frozenset((elems[i], elems[j])
                        for i in range(len(elems)) for j in range(i, len(elems)))
        return cls(elems, leq, bottom=elems[0], top=elems[-1])

    @classmethod
    def from_order(cls, elements, pairs) -> "FiniteFrame":
        """Build from a strict-or-partial pair list; takes the
        reflexive-transitive closure and derives top/bottom."""
        elems = tuple(elements)
        rel = dict.fromkeys([(a, a) for a in elems] + [tuple(p) for p in pairs])

        def compose(ab, cd):
            (a, b), (c, d) = ab[0], cd[0]
            return (((a, d), None),) if b == c else ()

        _close(rel, [(2, False, compose)])
        bottoms = [a for a in elems if all((a, b) in rel for b in elems)]
        tops = [a for a in elems if all((b, a) in rel for b in elems)]
        if len(bottoms) != 1 or len(tops) != 1:
            raise MalformedFrameError("order has no unique top/bottom")
        return cls(elems, frozenset(rel), bottom=bottoms[0], top=tops[0])

    def holds(self, a: Hashable, b: Hashable) -> bool:
        return (a, b) in self.leq

    def _tables(self):
        """Meet/join lookup tables; None entries mark missing bounds."""
        cache = self._cache
        if "tables" not in cache:
            meets, joins = {}, {}
            for a in self.elements:
                for b in self.elements:
                    lower = [c for c in self.elements
                             if self.holds(c, a) and self.holds(c, b)]
                    glb = [c for c in lower if all(self.holds(d, c) for d in lower)]
                    upper = [c for c in self.elements
                             if self.holds(a, c) and self.holds(b, c)]
                    lub = [c for c in upper if all(self.holds(c, d) for d in upper)]
                    meets[a, b] = glb[0] if len(glb) == 1 else None
                    joins[a, b] = lub[0] if len(lub) == 1 else None
            cache["tables"] = (meets, joins)
        return cache["tables"]

    def meet(self, a: Hashable, b: Hashable) -> Hashable | None:
        return self._tables()[0][a, b]

    def join(self, a: Hashable, b: Hashable) -> Hashable | None:
        return self._tables()[1][a, b]

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
    """
    elems = candidate.elements
    for a in elems:
        if not candidate.holds(a, a):
            raise MalformedFrameError(f"order not reflexive at {a!r}")
    for a in elems:
        for b in elems:
            if a != b and candidate.holds(a, b) and candidate.holds(b, a):
                raise MalformedFrameError(f"order not antisymmetric on {a!r}, {b!r}")
            for c in elems:
                if candidate.holds(a, b) and candidate.holds(b, c) \
                        and not candidate.holds(a, c):
                    raise MalformedFrameError(
                        f"order not transitive via {a!r} <= {b!r} <= {c!r}")
    for a in elems:
        if not candidate.holds(candidate.bottom, a):
            return FrameCheck(False, f"designated bottom is not below {a!r}")
        if not candidate.holds(a, candidate.top):
            return FrameCheck(False, f"designated top is not above {a!r}")
    for a in elems:
        for b in elems:
            if candidate.meet(a, b) is None:
                return FrameCheck(False, f"no meet for ({a!r}, {b!r})")
            if candidate.join(a, b) is None:
                return FrameCheck(False, f"no join for ({a!r}, {b!r})")
    for a in elems:
        for b in elems:
            for c in elems:
                lhs = candidate.meet(a, candidate.join(b, c))
                rhs = candidate.join(candidate.meet(a, b), candidate.meet(a, c))
                if lhs != rhs:
                    return FrameCheck(
                        False, f"distributivity fails on ({a!r}, {b!r}, {c!r})")
    return FrameCheck(True)


def is_frame_hom(f: Mapping[Hashable, Hashable], source: FiniteFrame,
                 target: FiniteFrame) -> bool:
    """Preserves binary meets, binary joins, top and bottom.

    Binary preservation suffices here: in a finite lattice every join is
    an iterated binary join and the empty cases are the designated ends.
    """
    for a in source.elements:
        if a not in f:
            return False
    if f[source.bottom] != target.bottom or f[source.top] != target.top:
        return False
    for a in source.elements:
        for b in source.elements:
            if f[source.meet(a, b)] != target.meet(f[a], f[b]):
                return False
            if f[source.join(a, b)] != target.join(f[a], f[b]):
                return False
    return True


@dataclass(frozen=True)
class FramePoint:
    """Frame homomorphism into a grade chain, stored in element order."""

    frame: FiniteFrame
    values: tuple[Grade, ...]

    def __call__(self, element: Hashable) -> Grade:
        return self.values[self.frame._index[element]]


def grade_chain(lattice: GradeLattice) -> FiniteFrame:
    """The grade lattice itself, viewed as a frame."""
    return FiniteFrame.chain(lattice.values)


def points(frame: FiniteFrame, lattice: GradeLattice,
           max_size: int = DEFAULT_MAX_SIZE) -> tuple[FramePoint, ...]:
    """All lattice-valued frame homomorphisms, in lexicographic value order."""
    total = len(lattice) ** len(frame)
    if total > max_size:
        raise ResourceLimitError("point enumeration", total, max_size)
    vals = lattice.values
    chain = grade_chain(lattice)
    found: list[FramePoint] = []

    def assign(prefix: list[Grade]):
        if len(prefix) == len(frame.elements):
            h = dict(zip(frame.elements, prefix))
            if is_frame_hom(h, frame, chain):
                found.append(FramePoint(frame, tuple(prefix)))
            return
        for v in vals:
            assign(prefix + [v])

    assign([])
    return tuple(found)


def named_points(frame: FiniteFrame, lattice: GradeLattice,
                 max_size: int = DEFAULT_MAX_SIZE
                 ) -> tuple[tuple[str, FramePoint], ...]:
    """Points with their canonical carrier-atom names."""
    return tuple((f"pt({','.join(str(g) for g in p.values)})", p)
                 for p in points(frame, lattice, max_size))


def point_topology(frame: FiniteFrame, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """Space of points with the topology generated by evaluation opens:
    one generator per frame element a, valued h -> h(a)."""
    named = named_points(frame, lattice, max_size)
    carrier = Carrier(tuple(name for name, _ in named))
    gens = [FuzzySet(carrier, lattice, tuple(p(a) for _, p in named))
            for a in frame.elements]
    return generate_topology(carrier, lattice, gens, max_size)


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


def state_point_map(space: FuzzySpace, max_size: int = DEFAULT_MAX_SIZE
                    ) -> tuple[CarrierMap, FuzzySpace, FiniteFrame]:
    """The canonical map s -> (open g -> g(s)) into the points of the
    opens frame, plus the point space and the opens frame themselves."""
    frame = opens_frame(space)
    named = named_points(frame, space.lattice, max_size)
    by_values = {p.values: name for name, p in named}
    point_space = point_topology(frame, space.lattice, max_size)
    assignment = []
    for s in space.carrier:
        values = tuple(o(s) for o in frame.elements)
        assignment.append(by_values[values])
    eta = CarrierMap(space.carrier, point_space.carrier, tuple(assignment))
    return eta, point_space, frame


def is_sober(space: FuzzySpace, max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """True iff the state-to-point map is bijective (lattice-relative)."""
    eta, point_space, _ = state_point_map(space, max_size)
    image = set(eta.assignment)
    return len(image) == len(space.carrier) and image == set(point_space.carrier)


def is_spatial(frame: FiniteFrame, lattice: GradeLattice,
               max_size: int = DEFAULT_MAX_SIZE) -> bool:
    """True iff a -> (evaluation open of a) is an isomorphism onto the
    opens frame of the point space (lattice-relative)."""
    named = named_points(frame, lattice, max_size)
    carrier = Carrier(tuple(n for n, _ in named))
    zeta = {a: FuzzySet(carrier, lattice, tuple(p(a) for _, p in named))
            for a in frame.elements}
    if len(set(zeta.values())) != len(frame.elements):
        return False
    from .fuzzyset import fs_leq

    for a in frame.elements:
        for b in frame.elements:
            if frame.holds(a, b) != fs_leq(zeta[a], zeta[b]):
                return False
    space = point_topology(frame, lattice, max_size)
    return set(zeta.values()) == set(space.opens)


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
    evaluation open of that open in the point space.
    """
    if not is_sober(space, max_size):
        raise NotSoberError("duality_check requires a sober space")
    eta, point_space, frame = state_point_map(space, max_size)
    named = named_points(frame, space.lattice, max_size)
    evaluation = {o: FuzzySet(point_space.carrier, space.lattice,
                              tuple(p(o) for _, p in named))
                  for o in space.opens}
    items: list[tuple[str, bool]] = []
    image = set(eta.assignment)
    items.append(("eta bijective",
                  len(image) == len(space.carrier)
                  and image == set(point_space.carrier)))
    items.append(("eta fuzzy continuous", is_continuous(eta, space, point_space)))
    items.append(("eta open map",
                  all(direct_image(eta, o) in point_space.opens
                      for o in space.opens)))
    items.append(("eta image equals evaluation open",
                  all(direct_image(eta, o) == evaluation[o] for o in space.opens)))
    items.append(("eta pullback recovers each open",
                  all(inverse_image(eta, evaluation[o]) == o for o in space.opens)))
    return DualityReport(tuple(items))

"""Fuzzy sets over finite carriers, maps between carriers, crisp relations.

A carrier is an ordered tuple of distinct atom names; a fuzzy set stores
one grade per atom, aligned with the carrier order. Suprema over empty
index sets are the lattice bottom, infima the top. Everything here is an
immutable value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CarrierMismatchError, LatticeMismatchError, ResourceLimitError
from .grades import Grade, GradeLattice, complement, join, meet

#: Largest enumeration any operation will attempt without an explicit override.
DEFAULT_MAX_SIZE = 4096


@dataclass(frozen=True)
class Carrier:
    """Ordered finite set of atom names. May be empty for degenerate tests."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"duplicate carrier elements in {self.elements}")
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise CarrierMismatchError(f"{element!r} is not a carrier element") from None

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _same_carrier(a: "FuzzySet", b: "FuzzySet") -> None:
    if a.carrier != b.carrier:
        raise CarrierMismatchError("fuzzy sets live on different carriers")
    if a.lattice != b.lattice:
        raise LatticeMismatchError("fuzzy sets use different grade lattices")


@dataclass(frozen=True)
class FuzzySet:
    """Total map carrier element -> grade, all grades from one lattice."""

    carrier: Carrier
    lattice: GradeLattice
    grades: tuple[Grade, ...]

    def __post_init__(self):
        if len(self.grades) != len(self.carrier):
            raise ValueError("one grade per carrier element required")
        for g in self.grades:
            if g.den != self.lattice.den:
                raise LatticeMismatchError(
                    f"grade {g} does not belong to the /{self.lattice.den} lattice")

    @classmethod
    def from_dict(cls, carrier: Carrier, lattice: GradeLattice,
                  membership: Mapping[str, Grade]) -> "FuzzySet":
        missing = [e for e in carrier if e not in membership]
        if missing:
            raise ValueError(f"membership not total, missing {missing}")
        return cls(carrier, lattice, tuple(membership[e] for e in carrier))

    @classmethod
    def constant(cls, carrier: Carrier, lattice: GradeLattice, g: Grade) -> "FuzzySet":
        return cls(carrier, lattice, tuple(g for _ in carrier))

    @classmethod
    def empty(cls, carrier: Carrier, lattice: GradeLattice) -> "FuzzySet":
        return cls.constant(carrier, lattice, lattice.bottom)

    @classmethod
    def full(cls, carrier: Carrier, lattice: GradeLattice) -> "FuzzySet":
        return cls.constant(carrier, lattice, lattice.top)

    def __call__(self, element: str) -> Grade:
        return self.grades[self.carrier.index(element)]

    def as_dict(self) -> dict[str, Grade]:
        return dict(zip(self.carrier.elements, self.grades))

    def key(self) -> tuple[int, ...]:
        """Numerator tuple; canonical sort key for deterministic output."""
        return tuple(g.num for g in self.grades)

    def __str__(self) -> str:
        body = ", ".join(f"{e}:{g}" for e, g in zip(self.carrier.elements, self.grades))
        return "{" + body + "}"


def fs_leq(a: FuzzySet, b: FuzzySet) -> bool:
    """Pointwise a <= b."""
    _same_carrier(a, b)
    return all(x.num <= y.num for x, y in zip(a.grades, b.grades))


def fs_meet(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_carrier(a, b)
    return FuzzySet(a.carrier, a.lattice,
                    tuple(meet(x, y) for x, y in zip(a.grades, b.grades)))


def fs_join(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_carrier(a, b)
    return FuzzySet(a.carrier, a.lattice,
                    tuple(join(x, y) for x, y in zip(a.grades, b.grades)))


def fs_complement(a: FuzzySet) -> FuzzySet:
    return FuzzySet(a.carrier, a.lattice, tuple(complement(g) for g in a.grades))


@dataclass(frozen=True)
class CarrierMap:
    """Total function between carriers, stored in source order."""

    source: Carrier
    target: Carrier
    assignment: tuple[str, ...]

    def __post_init__(self):
        if len(self.assignment) != len(self.source):
            raise ValueError("assignment must cover every source element")
        for t in self.assignment:
            if t not in self.target:
                raise CarrierMismatchError(f"{t!r} is not in the target carrier")

    @classmethod
    def from_dict(cls, source: Carrier, target: Carrier,
                  assignment: Mapping[str, str]) -> "CarrierMap":
        return cls(source, target, tuple(assignment[e] for e in source))

    @classmethod
    def identity(cls, carrier: Carrier) -> "CarrierMap":
        return cls(carrier, carrier, carrier.elements)

    def __call__(self, element: str) -> str:
        return self.assignment[self.source.index(element)]

    def compose(self, inner: "CarrierMap") -> "CarrierMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if inner.target != self.source:
            raise CarrierMismatchError("composition carriers do not line up")
        return CarrierMap(inner.source, self.target,
                          tuple(self(t) for t in inner.assignment))


def direct_image(f: CarrierMap, a: FuzzySet) -> FuzzySet:
    """f(a)(s) = sup of a over the f-preimage of s; empty preimage -> 0."""
    if a.carrier != f.source:
        raise CarrierMismatchError("fuzzy set is not on the map's source carrier")
    best = {s: a.lattice.bottom for s in f.target}
    for e, g in zip(f.source.elements, a.grades):
        best[f(e)] = join(best[f(e)], g)
    return FuzzySet(f.target, a.lattice, tuple(best[s] for s in f.target))


def inverse_image(f: CarrierMap, b: FuzzySet) -> FuzzySet:
    """f^-1(b) = b after f."""
    if b.carrier != f.target:
        raise CarrierMismatchError("fuzzy set is not on the map's target carrier")
    return FuzzySet(f.source, b.lattice, tuple(b(f(e)) for e in f.source))


@dataclass(frozen=True)
class Relation:
    """Crisp subset of left x right, held as name pairs."""

    left: Carrier
    right: Carrier
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        for l, r in self.pairs:
            if l not in self.left or r not in self.right:
                raise CarrierMismatchError(f"pair ({l!r}, {r!r}) outside left x right")

    @classmethod
    def of(cls, left: Carrier, right: Carrier,
           pairs: Iterable[tuple[str, str]]) -> "Relation":
        return cls(left, right, frozenset(pairs))

    @classmethod
    def diagonal(cls, carrier: Carrier) -> "Relation":
        return cls(carrier, carrier, frozenset((e, e) for e in carrier))

    @classmethod
    def graph(cls, f: CarrierMap) -> "Relation":
        return cls(f.source, f.target,
                   frozenset((e, f(e)) for e in f.source))

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs in left-major carrier order; the canonical enumeration."""
        order_l = {e: i for i, e in enumerate(self.left.elements)}
        order_r = {e: i for i, e in enumerate(self.right.elements)}
        return tuple(sorted(self.pairs, key=lambda p: (order_l[p[0]], order_r[p[1]])))

    def pair_carrier(self) -> Carrier:
        """The relation's pairs as a carrier of '(l,r)' atoms."""
        return Carrier(tuple(f"({l},{r})" for l, r in self.sorted_pairs()))

    def projections(self) -> tuple[CarrierMap, CarrierMap]:
        pairs = self.sorted_pairs()
        pc = self.pair_carrier()
        pi1 = CarrierMap(pc, self.left, tuple(l for l, _ in pairs))
        pi2 = CarrierMap(pc, self.right, tuple(r for _, r in pairs))
        return pi1, pi2

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


def relation_image(rel: Relation, a: FuzzySet) -> FuzzySet:
    """R[a](d') = sup { a(d) : d R d' }; no predecessor -> 0."""
    if a.carrier != rel.left:
        raise CarrierMismatchError("fuzzy set is not on the relation's left carrier")
    best = {r: a.lattice.bottom for r in rel.right}
    for l, r in rel.pairs:
        best[r] = join(best[r], a(l))
    return FuzzySet(rel.right, a.lattice, tuple(best[r] for r in rel.right))


def relation_preimage(rel: Relation, b: FuzzySet) -> FuzzySet:
    """R^-1[b](d) = sup { b(d') : d R d' }; no successor -> 0."""
    if b.carrier != rel.right:
        raise CarrierMismatchError("fuzzy set is not on the relation's right carrier")
    best = {l: b.lattice.bottom for l in rel.left}
    for l, r in rel.pairs:
        best[l] = join(best[l], b(r))
    return FuzzySet(rel.left, b.lattice, tuple(best[l] for l in rel.left))


def all_fuzzy_sets(carrier: Carrier, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> tuple[FuzzySet, ...]:
    """Every lattice-valued fuzzy set on the carrier, in numerator-tuple order."""
    n = len(carrier)
    total = len(lattice) ** n
    if total > max_size:
        raise ResourceLimitError("fuzzy-set enumeration", total, max_size)
    vals = lattice.values
    out: list[FuzzySet] = []

    def build(prefix: list[Grade]):
        if len(prefix) == n:
            out.append(FuzzySet(carrier, lattice, tuple(prefix)))
            return
        for v in vals:
            build(prefix + [v])

    build([])
    return tuple(out)

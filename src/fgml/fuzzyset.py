"""Fuzzy sets over finite carriers, maps between carriers, crisp relations.

A carrier is an ordered tuple of distinct atom names. A fuzzy set over the
chain {0, 1/d, ..., 1} is stored as its d level cuts (the resolution
identity, Zadeh 1971): cut k, for k = 1..d, is an int whose bit i is set
iff atom i of the carrier has grade at least k/d, so the cuts are nested,
cut 1 containing cut 2 and so on. The cuts determine the grades exactly;
meet and join are cut-wise `&` and `|`, and images along maps and
relations move bits. Grade objects are built only at the boundary: by
the checked constructor, `.grades`, calls, `key()`, `as_dict()` and
`str()`. Suprema over empty index sets are the lattice bottom, infima the
top. Everything here is an immutable value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import and_, or_
from typing import Iterable, Mapping

from .errors import CarrierMismatchError, LatticeMismatchError, ResourceLimitError
from .grades import Grade, GradeLattice

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


def _cuts_of(nums: Iterable[int], d: int) -> tuple[int, ...]:
    """The d nested cuts of a sequence of numerators in 0..d."""
    level = [0] * (d + 1)
    for i, k in enumerate(nums):
        level[k] |= 1 << i
    cuts, acc = [0] * d, 0
    for k in range(d, 0, -1):
        acc |= level[k]
        cuts[k - 1] = acc
    return tuple(cuts)


class FuzzySet:
    """Total map carrier element -> grade, all grades from one lattice.

    `FuzzySet(carrier, lattice, grades)` checks its input; `cuts` holds
    the d nested level cuts, and the hash is taken once, over the cuts.
    """

    __slots__ = ("carrier", "lattice", "cuts", "_hash")

    def __init__(self, carrier: Carrier, lattice: GradeLattice, grades: tuple[Grade, ...]):
        if len(grades) != len(carrier):
            raise ValueError("one grade per carrier element required")
        for g in grades:
            if g.den != lattice.den:
                raise LatticeMismatchError(
                    f"grade {g} does not belong to the /{lattice.den} lattice")
        _init(self, carrier, lattice, _cuts_of((g.num for g in grades), lattice.den))

    def __setattr__(self, name, value):
        raise AttributeError(f"FuzzySet is immutable; cannot set {name!r}")

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
        return _from_cuts(carrier, lattice, (0,) * lattice.den)

    @classmethod
    def full(cls, carrier: Carrier, lattice: GradeLattice) -> "FuzzySet":
        return _from_cuts(carrier, lattice, ((1 << len(carrier)) - 1,) * lattice.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return (self.carrier is other.carrier or self.carrier == other.carrier) \
            and self.cuts == other.cuts \
            and (self.lattice is other.lattice or self.lattice == other.lattice)

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple[int, ...]:
        """Numerator tuple; canonical sort key for deterministic output."""
        nums = [0] * len(self.carrier)
        for k, cut in enumerate(self.cuts, 1):  # a higher cut overwrites a lower
            while cut:
                low = cut & -cut
                nums[low.bit_length() - 1] = k
                cut ^= low
        return tuple(nums)

    @property
    def grades(self) -> tuple[Grade, ...]:
        values = self.lattice.values
        return tuple(values[k] for k in self.key())

    def __call__(self, element: str) -> Grade:
        i = self.carrier.index(element)
        return self.lattice.values[sum(cut >> i & 1 for cut in self.cuts)]

    def as_dict(self) -> dict[str, Grade]:
        return dict(zip(self.carrier.elements, self.grades))

    def __str__(self) -> str:
        body = ", ".join(f"{e}:{g}" for e, g in zip(self.carrier.elements, self.grades))
        return "{" + body + "}"

    def __repr__(self) -> str:
        return f"FuzzySet({self.carrier!r}, {self.lattice!r}, {self.grades!r})"

    def __reduce__(self):
        return _from_cuts, (self.carrier, self.lattice, self.cuts)


_set = object.__setattr__


def _init(fs: FuzzySet, carrier: Carrier, lattice: GradeLattice,
          cuts: tuple[int, ...]) -> None:
    _set(fs, "carrier", carrier)
    _set(fs, "lattice", lattice)
    _set(fs, "cuts", cuts)
    _set(fs, "_hash", hash(cuts))


def _from_cuts(carrier: Carrier, lattice: GradeLattice,
               cuts: tuple[int, ...]) -> FuzzySet:
    """Unchecked constructor: `cuts` must be lattice.den nested masks over
    the carrier's atoms."""
    fs = object.__new__(FuzzySet)
    _init(fs, carrier, lattice, cuts)
    return fs


def _same_carrier(a: FuzzySet, b: FuzzySet) -> None:
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise CarrierMismatchError("fuzzy sets live on different carriers")
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatchError("fuzzy sets use different grade lattices")


def fs_leq(a: FuzzySet, b: FuzzySet) -> bool:
    """Pointwise a <= b: every cut of a inside the matching cut of b."""
    _same_carrier(a, b)
    return not any(x & ~y for x, y in zip(a.cuts, b.cuts))


def fs_meet(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_carrier(a, b)
    return _from_cuts(a.carrier, a.lattice, tuple(map(and_, a.cuts, b.cuts)))


def fs_join(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_carrier(a, b)
    return _from_cuts(a.carrier, a.lattice, tuple(map(or_, a.cuts, b.cuts)))


def fs_complement(a: FuzzySet) -> FuzzySet:
    """1 - a: cut k of the result is the complement of cut d-k+1 of a."""
    full = (1 << len(a.carrier)) - 1
    return _from_cuts(a.carrier, a.lattice, tuple(full ^ cut for cut in reversed(a.cuts)))


def _along(cuts: tuple[int, ...], edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Sup-image of cuts along index edges (i, j): bit j of each output
    cut is set iff some edge (i, j) has bit i set in the input cut."""
    out = []
    for cut in cuts:
        mask = 0
        for i, j in edges:
            if cut >> i & 1:
                mask |= 1 << j
        out.append(mask)
    return tuple(out)


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
        # (source index, target index) per source element, for the images
        object.__setattr__(self, "_edges", tuple(
            (i, self.target.index(t)) for i, t in enumerate(self.assignment)))

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
    return _from_cuts(f.target, a.lattice, _along(a.cuts, f._edges))


def inverse_image(f: CarrierMap, b: FuzzySet) -> FuzzySet:
    """f^-1(b) = b after f."""
    if b.carrier != f.target:
        raise CarrierMismatchError("fuzzy set is not on the map's target carrier")
    return _from_cuts(f.source, b.lattice,
                      _along(b.cuts, [(j, i) for i, j in f._edges]))


_ESCAPE = str.maketrans({c: "\\" + c for c in "\\,()"})


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
        # (left index, right index) per pair, for the images
        object.__setattr__(self, "_edges", tuple(
            (self.left.index(l), self.right.index(r)) for l, r in self.pairs))

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
        """The relation's pairs as a carrier of '(l,r)' atoms; a backslash
        escapes each '\\', ',', '(' and ')' inside a name, so distinct
        pairs get distinct atoms."""
        return Carrier(tuple(f"({l.translate(_ESCAPE)},{r.translate(_ESCAPE)})"
                             for l, r in self.sorted_pairs()))

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
    return _from_cuts(rel.right, a.lattice, _along(a.cuts, rel._edges))


def relation_preimage(rel: Relation, b: FuzzySet) -> FuzzySet:
    """R^-1[b](d) = sup { b(d') : d R d' }; no successor -> 0."""
    if b.carrier != rel.right:
        raise CarrierMismatchError("fuzzy set is not on the relation's right carrier")
    return _from_cuts(rel.left, b.lattice,
                      _along(b.cuts, [(j, i) for i, j in rel._edges]))


def all_fuzzy_sets(carrier: Carrier, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> tuple[FuzzySet, ...]:
    """Every lattice-valued fuzzy set on the carrier, in numerator-tuple order."""
    n = len(carrier)
    total = len(lattice) ** n
    if total > max_size:
        raise ResourceLimitError("fuzzy-set enumeration", total, max_size)
    d = lattice.den
    return tuple(_from_cuts(carrier, lattice, _cuts_of(nums, d))
                 for nums in product(range(d + 1), repeat=n))

"""Fuzzy sets over finite carriers, maps between carriers, crisp relations.

A carrier is an ordered tuple of distinct hashable atoms, each the value
it stands for: a state name, an element of a functor image such as a fuzzy
set, a relation's (l, r) pair, or a frame point's numerator tuple. A fuzzy
set over the chain {0, 1/d, ..., 1} is stored as one int, `bits`, of n
fields of d bits each, one field per atom with the first atom most
significant; grade k/d is the field's low k bits, so bit j of a field is
set iff the grade is above j/d. Meet and join are one `&` and `|`, `<=` is
one `& ~`, an image along a map or relation moves one field per edge, and
a point value is the bit length of one field. Because a field's value
grows with its grade, the int order of `bits` is the numerator-tuple order
of `key()`, so families sort on `bits` directly. Grade objects are built
only at the boundary: by the checked constructor, `.grades`, calls,
`key()`, `as_dict()` and `str()`. Suprema over empty index sets are the
lattice bottom, infima the top. Everything here is an immutable value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import CarrierMismatchError, LatticeMismatchError, ResourceLimitError
from .grades import Grade, GradeLattice

#: Largest enumeration any operation will attempt without an explicit override.
DEFAULT_MAX_SIZE = 4096


@dataclass(frozen=True)
class Carrier:
    """Ordered finite set of hashable atoms. May be empty for degenerate tests."""

    elements: tuple[Hashable, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"duplicate carrier elements in {self.elements}")
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})

    def index(self, element: Hashable) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise CarrierMismatchError(f"{element!r} is not a carrier element") from None

    def __contains__(self, element: Hashable) -> bool:
        return element in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _pack(nums: Iterable[int], d: int) -> int:
    """The packed fields of a sequence of numerators in 0..d."""
    bits = 0
    for k in nums:
        bits = bits << d | (1 << k) - 1
    return bits


class FuzzySet:
    """Total map carrier element -> grade, all grades from one lattice.

    `FuzzySet(carrier, lattice, grades)` checks its input. `bits` holds one
    d-bit field per element, the first element's field most significant
    and grade k/d as the field's low k bits; the int order of `bits` is
    the order of `key()`, and the hash is taken once, over `bits`.
    """

    __slots__ = ("carrier", "lattice", "bits", "_hash")

    def __init__(self, carrier: Carrier, lattice: GradeLattice, grades: tuple[Grade, ...]):
        if len(grades) != len(carrier):
            raise ValueError("one grade per carrier element required")
        for g in grades:
            if g.den != lattice.den:
                raise LatticeMismatchError(
                    f"grade {g} does not belong to the /{lattice.den} lattice")
        _init(self, carrier, lattice, _pack((g.num for g in grades), lattice.den))

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
        return _from_bits(carrier, lattice, 0)

    @classmethod
    def full(cls, carrier: Carrier, lattice: GradeLattice) -> "FuzzySet":
        return _from_bits(carrier, lattice, (1 << len(carrier) * lattice.den) - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return (self.carrier is other.carrier or self.carrier == other.carrier) \
            and self.bits == other.bits \
            and (self.lattice is other.lattice or self.lattice == other.lattice)

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple[int, ...]:
        """Numerator tuple; canonical sort key for deterministic output."""
        d, bits = self.lattice.den, self.bits
        field = (1 << d) - 1
        return tuple((bits >> shift & field).bit_length()
                     for shift in range((len(self.carrier) - 1) * d, -1, -d))

    @property
    def grades(self) -> tuple[Grade, ...]:
        values = self.lattice.values
        return tuple(values[k] for k in self.key())

    def __call__(self, element: Hashable) -> Grade:
        d = self.lattice.den
        shift = (len(self.carrier) - 1 - self.carrier.index(element)) * d
        return self.lattice.values[(self.bits >> shift & (1 << d) - 1).bit_length()]

    def as_dict(self) -> dict[Hashable, Grade]:
        return dict(zip(self.carrier.elements, self.grades))

    def __str__(self) -> str:
        body = ", ".join(f"{e}:{g}" for e, g in zip(self.carrier.elements, self.grades))
        return "{" + body + "}"

    def __repr__(self) -> str:
        return f"FuzzySet({self.carrier!r}, {self.lattice!r}, {self.grades!r})"

    def __reduce__(self):
        return _from_bits, (self.carrier, self.lattice, self.bits)


_set = object.__setattr__


def _init(fs: FuzzySet, carrier: Carrier, lattice: GradeLattice, bits: int) -> None:
    _set(fs, "carrier", carrier)
    _set(fs, "lattice", lattice)
    _set(fs, "bits", bits)
    _set(fs, "_hash", hash(bits))


def _from_bits(carrier: Carrier, lattice: GradeLattice, bits: int) -> FuzzySet:
    """Unchecked constructor: `bits` must hold one field of lattice.den
    bits per carrier element, each field a run of low bits."""
    fs = object.__new__(FuzzySet)
    _init(fs, carrier, lattice, bits)
    return fs


def _same_carrier(a: FuzzySet, b: FuzzySet) -> None:
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise CarrierMismatchError("fuzzy sets live on different carriers")
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatchError("fuzzy sets use different grade lattices")


def fs_leq(a: FuzzySet, b: FuzzySet) -> bool:
    """Pointwise a <= b: every field of a inside the matching field of b."""
    _same_carrier(a, b)
    return not a.bits & ~b.bits


def fs_meet(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_carrier(a, b)
    return _from_bits(a.carrier, a.lattice, a.bits & b.bits)


def fs_join(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_carrier(a, b)
    return _from_bits(a.carrier, a.lattice, a.bits | b.bits)


def fs_complement(a: FuzzySet) -> FuzzySet:
    """1 - a."""
    return _from_bits(a.carrier, a.lattice, _complement(a.bits, len(a.carrier), a.lattice.den))


def _complement(bits: int, n: int, d: int) -> int:
    """1 - x for n packed fields x: bit j of a field is set iff bit d-1-j
    of x's field is clear."""
    low = ((1 << n * d) - 1) // ((1 << d) - 1)  # the low bit of every field
    mirrored = sum((bits >> d - 1 - j & low) << j for j in range(d))
    return mirrored ^ (1 << n * d) - 1


def _fields_along(bits: int, d: int, edges: Iterable[tuple[int, int]]) -> int:
    """Sup-image of packed fields along edges (i, j) of field positions,
    counted from the least significant: field j of the output is the join
    of the input fields i over its edges, 0 without one."""
    field, out = (1 << d) - 1, 0
    for i, j in edges:
        out |= (bits >> i * d & field) << j * d
    return out


@dataclass(frozen=True)
class CarrierMap:
    """Total function between carriers, stored in source order."""

    source: Carrier
    target: Carrier
    assignment: tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.assignment) != len(self.source):
            raise ValueError("assignment must cover every source element")
        for t in self.assignment:
            if t not in self.target:
                raise CarrierMismatchError(f"{t!r} is not in the target carrier")
        # (source, target) field positions per source element, for the images,
        # and the same edges reversed, for the inverse images
        last_s, last_t = len(self.source) - 1, len(self.target) - 1
        edges = tuple((last_s - i, last_t - self.target.index(t))
                      for i, t in enumerate(self.assignment))
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_back", tuple((j, i) for i, j in edges))

    @classmethod
    def from_dict(cls, source: Carrier, target: Carrier,
                  assignment: Mapping[str, str]) -> "CarrierMap":
        return cls(source, target, tuple(assignment[e] for e in source))

    @classmethod
    def identity(cls, carrier: Carrier) -> "CarrierMap":
        return cls(carrier, carrier, carrier.elements)

    @classmethod
    def onto(cls, source: Carrier, assignment: Sequence[Hashable]) -> "CarrierMap":
        """Element i to assignment[i], onto the distinct values in order."""
        return cls(source, Carrier(tuple(dict.fromkeys(assignment))), tuple(assignment))

    def __call__(self, element: Hashable) -> Hashable:
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
    return _from_bits(f.target, a.lattice, _fields_along(a.bits, a.lattice.den, f._edges))


def inverse_image(f: CarrierMap, b: FuzzySet) -> FuzzySet:
    """f^-1(b) = b after f."""
    if b.carrier != f.target:
        raise CarrierMismatchError("fuzzy set is not on the map's target carrier")
    return _from_bits(f.source, b.lattice, _fields_along(b.bits, b.lattice.den, f._back))


@dataclass(frozen=True)
class Relation:
    """Crisp subset of left x right, held as (l, r) pairs of atoms."""

    left: Carrier
    right: Carrier
    pairs: frozenset[tuple[Hashable, Hashable]]

    def __post_init__(self):
        for l, r in self.pairs:
            if l not in self.left or r not in self.right:
                raise CarrierMismatchError(f"pair ({l!r}, {r!r}) outside left x right")
        # (left, right) field positions per pair, for the images, and the
        # same edges reversed, for the preimages
        last_l, last_r = len(self.left) - 1, len(self.right) - 1
        edges = tuple((last_l - self.left.index(l), last_r - self.right.index(r))
                      for l, r in self.pairs)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_back", tuple((j, i) for i, j in edges))

    @classmethod
    def of(cls, left: Carrier, right: Carrier,
           pairs: Iterable[tuple[Hashable, Hashable]]) -> "Relation":
        return cls(left, right, frozenset(pairs))

    @classmethod
    def diagonal(cls, carrier: Carrier) -> "Relation":
        return cls(carrier, carrier, frozenset((e, e) for e in carrier))

    @classmethod
    def graph(cls, f: CarrierMap) -> "Relation":
        return cls(f.source, f.target,
                   frozenset((e, f(e)) for e in f.source))

    def sorted_pairs(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """Pairs in left-major carrier order; the canonical enumeration."""
        order_l, order_r = self.left._index, self.right._index
        return tuple(sorted(self.pairs, key=lambda p: (order_l[p[0]], order_r[p[1]])))

    def pair_carrier(self) -> Carrier:
        """The relation's pairs as a carrier whose atoms are the (l, r)
        pairs themselves, in canonical order."""
        return Carrier(self.sorted_pairs())

    def projections(self) -> tuple[CarrierMap, CarrierMap]:
        pc = self.pair_carrier()
        return (CarrierMap(pc, self.left, tuple(l for l, _ in pc)),
                CarrierMap(pc, self.right, tuple(r for _, r in pc)))

    def __contains__(self, pair: tuple[Hashable, Hashable]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


def relation_image(rel: Relation, a: FuzzySet) -> FuzzySet:
    """R[a](d') = sup { a(d) : d R d' }; no predecessor -> 0."""
    if a.carrier != rel.left:
        raise CarrierMismatchError("fuzzy set is not on the relation's left carrier")
    return _from_bits(rel.right, a.lattice, _fields_along(a.bits, a.lattice.den, rel._edges))


def relation_preimage(rel: Relation, b: FuzzySet) -> FuzzySet:
    """R^-1[b](d) = sup { b(d') : d R d' }; no successor -> 0."""
    if b.carrier != rel.right:
        raise CarrierMismatchError("fuzzy set is not on the relation's right carrier")
    return _from_bits(rel.left, b.lattice, _fields_along(b.bits, b.lattice.den, rel._back))


def all_fuzzy_sets(carrier: Carrier, lattice: GradeLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> tuple[FuzzySet, ...]:
    """Every lattice-valued fuzzy set on the carrier, in numerator-tuple order."""
    n = len(carrier)
    total = len(lattice) ** n
    if total > max_size:
        raise ResourceLimitError("fuzzy-set enumeration", total, max_size)
    d = lattice.den
    return tuple(_from_bits(carrier, lattice, _pack(nums, d))
                 for nums in product(range(d + 1), repeat=n))

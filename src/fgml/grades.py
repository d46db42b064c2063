"""Exact truth values: the finite chain {0, 1/d, ..., 1}.

Every grade is a numerator over the fixed denominator of its lattice;
arithmetic never leaves the integers, so all comparisons are exact.
Values are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidLatticeError, LatticeMismatchError


@dataclass(frozen=True)
class Grade:
    """A truth value k/d with 0 <= k <= d."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise InvalidLatticeError(f"denominator must be >= 1, got {self.den}")
        if not 0 <= self.num <= self.den:
            raise ValueError(f"numerator {self.num} outside [0, {self.den}]")

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def _check(self, other: "Grade") -> None:
        if self.den != other.den:
            raise LatticeMismatchError(
                f"grades from different lattices: /{self.den} vs /{other.den}")

    def __le__(self, other: "Grade") -> bool:
        self._check(other)
        return self.num <= other.num

    def __lt__(self, other: "Grade") -> bool:
        self._check(other)
        return self.num < other.num

    def __ge__(self, other: "Grade") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "Grade") -> bool:
        return other.__lt__(self)


@dataclass(frozen=True)
class GradeLattice:
    """The chain {k/d : 0 <= k <= d}, closed under min, max and 1-x."""

    den: int

    def __post_init__(self):
        if self.den < 1:
            raise InvalidLatticeError(f"denominator must be >= 1, got {self.den}")

    @cached_property
    def values(self) -> tuple[Grade, ...]:
        return tuple(Grade(k, self.den) for k in range(self.den + 1))

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The canonical grade string "k/d" of each numerator k."""
        return tuple(map(str, self.values))

    @cached_property
    def fields(self) -> dict[str, str]:
        """The packed field of each canonical grade string "k/d" as d
        binary digits, k ones below d - k zeros (`fuzzyset.FuzzySet.bits`).
        A field is made when first looked up, so the table holds the grades
        in use, not d + 1 strings of d digits; any other key is missing."""
        return _Fields({f"{k}/{self.den}": k for k in range(self.den + 1)}, self.den)

    @property
    def bottom(self) -> Grade:
        return Grade(0, self.den)

    @property
    def top(self) -> Grade:
        return Grade(self.den, self.den)

    def grade(self, num: int) -> Grade:
        return Grade(num, self.den)

    def parse(self, text: str) -> Grade:
        """Read a grade from its "k/d" serialization."""
        try:
            num_s, den_s = text.split("/")
            num, den = int(num_s), int(den_s)
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ValueError(f"not a grade string: {text!r}") from None
        if den != self.den:
            raise LatticeMismatchError(
                f"grade {text!r} does not belong to the /{self.den} lattice")
        return Grade(num, self.den)

    def __len__(self) -> int:
        return self.den + 1

    def __contains__(self, g: Grade) -> bool:
        return isinstance(g, Grade) and g.den == self.den


class _Fields(dict):
    """`GradeLattice.fields`, each field made from its numerator when first
    looked up."""

    def __init__(self, numerators: dict[str, int], den: int):
        super().__init__()
        self.numerators, self.den = numerators, den

    def __missing__(self, name: str) -> str:
        k = self.numerators[name]
        field = self[name] = "0" * (self.den - k) + "1" * k
        return field


def make_lattice(d: int) -> GradeLattice:
    """Build the chain with common denominator d; d must be >= 1."""
    return GradeLattice(d)


def meet(a: Grade, b: Grade) -> Grade:
    a._check(b)
    return a if a.num <= b.num else b


def join(a: Grade, b: Grade) -> Grade:
    a._check(b)
    return a if a.num >= b.num else b


def complement(a: Grade) -> Grade:
    return Grade(a.den - a.num, a.den)

"""Coherent pairs, Sigma-bisimulation, Aczel-Mendler bisimulation.

Both Sigma checks read one sweep, `_disagreements`: it lifts every
coherent tuple of the relation once and gives each related pair the
lifting rows on which its two numerators differ. `is_sigma_bisimulation`
turns those rows into witnesses, building `Grade`s only for them.
`greatest_sigma_bisimulation` refines from the prop-agreeing relation,
dropping every pair with a row, one sweep per round: deleting a pair can
only enlarge the coherent set, so surviving pairs are re-tested against
a strictly stronger condition each round and the loop terminates in at
most |B1|x|B2| rounds.

The Aczel-Mendler check searches the product of each pair's candidate
structure values in order, so its first choice is the greedy one (every
pair's first candidate); the search is held to the guard only once that
choice fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import LatticeMismatchError, PreconditionError, ResourceLimitError
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    CarrierMap,
    FuzzySet,
    Relation,
    fs_leq,
    inverse_image,
    relation_image,
    relation_preimage,
)
from .grades import Grade
from .logic import Model
from .signature import Signature, image_elements, image_subbasis
from .topology import FuzzySpace, subspace_topology


def is_coherent(rel: Relation, mu: FuzzySet, eta: FuzzySet) -> bool:
    """R[mu] <= eta and R^-1[eta] <= mu."""
    return fs_leq(relation_image(rel, mu), eta) \
        and fs_leq(relation_preimage(rel, eta), mu)


def coherent_pairs(rel: Relation, space1: FuzzySpace, space2: FuzzySpace
                   ) -> tuple[tuple[FuzzySet, FuzzySet], ...]:
    """All coherent pairs drawn from opens x opens, in canonical order.

    By the coherence lemma, which holds for every relation, (mu, eta) is
    coherent iff their pullbacks to the pair carrier are equal, so the
    opens of space2 are bucketed by pullback and each mu meets its bucket.
    """
    if space1.lattice != space2.lattice:
        raise LatticeMismatchError("the two spaces use different grade lattices")
    pi1, pi2 = rel.projections()
    buckets: dict[FuzzySet, list[FuzzySet]] = {}
    for eta in space2.sorted_opens():
        buckets.setdefault(inverse_image(pi2, eta), []).append(eta)
    return tuple((mu, eta) for mu in space1.sorted_opens()
                 for eta in buckets.get(inverse_image(pi1, mu), ()))


@dataclass(frozen=True)
class BisimWitness:
    """One failure: a related pair with the disagreeing evidence."""

    pair: tuple[str, str]
    prop: str | None = None
    lifting: str | None = None
    left_opens: tuple[FuzzySet, ...] | None = None
    right_opens: tuple[FuzzySet, ...] | None = None
    left_grade: Grade | None = None
    right_grade: Grade | None = None
    note: str | None = None

    def describe(self) -> str:
        b1, b2 = self.pair
        if self.note is not None:
            return f"({b1}, {b2}): {self.note}"
        if self.prop is not None:
            return (f"({b1}, {b2}): prop {self.prop!r} grades differ, "
                    f"{self.left_grade} vs {self.right_grade}")
        opens = ", ".join(
            f"({a}, {b})" for a, b in zip(self.left_opens, self.right_opens))
        return (f"({b1}, {b2}): lifting {self.lifting!r} on coherent {opens} "
                f"gives {self.left_grade} vs {self.right_grade}")


@dataclass(frozen=True)
class BisimReport:
    verdict: bool
    witnesses: tuple[BisimWitness, ...] = ()

    def __post_init__(self):
        assert self.verdict == (not self.witnesses)

    def __bool__(self) -> bool:
        return self.verdict

    def __str__(self) -> str:
        if self.verdict:
            return "bisimulation: yes"
        return "bisimulation: no\n" + "\n".join(
            w.describe() for w in self.witnesses)


@dataclass(frozen=True)
class AmBisimReport(BisimReport):
    mediating: CarrierMap | None = None


def _require_shared_props(m1: Model, m2: Model) -> None:
    if m1.props != m2.props:
        raise PreconditionError("models value different proposition sets")
    if m1.space.lattice != m2.space.lattice:
        raise LatticeMismatchError("the two spaces use different grade lattices")


def _prop_witnesses(rel: Relation, m1: Model, m2: Model) -> list[BisimWitness]:
    return [BisimWitness((b1, b2), prop=name, left_grade=g1, right_grade=g2)
            for b1, b2 in rel.sorted_pairs() for name in m1.props
            if (g1 := m1.prop(name)(b1)) != (g2 := m2.prop(name)(b2))]


def _disagreements(rel: Relation, m1: Model, m2: Model, sig: Signature,
                   max_tuples: int):
    """Each related pair in canonical order, with the rows of the lifting
    table on which its two numerators differ.

    The table is built once: a row per lifting and coherent tuple, with
    the numerators of the tuple's two pullbacks along sigma1 and sigma2.
    A pair's rows are (lifting, left opens, right opens, left numerator,
    right numerator), in table order.
    """
    coherent = coherent_pairs(rel, m1.space, m2.space)
    table = []
    for lifting in sig.liftings:
        combos = len(coherent) ** lifting.arity
        if combos > max_tuples:
            raise ResourceLimitError("coherent tuple enumeration", combos, max_tuples)
        for combo in product(coherent, repeat=lifting.arity):
            mus = tuple(mu for mu, _ in combo)
            etas = tuple(eta for _, eta in combo)
            table.append((lifting, mus, etas, m1.lift(lifting, mus).key(),
                          m2.lift(lifting, etas).key()))
    for b1, b2 in rel.sorted_pairs():
        i1, i2 = m1.space.carrier.index(b1), m2.space.carrier.index(b2)
        yield (b1, b2), [(lifting, mus, etas, left[i1], right[i2])
                         for lifting, mus, etas, left, right in table
                         if left[i1] != right[i2]]


def is_sigma_bisimulation(rel: Relation, m1: Model, m2: Model, sig: Signature,
                          max_tuples: int = DEFAULT_MAX_SIZE) -> BisimReport:
    """Prop agreement plus equal lifting grades over every coherent tuple."""
    _require_shared_props(m1, m2)
    grades = m1.space.lattice.values
    witnesses = _prop_witnesses(rel, m1, m2) + [
        BisimWitness(pair, lifting=lifting.name, left_opens=mus, right_opens=etas,
                     left_grade=grades[k1], right_grade=grades[k2])
        for pair, rows in _disagreements(rel, m1, m2, sig, max_tuples)
        for lifting, mus, etas, k1, k2 in rows]
    return BisimReport(not witnesses, tuple(witnesses))


def greatest_sigma_bisimulation(m1: Model, m2: Model, sig: Signature,
                                max_tuples: int = DEFAULT_MAX_SIZE) -> Relation:
    """Refinement to the greatest Sigma-bisimulation.

    Start from all prop-agreeing pairs; repeatedly delete pairs whose
    lifting grades disagree on some coherent tuple of the current
    relation. Each surviving relation contains every Sigma-bisimulation,
    and the fixpoint is itself one, so it is the greatest.
    """
    _require_shared_props(m1, m2)
    carrier1, carrier2 = m1.space.carrier, m2.space.carrier
    props = [(v.key(), m2.prop(name).key()) for name, v in m1.valuation]
    rel = Relation.of(carrier1, carrier2, (
        (b1, b2) for (i1, b1), (i2, b2) in product(enumerate(carrier1), enumerate(carrier2))
        if all(left[i1] == right[i2] for left, right in props)))
    while True:
        dropped = {p for p, rows in _disagreements(rel, m1, m2, sig, max_tuples) if rows}
        if not dropped:
            return rel
        rel = Relation.of(carrier1, carrier2, rel.pairs - dropped)


def is_am_bisimulation(rel: Relation, m1: Model, m2: Model, sig: Signature,
                       max_size: int = DEFAULT_MAX_SIZE) -> AmBisimReport:
    """Search for a mediating structure map on the relation.

    The relation carries the subspace topology. Per pair, candidates are
    the values of the functor image of the relation space, enumerated
    once under the guard, whose two projections are the pair's structure
    values; the assembled map must also be fuzzy continuous, which is
    checked on the functor's subbasis of the image topology. The search
    starts at the greedy choice of each pair's first candidate and is held
    to the guard only once that fails. The empty relation is vacuously
    accepted.
    """
    _require_shared_props(m1, m2)
    witnesses = _prop_witnesses(rel, m1, m2)
    if witnesses:
        return AmBisimReport(False, tuple(witnesses))
    rel_space = subspace_topology(rel, m1.space, m2.space, max_size)
    pi1, pi2 = rel.projections()
    image_pi1 = sig.functor.on_map(pi1, rel_space, m1.space)
    image_pi2 = sig.functor.on_map(pi2, rel_space, m2.space)
    image = image_elements(sig.functor, rel_space)
    by_sides: dict[tuple, list] = {}
    for t in image:
        by_sides.setdefault((image_pi1(t), image_pi2(t)), []).append(t)
    candidates = []
    for b1, b2 in rel.sorted_pairs():
        options = by_sides.get((m1.sigma(b1), m2.sigma(b2)))
        if not options:
            return AmBisimReport(False, (BisimWitness(
                (b1, b2),
                note="no structure value projects onto both sides"),))
        candidates.append(options)

    pair_carrier = rel.pair_carrier()
    gens = image_subbasis(sig.functor, rel_space, image)
    for tried, choice in enumerate(product(*candidates)):
        gamma = CarrierMap(pair_carrier, image, choice)
        if all(inverse_image(gamma, g) in rel_space.opens for g in gens):
            return AmBisimReport(True, (), mediating=gamma)
        if not tried and (total := prod(map(len, candidates))) > max_size:
            raise ResourceLimitError("mediating map search", total, max_size)
    first = rel.sorted_pairs()[0]
    return AmBisimReport(False, (BisimWitness(
        first, note="pairwise structure values exist but none assemble into "
                    "a fuzzy continuous mediating map"),))

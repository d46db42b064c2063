"""Coherent pairs, Sigma-bisimulation, Aczel-Mendler bisimulation.

The coherent pairs of a relation R are the pairs of opens (mu, eta) with
R[mu] <= eta and R^-1[eta] <= mu. Direct images keep joins and do not
raise meets, so the coherent pairs are closed under componentwise join
and meet, and (0, 0) and (1, 1) are coherent: packed mu << w2 | eta on
S1 + S2, they form a topology, whose primes and co-primes are bases
(`topology`). The least coherent pair holding a bit of mu is reached
from the prime j of that bit by eta := up2(eta | R[mu]), mu :=
up1(mu | R^-1[eta]), where up(x) is the least open above x, the join of
the primes of x's bits: every step is forced on any coherent pair above
(j, 0), and the fixpoint is coherent. So the fixpoints from the distinct
primes of both sides are the primes of the coherent pairs, at most
(n1 + n2)*d of them. Every coherent pair is the join of the primes of
its bits, (0, 0) for none; so a lifting that keeps joins (`Lifting.keeps`)
gives a related pair equal grades on every coherent pair iff it does on
the primes and (0, 0), its join basis. Dually every coherent pair is the
meet of the co-primes of the bits it lacks, (1, 1) for none, which is
the meet basis of a lifting that keeps meets. Pullbacks along sigma keep
both joins and meets. A lifting that declares nothing, or takes more
than one argument, is read on every coherent tuple; that tuple path
reads the coherent pairs as the closure of their primes
(`topology._read_on`), the same pairs in the same order as
`coherent_pairs`, so it too needs both spaces to be topologies, as a
validated model's are.

Both Sigma checks read one sweep, `_disagreements`: it lifts each basis
member, or each coherent tuple, of the relation once and gives each
related pair the lifting rows on which its two numerators differ.
`is_sigma_bisimulation` decides its verdict on the bases; only a
negative one walks every coherent tuple and turns those rows into
witnesses, building `Grade`s only for them. `greatest_sigma_bisimulation`
refines from the prop-agreeing relation, dropping every pair with a
basis row, one sweep per round: deleting a pair can only enlarge the
coherent set, so surviving pairs are re-tested against a strictly
stronger condition each round and the loop terminates in at most
|B1|x|B2| rounds.

The Aczel-Mendler check builds neither T R nor the opens of the
relation space R. Every candidate structure value of a related pair
lies below its greatest one, whose direct images decide whether the
pair has any, and the map of the greatest values is tried first. A map
into T R is continuous iff the functor's subbasis, lifted from the
primes of R and read at the map's values, pulls back to opens of R,
and a pullback is open iff it is the join of the primes of its bits.
Only when that map fails are the candidates enumerated and their
choices searched in order, each pair's least candidate first; the
search is held to the guard only once that choice fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import prod

from .errors import LatticeMismatchError, PreconditionError, ResourceLimitError
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    _fields_along,
    _from_bits,
    _pack,
    direct_image,
    fs_join,
    fs_leq,
    fs_meet,
    inverse_image,
    relation_image,
    relation_preimage,
)
from .grades import Grade
from .logic import Model
from .signature import Signature, _pullbacks
from .topology import FuzzySpace, _read_on, _subspace, _up


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
    The Sigma checks read the same pairs, in the same order, as the
    closure of the coherent primes (`_coherent_basis`).
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


def _coherent_basis(rel: Relation, space1: FuzzySpace, space2: FuzzySpace,
                    kinds: set[str | None]) -> dict[str | None, list[tuple[FuzzySet, FuzzySet]]]:
    """The coherent pairs, in canonical order, that a lifting keeping each
    of `kinds` is read on (`topology._read_on`): the join basis under
    "joins", the meet basis under "meets", every coherent pair under None.

    From each distinct prime j of either side, eta := up2(eta | R[mu])
    and mu := up1(mu | R^-1[eta]) rise to the least coherent pair above
    (j, 0) or (0, j), where up(x) is the join of the primes of x's bits.
    These pairs, packed mu << w2 | eta, are the primes of the coherent
    pairs; sorted packed pairs are in `coherent_pairs`' order.
    """
    d, lattice = space1.lattice.den, space1.lattice
    w2 = len(space2.carrier) * d
    width = len(space1.carrier) * d + w2

    packed = {0}
    for mu, eta in [(j, 0) for j in set(space1.primes)] + [(0, j) for j in set(space2.primes)]:
        last = None
        while last != (mu, eta):
            last = mu, eta
            eta = _up(space2.primes, eta | _fields_along(mu, d, rel._edges))
            mu = _up(space1.primes, mu | _fields_along(eta, d, rel._back))
        packed.add(mu << w2 | eta)
    return {kind: [(_from_bits(space1.carrier, lattice, p >> w2),
                    _from_bits(space2.carrier, lattice, p & (1 << w2) - 1))
                   for p in sorted(_read_on(kind, packed, width))] for kind in kinds}


def _disagreements(rel: Relation, m1: Model, m2: Model, sig: Signature,
                   max_tuples: int, basis: bool = True):
    """Each related pair in canonical order, with the rows of the lifting
    table on which its two numerators differ.

    The table is built once: a row per lifting and tuple of coherent
    pairs, with the numerators of the two sides' lifts pulled back along
    sigma1 and sigma2. A pair's rows are (lifting, left opens, right
    opens, left numerator, right numerator), in table order. With
    `basis`, a lifting that declares what it keeps is read on that basis
    of the coherent pairs, so a pair has a row iff it has one in the full
    table; every other lifting, and every lifting without `basis`, is
    read on every coherent tuple, under the guard.
    """
    read = [l.keeps if basis else None for l in sig.liftings]
    bases = _coherent_basis(rel, m1.space, m2.space, set(read)) if read else {}
    table = []
    for lifting, kind in zip(sig.liftings, read):
        pairs = bases[kind]
        if kind is None and (total := len(pairs) ** lifting.arity) > max_tuples:
            raise ResourceLimitError("coherent tuple enumeration", total, max_tuples)
        for combo in product(pairs, repeat=lifting.arity):
            mus, etas = tuple(mu for mu, _ in combo), tuple(eta for _, eta in combo)
            left = m1.lift(lifting, mus).key()
            right = left if m1 is m2 and mus == etas else m2.lift(lifting, etas).key()
            table.append((lifting, mus, etas, left, right))
    for b1, b2 in rel.sorted_pairs():
        i1, i2 = m1.space.carrier.index(b1), m2.space.carrier.index(b2)
        yield (b1, b2), [(lifting, mus, etas, left[i1], right[i2])
                         for lifting, mus, etas, left, right in table
                         if left[i1] != right[i2]]


def is_sigma_bisimulation(rel: Relation, m1: Model, m2: Model, sig: Signature,
                          max_tuples: int = DEFAULT_MAX_SIZE) -> BisimReport:
    """Prop agreement plus equal lifting grades over every coherent tuple.

    The verdict is read on the bases; only a negative one walks every
    coherent tuple, for the witnesses in table order.
    """
    _require_shared_props(m1, m2)
    witnesses = _prop_witnesses(rel, m1, m2)
    if not witnesses and not any(rows for _, rows in _disagreements(
            rel, m1, m2, sig, max_tuples)):
        return BisimReport(True)
    grades = m1.space.lattice.values
    witnesses += [
        BisimWitness(pair, lifting=lifting.name, left_opens=mus, right_opens=etas,
                     left_grade=grades[k1], right_grade=grades[k2])
        for pair, rows in _disagreements(rel, m1, m2, sig, max_tuples, basis=False)
        for lifting, mus, etas, k1, k2 in rows]
    return BisimReport(False, tuple(witnesses))


def greatest_sigma_bisimulation(m1: Model, m2: Model, sig: Signature,
                                max_tuples: int = DEFAULT_MAX_SIZE) -> Relation:
    """Refinement to the greatest Sigma-bisimulation.

    Start from all prop-agreeing pairs; repeatedly delete pairs whose
    lifting grades disagree on some coherent tuple of the current
    relation, read on the bases. Each surviving relation contains every
    Sigma-bisimulation, and the fixpoint is itself one, so it is the
    greatest.
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


def _candidates(tops: list[FuzzySet], pi1: CarrierMap, pi2: CarrierMap,
                max_size: int) -> list[list[FuzzySet]]:
    """For each pair's greatest structure value t*, every fuzzy set with
    t*'s two direct images, in bits order.

    Each lies below t*, so the walk goes over the fuzzy sets below the
    join of the t*, prod(k + 1) of them over its grades k/d, at most
    |T R|, under the guard, and files each by its two images.
    """
    top, lattice = reduce(fs_join, tops), tops[0].lattice
    if (total := prod(k + 1 for k in top.key())) > max_size:
        raise ResourceLimitError("structure value enumeration", total, max_size)
    by_sides: dict[tuple[FuzzySet, FuzzySet], list[FuzzySet]] = {}
    for nums in product(*(range(k + 1) for k in top.key())):
        s = _from_bits(pi1.source, lattice, _pack(nums, lattice.den))
        by_sides.setdefault((direct_image(pi1, s), direct_image(pi2, s)), []).append(s)
    return [by_sides[direct_image(pi1, t), direct_image(pi2, t)] for t in tops]


def is_am_bisimulation(rel: Relation, m1: Model, m2: Model, sig: Signature,
                       max_size: int = DEFAULT_MAX_SIZE) -> AmBisimReport:
    """Search for a mediating structure map gamma: R -> T R whose two
    projections are sigma1 and sigma2, fuzzy continuous for the subspace
    topology on R.

    Neither T R nor the opens of R are built. For the identity functor a
    pair's only candidate is (sigma1(b1), sigma2(b2)), if related. For
    the fuzzy powerset every candidate t of a pair has t <= pi1^-1(v1)
    and t <= pi2^-1(v2), so t <= t*, their meet; direct images are
    monotone and T pi_i(t*) <= v_i, so T pi_i(t) = v_i forces T pi_i(t*)
    = v_i: a pair has a candidate iff t* is one, its greatest. The map of
    the greatest candidates, onto the values it takes, is tried first.

    gamma is continuous iff each member g of the functor's subbasis, read
    at gamma's values, pulls back to an open, as in `validate_model`. The
    subbasis is lifted from a basis of R, read on its primes, which are
    the primes of the pullbacks of both sides' distinct primes (as in
    `subspace_topology`), and a pullback x is open iff it is the join of
    the primes of its bits (`FuzzySpace.is_open`). Only when the greatest
    candidates fail are all candidates enumerated (`_candidates`) and
    their choices tried in order, each pair's least candidate first; the
    search is held to `max_size` once that first choice fails. The empty
    relation is vacuously accepted.
    """
    _require_shared_props(m1, m2)
    witnesses = _prop_witnesses(rel, m1, m2)
    if witnesses:
        return AmBisimReport(False, tuple(witnesses))
    if not (identity := sig.functor.name == "identity") and sig.functor.name != "fuzzy-powerset":
        raise PreconditionError(f"no Aczel-Mendler search for the functor {sig.functor.name!r}")
    (pi1, pi2), space = _subspace(rel, m1.space, m2.space, max_size)
    d, tops = space.lattice.den, []
    for b1, b2 in rel.sorted_pairs():
        v = m1.sigma(b1), m2.sigma(b2)
        t = v if identity else fs_meet(inverse_image(pi1, v[0]), inverse_image(pi2, v[1]))
        if (t not in rel) if identity else (direct_image(pi1, t), direct_image(pi2, t)) != v:
            return AmBisimReport(False, (BisimWitness(
                (b1, b2), note="no structure value projects onto both sides"),))
        tops.append(t)

    def search(candidates: list[list]) -> CarrierMap | None:
        at = Carrier(tuple(dict.fromkeys(t for options in candidates for t in options)))
        gens = _pullbacks(sig.functor, space, CarrierMap.identity(at))
        for tried, choice in enumerate(product(*candidates)):
            gamma = CarrierMap(space.carrier, at, choice)
            if all(space.is_open(_fields_along(g, d, gamma._back)) for g in gens):
                return CarrierMap.onto(space.carrier, choice)
            if not tried and (total := prod(map(len, candidates))) > max_size:
                raise ResourceLimitError("mediating map search", total, max_size)
        return None

    gamma = search([[t] for t in tops])
    if gamma is None and not identity:  # an identity model has no other candidates
        gamma = search(_candidates(tops, pi1, pi2, max_size))
    if gamma is not None:
        return AmBisimReport(True, (), mediating=gamma)
    return AmBisimReport(False, (BisimWitness(
        rel.sorted_pairs()[0], note="pairwise structure values exist but none assemble "
                                    "into a fuzzy continuous mediating map"),))

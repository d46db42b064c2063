"""Coherent pairs, Sigma-bisimulation, Aczel-Mendler bisimulation.

The coherent pairs of a relation R are the pairs of opens (mu, eta) with
R[mu] <= eta and R^-1[eta] <= mu. Direct images keep joins and do not
raise meets, so the coherent pairs are closed under componentwise join
and meet, and (0, 0) and (1, 1) are coherent: packed mu << w2 | eta on
S1 + S2, they form a topology, whose primes and co-primes are bases
(`topology`). Its prime for a bit b is the least coherent pair holding
b, and it is found by reachability (`_coherent_primes`). Give each bit
a step: its prime on its own side, and its moves, the same bit of the
field of each state related to its state on the other side. A coherent
pair holding b holds its step, since its side is open and the other
side holds the relation's image of it. Both the primes and the images
keep joins, so the union of the steps of the bits reachable from b is
coherent: each side is a union of primes, so open, and holds the moves
of its bits. So the least coherent pair holding b is that union, one
walk over the bits in which each bit is visited once, and there are at
most (n1 + n2)*d distinct primes. Every coherent pair is the join of
the primes of its bits, (0, 0) for none; so a lifting that keeps joins
(`Lifting.keeps`) gives a related pair equal grades on every coherent
pair iff it does on the primes and (0, 0), its join basis. Dually every
coherent pair is the meet of the co-primes of the bits it lacks, (1, 1)
for none, which is the meet basis of a lifting that keeps meets.
Pullbacks along sigma keep both joins and meets. A lifting that
declares nothing, or takes more than one argument, is read on every
coherent tuple; that tuple path reads the coherent pairs as the closure
of their primes (`topology._read_on`), the same pairs in the same order
as `coherent_pairs`, so it too needs both spaces to be topologies, as a
validated model's are.

Both Sigma checks lift each row of one table (`_table`), a lifting and a
tuple of coherent pairs, on packed ints, through each model's packed
lift along sigma (`Model._lifted`), and give each state its signature:
its fields over the rows. A related pair agrees on every row iff its
two signatures are equal. `is_sigma_bisimulation` reads its verdict on
the bases this way; only a negative one walks every coherent tuple and
turns the rows on which a pair differs into witnesses, building fuzzy
sets and `Grade`s only for them.

`greatest_sigma_bisimulation` refines joint state labels, shared by the
states of both models; its relation is always the kernel K = {(b1, b2) :
label1(b1) = label2(b2)}. The first labels are the states' valuation
fields, and their kernel is the prop-agreeing pairs. A round reads the
coherent pairs of K, a state moving to the states of the other side
with its label, and drops the pairs of K whose signatures differ. The
result is {label1 = label2 and signature1 = signature2}: the kernel of
the labels (label, signature), which every state is given. So each
relation is a kernel, the moves come from the label classes, and no
`Relation` is built until the end. Deleting a pair can only enlarge the
coherent set, so each surviving relation contains every
Sigma-bisimulation. The refinement stops at a round that splits no
label: K is left as it is, so its pairs agree on every basis row, K is
a Sigma-bisimulation and so the greatest. A round that drops no pair
splits only labels that one side alone holds, which move nowhere, so
the round after it reads the same table and splits nothing. Each round
but the last splits a label, and there are at most n1 + n2 labels, so
at most n1 + n2 rounds run, where dropping pairs from a relation could
take |B1| x |B2|.

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

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import prod
from typing import Sequence

from .errors import CarrierMismatchError, LatticeMismatchError, PreconditionError, ResourceLimitError
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
from .logic import Model, _refine
from .signature import Signature, _pullbacks
from .topology import FuzzySpace, _read_on, _subspace


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
    closure of the coherent primes (`_coherent_primes`).
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


def _coherent_primes(space1: FuzzySpace, space2: FuzzySpace,
                     right_of: Sequence[int], left_of: Sequence[int]) -> tuple[int, ...]:
    """The prime of each bit of the packed pairs mu << w2 | eta in the
    topology of the coherent pairs, indexed by bit: the least coherent
    pair that holds the bit.

    right_of[i] holds the low bit of the field of each state of S2
    related to the state of S1 at field position i, counted from the
    least significant, and left_of the same the other way. A bit's step
    is its prime on its own side and its moves, the same bit of each
    related field on the other side; a coherent pair that holds the bit
    holds its step. The union of the steps of the bits reachable from a
    bit is coherent, as each of its sides is a union of primes and holds
    the moves of its bits, so it is the bit's prime. One walk per bit,
    lowest bit first, so that the known prime of a lower bit is added
    whole.
    """
    (p1, p2), d = (space1.primes, space2.primes), space1.lattice.den
    step = [j | left_of[b // d] << b % d << len(p2) for b, j in enumerate(p2)]
    step += [j << len(p2) | right_of[b // d] << b % d for b, j in enumerate(p1)]
    primes = [0] * len(step)
    for b, out in enumerate(step):
        seen = 0
        while todo := out & ~seen:
            c = (todo & -todo).bit_length() - 1
            seen |= primes[c] or 1 << c
            out |= primes[c] or step[c]
        primes[b] = out
    return tuple(primes)


def _moves(rel: Relation, d: int) -> tuple[list[int], list[int]]:
    """The moves of `_coherent_primes` along a relation."""
    right_of, left_of = [0] * len(rel.left), [0] * len(rel.right)
    for i, j in rel._edges:
        right_of[i] |= 1 << j * d
        left_of[j] |= 1 << i * d
    return right_of, left_of


def _table(m1: Model, m2: Model, sig: Signature, primes: tuple[int, ...], basis: bool,
           max_tuples: int) -> tuple[list[tuple], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The rows (lifting, packed left opens, packed right opens), one per
    lifting and tuple of the coherent pairs with these primes that
    `topology._read_on` gives it, in sorted packed order, and each
    state's signature on either side: its fields, over the rows, of the
    packed lifts along its sigma (`Model._lifted`). Without `basis`, or
    for a lifting that keeps neither, every coherent tuple, under the
    guard, which refuses as soon as the coherent pairs pass it, before
    they are all closed, reporting its bound + 1."""
    d, w2 = m1.space.lattice.den, len(m2.space.primes)
    mask, members, rows, lefts, rights = (1 << w2) - 1, {}, [], [], []
    for lifting in sig.liftings:
        if (key := (lifting.keeps if basis else None, lifting.arity)) not in members:
            members[key] = sorted(_read_on(key[0], primes, len(primes), max_tuples,
                                           lifting.arity, "coherent tuple enumeration"))
        lift1, lift2 = m1._lifted(lifting), m2._lifted(lifting)
        for combo in product(members[key], repeat=lifting.arity):
            mus, etas = tuple(p >> w2 for p in combo), tuple(p & mask for p in combo)
            rows.append((lifting, mus, etas))
            lefts.append(left := lift1(*mus))
            rights.append(left if lift1 is lift2 and mus == etas else lift2(*etas))
    return rows, *([tuple([v >> shift & (1 << d) - 1 for v in lifts])
                    for shift in range(len(m.space.primes) - d, -1, -d)]
                   for m, lifts in ((m1, lefts), (m2, rights)))


def is_sigma_bisimulation(rel: Relation, m1: Model, m2: Model, sig: Signature,
                          max_tuples: int = DEFAULT_MAX_SIZE) -> BisimReport:
    """Prop agreement plus equal lifting grades over every coherent tuple.

    The verdict is read on the bases: a related pair agrees on every
    basis row iff its two signatures are equal. Only a negative verdict
    walks every coherent tuple, for the witnesses in table order.
    """
    _require_shared_props(m1, m2)
    (c1, c2), lattice = (m1.space.carrier, m2.space.carrier), m1.space.lattice
    if (rel.left, rel.right) != (c1, c2):
        raise CarrierMismatchError("relation does not connect the two spaces")
    witnesses = _prop_witnesses(rel, m1, m2)
    primes = _coherent_primes(m1.space, m2.space, *_moves(rel, lattice.den))
    if not witnesses:
        _, sigs1, sigs2 = _table(m1, m2, sig, primes, True, max_tuples)
        if all(sigs1[c1.index(b1)] == sigs2[c2.index(b2)] for b1, b2 in rel.pairs):
            return BisimReport(True)
    rows, sigs1, sigs2 = _table(m1, m2, sig, primes, False, max_tuples)
    for b1, b2 in rel.sorted_pairs():
        witnesses += [
            BisimWitness((b1, b2), None, lifting.name,
                         tuple(_from_bits(c1, lattice, p) for p in mus),
                         tuple(_from_bits(c2, lattice, p) for p in etas),
                         lattice.values[k1.bit_length()], lattice.values[k2.bit_length()])
            for (lifting, mus, etas), k1, k2 in zip(rows, sigs1[c1.index(b1)], sigs2[c2.index(b2)])
            if k1 != k2]
    return BisimReport(False, tuple(witnesses))


def greatest_sigma_bisimulation(m1: Model, m2: Model, sig: Signature,
                                max_tuples: int = DEFAULT_MAX_SIZE) -> Relation:
    """Refinement to the greatest Sigma-bisimulation, on joint state labels.

    Each round's relation is the kernel {(b1, b2) : label1(b1) =
    label2(b2)} of labels shared by both carriers, starting from the
    states' valuation fields, whose kernel is the prop-agreeing pairs. A
    round moves each state to the states of the other side with its
    label, reads the coherent pairs of the kernel on those moves, and
    relabels every state by (label, signature). It drops exactly the
    related pairs whose signatures differ, so the next relation, {label1
    = label2 and signature1 = signature2}, is the kernel of the new
    labels (the module docstring has the proof and the round bound). One
    `Relation` is built, at the end.
    """
    _require_shared_props(m1, m2)
    (c1, c2), d, ids = (m1.space.carrier, m2.space.carrier), m1.space.lattice.den, {}
    labels = [_refine((0,) * len(m.space.carrier), d, [v.bits for _, v in m.valuation], ids)
              for m in (m1, m2)]
    while True:
        count, ids, masks = len(ids), {}, [defaultdict(int), defaultdict(int)]
        for mask, side in zip(masks, labels):
            for pos, label in enumerate(reversed(side)):
                mask[label] |= 1 << pos * d
        primes = _coherent_primes(m1.space, m2.space, *(
            [masks[1 - k][label] for label in reversed(labels[k])] for k in (0, 1)))
        _, *sigs = _table(m1, m2, sig, primes, True, max_tuples)
        labels = [[ids.setdefault(key, len(ids)) for key in zip(*side)] for side in zip(labels, sigs)]
        if len(ids) == count:
            return Relation.of(c1, c2, ((b1, b2) for b1, l1 in zip(c1, labels[0])
                                        for b2, l2 in zip(c2, labels[1]) if l1 == l2))


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

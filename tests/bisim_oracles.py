"""Brute-force bisimulation oracles, used only by the tests.

The basis oracles are the library's earlier Sigma checks:
`alternating_coherent_basis` reaches the least coherent pair above each
distinct prime by alternating images and `_up`s until nothing changes,
`basis_sigma_check` lifts each basis pair as fuzzy sets through
`Model.lift`, and `pair_dropping_greatest` rebuilds the relation each
round without the pairs that disagree on a basis row. The full-table
Sigma checks lift every coherent tuple for every lifting,
with no basis: `full_table_sigma_check` lists every disagreeing tuple as
a witness and `full_table_greatest` refines on that table. The
Aczel-Mendler oracle `image_am_search` builds T R and every open of the
relation space, and tries every choice of structure values in T R's
order. The coherence lemma check compares every pair of opens both
ways; the implication suites enumerate every relation between two
carriers (AM bisimulation implies Sigma-bisimulation, for monotone
signatures) or every formula up to a depth plus the definable opens'
defining formulas (Sigma-bisimilar states are modally equivalent).
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from fgml import (
    BisimReport,
    BisimWitness,
    CarrierMap,
    FuzzySpace,
    Model,
    Relation,
    Signature,
    coherent_pairs,
    definable_opens,
    enumerate_formulas,
    evaluate,
    greatest_sigma_bisimulation,
    inverse_image,
    is_am_bisimulation,
    is_coherent,
    is_sigma_bisimulation,
    subspace_topology,
)
from fgml.bisim import AmBisimReport, _prop_witnesses, _require_shared_props
from fgml.errors import PreconditionError, ResourceLimitError
from fgml.fuzzyset import DEFAULT_MAX_SIZE, _fields_along, _from_bits
from fgml.signature import check_monotone, image_elements, image_subbasis
from fgml.topology import _read_on, _up


def alternating_coherent_basis(rel: Relation, space1: FuzzySpace, space2: FuzzySpace,
                               kinds) -> dict:
    """The coherent pairs, in canonical order, that a lifting keeping each
    of `kinds` is read on: from each distinct prime j of either side,
    eta := up2(eta | R[mu]) and mu := up1(mu | R^-1[eta]) until neither
    moves, which is the least coherent pair above (j, 0) or (0, j)."""
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
                   for p in sorted(_read_on(kind, packed, width, 1 << width, 1, "oracle"))]
            for kind in kinds}


def _basis_table(rel: Relation, m1: Model, m2: Model, sig: Signature, max_tuples: int,
                 basis: bool = True):
    """Each related pair in canonical order with the rows (lifting, left
    opens, right opens, left numerator, right numerator) on which it
    disagrees: a declared lifting on its basis when `basis`, any other on
    every coherent tuple, under the tuple guard."""
    read = [l.keeps if basis else None for l in sig.liftings]
    bases = alternating_coherent_basis(rel, m1.space, m2.space, set(read)) if read else {}
    table = []
    for lifting, kind in zip(sig.liftings, read):
        pairs = bases[kind]
        if kind is None and (total := len(pairs) ** lifting.arity) > max_tuples:
            raise ResourceLimitError("coherent tuple enumeration", total, max_tuples)
        for combo in product(pairs, repeat=lifting.arity):
            mus, etas = tuple(mu for mu, _ in combo), tuple(eta for _, eta in combo)
            table.append((lifting, mus, etas, m1.lift(lifting, mus).key(),
                          m2.lift(lifting, etas).key()))
    for b1, b2 in rel.sorted_pairs():
        i1, i2 = m1.space.carrier.index(b1), m2.space.carrier.index(b2)
        yield (b1, b2), [(lifting, mus, etas, left[i1], right[i2])
                         for lifting, mus, etas, left, right in table
                         if left[i1] != right[i2]]


def basis_sigma_check(rel: Relation, m1: Model, m2: Model, sig: Signature,
                      max_tuples: int = DEFAULT_MAX_SIZE) -> BisimReport:
    """The verdict on the bases, and for a negative one the prop witnesses
    and then a witness per related pair and disagreeing row of every
    coherent tuple, in table order."""
    _require_shared_props(m1, m2)
    witnesses = _prop_witnesses(rel, m1, m2)
    if not witnesses and not any(rows for _, rows in _basis_table(rel, m1, m2, sig, max_tuples)):
        return BisimReport(True)
    grades = m1.space.lattice.values
    witnesses += [
        BisimWitness(pair, lifting=lifting.name, left_opens=mus, right_opens=etas,
                     left_grade=grades[k1], right_grade=grades[k2])
        for pair, rows in _basis_table(rel, m1, m2, sig, max_tuples, basis=False)
        for lifting, mus, etas, k1, k2 in rows]
    return BisimReport(False, tuple(witnesses))


def pair_dropping_greatest(m1: Model, m2: Model, sig: Signature,
                           max_tuples: int = DEFAULT_MAX_SIZE) -> Relation:
    """From the prop-agreeing pairs, drop every pair with a disagreeing
    basis row, rebuilding the relation each round, until none has one."""
    _require_shared_props(m1, m2)
    c1, c2 = m1.space.carrier, m2.space.carrier
    rel = Relation.of(c1, c2, [(b1, b2) for b1 in c1 for b2 in c2
                               if all(m1.prop(p)(b1) == m2.prop(p)(b2) for p in m1.props)])
    while True:
        dropped = {p for p, rows in _basis_table(rel, m1, m2, sig, max_tuples) if rows}
        if not dropped:
            return rel
        rel = Relation.of(c1, c2, rel.pairs - dropped)


def _full_table(rel: Relation, m1: Model, m2: Model, sig: Signature, max_tuples: int):
    """Each related pair in canonical order with its disagreeing rows
    (lifting, left opens, right opens, left grade, right grade): every
    lifting on every coherent tuple, under the tuple guard."""
    coherent = coherent_pairs(rel, m1.space, m2.space)
    table = []
    for lifting in sig.liftings:
        combos = len(coherent) ** lifting.arity
        if combos > max_tuples:
            raise ResourceLimitError("coherent tuple enumeration", combos, max_tuples)
        for combo in product(coherent, repeat=lifting.arity):
            mus = tuple(mu for mu, _ in combo)
            etas = tuple(eta for _, eta in combo)
            table.append((lifting, mus, etas, m1.lift(lifting, mus), m2.lift(lifting, etas)))
    for b1, b2 in rel.sorted_pairs():
        yield (b1, b2), [(lifting, mus, etas, left(b1), right(b2))
                         for lifting, mus, etas, left, right in table
                         if left(b1) != right(b2)]


def full_table_sigma_check(rel: Relation, m1: Model, m2: Model, sig: Signature,
                           max_tuples: int = DEFAULT_MAX_SIZE) -> BisimReport:
    """Prop witnesses, then a witness per related pair and disagreeing row
    of the full table, in table order."""
    witnesses = [BisimWitness((b1, b2), prop=name, left_grade=g1, right_grade=g2)
                 for b1, b2 in rel.sorted_pairs() for name in m1.props
                 if (g1 := m1.prop(name)(b1)) != (g2 := m2.prop(name)(b2))]
    witnesses += [BisimWitness(pair, lifting=lifting.name, left_opens=mus, right_opens=etas,
                               left_grade=g1, right_grade=g2)
                  for pair, rows in _full_table(rel, m1, m2, sig, max_tuples)
                  for lifting, mus, etas, g1, g2 in rows]
    return BisimReport(not witnesses, tuple(witnesses))


def full_table_greatest(m1: Model, m2: Model, sig: Signature,
                        max_tuples: int = DEFAULT_MAX_SIZE) -> Relation:
    """From the prop-agreeing pairs, drop every pair with a disagreeing
    row of the full table until none has one."""
    c1, c2 = m1.space.carrier, m2.space.carrier
    rel = Relation.of(c1, c2, [(b1, b2) for b1 in c1 for b2 in c2
                               if all(m1.prop(p)(b1) == m2.prop(p)(b2) for p in m1.props)])
    while True:
        dropped = {p for p, rows in _full_table(rel, m1, m2, sig, max_tuples) if rows}
        if not dropped:
            return rel
        rel = Relation.of(c1, c2, rel.pairs - dropped)


def image_am_search(rel: Relation, m1: Model, m2: Model, sig: Signature,
                    max_size: int = DEFAULT_MAX_SIZE) -> AmBisimReport:
    """Search for a mediating structure map among the values of T R.

    The relation carries the subspace topology, generated under the
    guard. Per pair, candidates are the values of T R, enumerated under
    the functor's own guard, whose two projections are the pair's
    structure values; the assembled map into all of T R must also be
    fuzzy continuous, checked on the functor's subbasis against every
    open of the relation space. Choices are tried in T R's order, each
    pair's least candidate first, and held to `max_size` once the first
    fails. The empty relation is vacuously accepted.
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


def coherence_lemma_check(rel: Relation, space1: FuzzySpace,
                          space2: FuzzySpace) -> bool:
    """Coherence of an opens pair coincides with equality of its two
    pullbacks to the relation carrier."""
    if not rel.pairs:
        raise PreconditionError("coherence_lemma_check requires a nonempty relation")
    pi1, pi2 = rel.projections()
    for mu in space1.sorted_opens():
        for eta in space2.sorted_opens():
            lhs = is_coherent(rel, mu, eta)
            rhs = inverse_image(pi1, mu) == inverse_image(pi2, eta)
            if lhs != rhs:
                return False
    return True


@dataclass(frozen=True)
class SuiteReport:
    ok: bool
    lines: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return "\n".join(self.lines)


def am_implies_sigma_suite(m1: Model, m2: Model, sig: Signature,
                           max_size: int = DEFAULT_MAX_SIZE) -> SuiteReport:
    """Every relation accepted as Aczel-Mendler must pass the Sigma check.

    Exhaustive over all relations between the two carriers; requires a
    monotone signature.
    """
    for lifting in sig.liftings:
        for space in (m1.space, m2.space):
            if not check_monotone(lifting, space):
                raise PreconditionError(
                    f"lifting {lifting.name!r} is not monotone; the implication "
                    "is only claimed for monotone signatures")
    universe = [(b1, b2) for b1 in m1.space.carrier for b2 in m2.space.carrier]
    count = 1 << len(universe)
    if count > max_size:
        raise ResourceLimitError("relation enumeration", count, max_size)
    lines = []
    ok = True
    for mask in range(count):
        pairs = {universe[i] for i in range(len(universe)) if mask >> i & 1}
        rel = Relation.of(m1.space.carrier, m2.space.carrier, pairs)
        am = is_am_bisimulation(rel, m1, m2, sig, max_size)
        if not am.verdict:
            continue
        sigma = is_sigma_bisimulation(rel, m1, m2, sig, max_size)
        status = "pass" if sigma.verdict else "FAIL"
        lines.append(f"AM relation {sorted(pairs)}: Sigma {status}")
        ok = ok and sigma.verdict
    return SuiteReport(ok, tuple(lines))


def sigma_implies_modal_suite(m1: Model, m2: Model, sig: Signature,
                              depth: int = 3) -> SuiteReport:
    """Every pair of the greatest Sigma-bisimulation is modally equivalent.

    Checked against the depth-bounded formula enumeration plus the
    defining formulas of both models' definable opens.
    """
    greatest = greatest_sigma_bisimulation(m1, m2, sig)
    formulas = enumerate_formulas([m1, m2], sig, depth)
    for model in (m1, m2):
        for formula in definable_opens(model, sig).values():
            if formula not in formulas:
                formulas.append(formula)
    values = [(evaluate(m1, sig, f), evaluate(m2, sig, f)) for f in formulas]
    lines = []
    ok = True
    for b1, b2 in greatest.sorted_pairs():
        bad = [f for f, (v1, v2) in zip(formulas, values) if v1(b1) != v2(b2)]
        if bad:
            ok = False
            lines.append(f"({b1}, {b2}): modal equivalence FAILS on {bad[0]}")
        else:
            lines.append(f"({b1}, {b2}): modally equivalent "
                         f"({len(formulas)} formulas)")
    return SuiteReport(ok, tuple(lines))

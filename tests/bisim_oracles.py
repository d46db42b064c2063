"""Brute-force bisimulation oracles, used only by the tests.

The coherence lemma check compares every pair of opens both ways; the
implication suites enumerate every relation between two carriers (AM
bisimulation implies Sigma-bisimulation, for monotone signatures) or
every formula up to a depth plus the definable opens' defining formulas
(Sigma-bisimilar states are modally equivalent).
"""

from dataclasses import dataclass

from fgml import (
    FuzzySpace,
    Model,
    Relation,
    Signature,
    definable_opens,
    enumerate_formulas,
    evaluate,
    greatest_sigma_bisimulation,
    inverse_image,
    is_am_bisimulation,
    is_coherent,
    is_sigma_bisimulation,
)
from fgml.errors import PreconditionError, ResourceLimitError
from fgml.fuzzyset import DEFAULT_MAX_SIZE
from fgml.signature import check_monotone


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

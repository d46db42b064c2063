"""Counting the opens of a generated topology on its primes.

`FuzzySpace.count_opens` counts the down-sets of the distinct primes
(`topology._down_sets`) instead of closing the opens. The count must
equal the size of the closure (`topology._closure`) on the ladder
families and on random prime sets, its memo must never need more
entries than there are opens, and `validate` prints it past the guard
that the closure stops at.
"""

import json

import pytest

from fgml.cli import load_document
from fgml.fuzzyset import DEFAULT_MAX_SIZE
from fgml.topology import FuzzySpace, _closure, _down_sets, _primes

from modelgen import (
    crisp_discrete_document,
    crown_document,
    generated_chain_document,
    identity_zoo,
    powerset_zoo,
    pullback_closed_document,
)
from test_generated_space import _run

BIG = 10 ** 7


def _primes_of(doc: dict) -> tuple[int, ...]:
    return load_document(doc, BIG).model.space.primes


@pytest.mark.parametrize("doc,opens", [
    (generated_chain_document(2, 8), 2207),
    (generated_chain_document(2, 10), 15127),
    (generated_chain_document(2, 12), 103682),
    (pullback_closed_document(2, 12, 1, duplicate=True), 30577),
    (pullback_closed_document(2, 14, 1, duplicate=True), 171720),
    (crown_document(12), 35327),
])
def test_count_equals_the_closure_on_the_ladder(doc, opens):
    primes = _primes_of(doc)
    assert _down_sets(primes, BIG) == len(_closure(primes, BIG)) == opens
    assert _down_sets(primes, opens) is not None  # the memo stays within the opens


def test_count_opens_on_declared_and_generated_spaces():
    for m, _ in identity_zoo(4, dens=(1, 2, 3)) + powerset_zoo(3):
        declared = m.space
        packed = sorted(declared.packed)
        generated = FuzzySpace._generate(declared.carrier, declared.lattice, packed,
                                         DEFAULT_MAX_SIZE)
        assert declared.count_opens() == generated.count_opens() == len(packed)
        assert "packed" not in vars(generated)  # counted on its primes, not closed


def test_property_count_equals_the_closure():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 12).flatmap(
        lambda width: st.tuples(st.just(width), st.lists(st.integers(0, (1 << width) - 1),
                                                         max_size=8))))
    def check(case):
        width, family = case
        primes = _primes(family, width)
        opens = len(_closure(primes, 1 << width))
        assert _down_sets(primes, 1 << width) == opens
        assert _down_sets(primes, opens) is not None

    check()


@pytest.mark.parametrize("doc,states,opens", [
    (generated_chain_document(2, 48), 48, 115561578124838522882),
    (crisp_discrete_document(64), 64, 2 ** 64),
])
def test_validate_counts_past_the_guard(tmp_path, doc, states, opens):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert _run(["validate", "-m", str(path)]) == \
        (0, f"valid model: {states} states, {opens} opens\n", "")
    code, out, _ = _run(["--json", "validate", "-m", str(path)])
    assert (code, json.loads(out)) == (0, {"valid": True, "states": states, "opens": opens})


def _connected(primes: tuple[int, ...]) -> bool:
    """Whether the comparability graph of the distinct primes is connected."""
    distinct = set(primes)
    seen, todo = set(), [min(distinct)]
    while todo:
        p = todo.pop()
        if p not in seen:
            seen.add(p)
            todo += [q for q in distinct if not p & ~q or not q & ~p]
    return seen == distinct


def test_the_guard_bounds_the_memo(tmp_path):
    # the crown's primes do not split into components, and counting their
    # down-sets needs more memo entries than the default guard admits
    doc = crown_document(24)
    assert _connected(_primes_of(doc))
    path = tmp_path / "crown.json"
    path.write_text(json.dumps(doc))
    assert _run(["validate", "-m", str(path)]) == (2, "", (
        "error: open count needs 4097 entries, above the guard of 4096; "
        "raise max_size to override\n"))
    code, out, err = _run(["--max-size", "10000", "validate", "-m", str(path)])
    assert (code, err) == (0, "") and out.startswith("valid model: 48 states, ")

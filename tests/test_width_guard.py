"""The load's guard on the bits of one packed set.

A packed set holds d bits per state, and a space keeps one prime per bit,
each as wide as a packed set: n*d ints of n*d bits. So the load refuses
once max(n, 1) * d passes the guard, before it decodes any set; the
max(n, 1) keeps a huge d refused on an empty carrier.
"""

import json

import pytest

from fgml.cli import load_document
from fgml.errors import ResourceLimitError

from test_generated_space import _run


def _constants_document(n: int, d: int) -> dict:
    """An identity document on n states whose opens are the two constants."""
    states = [f"s{i}" for i in range(n)]
    return {"lattice": d, "functor": "identity", "carrier": states,
            "opens": [dict.fromkeys(states, f"{k}/{d}") for k in (0, d)],
            "sigma": {s: s for s in states}, "valuation": {}}


@pytest.mark.parametrize("n,d", [(2, 2048), (1, 4096), (0, 4096)])
def test_a_packed_set_within_the_guard_loads(n, d):
    assert len(load_document(_constants_document(n, d)).model.space.primes) == n * d


@pytest.mark.parametrize("n,d", [(2, 2049), (8, 4096), (1, 4097), (0, 4097)])
def test_a_packed_set_past_the_guard_refuses(n, d, tmp_path):
    with pytest.raises(ResourceLimitError) as exc:
        load_document(_constants_document(n, d))
    assert (exc.value.size, exc.value.limit) == (max(n, 1) * d, 4096)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_constants_document(n, d)))
    assert _run(["validate", "-m", str(path)]) == (
        2, "", f"error: bits per packed set needs {max(n, 1) * d} entries, above the guard "
               "of 4096; raise max_size to override\n")


def test_a_raised_guard_admits_the_wider_set():
    space = load_document(_constants_document(2, 2049), 4098).model.space
    assert len(space.primes) == 4098

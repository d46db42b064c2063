"""The prime kernel against the pairwise oracles on random families.

`generate_topology`, `is_topology`, `is_t0`, `is_sober` and
`duality_check` all read the primes of a packed family. Their
references are the round-by-round closure, the pairwise row walk, the
pairwise separation scan, and the brute-force points of the opens frame.
Each drawn case is a random subbasis on 1-4 states at d = 1-3, generated
under a small guard (often tripped), and then either kept as generated or
perturbed by dropping or adding one fuzzy set.
"""

import pytest

from fgml import (
    Carrier,
    FuzzySet,
    Grade,
    duality_check,
    generate_topology,
    is_sober,
    is_t0,
    is_topology,
    make_lattice,
)
from fgml.errors import NotSoberError, PreconditionError
from fgml.fuzzyset import DEFAULT_MAX_SIZE
from fgml.topology import FuzzySpace

from modelgen import oracle_is_t0
from test_closure_oracle import _tripped_size, naive_generate_topology, naive_is_topology
from test_frame_oracle import oracle_duality_items, oracle_is_sober

BRUTE = 2 ** 12  # largest (d+1)^|opens| the brute-force points run on


def test_property_prime_kernel_matches_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 3))
        n = draw(st.integers(1, 4))
        nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
        subbasis = draw(st.lists(nums, max_size=4))
        limit = draw(st.sampled_from([2, 4, 8, 16, DEFAULT_MAX_SIZE]))
        change = draw(st.sampled_from(["keep", "drop", "add"]))
        return d, n, subbasis, limit, change, draw(nums), draw(st.integers(0, 10 ** 6))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        d, n, subbasis, limit, change, extra, pick = case
        lattice = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))

        def fuzzy(nums):
            return FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in nums))

        gens = [fuzzy(nums) for nums in subbasis]
        size = _tripped_size(generate_topology, carrier, lattice, gens, limit)
        naive = _tripped_size(naive_generate_topology, carrier, lattice, gens, limit)
        assert (size is None) == (naive is None)
        if size is not None:  # one past the limit or the starting family
            assert size == max(limit, len({0, (1 << n * d) - 1, *(g.bits for g in gens)})) + 1
            seen.add("tripped")
            return
        space = generate_topology(carrier, lattice, gens, limit)
        assert space.opens == naive_generate_topology(carrier, lattice, gens, limit)
        opens = space.sorted_opens()
        if change == "drop" and len(opens) > 2:
            dropped = opens[1 + pick % (len(opens) - 2)]  # neither constant
            space = FuzzySpace(carrier, lattice, space.opens - {dropped})
        elif change == "add":
            space = FuzzySpace(carrier, lattice, space.opens | {fuzzy(extra)})
        got, want = is_topology(space), naive_is_topology(space)
        assert (got.ok, got.violation) == (want.ok, want.violation)
        assert is_t0(space) == oracle_is_t0(space)
        if not got.ok:
            seen.add("not a topology")
            with pytest.raises(PreconditionError, match="requires a topology"):
                is_sober(space)
            return
        if len(lattice) ** len(space.opens) > BRUTE:
            return
        sober = oracle_is_sober(space)
        assert is_sober(space) == sober
        seen.add("sober" if sober else "not sober")
        if sober:
            assert duality_check(space).items == oracle_duality_items(space)
        else:
            with pytest.raises(NotSoberError):
                duality_check(space)

    seen = set()
    check()
    assert seen == {"tripped", "not a topology", "sober", "not sober"}

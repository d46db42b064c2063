"""`validate`'s continuity witness is read off the subbasis it checked.

A negative verdict names the lifted basis member at the first index whose
pullback along sigma is not open (`logic.validate_model`). The oracle
here walks the same lifted basis with fuzzy sets: each lifting in the
signature's order, over the primes (`dia`) or co-primes (`box`) of the
space in bits order, each computed from the opens. When the first
lifting that fails keeps joins, the walk over the lifts of every open
(`modelgen.all_opens_discontinuity`) names the same witness; a `box`
witness may differ from it, and is then a failing lift too.

On the generated chain past the guard, no command but `quotient` and `sig
check` closes the model's topology, valid or not, so `validate` names
its witness there instead of refusing.
"""

import json
from functools import reduce

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    Grade,
    Model,
    fs_join,
    fs_meet,
    fuzzy_powerset_functor,
    generate_topology,
    inverse_image,
    make_lattice,
    validate_model,
)
import fgml.topology

from modelgen import all_opens_discontinuity, generated_chain_document
from test_generated_space import COMMANDS, _argv, _run


def basis_walk_discontinuity(m: Model, sig) -> FuzzySet | None:
    """The first lift, read at sigma's values, of a prime (for a lifting
    keeping joins) or co-prime (keeping meets), lifting by lifting and in
    bits order, whose pullback along sigma is not open; None if none."""
    space, at = m.space, m.sigma.target
    opens = space.sorted_opens()
    top, bottom = space.top_open, space.bottom_open
    bits = [(s, k) for s in space.carrier for k in range(1, space.lattice.den + 1)]
    primes = {reduce(fs_meet, [o for o in opens if o(s).num >= k], top) for s, k in bits}
    coprimes = {reduce(fs_join, [o for o in opens if o(s).num < k], bottom) for s, k in bits}
    for l in sig.liftings:
        for mu in sorted(primes if l.keeps == "joins" else coprimes, key=lambda o: o.bits):
            lifted = l.apply(space, (mu,), at)
            if inverse_image(m.sigma, lifted) not in space.opens:
                return lifted
    return None


def _witness(check) -> str | None:
    if check.ok:
        return None
    (problem,) = check.problems
    prefix, suffix = "structure map not continuous: pullback of ", " is not open"
    assert problem.startswith(prefix) and problem.endswith(suffix)
    return problem[len(prefix):-len(suffix)]


def test_property_witness_is_the_first_failing_basis_lift():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    modalities = [("box",), ("box", "dia"), ("dia",), ("dia", "box")]

    @st.composite
    def cases(draw):
        d, n = draw(st.integers(1, 2)), draw(st.integers(2, 3))
        nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
        return (d, n, draw(st.lists(nums, max_size=4)), draw(st.sampled_from(modalities)),
                draw(st.lists(nums, min_size=n, max_size=n)))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        d, n, subbasis, mods, values = case
        lattice = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))

        def fuzzy(nums):
            return FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in nums))

        space = generate_topology(carrier, lattice, [fuzzy(nums) for nums in subbasis])
        sig = fuzzy_powerset_functor(lattice, mods)[1]
        m = Model(space, CarrierMap.onto(carrier, [fuzzy(v) for v in values]), ())
        got, want = _witness(validate_model(m, sig)), basis_walk_discontinuity(m, sig)
        assert got == (None if want is None else str(want))
        every = all_opens_discontinuity(m, sig)
        assert (every is None) == (want is None)
        if want is None:
            return
        failing = next(l for l in sig.liftings
                       if any(inverse_image(m.sigma, l.apply(space, (o,), m.sigma.target))
                              not in space.opens for o in space.opens))
        if failing.keeps == "joins":  # the theorem of `validate_model`
            assert want == every
        seen.add(("box-first" if mods[0] == "box" else "dia-first",
                  "same" if want == every else "differs"))

    seen = set()
    check()
    assert {("box-first", "same"), ("box-first", "differs"), ("dia-first", "same")} <= seen


def _chain(tmp_path, valid: bool) -> str:
    doc = generated_chain_document(2, 16)
    if not valid:
        doc["sigma"]["s0"] = "s5"
    path = tmp_path / ("chain.json" if valid else "moved.json")
    path.write_text(json.dumps(doc))
    return str(path)


WITNESS = ("structure map not continuous: pullback of {s0:0/2, s1:0/2, s2:0/2, s3:0/2, "
           "s4:0/2, s5:2/2, s6:1/2, s7:0/2, s8:0/2, s9:0/2, s10:0/2, s11:0/2, s12:0/2, "
           "s13:0/2, s14:0/2, s15:0/2} is not open")


def test_invalid_chain_past_the_guard_names_its_witness(tmp_path):
    path = _chain(tmp_path, valid=False)
    for flags in ([], ["--json"]):
        assert _run([*flags, "validate", "-m", path]) == \
            (2, "", f"error: model validation failed: {WITNESS}\n")


@pytest.mark.parametrize("valid", [True, False])
def test_the_chain_is_closed_only_by_quotient(valid, tmp_path, monkeypatch):
    path = _chain(tmp_path, valid)
    spaces = []  # each model space the loads generate
    generate = fgml.topology.FuzzySpace._generate.__func__

    def recorded(cls, *args):
        spaces.append(generate(cls, *args))
        return spaces[-1]

    monkeypatch.setattr(fgml.topology.FuzzySpace, "_generate", classmethod(recorded))
    for command in [["validate", "-m", "{path}"], *COMMANDS, ["duality", "-m", "{path}"]]:
        spaces.clear()
        code, _, err = _run(_argv(command, path))
        assert (code == 2) == (not valid or command[0] == "duality"), command
        if not valid:
            assert err == f"error: model validation failed: {WITNESS}\n", command
        assert spaces and not any("packed" in vars(space) for space in spaces), command
    code, out, err = _run(["quotient", "-m", path])
    assert (code, out) == (2, "")
    assert err == (f"error: model validation failed: {WITNESS}\n" if not valid else
                   "error: topology generation needs 4097 entries, above the guard of 4096; "
                   "raise max_size to override\n")

"""`check_signature` against the per-map algorithm it replaced.

The oracle below is `sig check` as it was before the algorithm moved
into `signature.check_signature`: the command's own loop over the n^n
self-maps, testing each for continuity on the distinct primes, and one
`check_natural` per continuous map and lifting, which builds its own T f
map, its own identity map of T S and lifts every tuple again; beside it
one table per lifting for the monotone check and one more per lifting
for the characteristic check. Its images of T S are memoized per space,
as the image cache it relied on did. The new algorithm must give the
same `(ok, lines)`, or refuse with the same message, on the zoos, on the
fixtures, on liftings that fail each line, and under a raised guard.
"""

import dataclasses
import glob
import os
from itertools import product

import pytest

import fgml.cli
from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    check_monotone,
    check_natural,
    check_signature,
    make_lattice,
)
from fgml.errors import DocumentError, ResourceLimitError
from fgml.fuzzyset import _fields_along, _from_bits, fs_complement, fs_join, fs_meet
from fgml.signature import Signature, fuzzy_powerset_functor, identity_functor
from fgml.topology import (
    FuzzySpace,
    discrete_space,
    generate_topology,
    indiscrete_space,
    is_continuous,
)

from modelgen import FIXTURES, fuzzy_lifting, identity_zoo, powerset_zoo
from test_signature import FunctorWithTopology

D1, D2 = make_lattice(1), make_lattice(2)
XY = Carrier(("x", "y"))
XYZ = Carrier(("x", "y", "z"))


def _oracle_lines(sig: Signature, space: FuzzySpace, max_size: int,
                  witnesses: list) -> tuple[bool, list[str]]:
    """The lines of `sig check` by the per-map algorithm; each failing
    check's lifting, map (None for monotone) and witness go to `witnesses`."""
    images = {}

    def image_elements(functor, s):
        if (functor, id(s)) not in images:
            images[functor, id(s)] = functor.on_space(s)
        return images[functor, id(s)].carrier

    def table(l, s, f, opens):
        lift = l.kernel(s, f)
        return [(args, lift(*args)) for args in product(opens, repeat=l.arity)]

    def strs(s, args):
        return tuple(str(_from_bits(s.carrier, s.lattice, a)) for a in args)

    def monotone(l):
        rows = table(l, space, CarrierMap.identity(image_elements(l.functor, space)),
                     sorted(space.packed))
        for lo, lo_value in rows:
            for hi, hi_value in rows:
                if not any(a & ~b for a, b in zip(lo, hi)) and lo_value & ~hi_value:
                    return f"{l.name} not monotone on {strs(space, lo)} <= {strs(space, hi)}"
        return None

    def natural(l, f):
        assert is_continuous(f, space, space)
        at = image_elements(l.functor, space)
        image_map = CarrierMap(at, image_elements(l.functor, space),
                               tuple(map(l.functor.on_map(f, space, space), at)))
        lhs, d = l.kernel(space, CarrierMap.identity(at)), space.lattice.den
        for args, rhs in table(l, space, image_map, sorted(space.packed)):
            if lhs(*(_fields_along(a, d, f._back) for a in args)) != rhs:
                return f"{l.name} naturality fails on opens {strs(space, args)}"
        return None

    def characteristic():
        image = sig.functor.on_space(space)
        every = CarrierMap.identity(image.carrier)
        gens = {v for l in sig.liftings
                for _, v in table(l, space, every, sorted(space.packed))}
        generated = FuzzySpace._generate(image.carrier, space.lattice, gens, max_size)
        generated.packed
        return generated == image

    n = len(space.carrier)
    if n ** n > max_size:
        raise ResourceLimitError("self-map enumeration", n ** n, max_size)
    is_characteristic = characteristic()
    lines, ok = [], True
    for l in sig.liftings:
        if (witness := monotone(l)) is not None:
            witnesses.append((l, None, witness))
        lines.append(f"monotone[{l.name}]: {'PASS' if witness is None else 'FAIL'}")
        ok = ok and witness is None
    d, last, states = space.lattice.den, n - 1, space.carrier.elements
    natural_ok = True
    for targets in product(range(n), repeat=n):
        back = [(last - t, last - i) for i, t in enumerate(targets)]
        if not all(space.is_open(_fields_along(j, d, back)) for j in set(space.primes)):
            continue
        f = CarrierMap(space.carrier, space.carrier, tuple(states[t] for t in targets))
        for l in sig.liftings:
            if (witness := natural(l, f)) is not None:
                witnesses.append((l, f, witness))
                natural_ok = False
                lines.append(f"natural[{l.name}] on {f.assignment}: FAIL")
    lines.append(f"natural: {'PASS' if natural_ok else 'FAIL'} (all continuous self-maps)")
    lines.append(f"characteristic: {'PASS' if is_characteristic else 'FAIL'}")
    return ok and natural_ok and is_characteristic, lines


def _outcome(check, *args):
    """(ok, lines), or the message of the refusal."""
    try:
        return check(*args)
    except ResourceLimitError as exc:
        return str(exc)


def _same(sig, space, max_size=4096):
    """The oracle's outcome, which `check_signature` must give too; the
    public checks must name each failure's witness as the oracle does."""
    witnesses = []
    expected = _outcome(_oracle_lines, sig, space, max_size, witnesses)
    assert _outcome(check_signature, sig, space, max_size) == expected
    for l, f, witness in witnesses:
        check = check_monotone(l, space) if f is None else check_natural(l, f, space, space)
        assert (check.ok, check.witness) == (False, witness)
    return expected


def test_zoos_match_the_oracle():
    for m, sig in identity_zoo(3):
        assert _same(sig, m.space)[0] is True
    for mods in (("dia",), ("box",), ("dia", "box")):
        for m, sig in powerset_zoo(2, modalities=mods) + powerset_zoo(3, dens=(1,),
                                                                      modalities=mods):
            assert _same(sig, m.space)[0] is True


@pytest.mark.parametrize("max_size", [4096, 100000])
def test_fixtures_match_the_oracle(max_size):
    outcomes = {}
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        try:  # as `sig check` loads it and closes its opens
            lm = fgml.cli.load_model(path, max_size)
            lm.model.space.packed
        except (DocumentError, ResourceLimitError):
            continue
        outcomes[os.path.basename(path)] = _same(lm.signature, lm.model.space, max_size)
    answered = {"m1.json", "m1_dup.json", "tiny_identity.json"}
    if max_size > 4096:
        answered |= {"dia_d2n5.json", "spread_d2n6.json"}
    assert {name for name, o in outcomes.items() if not isinstance(o, str)} == answered


def _swap_unnatural(lattice):
    """dia with its sup over states replaced by the grade at one fixed state."""
    functor, sig = fuzzy_powerset_functor(lattice, ("dia",))

    def broken(space, args, at):
        return FuzzySet.constant(at, lattice, args[0](space.carrier.elements[0]))

    return Signature(functor, (sig.lifting("dia"), fuzzy_lifting("broken", 1, functor, broken)))


def test_failing_liftings_give_the_same_lines():
    functor, sig = identity_functor()
    antitone = Signature(functor, (sig.lifting("id"), fuzzy_lifting(
        "neg", 1, functor, lambda space, args, at: fs_complement(args[0]))))
    binary = Signature(functor, (
        fuzzy_lifting("and", 2, functor, lambda space, args, at: fs_meet(*args)),
        fuzzy_lifting("first", 2, functor, lambda space, args, at: FuzzySet.constant(
            at, space.lattice, fs_join(*args)(space.carrier.elements[0])))))
    spaces = [generate_topology(XY, D2, [FuzzySet(XY, D2, (D2.top, D2.grade(1))),
                                         FuzzySet(XY, D2, (D2.grade(1), D2.top))]),
              discrete_space(XY, D2), indiscrete_space(XYZ, D1),
              generate_topology(XYZ, D1, [FuzzySet(XYZ, D1, (D1.top, D1.bottom, D1.bottom))])]
    lines = []
    for space in spaces:
        for s in (antitone, binary, _swap_unnatural(space.lattice)):
            lines += _same(s, space)[1]
    assert "monotone[neg]: FAIL" in lines
    assert "natural[broken] on ('y', 'x'): FAIL" in lines
    assert any(line.startswith("natural[first] on") for line in lines)
    pfunctor, psig = fuzzy_powerset_functor(D1, ("dia",))
    space = indiscrete_space(XY, D1)
    image = pfunctor.on_space(space)
    padded = generate_topology(image.carrier, D1, [
        *image.opens, FuzzySet(image.carrier, D1, (D1.top,) + (D1.bottom,) * 3)])
    assert padded != image
    fake = Signature(FunctorWithTopology(pfunctor, space, padded).instance(), psig.liftings)
    assert _same(fake, space) == (False, ["monotone[dia]: PASS",
                                          "natural: PASS (all continuous self-maps)",
                                          "characteristic: FAIL"])


def test_guards_refuse_with_the_same_messages():
    states = [f"s{i}" for i in range(5)]
    space = indiscrete_space(Carrier(tuple(states)), D1)
    _, sig = identity_functor()
    assert _same(sig, space, 3124).startswith("self-map enumeration needs 3125 entries")
    assert _same(sig, space, 3125)[0] is True
    d3 = make_lattice(3)
    functor, sig = fuzzy_powerset_functor(d3, ("dia", "box"))
    space = discrete_space(Carrier(tuple("abcd")), d3)
    assert _same(sig, space).startswith("topology generation needs 4097 entries")


def _counting(make, calls):
    def counted(*args, **kwargs):
        functor, sig = make(*args, **kwargs)

        def on_space(space):
            calls.append(space)
            return functor.on_space(space)

        counting = dataclasses.replace(functor, on_space=on_space)
        return counting, Signature(counting, sig.liftings)
    return counted


@pytest.mark.parametrize("name", ["m1.json", "m1_dup.json", "tiny_identity.json"])
def test_sig_check_builds_t_s_once(monkeypatch, capsys, name):
    calls = []
    for attr in ("fuzzy_powerset_functor", "identity_functor"):
        monkeypatch.setattr(fgml.cli, attr, _counting(getattr(fgml.cli, attr), calls))
    for flags in ([], ["--json"]):
        calls.clear()
        code = fgml.cli.run_command([*flags, "sig", "check", "-m", f"{FIXTURES}/{name}"])
        assert code in (0, 1) and len(calls) == 1

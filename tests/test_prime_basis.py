"""Prime bases against the all-opens forms they replace.

A space's primes are a join basis of its opens and its co-primes a meet
basis. So the image subbasis lifts the primes (identity, `dia`) and the
co-primes (`box`), the subspace topology pulls back the primes of each
side, and continuity on load is checked on the lifted bases. The
oracles in `modelgen` lift and pull back every open, as the library did
before; a negative verdict must still name the witness their walk names
wherever the first failing lifting keeps joins, as on these zoos.
"""

import json
from itertools import product

import pytest

from fgml import (
    Carrier,
    CarrierMap,
    FuzzySet,
    Grade,
    Relation,
    fuzzy_powerset_functor,
    generate_topology,
    identity_functor,
    image_elements,
    inverse_image,
    image_subbasis,
    make_lattice,
    subspace_topology,
    validate_model,
)
from fgml.cli import LoadedModel, load_document, model_to_document, run_command
from fgml.errors import ResourceLimitError
from fgml.fuzzyset import _from_bits
from fgml.topology import FuzzySpace, _primes

from modelgen import (
    FIXTURES,
    all_opens_discontinuity,
    all_opens_subbasis,
    all_opens_subspace_topology,
    identity_zoo,
    powerset_zoo,
    pullback_closed_document,
)
from test_image_subbasis import _zoos, perturbations

MODALITIES = (("dia",), ("box",), ("dia", "box"))
BIG = 10 ** 6  # no guard: the sizes below stay far from it


def _signature(lattice, functor):
    if functor == "identity":
        return identity_functor()[1]
    return fuzzy_powerset_functor(lattice, functor, BIG)[1]


def _same_image_topology(sig, space, at):
    """The lifted bases generate what the liftings of every open generate,
    read at `at`."""
    basis = image_subbasis(sig.functor, space, at)
    every = all_opens_subbasis(sig, space, at)
    assert len(basis) <= len(sig.liftings) * len(space.carrier) * space.lattice.den
    lattice = space.lattice
    assert generate_topology(at, lattice, basis, BIG).opens == \
        generate_topology(at, lattice, every, BIG).opens


def test_property_lifted_bases_generate_the_image_topology():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 3))
        n = draw(st.integers(1, 3))
        nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
        functor = draw(st.sampled_from(("identity",) + MODALITIES))
        return d, n, draw(st.lists(nums, max_size=4)), functor, \
            draw(st.lists(nums, min_size=n, max_size=n)), draw(st.integers(0, 10 ** 6))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        d, n, subbasis, functor, values, pick = case
        lattice = make_lattice(d)
        carrier = Carrier(tuple(f"s{i}" for i in range(n)))

        def fuzzy(nums):
            return FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in nums))

        space = generate_topology(carrier, lattice, [fuzzy(nums) for nums in subbasis], BIG)
        sig = _signature(lattice, functor)
        if functor == "identity":  # sigma's values: some of the states
            at = Carrier(tuple(dict.fromkeys(carrier.elements[k % n] for k in values[0])))
        else:
            at = CarrierMap.onto(carrier, [fuzzy(values[(pick + i) % n]) for i in range(n)]).target
        _same_image_topology(sig, space, at)
        if len(lattice) ** n <= 27:  # all of T S
            _same_image_topology(sig, space, image_elements(sig.functor, space))
        seen.add(functor if isinstance(functor, str) else "+".join(functor))

    seen = set()
    check()
    assert seen == {"identity", "dia", "box", "dia+box"}


def test_lifted_bases_generate_the_image_topology_across_zoos():
    zoos = _zoos() + powerset_zoo(2, dens=(1, 2, 3), modalities=("box",))
    for m, sig in zoos:
        _same_image_topology(sig, m.space, m.sigma.target)
        at = image_elements(sig.functor, m.space)
        _same_image_topology(sig, m.space, at)
        if sig.functor.name != "identity":  # the image built from the bases
            assert sig.functor.on_space(m.space).opens == \
                generate_topology(at, m.space.lattice, all_opens_subbasis(sig, m.space, at),
                                  BIG).opens


def test_validate_names_the_all_opens_witness():
    negatives = 0
    for model, sig in _zoos():
        for m in perturbations(model, sig):
            witness = all_opens_discontinuity(m, sig)
            want = () if witness is None else \
                (f"structure map not continuous: pullback of {witness} is not open",)
            assert validate_model(m, sig).problems == want
            negatives += witness is not None
    assert negatives


def test_property_subspace_topology_matches_all_opens_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 3))
        sides = []
        for _ in range(2):
            n = draw(st.integers(1, 3))
            nums = st.lists(st.integers(0, d), min_size=n, max_size=n)
            sides.append((n, draw(st.lists(nums, max_size=3)), draw(st.booleans())))
        pairs = draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=9))
        return d, sides, pairs, draw(st.sampled_from([1, 4, 16, 4096]))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        d, sides, pairs, limit = case
        lattice = make_lattice(d)
        spaces = []
        for side, (n, subbasis, closed) in zip("lr", sides):
            carrier = Carrier(tuple(f"{side}{i}" for i in range(n)))
            gens = [FuzzySet(carrier, lattice, tuple(Grade(k, d) for k in nums))
                    for nums in subbasis]
            # a topology, or any family of fuzzy sets
            spaces.append(generate_topology(carrier, lattice, gens, BIG) if closed
                          else FuzzySpace(carrier, lattice, frozenset(gens)))
        left, right = spaces
        rel = Relation.of(left.carrier, right.carrier,
                          {(left.carrier.elements[i], right.carrier.elements[j])
                           for i, j in pairs if i < len(left.carrier) and j < len(right.carrier)})
        try:
            got = subspace_topology(rel, left, right, limit)
        except ResourceLimitError as exc:
            got = str(exc)
        want = all_opens_subspace_topology(rel, left, right, BIG)
        # the guard starts from the generators: the constants and the
        # pullbacks of both sides' distinct primes
        gens = {inverse_image(pi, _from_bits(side.carrier, lattice, j)).bits
                for pi, side in zip(rel.projections(), spaces) for j in set(side.primes)}
        bound = max(limit, len(gens | {0, want.top_open.bits}))
        if len(want.opens) > bound:
            assert got == str(ResourceLimitError("topology generation", bound + 1, limit))
            seen.add("tripped")
            return
        assert got.opens == want.opens and got.carrier == want.carrier
        width = len(got.carrier) * d
        assert got.primes == _primes((o.bits for o in got.opens), width)
        seen.add("generated")

    seen = set()
    check()
    assert seen == {"tripped", "generated"}


def test_subspace_topology_matches_all_opens_oracle_across_zoos():
    for m, sig in identity_zoo(3) + powerset_zoo(2, modalities=("dia", "box")):
        carrier = m.space.carrier
        for rel in (Relation.diagonal(carrier),
                    Relation.of(carrier, carrier, product(carrier, carrier))):
            assert subspace_topology(rel, m.space, m.space).opens == \
                all_opens_subspace_topology(rel, m.space, m.space).opens


def _count_primes(monkeypatch, module=None):
    """A counter of the `_primes` passes that `module`, by default
    `fgml.topology`, makes."""
    import fgml.topology

    module = module or fgml.topology
    calls = [0]
    primes = module._primes

    def counted(*args):
        calls[0] += 1
        return primes(*args)

    monkeypatch.setattr(module, "_primes", counted)
    return calls


def _box_document() -> dict:
    m, sig = powerset_zoo(2, dens=(3,), modalities=("dia", "box"))[-1]
    lattice = m.space.lattice
    return model_to_document(LoadedModel(m, sig, lattice, "fuzzy-powerset",
                                         ("dia", "box"), {}, {}))


def test_one_primes_pass_per_explicit_opens_load(monkeypatch, capsys):
    import fgml.frames

    calls, point_calls = _count_primes(monkeypatch), _count_primes(monkeypatch, fgml.frames)
    documents = []
    for name in ("tiny_identity.json", "dia_d2n5.json"):
        with open(f"{FIXTURES}/{name}", encoding="utf-8") as fh:
            documents.append(json.load(fh))
    documents.append(_box_document())
    for doc in documents:
        assert "opens" in doc
        calls[0] = 0
        load_document(doc)
        assert calls[0] == 1
    calls[0] = 0
    assert run_command(["duality", "-m", f"{FIXTURES}/tiny_identity.json"]) == 0
    assert calls[0] == 1  # sobriety and duality read the primes the load computed
    assert point_calls[0] == 1  # and the point space's own, once
    capsys.readouterr()


def test_one_closure_per_space_in_duality(monkeypatch, tmp_path, capsys):
    # the load's validation decides the topology once (or the generation
    # hands its verdict over); sobriety reads that verdict again, and a
    # generated space that is not sober refuses before any open is closed
    import fgml.topology

    calls = [0]
    closure = fgml.topology._closure

    def counted(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(fgml.topology, "_closure", counted)
    generated = tmp_path / "chain.json"
    generated.write_text(json.dumps(pullback_closed_document(2, 6, 3)))
    for path, code in ((f"{FIXTURES}/tiny_identity.json", 0), (f"{FIXTURES}/dia_d2n5.json", 2),
                       (f"{FIXTURES}/m1_dup.json", 2), (str(generated), 2)):
        calls[0] = 0
        assert run_command(["duality", "-m", path]) == code
        assert calls[0] == (0 if path == str(generated) else 1), path
    capsys.readouterr()

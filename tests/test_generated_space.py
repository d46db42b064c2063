"""One space class: a generated topology, known by its primes, against the
declared family with the same opens.

`FuzzySpace._generate` keeps the primes of its generators and closes its
opens only when a reader needs every one of them. It must equal the
declared space with the same opens, hash as it does, and test openness
(`is_open`) as membership in its opens does. On the generated chain
(`modelgen.generated_chain_document`) past the guard, the commands that
read no open answer as they do on the same document with its opens
written out under a raised guard, `validate` counts the opens without
closing them, and the readers of every open refuse with the guard's
message.
"""

import contextlib
import io
import json

import pytest

from fgml import Model, generate_topology, is_topology
from fgml.cli import load_document, model_to_document, run_command
from fgml.fuzzyset import DEFAULT_MAX_SIZE, all_fuzzy_sets
from fgml.topology import FuzzySpace

from modelgen import generated_chain_document, identity_zoo, powerset_zoo

ZOOS = {"identity": lambda: identity_zoo(4, dens=(1, 2, 3)),
        "powerset": lambda: powerset_zoo(3)
        + powerset_zoo(2, dens=(1, 2, 3), modalities=("dia", "box"))}


@pytest.fixture(scope="module", params=sorted(ZOOS))
def zoo(request):
    return ZOOS[request.param]()


def _generated(space: FuzzySpace) -> FuzzySpace:
    """The topology the space's opens generate, known by its primes only."""
    packed = sorted(space.packed)
    return FuzzySpace._generate(space.carrier, space.lattice, packed, DEFAULT_MAX_SIZE)


def _families(space: FuzzySpace):
    """The space, and the families left by dropping one of its opens other
    than the constants: some are topologies, some are not."""
    yield space
    for o in space.sorted_opens()[1:-1]:
        yield FuzzySpace(space.carrier, space.lattice, space.opens - {o})


def test_generated_space_equals_the_declared_one(zoo):
    for m, _ in zoo:
        generated = _generated(m.space)
        assert generated == m.space and m.space == generated
        assert hash(generated) == hash(m.space)
        assert Model(generated, m.sigma, m.valuation) == m == Model(generated, m.sigma, m.valuation)
        assert "packed" not in vars(generated)  # compared on its primes, not closed


def test_a_family_that_is_no_topology_differs_from_the_one_it_generates(zoo):
    same_primes = twins = 0
    for m, _ in zoo:
        families = [family for family in _families(m.space) if not is_topology(family)]
        for family in families:
            generated = generate_topology(family.carrier, family.lattice, family.opens)
            assert family != generated and generated != family
            same_primes += family.primes == generated.primes
            for other in families:  # two declared families are equal iff their opens are
                assert (family == other) == (family.opens == other.opens)
                twins += family.primes == other.primes and family is not other
    assert same_primes and twins  # the primes agree, and so do the hashes; the families do not


def test_is_open_agrees_with_the_opens(zoo):
    kinds = set()
    for m, _ in zoo:
        candidates = all_fuzzy_sets(m.space.carrier, m.space.lattice)
        for family in _families(m.space):
            spaces = [family]
            if is_topology(family):
                spaces.append(_generated(family))
            for space in spaces:
                before = [space.is_open(fs.bits) for fs in candidates]  # a generated one unclosed
                assert before == [fs in space.opens for fs in candidates]
                assert before == [space.is_open(fs.bits) for fs in candidates]  # now closed
                kinds.add((is_topology(space).ok, space is family))
    assert kinds == {(True, True), (True, False), (False, True)}


def _run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_command(argv)
    return code, stdout.getvalue(), stderr.getvalue()


COMMANDS = [["eval", "-m", "{path}", "-f", "<id>(p)"], ["classes", "-m", "{path}"],
            ["bisim", "greatest", "-m", "{path}", "-n", "{path}"],
            ["bisim", "check", "-m", "{path}", "-n", "{path}", "-r", "diag"],
            ["bisim", "am", "-m", "{path}", "-n", "{path}", "-r", "diag"]]
READERS = [["quotient", "-m", "{path}"], ["sig", "check", "-m", "{path}"]]


def _argv(command: list[str], path: str) -> list[str]:
    return [word.format(path=path) for word in command]


def test_generated_chain_answers_past_the_guard(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(generated_chain_document(2, 20)))
    for command in COMMANDS:
        for flags in ([], ["--json"]):
            code, out, err = _run([*flags, *_argv(command, str(path))])
            assert (code, err) == (0, ""), command
            assert out
    # validate counts the opens on the primes, without closing them
    assert _run(["validate", "-m", str(path)]) == \
        (0, "valid model: 20 states, 228826127 opens\n", "")
    for command in READERS:
        code, out, err = _run(_argv(command, str(path)))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: topology generation needs 4097 entries, above the "
                              "guard of 4096"), command
    assert _run(["duality", "-m", str(path)]) == \
        (2, "", "error: duality_check requires a sober space\n")


def test_past_the_guard_answers_as_the_written_out_opens(tmp_path):
    # the 15127 opens of the n = 10 chain, written out as explicit opens and
    # read under a raised guard, give each command the same bytes
    doc = generated_chain_document(2, 10)
    generated, written = tmp_path / "generated.json", tmp_path / "written.json"
    generated.write_text(json.dumps(doc))
    lm = load_document(doc, 10 ** 5)
    written.write_text(json.dumps(model_to_document(lm)))
    assert len(lm.model.space.opens) == 15127
    for command in [*COMMANDS, ["duality", "-m", "{path}"]]:
        for flags in ([], ["--json"]):
            expected = _run(["--max-size", "100000", *flags, *_argv(command, str(written))])
            assert _run([*flags, *_argv(command, str(generated))]) == expected, command

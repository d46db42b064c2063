"""`quotient` and the document writer on packed bits, against fuzzy sets.

The quotient topology keeps the images of the saturated opens; the
reference is the filter over `direct_image` and `inverse_image` objects
(`modelgen.oracle_quotient_opens`). Grades are written through a table of
strings indexed by numerator; the reference is `str` of each `Grade`.
The text and `--json` outputs of `quotient`, `classes --depth 3` and
`sig check`, at the default and a raised guard, on each loadable fixture
are pinned byte for byte in `golden/outputs.json`
(`m1_dup.json` and `chain_d1n8.json` have modally equivalent states, so
merging quotients are pinned too, and `spread_d2n6.json` merges states
that are not adjacent, three of them in one class), and on the generated
chain `generated_chain_d2n8.json` so are `eval`, `classes --depth 2`,
`validate`, the three `bisim` commands and `duality`, with any stderr,
and on `m1.json` the negative `bisim check -r cross` with its witnesses;
`python tests/test_quotient_writer.py` rewrites that file from the
current code, for a change that means to alter those outputs.
"""

import contextlib
import glob
import io
import json
import os
import sys
from itertools import product

import pytest

from fgml import Carrier, make_lattice, quotient_model
from fgml.cli import _fuzzy_set_to_doc, load_model, run_command
from fgml.errors import DocumentError
from fgml.fuzzyset import _from_bits, _pack

from modelgen import (
    FIXTURES,
    copy_states,
    duplicate_state,
    identity_zoo,
    oracle_quotient_opens,
    powerset_zoo,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.json")


def test_quotient_opens_match_the_fuzzy_set_filter():
    merged = 0
    zoo = powerset_zoo(3) + powerset_zoo(2, dens=(1, 2, 3), modalities=("dia", "box")) \
        + identity_zoo(5, dens=(1, 2, 3))
    zoo += [(duplicate_state(m, sig, m.space.carrier.elements[-1], "z"), sig)
            for m, sig in powerset_zoo(2)]
    for m, sig in zoo:
        result = quotient_model(m, sig)
        if result:
            assert result.model.space.opens == oracle_quotient_opens(m, result.quotient_map)
            merged += len(result.classes) < len(m.space.carrier)
    assert merged  # some quotients identify states, so that some opens are not saturated


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("zoo", [powerset_zoo, identity_zoo])
def test_quotient_opens_match_where_merged_states_are_apart(zoo, d):
    """Copies put first, between and last: merged states that are not
    adjacent, classes of three or more, representatives that are copies,
    and representatives in several runs. Each state of a copied group is
    in turn the one an extra open sets apart."""
    apart = three = first = runs = dropped = 0
    for m, sig in zoo(2 if (zoo, d) == (powerset_zoo, 3) else 3, dens=(d,)):
        if len(states := m.space.carrier.elements) < 2:
            continue
        for copies in ([("u", states[-1], 0), ("v", states[-1], 2), ("w", states[0], len(states) + 2)],
                       [("v", states[0], 1), ("w", states[0], 3)]):
            for odd in sorted({name for copy in copies for name in copy[:2]}):
                spread = copy_states(m, sig, copies, odd)
                result = quotient_model(spread, sig)
                assert result, result.failure
                assert result.model.space.opens == oracle_quotient_opens(spread, result.quotient_map)
                index = {s: i for i, s in enumerate(spread.space.carrier.elements)}
                reps = [c[0] for c in result.classes]
                apart += any(index[b] - index[a] > 1 for c in result.classes for a, b in zip(c, c[1:]))
                three += max(map(len, result.classes)) >= 3
                first += reps[0] == "u"
                runs += any(index[b] - index[a] > 1 for a, b in zip(reps, reps[1:]))
                dropped += len(result.model.space.opens) < len(spread.space.opens)
    assert apart and three and first and runs and dropped


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fuzzy_set_to_doc_writes_str_of_each_grade(d):
    lat, carrier = make_lattice(d), Carrier(("x", "y", "z"))
    for nums in product(range(d + 1), repeat=len(carrier)):
        fs = _from_bits(carrier, lat, _pack(nums, d))
        assert _fuzzy_set_to_doc(fs) == {e: str(g) for e, g in zip(carrier.elements, fs.grades)}


def _fixtures():
    """The fixture documents that load, by file name."""
    names = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        try:
            load_model(path)
        except DocumentError:
            continue
        names.append(os.path.basename(path))
    return names


def _commands(name: str) -> list[list[str]]:
    """The pinned commands on one fixture: `quotient`, `classes --depth
    3` and `sig check`, the last also under a raised guard; the negative
    `bisim check -r cross` on `m1.json`; and on a generated chain
    (`modelgen.generated_chain_document`) every command that reads a
    space, each model against itself."""
    commands = [["quotient"], ["classes", "--depth", "3"], ["sig", "check"],
                ["--max-size", "100000", "sig", "check"]]
    if name == "m1.json":
        commands.append(["bisim", "check", "-r", "cross"])
    if name.startswith("generated_chain"):
        commands += [["eval", "-f", "<id>(p)"], ["classes", "--depth", "2"], ["validate"],
                     ["bisim", "greatest"], ["bisim", "check", "-r", "diag"],
                     ["bisim", "am", "-r", "diag"], ["duality"]]
    return commands


def _outputs(name: str) -> dict:
    """Exit code, stdout and any stderr of each pinned command on one fixture."""
    path = os.path.join(FIXTURES, name)
    out = {}
    for command in _commands(name):
        for flags in ([], ["--json"]):
            other = ["-n", path] if command[0] == "bisim" else []
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_command([*flags, *command, "-m", path, *other])
            out[" ".join([*flags, *command])] = \
                [code, stdout.getvalue()] + ([stderr.getvalue()] if stderr.getvalue() else [])
    return out


def test_golden_covers_every_loadable_fixture():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == _fixtures()


@pytest.mark.parametrize("name", _fixtures())
def test_outputs_match_the_golden_bytes(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        assert _outputs(name) == json.load(fh)[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: _outputs(name) for name in _fixtures()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)

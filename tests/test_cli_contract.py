"""The CLI exit-code contract on random documents.

`validate`, `eval`, `classes`, `quotient`, `bisim greatest`, `bisim check`
and `bisim am` (a document against itself, on a drawn relation: the
diagonal, random pairs, or a pair naming an unknown state), `sig check`
and `duality` must exit 0, 1 or 2 on any document, with no exception
escaping `run_command`, and a document that validates must reach a
fixpoint under load, save, load.
"""

import json
from itertools import product

import pytest

from fgml.cli import load_document, model_to_document, run_command

FORMULAS = ("top", "p", "(p & q)", "\\/[p, <dia>(top)]", "<dia>(p)", "<box>(p)",
            "<id>(p)", "<dia>(", "zz")
#: Openers of nested formulas, with their closers; a few thousand levels
#: must exit 2, not overflow the stack.
NESTINGS = (("<dia>(", ")"), ("<box>(", ")"), ("<id>(", ")"), ("(p & ", ")"),
            ("\\/[", "]"))


def _corruptions(st, d, states):
    """One malformed field per choice, or none; as (key, value) with
    value None meaning the key is dropped."""
    return st.sampled_from([
        None, None, None, None,
        ("lattice", 0), ("lattice", -1), ("lattice", 1.5), ("lattice", True),
        ("lattice", str(d)), ("lattice", None),
        ("carrier", None), ("carrier", states + states[:1]), ("carrier", [""]),
        ("carrier", "s0"),
        ("opens", {"s0": "0/1"}), ("opens", [{"nobody": "0/1"}]),
        ("sigma", None), ("sigma", []), ("sigma", {s: "nobody" for s in states}),
        ("sigma", {s: {t: f"{d + 1}/{d}" for t in states} for s in states}),
        ("valuation", {"1p": {s: "0/1" for s in states}}), ("valuation", 3),
        ("modalities", ["tri"]), ("modalities", "dia"),
        ("functor", "nope"), ("relations", {"r": [["s0"]]}), ("formulas", {"f": 1}),
    ])


def test_property_validate_and_eval_keep_the_exit_code_contract(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def documents(draw):
        d = draw(st.integers(1, 3))
        n = draw(st.integers(1, 4))
        states = [f"s{i}" for i in range(n)]
        identity = draw(st.booleans())

        def fuzzy_set(nums):
            return {s: f"{k}/{d}" for s, k in zip(states, nums)}

        sets = st.lists(st.integers(0, d), min_size=n, max_size=n).map(fuzzy_set)
        doc = {"lattice": d, "functor": "identity" if identity else "fuzzy-powerset",
               "carrier": states}
        family = draw(st.lists(sets, max_size=4))
        mode = draw(st.sampled_from(["opens", "generate_from", "discrete"]))
        if mode == "discrete":  # every structure map is continuous
            family = [fuzzy_set(nums) for nums in product(range(d + 1), repeat=n)]
        elif mode == "opens" and draw(st.booleans()):
            family += [fuzzy_set([0] * n), fuzzy_set([d] * n)]
        doc["generate_from" if mode == "generate_from" else "opens"] = family
        if identity:
            targets = st.sampled_from(states)
        else:
            targets = sets
            mods = draw(st.sampled_from([None, ["dia"], ["box"], ["dia", "box"]]))
            if mods is not None:
                doc["modalities"] = mods
        if draw(st.booleans()):  # a constant structure map
            doc["sigma"] = dict.fromkeys(states, draw(targets))
        else:
            doc["sigma"] = {s: draw(targets) for s in states}
        doc["valuation"] = dict(zip(("p", "q"), draw(st.lists(sets, max_size=2))))
        relation = draw(st.sampled_from(["diagonal", "random", "unknown"]))
        if relation == "diagonal":
            doc["relations"] = {"r": [[s, s] for s in states]}
        elif relation == "random":
            pair = st.lists(st.sampled_from(states), min_size=2, max_size=2)
            doc["relations"] = {"r": draw(st.lists(pair, max_size=4))}
        else:
            doc["relations"] = {"r": [[states[0], "nobody"]]}
        corruption = draw(_corruptions(st, d, states))
        if corruption is not None:
            key, value = corruption
            if value is None:
                doc.pop(key, None)
            else:
                doc[key] = value
        return doc

    path = tmp_path / "model.json"
    codes, verdicts = set(), set()

    nested = st.builds(lambda pair, depth: pair[0] * depth + "p" + pair[1] * depth,
                       st.sampled_from(NESTINGS), st.sampled_from([150, 3000]))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(documents(), st.sampled_from(FORMULAS) | nested)
    def check(doc, formula):
        path.write_text(json.dumps(doc))
        code = run_command(["validate", "-m", str(path)])
        assert code in (0, 1, 2)
        assert run_command(["eval", "-m", str(path), "-f", formula]) in (0, 1, 2)
        for argv in (["classes", "--depth", "0"], ["classes", "--depth", "2"],
                     ["quotient"], ["bisim", "greatest", "-n", str(path)],
                     ["bisim", "check", "-n", str(path), "-r", "r"],
                     ["bisim", "am", "-n", str(path), "-r", "r"],
                     # sig check walks every continuous self-map, open and
                     # value of T S before a guard trips: a guard of 64 keeps
                     # it short (a drawn d=3, n=4 document takes 15 s at 4096)
                     ["--max-size", "64", "sig", "check"], ["duality"]):
            verdict = run_command([*argv, "-m", str(path)])
            assert verdict in (0, 1, 2)
            verdicts.add((" ".join(w for w in argv if w.isalpha()), verdict))
        capsys.readouterr()
        codes.add(code)
        if code == 0:
            saved = model_to_document(load_document(doc))
            reloaded = load_document(saved)
            assert model_to_document(reloaded) == saved
            assert reloaded.model == load_document(doc).model

    check()
    assert codes == {0, 2}
    # the bisimulation checks reach both verdicts, sig check a pass
    assert {("bisim check r", 0), ("bisim check r", 1), ("bisim am r", 0),
            ("bisim am r", 1), ("sig check", 0)} <= verdicts

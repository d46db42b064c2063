"""Correctness checks on the outputs of timed operations.

Expected answers come from the generator (`gen.py`), which derives them
on plain integers without the library: exit codes, opens counts,
formula grades, modal-equivalence classes and whether the quotient's
structure map is representative-independent. A check returns None when
the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json


def _bisim_pairs_ok(pairs, expect) -> str | None:
    got = {tuple(p) for p in pairs}
    missing = [(s, s) for s in expect["states"] if (s, s) not in got]
    if missing:
        return f"greatest bisimulation misses diagonal pairs {missing}"
    if expect["dup"]:
        orig, copy = expect["dup"]
        if (orig, copy) not in got:
            return f"greatest bisimulation misses ({orig}, {copy})"
    return None


def check(op: dict, code, text: str) -> str | None:
    """One CLI command: its exit code, then its --json payload."""
    expect, metric = op["expect"], op["metric"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    if metric == "validate":
        if out["opens"] != expect["opens"]:
            return f"{out['opens']} opens, expected {expect['opens']}"
    elif metric == "eval":
        if out["grades"] != expect["grades"]:
            return f"grades {out['grades']}, expected {expect['grades']}"
    elif metric == "classes" or (metric == "quotient" and code == 0):
        if out["classes"] != expect["classes"]:
            return f"classes {out['classes']}, expected {expect['classes']}"
    elif metric == "bisim_greatest":
        return _bisim_pairs_ok(out["pairs"], expect)
    elif metric in ("bisim_check", "bisim_am"):
        if out["verdict"] is not True:
            return "bisimulation rejected"
    elif metric == "duality":
        if out["passed"] is not True:
            return "duality check failed"
    return None


def check_first_pass(ops: list[dict], outputs: dict, codes: dict) -> dict[str, str]:
    """Checks every operation on its first-pass output and exit code.

    Returns failure reasons by operation key. Also requires that
    `quotient` and `classes` agree on the same document.
    """
    failures = {}
    classes_by_doc, quotient_by_doc = {}, {}
    for op in ops:
        key = op["key"]
        reason = check(op, codes[key], outputs[key])
        if reason:
            failures[key] = reason
        elif op["metric"] in ("classes", "quotient") and codes[key] == 0:
            by_doc = classes_by_doc if op["metric"] == "classes" else quotient_by_doc
            by_doc[op["doc"]] = json.loads(outputs[key])["classes"]
    for doc, classes in quotient_by_doc.items():
        if classes_by_doc.get(doc, classes) != classes:
            failures[f"{doc}:quotient"] = "quotient classes differ from the classes command"
    return failures

"""Positive modal equivalence is coarser than Sigma-bisimilarity.

In the model below (d = 1, discrete, `dia`) a reaches {t1, t2}, b
reaches {u}, and t1, t2 and u reach nothing; p holds at t1, t2 and u, q
at t2 and u. The valuations grade t2 at least as high as t1, every lift
grades both 0, and meets and joins keep that order: the logic has no
negation. So every definable open X has dia(X)(a) = X(t2) = X(u) =
dia(X)(b), and a and b are modally equivalent. The coherent pair ({t1},
{t1}) of that kernel still separates them, so the greatest
Sigma-bisimulation lies strictly inside the kernel of modal equivalence:
the two are not one fixpoint.
"""

import json

from fgml import greatest_sigma_bisimulation, modal_equivalence_classes
from fgml.cli import load_document

from test_generated_space import _run

STATES = ["a", "b", "t1", "t2", "u"]


def _crisp(*members: str) -> dict:
    return {s: f"{int(s in members)}/1" for s in STATES}


DOC = {"lattice": 1, "functor": "fuzzy-powerset", "modalities": ["dia"], "carrier": STATES,
       "generate_from": [_crisp(s) for s in STATES],
       "sigma": {"a": _crisp("t1", "t2"), "b": _crisp("u"),
                 "t1": _crisp(), "t2": _crisp(), "u": _crisp()},
       "valuation": {"p": _crisp("t1", "t2", "u"), "q": _crisp("t2", "u")}}


def test_modal_equivalence_is_coarser_than_sigma_bisimilarity():
    lm = load_document(DOC)
    m, sig = lm.model, lm.signature
    classes = modal_equivalence_classes(m, sig)
    assert classes == (("a", "b"), ("t1",), ("t2", "u"))
    greatest = greatest_sigma_bisimulation(m, m, sig)
    kernel = {(x, y) for block in classes for x in block for y in block}
    assert greatest.pairs < kernel
    assert kernel - greatest.pairs == {("a", "b"), ("b", "a")}


def test_modal_equivalence_is_coarser_through_the_cli(tmp_path):
    path = tmp_path / "hm.json"
    path.write_text(json.dumps(DOC))
    assert _run(["classes", "-m", str(path)]) == (0, "a b\nt1\nt2 u\n", "")
    code, out, err = _run(["--json", "bisim", "greatest", "-m", str(path), "-n", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["pairs"] == [["a", "a"], ["b", "b"], ["t1", "t1"], ["t2", "t2"],
                                        ["t2", "u"], ["u", "t2"], ["u", "u"]]

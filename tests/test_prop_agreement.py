"""Prop agreement of related pairs against the Grade-level oracle.

`bisim._prop_witnesses` compares each related pair on its valuation
fields and builds `Grade`s only for a pair that disagrees;
`bisim_oracles.grade_prop_witnesses` builds one `Grade` per pair and
prop. Both must give the same witnesses in the same order, through the
library and through the CLI.
"""

import json
from itertools import product

from fgml import Relation
from fgml.bisim import _prop_witnesses

from bisim_oracles import basis_sigma_check, grade_prop_witnesses, image_am_search
from modelgen import identity_zoo, powerset_zoo
from test_am_search import _document, relations
from test_structure_values import _run


def _cases():
    """Each zoo model against itself on every relation of its carrier, and
    every two zoo models that can be compared on their full relation."""
    zoo = powerset_zoo(3) + identity_zoo(3)
    for m, sig in zoo:
        for rel in relations(m.space.carrier, m.space.carrier):
            yield rel, m, m
    for (m1, sig1), (m2, sig2) in product(zoo, repeat=2):
        if (m1.props, m1.space.lattice, sig1.functor.name) == \
                (m2.props, m2.space.lattice, sig2.functor.name):
            c1, c2 = m1.space.carrier, m2.space.carrier
            yield Relation.of(c1, c2, product(c1, c2)), m1, m2


def test_prop_witnesses_match_the_grade_oracle_on_the_zoos():
    disagreeing = two_props = 0
    for rel, m1, m2 in _cases():
        got, expected = _prop_witnesses(rel, m1, m2), grade_prop_witnesses(rel, m1, m2)
        assert got == expected
        assert [w.describe() for w in got] == [w.describe() for w in expected]
        assert [(w.left_grade, w.right_grade) for w in got] == \
            [(w.left_grade, w.right_grade) for w in expected]
        disagreeing += bool(expected)
        two_props += any(a.pair == b.pair for a, b in zip(expected, expected[1:]))
    # the zoos reach both outcomes, and pairs that differ on both props,
    # which pin the prop order within a pair
    assert disagreeing > 1000 and two_props > 100


def test_cli_prints_the_oracle_prop_witnesses(tmp_path):
    m, sig = next((m, sig) for m, sig in powerset_zoo(3)
                  if m.props == ("p", "q") and len(m.space.carrier) == 3)
    c = m.space.carrier
    rel = Relation.of(c, c, product(c, c))
    assert len({w.prop for w in grade_prop_witnesses(rel, m, m)}) == 2
    path = _document(tmp_path, "both", m, sig, {"r": tuple(rel.sorted_pairs())})
    for mode, oracle in (("check", basis_sigma_check), ("am", image_am_search)):
        expected = oracle(rel, m, m, sig)
        assert not expected.verdict
        argv = ["bisim", mode, "-m", path, "-n", path, "-r", "r"]
        assert _run(argv) == (1, f"{expected}\n", "")
        code, out, err = _run(["--json"] + argv)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"verdict": False,
                                   "witnesses": [w.describe() for w in expected.witnesses]}

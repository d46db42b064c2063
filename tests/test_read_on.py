"""Every reader of a lifting reads it on the basis it keeps.

`topology._read_on` gives a lifting that keeps joins the primes and 0,
one that keeps meets the co-primes and 1, and any other every open. So
`modal_equivalence_classes` and `quotient_model` never enumerate the
definable family for the declared liftings, and their partition is the
one read on every open. (`tests/test_bisim_basis.py` checks that the
closure of the coherent primes is `coherent_pairs`, in its order.)
"""

import sys

import pytest

from fgml import Lifting, Signature, modal_equivalence_classes, quotient_model
from fgml.cli import load_document

from modelgen import identity_zoo, powerset_zoo, pullback_closed_document


def _cases():
    """The zoos, and the 1814-open identity document with a duplicated
    state, each with its own (declared) signature."""
    cases = identity_zoo(5, dens=(1, 2, 3)) + powerset_zoo(3) \
        + powerset_zoo(2, dens=(1, 2, 3), modalities=("dia", "box"))
    lm = load_document(pullback_closed_document(3, 10, 2, duplicate=True), 10 ** 6)
    assert len(lm.model.space.opens) == 1814
    return cases + [(lm.model, lm.signature)]


def _undeclared(sig):
    """The same liftings, declaring nothing, so read on every open."""
    return Signature(sig.functor, tuple(Lifting(l.name, l.arity, l.functor, l.kernel)
                                        for l in sig.liftings))


def test_classes_and_quotient_enumerate_no_family(monkeypatch):
    cases = _cases()
    expected = [modal_equivalence_classes(m, _undeclared(sig)) for m, sig in cases]

    def refuse(*args):
        raise AssertionError("the definable family was enumerated")

    import fgml.topology
    original = fgml.topology._closure
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fgml" and getattr(module, "_closure", None) is original:
            monkeypatch.setattr(module, "_closure", refuse)
    merged = 0
    for (m, sig), classes in zip(cases, expected):
        assert all(l.keeps for l in sig.liftings)
        assert modal_equivalence_classes(m, sig) == classes
        assert quotient_model(m, sig).classes == classes
        merged += len(classes) < len(m.space.carrier)
    assert merged  # some cases need more than the valuations to split
    m, sig = cases[-1]
    with pytest.raises(AssertionError, match="enumerated"):  # the patch holds
        modal_equivalence_classes(m, _undeclared(sig))

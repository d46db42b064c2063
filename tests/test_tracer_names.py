"""Every fgml name the benchmark's tracer wraps still exists.

`perfbench/tracing.py` installs its spans from outside the library, by
name: each entry of `SPANS` and `COUNTERS` is a module of fgml and a
function in it, `on_space` and `on_map` are re-wrapped by building
`FunctorInstance(name, on_space, on_map)` positionally around the
functors that `cli.fuzzy_powerset_functor` and `cli.identity_functor`
return, and `Lifting.apply` is patched on the class. A rename or a move
of any of these breaks `perfbench/run.py --trace 1`; these tests name
the missing attribute instead.
"""

import importlib.util
from pathlib import Path

import fgml
import fgml.cli
from fgml import make_lattice
from fgml.signature import FunctorInstance, Lifting, Signature

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def test_every_wrapped_function_resolves():
    for name in [*tracing.SPANS, *tracing.COUNTERS]:
        if name in tracing._SPECIAL:
            continue
        layer, attr = name.split(".")
        module = getattr(fgml, layer, None)
        assert module is not None, f"fgml has no module {layer!r}, traced as {name!r}"
        assert callable(getattr(module, attr, None)), \
            f"fgml.{layer} has no function {attr!r}, traced as {name!r}"


def test_functors_rebuild_as_the_tracer_rebuilds_them():
    for attr, args in (("fuzzy_powerset_functor", (make_lattice(2),)), ("identity_functor", ())):
        make = getattr(fgml.cli, attr, None)
        assert callable(make), f"fgml.cli has no function {attr!r}, which the tracer wraps"
        functor, sig = make(*args)
        traced = FunctorInstance(functor.name, functor.on_space, functor.on_map)
        assert Signature(traced, sig.liftings).functor.on_space is functor.on_space
    assert callable(getattr(Lifting, "apply", None)), "Lifting has no method 'apply'"

"""Spans around calls into fgml's layers, installed from outside the library.

A name imported with `from ... import` is a separate binding in each
importing module, so every wrapper replaces the original function in
every fgml module that binds it, where callers look the name up. Three
cases differ: `Lifting.apply` is patched on the class, `on_space` and
`on_map` are wrapped by re-wrapping the functor instance that the CLI's
functor constructors return, and `evaluate` records only its outermost
call because it recurses. `grades`, `fs_meet` and `fs_join` run millions
of times per closure and get no wrapper; `inverse_image` and
`is_frame_hom` only count calls.

Spans (name, start, end, parent span, operation, two sizes) are kept in
a flat array in memory and written out when the run ends; `derive`
turns them into the per-layer metrics.
"""

from __future__ import annotations

import time
from array import array

ROW = 7  # name id, start, end, parent index, operation index, size 1, size 2
DEFAULT_MAX_SIZE = 4096


def _max_size(args, kwargs, pos):
    return kwargs.get("max_size", args[pos] if len(args) > pos else DEFAULT_MAX_SIZE)


# span name -> (reported fields, size names, size function, guard fill)
SPANS = {
    "signature.on_space": (("calls", "s", "self_s"), ("image_atoms", "image_opens"),
                           lambda out: (len(out.carrier), len(out.opens)), None),
    "signature.lifting_apply": (("calls", "s"), (), None, None),
    "signature.on_map": (("calls", "s"), (), None, None),
    "topology.generate_topology": (
        ("calls", "s", "self_s"), ("opens_out",), lambda out: (len(out.opens),),
        lambda a, k, out: len(out.opens) / _max_size(a, k, 3)),
    "topology.is_topology": (("calls", "s"), (), None, None),
    "topology.is_continuous": (("calls", "s"), (), None, None),
    "topology.subspace_topology": (("calls", "s"), (), None, None),
    "logic.definable_opens": (("calls", "s", "self_s"), ("family_out",),
                              lambda out: (len(out),), None),
    "logic.enumerate_formulas": (("calls", "s"), ("formulas_out",),
                                 lambda out: (len(out),), None),
    "logic.evaluate": (("calls", "s"), (), None, None),
    "logic.validate_model": (("calls", "s", "self_s"), (), None, None),
    "logic.quotient_model": (("calls", "s", "self_s"), (), None, None),
    "bisim.greatest_sigma_bisimulation": (("calls", "s", "self_s"), ("pairs_out",),
                                          lambda out: (len(out),), None),
    "bisim.coherent_pairs": (("calls", "s"), ("pairs_out",), lambda out: (len(out),),
                             None),
    "bisim.is_sigma_bisimulation": (("calls", "s"), (), None, None),
    "bisim.is_am_bisimulation": (("calls", "s", "self_s"), (), None, None),
    "frames.points": (("calls", "s"), ("points_out",), lambda out: (len(out),),
                      lambda a, k, out: len(a[1]) ** len(a[0]) / _max_size(a, k, 2)),
    "frames.duality_check": (("calls", "s", "self_s"), (), None, None),
    "fuzzyset.all_fuzzy_sets": (("calls", "s"), ("sets_out",), lambda out: (len(out),),
                                lambda a, k, out: len(out) / _max_size(a, k, 2)),
    "cli.load_document": (("calls", "s", "self_s"), (), None, None),
    "cli.model_to_document": (("calls", "s"), (), None, None),
}
COUNTERS = ("frames.is_frame_hom", "fuzzyset.inverse_image")
OUTER_ONLY = ("logic.evaluate",)
_SPECIAL = ("signature.on_space", "signature.on_map", "signature.lifting_apply")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for span, (fields, sizes, _, _) in SPANS.items():
        names += [f"{span}.{f}" for f in fields + sizes]
        if span == "bisim.coherent_pairs":
            names.append("bisim.sweeps_per_greatest")
        if span == "frames.points":
            names += ["frames.is_frame_hom.calls", "frames.points_per_candidate"]
    names += ["fuzzyset.inverse_image.calls", "guard.max_fill", "trace.overhead"]
    return names


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric in ("frames.points_per_candidate", "guard.max_fill", "trace.overhead"):
        return "1"
    return "count"


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.rows = array("d")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.max_fill = 0.0
        self.op = -1

    def span(self, name: str, fn):
        """fn wrapped in a span named `name`."""
        nid = self.names.index(name)
        _, _, size, guard = SPANS[name]
        rows, stack = self.rows, self.stack
        outer_only = name in OUTER_ONLY
        active = [0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if outer_only and active[0]:
                return fn(*args, **kwargs)
            index = len(rows) // ROW
            rows.extend((nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, 0.0))
            stack.append(index)
            active[0] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] -= 1
                stack.pop()
                base = index * ROW
                rows[base + 1], rows[base + 2] = start, end
            if size is not None:
                for j, value in enumerate(size(out)):
                    rows[base + 5 + j] = value
            if guard is not None:
                self.max_fill = max(self.max_fill, guard(args, kwargs, out))
            return out

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> dict:
        """Write the spans to `path`; returns what `derive` needs besides."""
        with open(path, "wb") as fh:
            self.rows.tofile(fh)
        return {"spans": path, "names": self.names, "counts": self.counts,
                "max_fill": self.max_fill}


def install(tracer: Tracer, fgml) -> None:
    """Replace every binding of each traced function in fgml's modules."""
    import fgml.cli
    from fgml.signature import FunctorInstance, Lifting, Signature

    modules = [fgml, fgml.cli, fgml.signature, fgml.topology, fgml.logic,
               fgml.bisim, fgml.frames, fgml.fuzzyset]

    def rebind(name: str, wrap) -> None:
        layer, attr = name.split(".")
        original = getattr(getattr(fgml, layer), attr)
        wrapper = wrap(name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    for name in SPANS:
        if name not in _SPECIAL:
            rebind(name, tracer.span)
    for name in COUNTERS:
        rebind(name, tracer.counter)

    Lifting.apply = tracer.span("signature.lifting_apply", Lifting.apply)
    on_space = lambda fn: tracer.span("signature.on_space", fn)  # noqa: E731
    on_map = lambda fn: tracer.span("signature.on_map", fn)  # noqa: E731

    def traced_functor(make):
        def wrapper(*args, **kwargs):
            functor, signature = make(*args, **kwargs)
            traced = FunctorInstance(functor.name, on_space(functor.on_space),
                                     on_map(functor.on_map))
            return traced, Signature(traced, signature.liftings)
        return wrapper

    for attr in ("fuzzy_powerset_functor", "identity_functor"):
        setattr(fgml.cli, attr, traced_functor(getattr(fgml.cli, attr)))


def derive(trace: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics, per pass over the plan, from a dumped trace.

    `s` is inclusive time, `self_s` excludes the time of child spans,
    sizes are means per call, and `bisim.sweeps_per_greatest` counts the
    coherent-pair computations made directly inside each greatest
    bisimulation (one per refinement sweep).
    """
    rows = array("d")
    with open(trace["spans"], "rb") as fh:
        rows.frombytes(fh.read())
    names = trace["names"]
    count = len(rows) // ROW
    child = [0.0] * count
    for i in range(count):
        parent = int(rows[i * ROW + 3])
        if parent >= 0:
            child[parent] += rows[i * ROW + 2] - rows[i * ROW + 1]
    acc = {name: [0, 0.0, 0.0, 0.0, 0.0] for name in names}
    greatest = names.index("bisim.greatest_sigma_bisimulation")
    sweeps = 0
    for i in range(count):
        base = i * ROW
        name = names[int(rows[base])]
        duration = rows[base + 2] - rows[base + 1]
        a = acc[name]
        a[0] += 1
        a[1] += duration
        a[2] += duration - child[i]
        a[3] += rows[base + 5]
        a[4] += rows[base + 6]
        parent = int(rows[base + 3])
        if name == "bisim.coherent_pairs" and parent >= 0 \
                and int(rows[parent * ROW]) == greatest:
            sweeps += 1
    out = {}
    for name, (fields, sizes, _, _) in SPANS.items():
        calls, incl, own = acc[name][:3]
        values = {"calls": calls / passes, "s": incl / passes, "self_s": own / passes}
        for field in fields:
            out[f"{name}.{field}"] = values[field]
        for j, size in enumerate(sizes):
            out[f"{name}.{size}"] = acc[name][3 + j] / calls if calls else 0.0
    out["bisim.sweeps_per_greatest"] = sweeps / acc[names[greatest]][0] \
        if acc[names[greatest]][0] else 0.0
    hom_calls = trace["counts"]["frames.is_frame_hom"]
    out["frames.is_frame_hom.calls"] = hom_calls / passes
    out["frames.points_per_candidate"] = \
        acc["frames.points"][3] / hom_calls if hom_calls else 0.0
    out["fuzzyset.inverse_image.calls"] = trace["counts"]["fuzzyset.inverse_image"] / passes
    out["guard.max_fill"] = trace["max_fill"]
    return {name: out[name] for name in metric_names() if name in out}

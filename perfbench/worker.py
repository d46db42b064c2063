"""Timed phase of a benchmark run, in a fresh process.

    python3 perfbench/worker.py RUN_DIR [--trace]

Imports fgml from the checkout's `src`, reads the plan that `gen.py`
wrote into RUN_DIR, prints `ready` and then reads commands from stdin.
`go SECONDS PASSES` runs the plan's operations in a closed loop, one at
a time, either for SECONDS (and at least one whole pass) or for exactly
PASSES whole passes when PASSES > 0, and prints `done`; later `go`
commands continue the same records. After each operation it times the
reference task below. `quit` writes the operations' exit codes,
latencies and output hashes, the reference times, and the first pass's
outputs to RUN_DIR/result.json (RUN_DIR/traced.json with --trace, whose
spans go to RUN_DIR/spans.bin) and exits.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_fgml():
    """fgml from the checkout only: an installed copy would be timed in
    its place without notice."""
    sys.path.insert(0, SRC)
    import fgml
    if not os.path.abspath(fgml.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fgml imported from {fgml.__file__}, not {SRC}")
    import fgml.cli  # noqa: F401  (binds every layer module)
    return fgml


class _Grade:
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __lt__(self, other) -> bool:
        return self.n < other.n


_REFERENCE = [[_Grade((7 * i + 3 * k) % 5) for i in range(6)] for k in range(40)]


def reference() -> float:
    """Seconds taken by a fixed amount of pure-Python work that does not
    touch fgml: comparisons through a Python method, as fgml's grades
    make them. The shared machine runs up to a third slower from one
    minute to the next, and run.py reports latencies relative to this
    task's time.
    It runs twice and only the second run is timed, with the garbage
    collector off, so that neither cold caches nor the objects fgml left
    on the heap change its time."""
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            below = 0
            for a in _REFERENCE:
                for b in _REFERENCE:
                    for x, y in zip(a, b):
                        if x < y:
                            below += 1
        return time.perf_counter() - start
    finally:
        gc.enable()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(fgml, op: dict) -> tuple[float, object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = fgml.cli.run_command(op["argv"])
        except Exception as exc:  # a traceback breaks the exit-code contract
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


class Loop:
    """Closed loop over the plan's operations, kept across `go` commands."""

    def __init__(self, fgml, plan: dict, tracer=None):
        self.fgml, self.ops, self.tracer = fgml, plan["ops"], tracer
        self.records, self.reference, self.outputs = [], [], {}
        self.passes, self.whole_ops = 0, 0

    def run(self, seconds: float, passes: int) -> None:
        """Exactly `passes` whole passes when positive, else at least one
        pass and then until `seconds` have gone by, which may stop inside
        a pass. `whole_ops` counts the records of whole passes."""
        deadline = time.perf_counter() + seconds
        done = 0
        while not passes or done < passes:
            for i, op in enumerate(self.ops):
                if not passes and done and time.perf_counter() >= deadline:
                    return
                if self.tracer is not None:
                    self.tracer.op = i
                elapsed, code, text = run_cli(self.fgml, op)
                if self.passes == 0:
                    self.outputs[op["key"]] = text
                self.records.append((i, elapsed, code, _digest(text)))
                self.reference.append(reference())
            done += 1
            self.passes += 1
            self.whole_ops = len(self.records)


def main(argv: list[str]) -> int:
    run_dir = os.path.abspath(argv[0])
    fgml = import_fgml()
    tracer = None
    if "--trace" in argv[1:]:
        sys.path.insert(0, HERE)
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, fgml)
    with open(os.path.join(run_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(run_dir)
    loop = Loop(fgml, plan, tracer)
    print("ready", flush=True)
    for line in sys.stdin:
        command = line.split()
        if command[:1] != ["go"]:
            break
        loop.run(float(command[1]), int(command[2]))
        print("done", flush=True)
    if not loop.passes:
        return 0
    result = {"records": loop.records, "reference": loop.reference,
              "outputs": loop.outputs, "whole_ops": loop.whole_ops,
              "passes": loop.passes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.dump(os.path.join(run_dir, "spans.bin"))
    with open("result.json" if tracer is None else "traced.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

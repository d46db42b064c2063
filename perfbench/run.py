"""Benchmark of the fgml command line, one seeded workload per run.

    python3 perfbench/run.py --workload image|closure --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; fgml is imported from its `src`.

Set-up writes the seeded documents and the operation plan (gen.py) into
a scratch directory under `.perfbench-run/`, untimed, and then starts a
fresh worker process that has imported only fgml (worker.py), which
runs the plan as a closed loop with one client: each operation starts
when the previous one has returned. `setup_s` is the median time from
process start to a worker's `ready` over five further workers started
before the timed phase and five after it, so that a slow or fast moment
of the machine weighs less.

With --trace 0 the run reports the end-to-end metrics. Latencies are
scaled to the machine's speed, measured by a reference task that the
worker times after every operation (see REFERENCE_S), because this
shared machine runs up to a third slower from one minute to the next;
the unscaled values are printed beside them. With --trace 1 an
untraced and a traced worker (spans around each layer's functions,
tracing.py) run whole passes in turn, and the run reports the per-layer
metrics per traced pass plus `trace.overhead`, the ratio of the two
workers' time spent in commands over the same number of passes.

Every distinct operation's output is checked (checks.py) and every
repeat must reproduce its first output. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("image", "closure")
SETUPS = 5
COMMANDS = ("validate", "eval", "classes", "quotient", "bisim_greatest",
            "bisim_check", "bisim_am", "duality")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "peak_rss_mb": "MB"}
UNITS.update({f"{c}_ms": "ms" for c in COMMANDS})
# Reported latencies are scaled to a machine on which the reference task
# (worker.reference) takes REFERENCE_S: each operation's latency by
# REFERENCE_S over the median reference time of the operations within
# WINDOW of it.
REFERENCE_S = 0.002
WINDOW = 8


class Worker:
    """A worker process, started and owned by the benchmark."""

    def __init__(self, run_dir: str, trace: bool):
        flags = ["--trace"] if trace else []
        self.result = os.path.join(run_dir, "traced.json" if trace else "result.json")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), run_dir] + flags,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._expect("ready")

    def _expect(self, word: str) -> None:
        if self.proc.stdout.readline().strip() != word:
            self.stop()
            raise RuntimeError(f"worker exited with {self.proc.returncode}")

    def go(self, seconds: float, passes: int) -> None:
        """Run the plan for `seconds`, or for `passes` whole passes."""
        self.proc.stdin.write(f"go {seconds} {passes}\n")
        self.proc.stdin.flush()
        self._expect("done")

    def finish(self) -> dict:
        """Stop the worker and return what it recorded over every `go`."""
        self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        with open(self.result, encoding="utf-8") as fh:
            return json.load(fh)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def start_times(run_dir: str, count: int) -> list[float]:
    """Seconds each of `count` untraced workers took to become ready;
    each is stopped again at once. Unscaled: a start is mostly file
    reads and unmarshalling, whose time the reference task does not
    track."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        worker = Worker(run_dir, trace=False)
        times.append(time.perf_counter() - start)
        worker.stop()
    return times


def scales(reference_times: list[float]) -> list[float]:
    """Per operation, REFERENCE_S over the median reference time of the
    operations within WINDOW of it."""
    return [REFERENCE_S / statistics.median(reference_times[max(0, k - WINDOW):k + WINDOW + 1])
            for k in range(len(reference_times))]


def alternate(run_dir: str, plain: Worker, seconds: float) -> tuple[dict, dict]:
    """Whole passes in turn on `plain` and on a traced worker, the order
    swapped each round, for at least one round and then until `seconds`
    have gone by; returns both workers' records."""
    traced = Worker(run_dir, trace=True)
    try:
        deadline = time.perf_counter() + seconds
        rounds = 0
        while not rounds or time.perf_counter() < deadline:
            for worker in (plain, traced)[::1 if rounds % 2 == 0 else -1]:
                worker.go(0, 1)
            rounds += 1
        return plain.finish(), traced.finish()
    finally:
        traced.stop()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest of p99.9, p99, p95, p90, p75 and p50 with at least ten
    samples beyond it; returns (percentile, value, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(n * (100 - p) / 100)
        if beyond >= 10 or p == 50.0:
            return p, ordered[n - beyond - 1], beyond


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def judge(plan: dict, result: dict) -> tuple[dict, int]:
    """Failure reasons by operation key, and how many records failed.

    A record fails when its operation's first output failed its check,
    or when it did not reproduce that output and exit code.
    """
    ops, records, outputs = plan["ops"], result["records"], result["outputs"]
    first = {}
    for i, _, code, digest in records:
        first.setdefault(ops[i]["key"], (code, digest))
    reasons = checks.check_first_pass(
        ops, outputs, {key: code for key, (code, _) in first.items()})
    failed = 0
    for i, _, code, digest in records:
        key = ops[i]["key"]
        if key in reasons or (code, digest) != first[key]:
            reasons.setdefault(key, "output differs from the first pass")
            failed += 1
    return reasons, failed


def output_digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(f"{key}\n{outputs[key]}\n".encode())
    return h.hexdigest()[:24]


def end_to_end(plan: dict, result: dict, setup_s: float,
               scale: list[float]) -> dict[str, float]:
    """End-to-end metrics of one untraced timed phase, with each
    operation's latency multiplied by its `scale`.

    A command's latency is the mean over the repeats of each of its
    operations, combined over the plan's documents by geometric mean, so
    that every rung of a size ladder weighs the same. The mean, not the
    median: a run has only four to six repeats, spread over the minute in
    which the machine's speed drifts, and the mean of them varied less
    between runs than their median did.
    """
    ops, records = plan["ops"], result["records"]
    latencies = [record[1] * f for record, f in zip(records, scale)]
    per_key: dict[str, list[float]] = {}
    for record, elapsed in zip(records, latencies):
        per_key.setdefault(ops[record[0]]["key"], []).append(elapsed)
    metrics = {"setup_s": setup_s,
               "ops_per_s": result["whole_ops"] / sum(latencies[:result["whole_ops"]]),
               "op_p50_ms": statistics.median(latencies) * 1e3,
               "op_tail_ms": tail(latencies)[1] * 1e3,
               "peak_rss_mb": result["maxrss_kb"] / 1024}
    for command in COMMANDS:
        means = [statistics.fmean(per_key[op["key"]]) for op in ops
                 if op["metric"] == command]
        metrics[f"{command}_ms"] = geomean(means) * 1e3
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fgml", "__init__.py")):
        print(f"error: no fgml sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench-run")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        start = time.perf_counter()
        plan_path = gen.write(run_dir, args.workload, args.seed)
        gen_s = time.perf_counter() - start
        worker = Worker(run_dir, trace=False)
        try:
            if not args.trace:
                setups = start_times(run_dir, SETUPS)
                worker.go(args.seconds, 0)
                result = worker.finish()
                setups += start_times(run_dir, SETUPS)
                runs = [result]
            else:
                plain, traced = alternate(run_dir, worker, args.seconds)
                runs = [plain, traced]
        finally:
            worker.stop()
        with open(plan_path, encoding="utf-8") as fh:
            plan = json.load(fh)
        reasons, failed, attempted = {}, 0, 0
        for run in runs:
            r, f = judge(plan, run)
            reasons.update(r)
            failed += f
            attempted += len(run["records"])
        digests = [output_digest(run["outputs"]) for run in runs]
        if args.trace:
            metrics = tracing.derive(traced["trace"], traced["passes"])
            metrics["trace.overhead"] = (sum(r[1] for r in traced["records"])
                                         / sum(r[1] for r in plain["records"]))
            units = {name: tracing.unit(name) for name in metrics}
        else:
            setup_s = statistics.median(setups)
            metrics = end_to_end(plan, result, setup_s, scales(result["reference"]))
            unscaled = end_to_end(plan, result, setup_s,
                                  [1.0] * len(result["records"]))
            units = UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass

    correct = not reasons and len(set(digests)) == 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, "
          f"{sum(run['passes'] for run in runs)} passes; documents generated "
          f"in {gen_s:.3f} s, before set-up and not part of setup_s")
    for digest in digests:
        print(f"digest {args.workload} {args.seed} {digest}")
    print(f"correct {str(correct).lower()}: every output checked, "
          f"{len(reasons)} operations wrong, {len(set(digests))} distinct digests")
    for key, reason in sorted(reasons.items())[:20]:
        print(f"check FAILED {key}: {reason}")
    if not args.trace:
        p, _, beyond = tail([r[1] for r in result["records"]])
        print(f"fail_ratio {failed / attempted:.6f} 1 ({failed}/{attempted})")
        print(f"op_tail_ms is p{p:g} over {len(result['records'])} operations, "
              f"{beyond} beyond it")
        print(f"reference task: median {statistics.median(result['reference']) * 1e3:.3f} ms "
              f"over {len(result['reference'])} operations; latencies below are "
              f"scaled to {REFERENCE_S * 1e3:g} ms, unscaled values in brackets")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}"
              + ("" if args.trace else f" ({unscaled[name]:.6g})"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests, on tiny documents.

Each test that starts workers runs perfbench/run.py in-process, so the
generator's ladders, patched here, shape the documents the workers
read; tracing is only ever installed in a worker process, never in the
test process.
"""

import json
import os

import pytest

import gen
import run
import tracing
import worker

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
TINY_LADDERS = {
    "IMAGE_LADDER": ((1, 2, True, "discrete", ("dia",)),
                     (2, 2, False, "crisp", ("dia",))),
    "CLOSURE_LADDER": ((1, 4, True, 6, True), (2, 3, False, 8, False)),
    "DEFINABLE_LADDER": ((1, 4, False, 8, False),),
    "SOBER_FRAMES": ((1, ("chain", 4)), (2, ("chain", 3))),
    "IMAGE_SOBER_FRAMES": ((1, ("chain", 4)), (2, ("chain", 3))),
}


@pytest.fixture(autouse=True)
def tiny_ladders(monkeypatch):
    for name, ladder in TINY_LADDERS.items():
        monkeypatch.setattr(gen, name, ladder)


def _run(capsys, *argv):
    code = run.main(["--seconds", "0.2", "--seed", "3", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _declared(section):
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric_with_its_unit(capsys, workload):
    code, _, result = _run(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_layers_and_matches_untraced_digest(capsys, workload):
    _, plain_lines, _ = _run(capsys, "--workload", workload, "--trace", "0")
    code, lines, result = _run(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    digests = {line for line in plain_lines + lines if line.startswith("digest ")}
    assert len(digests) == 1


def test_planted_wrong_grade_counts_as_failed(tmp_path, monkeypatch):
    docs, ops = gen.build("image", 1)
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    planted = next(op for op in ops if op["metric"] == "eval")
    state = next(iter(planted["expect"]["grades"]))
    grade = planted["expect"]["grades"][state]
    planted["expect"]["grades"][state] = "0/1" if grade != "0/1" else "1/1"
    plan = {"workload": "image", "ops": ops}
    monkeypatch.chdir(tmp_path)
    loop = worker.Loop(worker.import_fgml(), plan)
    loop.run(0, 1)
    loop.run(0, 1)
    reasons, failed = run.judge(plan, {"records": loop.records,
                                       "outputs": loop.outputs})
    assert list(reasons) == [planted["key"]]
    assert failed == 2 and len(loop.records) == 2 * len(ops)


def test_scales_follow_the_median_reference_time_around_each_operation():
    reference = [0.004] * 20 + [0.001] * 20
    reference[5] = 1.0  # one reference run slowed by the machine
    got = run.scales(reference)
    assert got[0] == got[5] == run.REFERENCE_S / 0.004
    assert got[-1] == run.REFERENCE_S / 0.001


def test_per_layer_names_are_the_tracer_metrics():
    assert _declared("per_layer") == {n: tracing.unit(n) for n in tracing.metric_names()}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "image", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_generator_is_deterministic_per_seed():
    assert gen.build("closure", 5) == gen.build("closure", 5)
    assert gen.build("image", 5) != gen.build("image", 6)

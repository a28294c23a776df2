"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
# Reduced inputs, so that each test takes seconds.
SMALL = {"mc_outage": lambda: workloads.McOutage(frames=20, trials=4),
         "verify_grid": lambda: workloads.VerifyGrid(instances=20)}


def _setup(name, tmp_path):
    workload = SMALL[name]()
    out = tmp_path / name
    return worker.setup(workload, out), workload, out


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in spans.TARGETS}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_restores_wrappers_and_matches_untraced_digests(name, tmp_path):
    cli, workload, out = _setup(name, tmp_path)
    before = _originals()
    result = worker.measure(cli, workload, out, seed=3, seconds=0.01, trace=1)
    assert _originals() == before
    assert result["failed"] == 0
    assert result["info"]["reps"] == 3
    # the traced repetition's CSVs are byte-identical to the untraced one's
    untraced = worker.run_rep(cli, workload, out, 3)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        traced = worker.run_rep(cli, workload, out, 3, recorder)
    finally:
        recorder.restore()
    assert _originals() == before
    assert traced.digests == untraced.digests != {}


def test_wrappers_restored_when_a_call_raises(tmp_path):
    _setup("verify_grid", tmp_path)
    before = _originals()
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        with pytest.raises(ValueError):
            importlib.import_module("swiptfog.cli").load_params("bogus = 1")
    finally:
        recorder.restore()
    assert _originals() == before
    assert recorder.summary()["params.load_params"][0] == 1


def test_wrappers_cover_monte_carlo(tmp_path):
    cli, workload, out = _setup("mc_outage", tmp_path)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        worker.run_rep(cli, workload, out, 3, recorder)
    finally:
        recorder.restore()
    total = recorder.summary()
    assert total["channel.realize_channels"][0] == workload.frames_per_rep
    assert total["allocator.evaluate_strategies"][0] == workload.frames_per_rep
    # the simulator's own loop is a small part of monte_carlo; the rest is
    # inside the channel, allocator and energy wrappers
    assert 0.0 < spans.sim_self_share(total) < 0.25
    # cli.main is the root span, so all self times add up to its duration
    own = sum(row[2] for row in total.values())
    assert own == pytest.approx(total[spans.CLI_SPAN][1])


def test_forced_check_failure_counts_as_failed(tmp_path, monkeypatch):
    cli, workload, out = _setup("mc_outage", tmp_path)
    monkeypatch.setattr(workload, "max_outage_near", -1.0)
    result = worker.measure(cli, workload, out, seed=3, seconds=0.01, trace=0)
    assert result["attempted"] == workload.ops_per_rep * result["info"]["reps"]
    assert 0 < result["failed"] / result["attempted"] < 1


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec[section]}
    proc = _run(["--workload", "verify_grid", "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "verify_grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Tests of the benchmark itself, at the smoke size of each workload.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import granet  # noqa: E402
import granet.cli  # noqa: E402,F401
import spans  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert report["provenance"]["tracer_loaded"] is bool(trace)
    assert report["wall_s"]["n"] >= 1


def test_traced_experiment_counts_the_moment_passes():
    _, result = _run("experiment", 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["lagmoments.from_trajectory.calls"] == 2
    assert metrics["lagmoments.passes"] == 3
    assert metrics["dynamics.simulate.calls"] == 1
    assert metrics["dynamics.simulate.epochs"] == SIZES["smoke"]["experiment_steps"]


def test_per_layer_names_match_the_recorder():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        spans.PER_LAYER)


def _workload(name, tmp_path):
    workload = WORKLOADS[name](granet, 7, SIZES["smoke"])
    workload.setup()
    workdir = tmp_path / "job"
    workdir.mkdir()
    return workload, workdir


def test_experiment_check_rejects_a_wrong_estimate(tmp_path, monkeypatch):
    original = granet.estimators.egg_from_trajectory

    def transposed(*args, **kwargs):
        report = original(*args, **kwargs)
        return granet.EstimateReport(report.A_hat.T, "egg", report.n_samples)

    monkeypatch.setattr(granet.estimators, "egg_from_trajectory", transposed)
    workload, workdir = _workload("experiment", tmp_path)
    with pytest.raises(CheckFailed, match="egg recovery"):
        workload.run(0, workdir)


def test_roundtrip_checks_reject_a_changed_file(tmp_path, monkeypatch):
    original = granet.fileio.load_trajectory

    def nudged(*args, **kwargs):
        traj = original(*args, **kwargs)
        states = traj.states.copy()
        states[3, 4] = np.nextafter(states[3, 4], np.inf)
        return dataclasses.replace(traj, states=states)

    monkeypatch.setattr(granet.fileio, "load_trajectory", nudged)
    workload, workdir = _workload("roundtrip", tmp_path)
    with pytest.raises(CheckFailed, match="bit-identical"):
        workload.run(0, workdir)


def test_roundtrip_checks_reject_a_wrong_oracle(tmp_path, monkeypatch):
    original = granet.estimators.least_squares_estimate

    def scaled(*args, **kwargs):
        report = original(*args, **kwargs)
        return granet.EstimateReport(report.A_hat * (1 + 1e-9), "least_squares",
                                     report.n_samples)

    monkeypatch.setattr(granet.estimators, "least_squares_estimate", scaled)
    workload, workdir = _workload("roundtrip", tmp_path)
    with pytest.raises(CheckFailed, match="least_squares"):
        workload.run(0, workdir)


def test_ensemble_check_rejects_a_wrong_identity(tmp_path, monkeypatch):
    original = granet.finalize
    monkeypatch.setattr(granet, "finalize",
                        lambda lag: tuple(m * s for m, s in zip(original(lag), (1, 100))))
    workload, workdir = _workload("ensemble", tmp_path)
    with pytest.raises(CheckFailed, match="ensemble identity"):
        workload.run(0, workdir)


def test_recorder_restores_the_originals_when_the_job_raises(tmp_path):
    def functions():
        return {(name, attr): value for name, module in list(sys.modules.items())
                if name.partition(".")[0] == "granet"
                for attr, value in vars(module).items() if callable(value)}

    originals = functions()
    with pytest.raises(OSError):
        with spans.Recorder() as recorder:
            assert granet.simulate is not originals["granet", "simulate"]
            assert granet.cli.simulate is not originals["granet.cli", "simulate"]
            granet.fileio.load_trajectory(tmp_path / "missing.csv")
    assert functions() == originals
    [span] = recorder.spans
    assert span.name == "fileio.load_trajectory" and span.failed


def test_self_time_subtracts_child_spans():
    recorded = [spans.Span("experiments.run_experiment", 0.0, None, end=10.0),
                spans.Span("dynamics.simulate", 1.0, 0, end=7.0,
                           work={"epochs": 1000}),
                spans.Span("lagmoments.from_trajectory", 7.0, 0, end=8.0,
                           work={"pairs": 1000})]
    metrics = spans.reduce_spans(recorded, trajectory_steps=500)
    assert metrics["experiments.run_experiment.self_s"] == 3.0
    assert metrics["dynamics.simulate.self_s"] == 6.0
    assert metrics["dynamics.simulate.us_per_epoch"] == 6000.0
    assert metrics["lagmoments.passes"] == 2.0

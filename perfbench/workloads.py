"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and
runs one job per call of ``run``; ``run`` raises :class:`CheckFailed` when
the job's output is wrong.  All of them use the standard 50-node instance
(p = 0.2, graph seed 101, rho = 0.5).

Why these three:

* ``experiment`` is the headline user job, ``granet experiment --preset
  example1`` at its defaults (200k epochs).  It is bound by the simulator
  and bypasses trajectory I/O, since the trajectory is longer than
  ``TRAJECTORY_PERSIST_LIMIT``.
* ``roundtrip`` writes and re-reads a 100k-epoch trajectory file and runs
  every full-network estimator plus the partial path on it, with no
  simulation in the timed job: it isolates file I/O and the estimators.
* ``ensemble`` is the criterion-2 Monte-Carlo job, many 21-epoch
  simulations and one per-step accumulation each.  Per-call overhead
  dominates it, and it has no chunked moment pass and no I/O.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

ESTIMATORS = "egg,granger,correlation,precision,least_squares,egg_partial"
OBSERVED = ",".join(str(node) for node in range(10))

#: Job sizes: the full size is what the benchmark measures, the smoke size
#: runs each workload in seconds for the benchmark's own test.
SIZES = {
    "full": {"experiment_steps": 200_000, "roundtrip_steps": 100_000,
             "replicas": 2_000},
    "smoke": {"experiment_steps": 120_000, "roundtrip_steps": 5_000,
              "replicas": 200},
}


class CheckFailed(Exception):
    """A job finished but its output is wrong."""


def job_seed(seed: int, index: int) -> int:
    """Simulation seed of job ``index`` in a run with benchmark seed ``seed``."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(sequence.generate_state(1)[0])


def _standard_matrix(granet):
    graph = granet.generate_binomial_graph(50, 0.2, 101)
    return granet.build_combination_matrix(graph, 0.5)


def _run_cli(granet, argv: list[str]) -> None:
    """Run the ``granet`` entry point in-process; fail on a nonzero exit."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = granet.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"granet {argv[0]} exited with {code}: "
                          f"{captured.getvalue().strip()}")


class Experiment:
    name = "experiment"

    def __init__(self, granet, seed: int, size: dict):
        self.granet = granet
        self.seed = seed
        self.trajectory_steps = size["experiment_steps"]

    def setup(self) -> None:
        # The CLI builds the instance itself; the job's only input is its
        # seed, derived in ``run``.
        pass

    def run(self, index: int, workdir: Path) -> None:
        argv = ["experiment", "--seed", str(job_seed(self.seed, index)),
                "--out", str(workdir / "run")]
        if self.trajectory_steps == self.granet.experiments.experiment_preset(
                "example1")["sim"]["n_steps"]:
            argv += ["--preset", "example1"]
        else:
            config = workdir / "config.json"
            config.write_text(json.dumps(
                {"preset": "example1", "sim": {"n_steps": self.trajectory_steps}}))
            argv += ["--config", str(config)]
        _run_cli(self.granet, argv)
        # Criterion-3 thresholds for the weighted estimator.
        metrics = json.loads((workdir / "run" / "metrics_egg.json").read_text())
        error = float(metrics["edge_error_rate"])
        gap = float(metrics["identifiability_gap"])
        if not (error <= 0.05 and gap > 0):
            raise CheckFailed(f"egg recovery: edge_error_rate={error}, "
                              f"identifiability_gap={gap}")


class Roundtrip:
    name = "roundtrip"

    def __init__(self, granet, seed: int, size: dict):
        self.granet = granet
        self.seed = seed
        self.trajectory_steps = size["roundtrip_steps"]
        self.trajectory = None

    def setup(self) -> None:
        granet = self.granet
        self.trajectory = granet.simulate(
            _standard_matrix(granet), granet.triple_preset("example2", 50),
            granet.NoiseModel.uniform(50), 0.0, self.trajectory_steps,
            job_seed(self.seed, 0))

    def run(self, index: int, workdir: Path) -> None:
        fileio = self.granet.fileio
        path = workdir / "trajectory.csv"
        fileio.save_trajectory(self.trajectory, path)
        reloaded = fileio.load_trajectory(path).states
        expected = self.trajectory.states
        if reloaded.shape != expected.shape or not np.array_equal(
                reloaded.view(np.uint64), expected.view(np.uint64)):
            raise CheckFailed("reloaded trajectory is not bit-identical")
        del reloaded
        out = workdir / "estimate"
        _run_cli(self.granet, ["estimate", "--trajectory", str(path),
                               "--triple", "example2",
                               "--estimators", ESTIMATORS,
                               "--observed", OBSERVED, "--out", str(out)])
        # Criterion-8 oracle: the moment solve equals the direct fit.
        egg = np.loadtxt(out / "estimate_egg.csv", delimiter=",")
        oracle = np.loadtxt(out / "estimate_least_squares.csv", delimiter=",")
        rel = np.linalg.norm(egg - oracle) / np.linalg.norm(oracle)
        if not rel <= 1e-10:
            raise CheckFailed(f"egg vs least_squares relative difference {rel:.3e}")


class Ensemble:
    name = "ensemble"
    epoch = 20
    trajectory_steps = 0  # no chunked moment pass

    def __init__(self, granet, seed: int, size: dict):
        self.granet = granet
        self.seed = seed
        self.replicas = size["replicas"]

    def setup(self) -> None:
        granet = self.granet
        self.matrix = _standard_matrix(granet)
        self.triple = granet.triple_preset("example2", 50)
        self.noise = granet.NoiseModel.uniform(50)
        self.config = granet.WeightingConfig()

    def run(self, index: int, workdir: Path) -> None:
        granet = self.granet
        seeds = np.random.SeedSequence(job_seed(self.seed, index)).generate_state(
            self.replicas, dtype=np.uint64)
        lag = granet.LagMatrices(n_nodes=50)
        for seed in seeds:
            traj = granet.simulate(self.matrix, self.triple, self.noise, 0.0,
                                   self.epoch + 1, seed=int(seed))
            granet.accumulate(lag, self.triple, self.config,
                              traj.states[self.epoch], traj.states[self.epoch + 1])
        f0, f1 = granet.finalize(lag)
        target = self.matrix.entries @ f0
        rel = np.linalg.norm(f1 - target) / np.linalg.norm(target)
        # Criterion-2 bound: sampling noise of size ~82 / sqrt(replicas).
        threshold = 5 * 82 / np.sqrt(self.replicas)
        if not rel < threshold:
            raise CheckFailed(f"ensemble identity: rel={rel:.4f} "
                              f"threshold={threshold:.2f}")


WORKLOADS = {cls.name: cls for cls in (Experiment, Roundtrip, Ensemble)}

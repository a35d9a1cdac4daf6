"""Config-driven experiment and sweep runners.

An experiment config is a JSON-compatible mapping; :func:`expand_config`
fills defaults and replaces preset names by fully explicit specs, and the
expanded form is written next to the results so every run can be repeated
without the original file.  Writers are deterministic: re-running the same
expanded config reproduces the output bytes.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import estimators, fileio, lagmoments, presets, recovery
from .dynamics import (DIVERGENCE_LIMIT, NoiseModel, NonlinearityTriple,
                       Trajectory, simulate)
from .errors import ConfigError, NumericalError
from .estimators import EstimateReport
from .graphs import (CombinationMatrix, DirectedGraph,
                     build_combination_matrix, generate_binomial_graph)
from .lagmoments import WeightingConfig
from .recovery import AssumptionReport, RecoveryMetrics

#: Trajectories longer than this are only written to disk on request.
TRAJECTORY_PERSIST_LIMIT = 100_000

_DEFAULTS: dict[str, Any] = {
    "graph": {"n_nodes": 50, "p": 0.2, "seed": 101},
    "rho": 0.5,
    "triple": "example1",
    "noise_std": 1.0,
    "sim": {"n_steps": 200_000, "seed": 202, "y0": 0.0},
    "weighting": {"delta": 0.0},
    "estimators": ["egg", "granger", "correlation", "precision"],
    "observed_set": None,
    "save_trajectory": None,
}

def experiment_preset(name: str) -> dict:
    """Default experiment config for a named triple preset."""
    if name not in presets.TRIPLE_PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {presets.TRIPLE_PRESETS}"
        )
    config = copy.deepcopy(_DEFAULTS)
    config["triple"] = name
    return config


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _number(value, types=(int, float)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _state(value) -> bool:
    """A number that a :class:`Trajectory` may hold as a state."""
    return _number(value) and abs(value) <= DIVERGENCE_LIMIT


def expand_config(raw: dict) -> dict:
    """Validate a config and return its fully explicit form.

    Unknown keys are rejected; preset names in ``triple`` are replaced by
    explicit per-family specs.  The function is idempotent, so the expanded
    form written next to results re-expands to itself.
    """
    _require(isinstance(raw, dict), f"config must be a mapping, got {type(raw).__name__}")
    base = experiment_preset(raw.get("preset", _DEFAULTS["triple"])) \
        if "preset" in raw else copy.deepcopy(_DEFAULTS)
    known = set(_DEFAULTS) | {"preset"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if key == "preset":
            continue
        if isinstance(base.get(key), dict):
            _require(isinstance(value, dict),
                     f"{key}: must be a mapping, got {type(value).__name__}")
            sub_unknown = set(value) - set(base[key])
            _require(not sub_unknown,
                     f"unknown keys under {key!r}: {sorted(sub_unknown)}")
            base[key].update(value)
        else:
            try:
                base[key] = copy.deepcopy(value)
            except RecursionError as exc:
                raise ConfigError(f"{key}: nested too deeply") from exc

    graph = base["graph"]
    _require(_number(graph["n_nodes"], int) and graph["n_nodes"] >= 1,
             "graph.n_nodes: must be a positive integer")
    for path in ("graph.p", "rho", "noise_std", "weighting.delta"):
        section, _, name = path.rpartition(".")
        value = base[section][name] if section else base[name]
        _require(_number(value), f"{path}: must be a number, got {value!r}")
    _require(0.0 <= graph["p"] <= 1.0, "graph.p: must lie in [0, 1]")
    _require(_number(graph["seed"], int) and graph["seed"] >= 0,
             "graph.seed: must be a non-negative integer")
    _require(0.0 < base["rho"] < 1.0, "rho: must lie in (0, 1)")
    _require(math.isfinite(base["noise_std"]) and base["noise_std"] > 0,
             "noise_std: must be finite and > 0")
    sim = base["sim"]
    _require(_number(sim["n_steps"], int) and sim["n_steps"] >= 2,
             "sim.n_steps: must be an integer >= 2")
    _require(_number(sim["seed"], int) and sim["seed"] >= 0,
             "sim.seed: must be a non-negative integer")
    y0 = sim["y0"]
    _require(_state(y0) or (isinstance(y0, list) and len(y0) == graph["n_nodes"]
                            and all(map(_state, y0))),
             f"sim.y0: must be a number of magnitude at most {DIVERGENCE_LIMIT:g}, "
             "or a list of n_nodes such numbers")
    _require(base["save_trajectory"] is None
             or isinstance(base["save_trajectory"], bool),
             "save_trajectory: must be null, true or false")
    _require(isinstance(base["estimators"], list) and base["estimators"],
             "estimators: must be a non-empty list")
    observed = estimators._check_observed(base["observed_set"], graph["n_nodes"])
    base["observed_set"] = observed
    estimators._check_kinds(base["estimators"], observed)

    n_nodes = graph["n_nodes"]
    try:
        triple = presets.triple_from_spec(base["triple"], n_nodes)
    except ValueError as exc:
        raise ConfigError(f"triple: {exc}") from exc
    try:
        lagmoments._check_regularizable(triple,
                                        WeightingConfig(**base["weighting"]))
    except ValueError as exc:
        raise ConfigError(f"weighting: {exc}") from exc
    base["triple"] = presets.triple_to_spec(triple)
    return base


@dataclasses.dataclass
class ExperimentResult:
    """Everything produced by one experiment run."""

    run_dir: Path
    config: dict
    graph: DirectedGraph
    matrix: CombinationMatrix
    trajectory: Trajectory
    reports: dict[str, EstimateReport]
    metrics: dict[str, RecoveryMetrics]
    assumptions: AssumptionReport
    errors: dict[str, str]

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def run_estimators(out_dir: "str | Path", traj: Trajectory,
                   triple: NonlinearityTriple, weighting: WeightingConfig,
                   kinds: Sequence[str], observed: Sequence[int] | None
                   ) -> tuple[dict[str, EstimateReport], dict[str, str]]:
    """Run each estimator kind on ``traj`` and write its files to ``out_dir``.

    The estimation stage of both ``granet experiment`` and ``granet
    estimate``.  Every input is checked before ``out_dir`` is created.  A
    kind writes ``estimate_<kind>.json`` and ``.csv``; a kind that fails
    with a NumericalError writes only the JSON, holding its kind and the
    error, and the other kinds still run.  Kinds are looked up in
    ``estimators._TABLE`` as they run, so a patched estimator is the one
    called.  The raw states are walked once for all of the kinds in
    ``estimators._RAW_KINDS``, forming the cross sum only when granger is
    listed, and each such kind reads the two sums; a partial kind walks its
    own observed columns.  Returns the reports and the error messages,
    keyed by kind.
    """
    lagmoments._check_regularizable(triple, weighting)
    observed = estimators._check_observed(observed, traj.n_nodes)
    estimators._check_kinds(kinds, observed)
    estimators._check_steps(traj)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sums = None
    if any(kind in estimators._RAW_KINDS for kind in kinds):
        sums = lagmoments._moment_sums(traj.states, traj.n_steps,
                                       cross="granger" in kinds)
        for total in sums:
            if total is not None:
                total.setflags(write=False)
    reports: dict[str, EstimateReport] = {}
    errors: dict[str, str] = {}
    for kind in kinds:
        try:
            reports[kind] = estimators._TABLE[kind][1](
                traj=traj, triple=triple, config=weighting, observed=observed,
                sums=sums)
        except NumericalError as exc:
            errors[kind] = str(exc)
            fileio._write_json({"estimator_kind": kind, "error": str(exc)},
                               out_dir / f"estimate_{kind}.json")
        else:
            fileio.save_estimate_report(reports[kind],
                                        out_dir / f"estimate_{kind}.json",
                                        out_dir / f"estimate_{kind}.csv")
    return reports, errors


def run_experiment(config: dict, out_dir: "str | Path") -> ExperimentResult:
    """Run one full generate/simulate/estimate/score pipeline.

    All artifacts are written into ``out_dir``: the graph and true matrix,
    the trajectory (when short enough or explicitly requested), per-
    estimator matrices with JSON metadata, recovery metrics and sorted
    entry profiles, the assumption report and the expanded config.
    Estimator-level numerical failures are recorded and do not stop the
    remaining estimators.
    """
    config = expand_config(config)
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    n_nodes = config["graph"]["n_nodes"]
    graph = generate_binomial_graph(n_nodes, config["graph"]["p"],
                                    config["graph"]["seed"])
    matrix = build_combination_matrix(graph, config["rho"])
    triple = presets.triple_from_spec(config["triple"], n_nodes)
    weighting = WeightingConfig(**config["weighting"])
    noise = NoiseModel.uniform(n_nodes, config["noise_std"])

    fileio._write_json(config, run_dir / "config.expanded.json")
    fileio.save_graph(graph, run_dir / "graph.csv")
    fileio.save_matrix(matrix.entries, run_dir / "matrix.csv")

    traj = simulate(matrix, triple, noise, config["sim"]["y0"],
                    config["sim"]["n_steps"], config["sim"]["seed"])
    persist = config["save_trajectory"]
    if persist or (persist is None and traj.n_steps <= TRAJECTORY_PERSIST_LIMIT):
        fileio.save_trajectory(traj, run_dir / "trajectory.csv")

    lag = lagmoments.from_trajectory(traj, triple, weighting)
    fileio.save_lag_matrices(lag, run_dir / "lag_f0.csv", run_dir / "lag_f1.csv")
    f0_hat, _ = lagmoments.finalize(lag)

    reports, errors = run_estimators(run_dir, traj, triple, weighting,
                                     config["estimators"], config["observed_set"])
    metrics: dict[str, RecoveryMetrics] = {}
    for kind, report in reports.items():
        obs = report.observed_set
        truth = (matrix.entries if obs is None
                 else matrix.entries[np.ix_(obs, obs)])
        try:
            metric = recovery.score(report.A_hat, truth)
        except NumericalError as exc:
            errors[kind] = str(exc)
            continue
        metrics[kind] = metric
        fileio.save_recovery_metrics(metric, run_dir / f"metrics_{kind}.json")
        fileio.save_profile(
            recovery.sorted_entry_profile(truth, report.A_hat),
            run_dir / f"profile_{kind}.csv",
        )

    empirical = recovery.assumption_report(traj, triple, weighting, f0_hat)
    try:
        static = recovery.stability_constant(triple, matrix)
        assumptions = static.merged_with(empirical)
    except ConfigError:
        assumptions = empirical
    fileio.save_assumption_report(assumptions, run_dir / "assumptions.json")

    return ExperimentResult(
        run_dir=run_dir, config=config, graph=graph, matrix=matrix,
        trajectory=traj, reports=reports, metrics=metrics,
        assumptions=assumptions, errors=errors,
    )


SWEEP_AXES = ("n_steps", "delta", "observed_set_size")


def _point_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for sweep point ``index``."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _point_config(base: dict, axis: str, value, master_seed: int,
                  index: int) -> dict:
    """Expanded config of one sweep point: ``base`` with the axis set."""
    config = copy.deepcopy(base)
    seed = _point_seed(master_seed, index)
    config["sim"]["seed"] = seed
    if axis == "n_steps":
        config["sim"]["n_steps"] = value
    elif axis == "delta":
        config["weighting"] = {"delta": value}
    else:
        n_nodes = config["graph"]["n_nodes"]
        _require(_number(value, int) and 1 <= value <= n_nodes,
                 f"observed_set_size values must lie in [1, {n_nodes}], got {value!r}")
        chooser = np.random.default_rng(seed)
        config["observed_set"] = sorted(
            int(v) for v in chooser.choice(n_nodes, size=value, replace=False)
        )
        if not set(estimators._PARTIAL_KINDS) & set(config["estimators"]):
            config["estimators"] = ["egg_partial"]
    return expand_config(config)


#: One ``summary.csv`` row before its point runs; its keys are the header.
_SUMMARY_ROW = {"index": None, "value": None, "estimator": None,
                "edge_error_rate": "", "matrix_rel_error": "",
                "identifiability_gap": "", "error": ""}


def _run_sweep_point(index: int, value, config: dict, point_dir: Path,
                     summary_kind: str) -> dict:
    row = dict(_SUMMARY_ROW, index=index, value=value, estimator=summary_kind)
    try:
        result = run_experiment(config, point_dir)
        if summary_kind in result.metrics:
            metric = result.metrics[summary_kind]
            row["edge_error_rate"] = repr(metric.edge_error_rate)
            row["matrix_rel_error"] = repr(metric.matrix_rel_error)
            row["identifiability_gap"] = repr(metric.identifiability_gap)
        if summary_kind in result.errors:
            row["error"] = result.errors[summary_kind]
        elif result.errors:
            row["error"] = "; ".join(
                f"{k}: {v}" for k, v in sorted(result.errors.items())
            )
    except (ConfigError, NumericalError, OSError) as exc:
        row["error"] = str(exc)
    return row


def run_sweep(config: dict, out_dir: "str | Path") -> list[dict]:
    """Run an experiment per axis value and summarise into one CSV.

    ``config`` holds a ``base`` experiment config, the ``axis`` name
    (``n_steps``, ``delta`` or ``observed_set_size``), the list of
    ``values`` and a ``master_seed`` from which each point derives an
    independent simulation seed.  The ``summary_estimator`` (default: each
    point's first estimator) must run at every point.  A failing point is
    recorded in its summary row and does not stop the sweep.  The points run
    one after another in the calling process.  Writes ``summary.csv`` into
    ``out_dir`` and returns its rows.
    """
    _require(isinstance(config, dict), "sweep config must be a mapping")
    unknown = set(config) - {"base", "axis", "values", "master_seed",
                             "summary_estimator"}
    _require(not unknown, f"unknown sweep config keys: {sorted(unknown)}")
    for key in ("base", "axis", "values"):
        _require(key in config, f"sweep config missing {key!r}")
    axis = config["axis"]
    _require(axis in SWEEP_AXES,
             f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = config["values"]
    _require(isinstance(values, list) and values,
             "sweep values must be a non-empty list")
    master_seed = config.get("master_seed", 0)
    _require(_number(master_seed, int) and master_seed >= 0,
             "master_seed must be a non-negative integer")
    base = expand_config(config["base"])
    summary_kind = config.get("summary_estimator")

    out_dir = Path(out_dir)
    jobs = []
    for index, value in enumerate(values):
        point = _point_config(base, axis, value, master_seed, index)
        kind = point["estimators"][0] if summary_kind is None else summary_kind
        _require(kind in point["estimators"],
                 f"summary_estimator: {kind!r} is not run at point {index}, "
                 f"whose estimators are {point['estimators']}")
        jobs.append((index, value, point, out_dir / f"point_{index:03d}", kind))
    # Only a sweep whose every point is valid makes its output directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [_run_sweep_point(*job) for job in jobs]

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(_SUMMARY_ROW))
        writer.writeheader()
        writer.writerows(rows)
    return rows

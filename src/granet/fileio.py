"""On-disk formats: CSV for arrays and graphs, JSON for reports.

All numeric CSV output uses 17 significant digits so values round-trip
exactly through text.  Graph files list ``i,j`` pairs under a ``# N=<n>``
header; trajectory files carry ``# N=<n>, steps=<k>, seed=<s>``; lag-moment
files prepend ``# count=<c>`` to the dense matrix payload.  Writers emit
deterministic bytes for identical inputs.

The matrix and trajectory loaders raise a :class:`ConfigError` that starts
with the path when the content is bad: a cell that is not a number, a
ragged row, bytes that are not UTF-8, or no data row.  A matrix file must
also hold a square matrix of finite cells, and a trajectory file only
states that a :class:`~granet.dynamics.Trajectory` accepts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigError
from .estimators import EstimateReport
from .graphs import DirectedGraph
from .lagmoments import LagMatrices
from .recovery import AssumptionReport, RecoveryMetrics, SortedProfile

_FMT = "%.17g"

#: Rows formatted by one ``%`` operation in :func:`_write_rows`.
_BLOCK_ROWS = 256


@contextlib.contextmanager
def _naming(path: "str | Path"):
    """Re-raise a ValueError from reading a file as a ConfigError that starts
    with the file's ``path``."""
    try:
        with warnings.catch_warnings():
            # _rows checks for a data row; the warning would only reach
            # stderr.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _first_line(path: "str | Path") -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline()


def _rows(path: "str | Path") -> np.ndarray:
    """The comma-separated float rows of ``path``; there must be one."""
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8")
    except ValueError as exc:
        # NumPy counts a ragged row from 1 and ends the message with advice
        # on loadtxt's own parameters, which a reader of the file cannot act
        # on.  Count from 0, as the other messages about a cell or a state
        # do, and drop the advice.
        raise ValueError(re.sub(
            r"at row (\d+); use `usecols`.*",
            lambda m: f"at row {int(m.group(1)) - 1}", str(exc))) from exc
    if not rows.size:
        raise ValueError("no data rows")
    return rows


def _write_rows(path: "str | Path", rows: np.ndarray, header: str = "") -> None:
    """Write the 2-D ``rows`` to ``path`` with the bytes of ``np.savetxt(path,
    rows, fmt=_FMT, delimiter=",", header=header)``, formatting
    ``_BLOCK_ROWS`` rows per ``%`` operation instead of one."""
    n_rows, n_cols = rows.shape
    line = ",".join([_FMT] * n_cols) + "\n"
    block = line * _BLOCK_ROWS
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            chunk = rows[start:start + _BLOCK_ROWS]
            fmt = block if len(chunk) == _BLOCK_ROWS else line * len(chunk)
            fh.write(fmt % tuple(chunk.ravel().tolist()))


def save_graph(graph: DirectedGraph, path: "str | Path") -> None:
    lines = [f"# N={graph.n_nodes}"]
    lines += [f"{i},{j}" for i, j in graph.sorted_edges()]
    Path(path).write_text("\n".join(lines) + "\n")


def save_matrix(matrix: np.ndarray, path: "str | Path") -> None:
    _write_rows(path, np.atleast_2d(matrix))


def load_matrix(path: "str | Path") -> np.ndarray:
    """The matrix in ``path``; a matrix that is not square, or a cell that is
    not finite, is a ConfigError."""
    with _naming(path):
        rows = _rows(path)
        if rows.shape[0] != rows.shape[1]:
            raise ValueError(f"matrix must be square, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            row, col = np.argwhere(~np.isfinite(rows))[0]
            raise ValueError(f"non-finite cell {float(rows[row, col])!r} "
                             f"at row {row}, column {col}")
        return rows


def save_trajectory(traj: Trajectory, path: "str | Path") -> None:
    header = f"N={traj.n_nodes}, steps={traj.n_steps}, seed={traj.seed}"
    _write_rows(path, traj.states, header)


def load_trajectory(path: "str | Path") -> Trajectory:
    with _naming(path):
        first = _first_line(path)
        match = re.match(
            r"#\s*N\s*=\s*(\d+),\s*steps\s*=\s*(\d+),\s*seed\s*=\s*(-?\d+)",
            first,
        )
        if not match:
            raise ValueError(f"malformed trajectory header {first!r}")
        n, steps, seed = (int(g) for g in match.groups())
        states = _rows(path)
        if states.shape != (steps + 1, n):
            raise ValueError(
                f"payload shape {states.shape} does not match header "
                f"(N={n}, steps={steps})"
            )
        states.setflags(write=False)
        return Trajectory(states=states, seed=seed)


def save_lag_matrices(lag: LagMatrices, f0_path: "str | Path",
                      f1_path: "str | Path") -> None:
    for path, payload in ((f0_path, lag.f0_sum), (f1_path, lag.f1_sum)):
        _write_rows(path, payload, f"count={lag.count}")


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value).replace("'", "")  # "inf", "-inf", "nan"
    if isinstance(value, np.floating):
        return _jsonable(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(payload: dict, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_estimate_report(report: EstimateReport, json_path: "str | Path",
                         matrix_path: "str | Path") -> None:
    """Write the estimate matrix as CSV and its metadata as JSON."""
    save_matrix(report.A_hat, matrix_path)
    payload = {
        "estimator_kind": report.estimator_kind,
        "n_samples": report.n_samples,
        "cond_F0": _jsonable(report.cond_F0),
        "observed_set": list(report.observed_set)
        if report.observed_set is not None else None,
        "matrix_file": Path(matrix_path).name,
    }
    _write_json(payload, json_path)


def save_recovery_metrics(metrics: RecoveryMetrics, path: "str | Path") -> None:
    payload = {k: _jsonable(v) for k, v in dataclasses.asdict(metrics).items()}
    _write_json(payload, path)


def save_assumption_report(report: AssumptionReport, path: "str | Path") -> None:
    payload = {k: _jsonable(v) for k, v in dataclasses.asdict(report).items()}
    payload["kappa_stable"] = report.kappa_stable
    _write_json(payload, path)


def save_profile(profile: SortedProfile, path: "str | Path") -> None:
    lines = ["slot,true,estimate"]
    lines += [
        f"{slot},{true:.17g},{est:.17g}" for slot, true, est in profile.rows()
    ]
    Path(path).write_text("\n".join(lines) + "\n")

"""Combination-matrix estimators.

The primary estimator solves the generalized regression identity
``A_hat @ F0 = F1`` built from the weighted lag moments; the raw-moment
Granger, correlation and precision estimators serve as linear baselines.
All inversions go through linear solves (never explicit inverses) and are
guarded by a condition-number limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lagmoments
from .dynamics import NonlinearityTriple, Trajectory
from .errors import ConfigError, NearSingularError, SingularMatrixError
from .lagmoments import WeightingConfig

#: Estimators abort when the matrix to invert is worse-conditioned than this.
DEFAULT_COND_LIMIT = 1e12

#: kind -> (partial, call taking the keywords of :func:`run_estimator`).  A
#: call looks its estimator up when it runs, not when the table is built, so
#: a patched module attribute (a tracer's or a test's) reaches every dispatch.
_TABLE = {
    "egg": (False, lambda traj, triple, config, cond_limit, **_:
            egg_from_trajectory(traj, triple, config, cond_limit)),
    "granger": (False, lambda traj, cond_limit, **_:
                granger_estimate(traj, cond_limit)),
    "correlation": (False, lambda traj, **_: correlation_estimate(traj)),
    "precision": (False, lambda traj, cond_limit, **_:
                  precision_estimate(traj, cond_limit)),
    "egg_partial": (True, lambda traj, observed, **rest:
                    partial_estimate(traj, observed, "egg", **rest)),
    "granger_partial": (True, lambda traj, observed, **rest:
                        partial_estimate(traj, observed, "granger", **rest)),
    "least_squares": (False, lambda traj, triple, config, **_:
                      least_squares_estimate(traj, triple, config)),
}

ESTIMATOR_KINDS = tuple(_TABLE)
_PARTIAL_KINDS = tuple(kind for kind, (partial, _) in _TABLE.items() if partial)


def _check_kinds(kinds: Sequence, observed, key: str = "estimators") -> None:
    """Reject an unknown kind, or a partial kind without an observed set."""
    for kind in kinds:
        if kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"{key}: unknown kind {kind!r}")
        if kind in _PARTIAL_KINDS and observed is None:
            raise ConfigError(f"{key}: partial estimation requires observed_set")


def _check_cond_limit(cond_limit: float) -> None:
    """Reject a condition-number limit that is not a number above zero."""
    if not cond_limit > 0:
        raise ConfigError(f"cond_limit: must be > 0, got {cond_limit!r}")


def run_estimator(kind: str, traj: Trajectory, triple: NonlinearityTriple,
                  config: WeightingConfig | None = None,
                  observed: Sequence[int] | None = None,
                  cond_limit: float = DEFAULT_COND_LIMIT) -> EstimateReport:
    """Run estimator ``kind``; partial kinds estimate on the ``observed`` nodes.

    An unknown kind, a partial kind without ``observed``, or a ``cond_limit``
    that is not above zero (NaN included) is a ConfigError.
    """
    _check_kinds((kind,), observed)
    _check_cond_limit(cond_limit)
    return _TABLE[kind][1](traj=traj, triple=triple, config=config,
                           observed=observed, cond_limit=cond_limit)


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's output.

    ``cond_F0`` is the condition number of the matrix that was inverted
    (None for estimators that invert nothing).  ``observed_set`` lists the
    original node indices when the estimate covers a subnetwork.
    """

    A_hat: np.ndarray
    estimator_kind: str
    n_samples: int
    cond_F0: float | None = None
    observed_set: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_kinds((self.estimator_kind,), self.observed_set, "estimator_kind")
        a = np.asarray(self.A_hat, dtype=float).copy()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A_hat must be square, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "A_hat", a)
        if self.observed_set is not None:
            object.__setattr__(
                self, "observed_set", tuple(int(v) for v in self.observed_set)
            )


def _solve_right(numerator: np.ndarray, denominator: np.ndarray,
                 cond_limit: float, what: str) -> tuple[np.ndarray, float]:
    """Solve ``X @ denominator = numerator`` with a conditioning guard."""
    cond = float(np.linalg.cond(denominator))
    if not np.isfinite(cond):
        raise SingularMatrixError(f"{what} is exactly singular")
    if cond > cond_limit:
        raise NearSingularError(f"{what} is too ill-conditioned to invert", cond)
    try:
        solution = np.linalg.solve(denominator.T, numerator.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{what} is singular") from exc
    return solution, cond


def egg_estimate(f0_hat: np.ndarray, f1_hat: np.ndarray,
                 cond_limit: float = DEFAULT_COND_LIMIT,
                 n_samples: int = 0) -> EstimateReport:
    """Estimate the combination matrix from finalized lag moments.

    Solves ``A_hat @ F0 = F1``.  ``f0_hat`` must be symmetric up to
    rounding; a condition number beyond ``cond_limit`` aborts with a
    near-singular error carrying the measured value.
    """
    f0 = np.asarray(f0_hat, dtype=float)
    f1 = np.asarray(f1_hat, dtype=float)
    if f0.shape != f1.shape or f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
        raise ValueError(
            f"lag moments must be square and matching, got {f0.shape} and {f1.shape}"
        )
    skew = np.linalg.norm(f0 - f0.T)
    if skew > 1e-8 * max(1.0, np.linalg.norm(f0)):
        raise ValueError("f0_hat is not symmetric (asymmetry beyond rounding)")
    a_hat, cond = _solve_right(f1, f0, cond_limit, "zero-lag moment matrix")
    return EstimateReport(
        A_hat=a_hat, estimator_kind="egg", n_samples=n_samples, cond_F0=cond,
    )


def egg_from_trajectory(traj: Trajectory, triple: NonlinearityTriple,
                        config: WeightingConfig | None = None,
                        cond_limit: float = DEFAULT_COND_LIMIT) -> EstimateReport:
    """Accumulate lag moments over a trajectory and run :func:`egg_estimate`."""
    if triple is None:
        raise ValueError("egg estimation requires the nonlinearity triple")
    config = config or WeightingConfig()
    lag = lagmoments.from_trajectory(traj, triple, config)
    f0_hat, f1_hat = lagmoments.finalize(lag)
    return egg_estimate(f0_hat, f1_hat, cond_limit=cond_limit,
                        n_samples=lag.count)


def granger_estimate(traj: Trajectory,
                     cond_limit: float = DEFAULT_COND_LIMIT) -> EstimateReport:
    """Linear one-lag regression on raw (non-centred) state moments."""
    if traj.n_steps < 1:
        raise ValueError("granger_estimate needs at least one step")
    n = traj.n_steps
    r0, r1 = lagmoments._moment_sums(traj.states, n)
    a_hat, cond = _solve_right(r1 / n, r0 / n, cond_limit,
                               "zero-lag state moment matrix")
    return EstimateReport(
        A_hat=a_hat, estimator_kind="granger", n_samples=n, cond_F0=cond,
    )


def correlation_estimate(traj: Trajectory) -> EstimateReport:
    """Raw zero-lag moment matrix used directly as the estimate."""
    if traj.n_steps < 1:
        raise ValueError("correlation_estimate needs at least one step")
    n = traj.n_steps
    r0, _ = lagmoments._moment_sums(traj.states, n, cross=False)
    return EstimateReport(
        A_hat=r0 / n, estimator_kind="correlation", n_samples=n, cond_F0=None,
    )


def precision_estimate(traj: Trajectory,
                       cond_limit: float = DEFAULT_COND_LIMIT) -> EstimateReport:
    """Inverse of the raw zero-lag moment matrix."""
    if traj.n_steps < 1:
        raise ValueError("precision_estimate needs at least one step")
    n = traj.n_steps
    r0, _ = lagmoments._moment_sums(traj.states, n, cross=False)
    a_hat, cond = _solve_right(np.eye(traj.n_nodes), r0 / n, cond_limit,
                               "zero-lag state moment matrix")
    return EstimateReport(
        A_hat=a_hat, estimator_kind="precision", n_samples=n, cond_F0=cond,
    )


def least_squares_estimate(traj: Trajectory, triple: NonlinearityTriple,
                           config: WeightingConfig | None = None) -> EstimateReport:
    """Direct least-squares fit of the weighted one-step regression.

    Stacks the per-step problem ``omega(y[k]) * sigma^{-1}(y[k+1]) ~=
    B h(y[k])`` and solves it with an SVD-based least-squares routine,
    bypassing the lag-moment accumulator entirely.  Singular base states in
    exact mode contribute a zero target row, matching the accumulator's
    drop-the-step convention.  A rank-deficient design aborts with a
    near-singular error.
    """
    config = config or WeightingConfig()
    n = lagmoments._pair_count(traj, triple, None)
    if n < 1:
        raise ValueError("least_squares_estimate needs at least one step")
    targets, design = lagmoments._onelag_terms(triple, config, traj.states, 0, n)
    coeffs, _, rank, singular_values = np.linalg.lstsq(design, targets, rcond=None)
    if rank < traj.n_nodes:
        cond = float(singular_values[0] / singular_values[-1]) \
            if singular_values[-1] > 0 else float("inf")
        raise NearSingularError("least-squares design is rank deficient", cond)
    cond_f0 = float((singular_values[0] / singular_values[-1]) ** 2)
    return EstimateReport(
        A_hat=coeffs.T, estimator_kind="least_squares", n_samples=n,
        cond_F0=cond_f0,
    )


def partial_estimate(traj: Trajectory, observed: Sequence[int], kind: str,
                     triple: NonlinearityTriple | None = None,
                     config: WeightingConfig | None = None,
                     cond_limit: float = DEFAULT_COND_LIMIT) -> EstimateReport:
    """Estimate the subnetwork matrix from an observed subset of nodes.

    Only the observed columns of the trajectory are read: the states are
    projected onto ``observed`` first and all moments are formed in the
    reduced coordinates.  ``kind`` selects the weighted ("egg") or raw
    ("granger") regression.
    """
    if f"{kind}_partial" not in _PARTIAL_KINDS:
        raise ValueError(f"kind {kind!r} has no partial form in {_PARTIAL_KINDS}")
    if observed is None:
        raise ValueError("observed node set is required for partial estimation")
    observed = sorted(int(v) for v in observed)
    if not observed:
        raise ValueError("observed set must be non-empty")
    if len(set(observed)) != len(observed):
        raise ValueError("observed set must contain distinct nodes")
    if observed[0] < 0 or observed[-1] >= traj.n_nodes:
        raise ValueError(
            f"observed nodes must lie in [0, {traj.n_nodes}), got {observed}"
        )
    # np.take, unlike traj.states[:, observed], returns an array that owns
    # its data, so the Trajectory keeps it without a copy.
    columns = np.take(traj.states, observed, axis=1)
    columns.setflags(write=False)
    sub_traj = Trajectory(states=columns, seed=traj.seed)
    report = _TABLE[kind][1](
        traj=sub_traj, triple=None if triple is None else triple.restrict(observed),
        config=config, observed=None, cond_limit=cond_limit,
    )
    return EstimateReport(
        A_hat=report.A_hat, estimator_kind=f"{kind}_partial",
        n_samples=report.n_samples, cond_F0=report.cond_F0,
        observed_set=tuple(observed),
    )

"""Combination-matrix estimators.

The primary estimator solves the generalized regression identity
``A_hat @ F0 = F1`` built from the weighted lag moments; the raw-moment
Granger, correlation and precision estimators serve as linear baselines.
All inversions go through linear solves (never explicit inverses) and are
refused, with a :class:`NearSingularError`, when the matrix's condition
number is not at most :data:`COND_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lagmoments
from .dynamics import NonlinearityTriple, Trajectory
from .errors import ConfigError, NearSingularError, NumericalError
from .lagmoments import WeightingConfig

#: Estimators abort when the matrix to invert is worse-conditioned than this.
COND_LIMIT = 1e12

#: Pairs per QR row block of :func:`least_squares_estimate`.  NumPy's
#: ``qr`` copies its whole input twice, so this bounds those copies.
_QR_BLOCK = 1024

#: kind -> (partial, call taking the keywords ``traj``, ``triple``,
#: ``config``, ``observed`` and ``sums``), as
#: :func:`granet.experiments.run_estimators` makes it.  ``sums`` are the raw
#: moment sums of ``traj`` that the stage walked once for the kinds in
#: :data:`_RAW_KINDS`, or None; a partial kind reads other columns and never
#: takes them.  A call looks its estimator up when it runs, not when the
#: table is built, so a patched module attribute (a tracer's or a test's)
#: reaches every dispatch.
_TABLE = {
    "egg": (False, lambda traj, triple, config, **_:
            egg_from_trajectory(traj, triple, config)),
    "granger": (False, lambda traj, sums=None, **_:
                granger_estimate(traj, sums=sums)),
    "correlation": (False, lambda traj, sums=None, **_:
                    correlation_estimate(traj, sums=sums)),
    "precision": (False, lambda traj, sums=None, **_:
                  precision_estimate(traj, sums=sums)),
    "egg_partial": (True, lambda traj, observed, sums=None, **rest:
                    partial_estimate(traj, observed, "egg", **rest)),
    "granger_partial": (True, lambda traj, observed, sums=None, **rest:
                        partial_estimate(traj, observed, "granger", **rest)),
    "least_squares": (False, lambda traj, triple, config, **_:
                      least_squares_estimate(traj, triple, config)),
}

#: The kinds that read the raw moment sums; only granger reads the cross sum.
_RAW_KINDS = ("granger", "correlation", "precision")

ESTIMATOR_KINDS = tuple(_TABLE)
_PARTIAL_KINDS = tuple(kind for kind, (partial, _) in _TABLE.items() if partial)


def _check_kinds(kinds: Sequence, observed, key: str = "estimators") -> None:
    """Reject an unknown or repeated kind, or a partial kind without an
    observed set."""
    for index, kind in enumerate(kinds):
        if kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"{key}: unknown kind {kind!r}")
        if kind in kinds[:index]:
            raise ConfigError(f"{key}: kind {kind!r} is listed more than once")
        if kind in _PARTIAL_KINDS and observed is None:
            raise ConfigError(f"{key}: partial estimation requires observed_set")


def _check_observed(observed, n_nodes: int) -> list[int] | None:
    """The observed set sorted, or None when there is none.

    A set that is not a non-empty sequence of distinct integer nodes in
    ``[0, n_nodes)`` is a ConfigError, whatever estimator runs.
    """
    if observed is None:
        return None
    if isinstance(observed, str) or not (isinstance(observed, Sequence)
                                         and observed):
        raise ConfigError("observed_set: must be a non-empty list or null")
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and 0 <= v < n_nodes for v in observed):
        raise ConfigError(
            f"observed_set: nodes must be integers in range [0, {n_nodes}), "
            f"got {list(observed)}"
        )
    if len(set(observed)) != len(observed):
        raise ConfigError("observed_set: nodes must be distinct")
    return sorted(int(v) for v in observed)


def _check_steps(traj: Trajectory) -> None:
    """Reject a trajectory with no ``(y[k], y[k+1])`` pair to estimate from."""
    if traj.n_steps < 1:
        raise ValueError("estimation needs at least one step, "
                         "got a trajectory of 0 steps")


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's output.

    ``cond_F0`` is the condition number of the matrix that was inverted
    (None for estimators that invert nothing).  ``observed_set`` lists the
    original node indices when the estimate covers a subnetwork.  An
    ``A_hat`` with a non-finite entry, as an overflowed weight gives, is a
    :class:`NumericalError`.
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
        if not np.isfinite(a).all():
            row, col = np.argwhere(~np.isfinite(a))[0]
            raise NumericalError(f"estimate has a non-finite entry "
                                 f"{float(a[row, col])!r} at row {row}, "
                                 f"column {col}")
        a.setflags(write=False)
        object.__setattr__(self, "A_hat", a)
        if self.observed_set is not None:
            object.__setattr__(
                self, "observed_set", tuple(int(v) for v in self.observed_set)
            )


def _solve_right(numerator: np.ndarray, denominator: np.ndarray,
                 what: str) -> tuple[np.ndarray, float]:
    """Solve ``X @ denominator = numerator``, refusing a condition number
    that is not at most :data:`COND_LIMIT` (``inf`` and NaN included)."""
    try:
        cond = float(np.linalg.cond(denominator))
    except np.linalg.LinAlgError:  # the SVD fails on a NaN entry
        cond = float("nan")
    if not cond <= COND_LIMIT:
        raise NearSingularError(f"{what} is too ill-conditioned to invert", cond)
    try:
        solution = np.linalg.solve(denominator.T, numerator.T).T
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"{what} is too ill-conditioned to invert",
                                float("inf")) from exc
    return solution, cond


def egg_estimate(f0_hat: np.ndarray, f1_hat: np.ndarray,
                 n_samples: int = 0) -> EstimateReport:
    """Estimate the combination matrix from finalized lag moments.

    Solves ``A_hat @ F0 = F1``.  ``f0_hat`` must be symmetric up to
    rounding; a condition number beyond :data:`COND_LIMIT` aborts with a
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
    a_hat, cond = _solve_right(f1, f0, "zero-lag moment matrix")
    return EstimateReport(
        A_hat=a_hat, estimator_kind="egg", n_samples=n_samples, cond_F0=cond,
    )


def egg_from_trajectory(traj: Trajectory, triple: NonlinearityTriple,
                        config: WeightingConfig | None = None) -> EstimateReport:
    """Accumulate lag moments over a trajectory and run :func:`egg_estimate`."""
    if triple is None:
        raise ValueError("egg estimation requires the nonlinearity triple")
    _check_steps(traj)
    config = config or WeightingConfig()
    lag = lagmoments.from_trajectory(traj, triple, config)
    f0_hat, f1_hat = lagmoments.finalize(lag)
    return egg_estimate(f0_hat, f1_hat, n_samples=lag.count)


def granger_estimate(traj: Trajectory, *, sums=None) -> EstimateReport:
    """Linear one-lag regression on raw (non-centred) state moments.

    ``sums``, when given, is ``(sum y[k] y[k]^T, sum y[k+1] y[k]^T)`` over
    all of ``traj``'s pairs, as :func:`lagmoments._moment_sums` forms them
    with the cross sum; they are read, never written.  Without them
    ``traj`` is walked here.
    """
    _check_steps(traj)
    n = traj.n_steps
    r0, r1 = sums or lagmoments._moment_sums(traj.states, n)
    a_hat, cond = _solve_right(r1 / n, r0 / n, "zero-lag state moment matrix")
    return EstimateReport(
        A_hat=a_hat, estimator_kind="granger", n_samples=n, cond_F0=cond,
    )


def correlation_estimate(traj: Trajectory, *, sums=None) -> EstimateReport:
    """Raw zero-lag moment matrix used directly as the estimate.

    ``sums``, when given, is ``(sum y[k] y[k]^T, cross)`` over all of
    ``traj``'s pairs, as :func:`lagmoments._moment_sums` forms them, with a
    cross sum of None when none was formed; only the first is read, and
    never written.  Without it ``traj`` is walked here.
    """
    _check_steps(traj)
    n = traj.n_steps
    r0, _ = sums or lagmoments._moment_sums(traj.states, n, cross=False)
    return EstimateReport(
        A_hat=r0 / n, estimator_kind="correlation", n_samples=n, cond_F0=None,
    )


def precision_estimate(traj: Trajectory, *, sums=None) -> EstimateReport:
    """Inverse of the raw zero-lag moment matrix.

    ``sums`` is read as in :func:`correlation_estimate`.
    """
    _check_steps(traj)
    n = traj.n_steps
    r0, _ = sums or lagmoments._moment_sums(traj.states, n, cross=False)
    a_hat, cond = _solve_right(np.eye(traj.n_nodes), r0 / n,
                               "zero-lag state moment matrix")
    return EstimateReport(
        A_hat=a_hat, estimator_kind="precision", n_samples=n, cond_F0=cond,
    )


def least_squares_estimate(traj: Trajectory, triple: NonlinearityTriple,
                           config: WeightingConfig | None = None) -> EstimateReport:
    """Direct least-squares fit of the weighted one-step regression.

    Fits ``omega(y[k]) * sigma^{-1}(y[k+1]) ~= B h(y[k])`` without the
    lag-moment accumulator or normal equations, so it checks the moment
    solve independently.  Each block of :data:`_QR_BLOCK` (1024) pairs of
    ``[h | target]`` rows comes from :func:`lagmoments._onelag_terms` (zero
    targets at singular base states, epochs named in domain errors) and is
    QR-factored together with the triangular factor of the rows before it.
    So, whatever the trajectory's length, the fit holds one
    ``(2N + 1024, 2N)`` buffer and ``qr`` two copies of it: 2.7 MB at 50
    nodes, less than one ``(8192, N)`` chunk buffer of
    :func:`lagmoments.from_trajectory`.  ``lstsq`` then solves
    ``R11 B^T = R12`` with the rank rule it would apply to the whole
    design; ``R11`` has the design's singular values, whose squared ratio
    is ``cond_F0`` (``inf`` when the smallest is 0, as with fewer pairs
    than nodes).  The fit agrees with ``lstsq`` on the whole design to
    1e-12 relative, not bitwise.  A ``cond_F0`` beyond :data:`COND_LIMIT`,
    as every rank-deficient design has, aborts with a near-singular error.
    """
    _check_steps(traj)
    config = config or WeightingConfig()
    n = lagmoments._pair_count(traj, triple, None)
    width = traj.n_nodes
    # Rows [0, filled) hold the factor of the rows seen so far and the next
    # block is written below them.  No row at or beyond the pair count is
    # ever written, so with fewer pairs than nodes R11 ends in zero rows.
    stacked = np.zeros((2 * width + min(n, _QR_BLOCK), 2 * width))
    filled = 0
    for start in range(0, n, _QR_BLOCK):
        stop = min(start + _QR_BLOCK, n)
        end = filled + stop - start
        lagmoments._onelag_terms(triple, config, traj.states, start, stop,
                                 (stacked[filled:end, width:],
                                  stacked[filled:end, :width]))
        factor = np.linalg.qr(stacked[:end], mode="r")
        filled = len(factor)
        stacked[:filled] = factor
    coeffs, _, _, singular_values = np.linalg.lstsq(
        stacked[:width, :width], stacked[:width, width:],
        rcond=np.finfo(float).eps * max(n, width))
    smallest = singular_values[-1]
    cond_f0 = float((singular_values[0] / smallest) ** 2) if smallest > 0 \
        else float("inf")
    if not cond_f0 <= COND_LIMIT:
        raise NearSingularError(
            "least-squares design is too ill-conditioned to solve", cond_f0)
    return EstimateReport(
        A_hat=coeffs.T, estimator_kind="least_squares", n_samples=n,
        cond_F0=cond_f0,
    )


def partial_estimate(traj: Trajectory, observed: Sequence[int], kind: str,
                     triple: NonlinearityTriple | None = None,
                     config: WeightingConfig | None = None) -> EstimateReport:
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
    observed = _check_observed(observed, traj.n_nodes)
    # np.take, unlike traj.states[:, observed], returns an array that owns
    # its data, so the Trajectory keeps it without a copy.
    columns = np.take(traj.states, observed, axis=1)
    columns.setflags(write=False)
    sub_traj = Trajectory(states=columns, seed=traj.seed)
    report = _TABLE[kind][1](
        traj=sub_traj, triple=None if triple is None else triple.restrict(observed),
        config=config, observed=None,
    )
    return EstimateReport(
        A_hat=report.A_hat, estimator_kind=f"{kind}_partial",
        n_samples=report.n_samples, cond_F0=report.cond_F0,
        observed_set=tuple(observed),
    )

"""Edge classification, scoring and assumption diagnostics.

Off-diagonal entries of an estimated combination matrix are split into a
low and a high group by an exact one-dimensional 2-means; the high group is
declared to be the edge set.  Scoring compares that edge set with the
off-diagonal support of the true matrix and summarises how well the raw
entries separate.  The stability and assumption checkers evaluate the
sufficient conditions under which the weighted regression estimator is
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (_PQ_TOL, NonlinearityTriple, Trajectory,
                       resolve_exponents)
from .errors import ConfigError, DegenerateClusterError
from .graphs import CombinationMatrix, DirectedGraph, support_offdiagonal
from .lagmoments import WeightingConfig, omega_tail_index
from .nonlinearities import Nonlinearity

# A weight-norm tail exponent of 1 is where the norms lose their mean and
# the one-lag running average stops converging; the critical value sits a
# margin above so Hill-estimator noise cannot hide a genuine divergence.
OMEGA_TAIL_CRITICAL = 1.1

#: Values up to this magnitude are squared and summed as they are; larger
#: ones are first divided by the largest, so the sums cannot overflow.
_SQUARE_SAFE = 1e150


def _overflow_scale(values: np.ndarray) -> float:
    """The largest magnitude in ``values`` when it is beyond
    ``_SQUARE_SAFE``, else 1.0, which leaves the values exact when divided
    by."""
    top = float(np.abs(values).max()) if values.size else 0.0
    return top if top > _SQUARE_SAFE else 1.0


def kmeans2_1d(values: Sequence[float]) -> float:
    """Threshold of the exact two-cluster 1-d k-means split.

    After sorting, an optimal 2-means partition is contiguous, so every
    split point is evaluated and the one minimising the within-cluster sum
    of squared errors is taken (lowest split index on ties).  The returned
    threshold is the midpoint of its boundary pair.  Fewer than two values,
    or all-equal input, admit no two-group split and raise
    :class:`DegenerateClusterError`; so does input whose spread is at the
    float rounding scale, where any split would be noise-driven.  Input beyond ``_SQUARE_SAFE`` is split at unit
    scale (see :func:`_overflow_scale`); the optimal split does not change
    under a positive scaling.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = v.size
    if n < 2:
        raise DegenerateClusterError(
            f"need at least two values to split, got {n}")
    spread = v[-1] - v[0]
    if spread <= 64.0 * np.finfo(float).eps * max(1.0, abs(v[0]), abs(v[-1])):
        raise DegenerateClusterError(
            "values are equal to within floating-point noise; "
            "no meaningful two-group split exists"
        )
    scale = _overflow_scale(v)
    u = v / scale
    sums = np.cumsum(u)
    sq_sums = np.cumsum(u * u)
    left_count = np.arange(1, n)
    left_sum = sums[:-1]
    right_sum = sums[-1] - left_sum
    right_count = n - left_count
    sse = (
        sq_sums[:-1] - left_sum ** 2 / left_count
        + (sq_sums[-1] - sq_sums[:-1]) - right_sum ** 2 / right_count
    )
    split = int(np.argmin(sse))
    return float((v[split] + v[split + 1]) / 2.0)


def classify_edges(a_hat: np.ndarray) -> DirectedGraph:
    """Cluster off-diagonal entries and declare the high group edges.

    The raw (signed) entries are split by :func:`kmeans2_1d`; slots above
    the threshold become edges.
    """
    a = np.asarray(a_hat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    off_mask = ~np.eye(m, dtype=bool)
    threshold = kmeans2_1d(a[off_mask])
    rows, cols = np.nonzero(off_mask & (a > threshold))
    return DirectedGraph(
        n_nodes=m,
        edges=frozenset(zip(rows.tolist(), cols.tolist())),
    )


@dataclass(frozen=True)
class RecoveryMetrics:
    """Support-recovery quality of one estimate against the truth.

    ``identifiability_gap`` is the smallest estimated value over true-edge
    slots minus the largest over true-non-edge slots; positive means a
    single threshold separates them perfectly.
    """

    false_edges: int
    missed_edges: int
    total_offdiag: int
    edge_error_rate: float
    matrix_rel_error: float
    identifiability_gap: float


def score(a_hat: np.ndarray, a_true: np.ndarray) -> RecoveryMetrics:
    """Score an estimate against the true combination matrix.

    The recovered graph is :func:`classify_edges` of ``a_hat``; the true
    graph is the off-diagonal support of ``a_true``.  The matrix error is
    the relative Frobenius error over off-diagonal slots only; diagonals
    are never scored.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    a_true = np.asarray(a_true, dtype=float)
    if a_hat.shape != a_true.shape:
        raise ValueError(f"matrix shape mismatch: estimate {a_hat.shape}, "
                         f"truth {a_true.shape}")
    rec = classify_edges(a_hat).adjacency()
    tru = support_offdiagonal(a_true).adjacency()
    n = tru.shape[0]
    off = ~np.eye(n, dtype=bool)
    false_edges = int(np.count_nonzero(rec & ~tru))
    missed_edges = int(np.count_nonzero(tru & ~rec))
    total = n * (n - 1)
    diff = (a_hat - a_true)[off]
    denom = np.linalg.norm(a_true[off])
    scale = _overflow_scale(diff)
    rel_error = (float(np.linalg.norm(diff / scale)) * scale / float(denom)
                 if denom > 0 else float("nan"))
    edge_vals = a_hat[tru]
    non_edge_vals = a_hat[off & ~tru]
    if edge_vals.size and non_edge_vals.size:
        gap = float(edge_vals.min() - non_edge_vals.max())
    else:
        gap = float("nan")
    return RecoveryMetrics(
        false_edges=false_edges,
        missed_edges=missed_edges,
        total_offdiag=total,
        edge_error_rate=(false_edges + missed_edges) / total,
        matrix_rel_error=rel_error,
        identifiability_gap=gap,
    )


def sorted_entry_profile(a_true: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
    """The ``(N(N-1), 3)`` float64 rows of slot id, true value and estimate
    of each off-diagonal entry, sorted stably by true value.  Slot ids number
    the off-diagonal slots in row-major order, the same across estimators."""
    a_true = np.asarray(a_true, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    if a_true.shape != a_hat.shape or a_true.ndim != 2 \
            or a_true.shape[0] != a_true.shape[1]:
        raise ValueError(f"matrices must be square and matching, got "
                         f"{a_true.shape} and {a_hat.shape}")
    off = ~np.eye(a_true.shape[0], dtype=bool)
    true_vals = a_true[off]
    order = np.argsort(true_vals, kind="stable")
    return np.column_stack((order, true_vals[order], a_hat[off][order]))


@dataclass(frozen=True)
class AssumptionReport:
    """Static and empirical diagnostics for estimator consistency.

    The static side reports the stability constant ``kappa_s`` and which
    growth-exponent branch produced it; ``kappa_s < 1`` is the sufficient
    stability condition.  The empirical side reports the conditioning of
    the zero-lag moment matrix and whether the running second moment of the
    reciprocal weights stayed bounded.  Fields not computed by a given
    checker are ``None``.
    """

    kappa_s: float | None = None
    kappa_branch: str | None = None
    f0_condition: float | None = None
    omega_moment_flag: bool | None = None
    omega_tail_index: float | None = None

    @property
    def kappa_stable(self) -> bool | None:
        if self.kappa_s is None:
            return None
        return self.kappa_s < 1.0

    def merged_with(self, other: "AssumptionReport") -> "AssumptionReport":
        """Combine two reports: every non-None field of ``other`` wins."""
        updates = {k: v for k, v in vars(other).items() if v is not None}
        return replace(self, **updates)


def _family_envelope(fns: Sequence[Nonlinearity], name: str) -> tuple[float, float]:
    alphas, betas = [], []
    for node, fn in enumerate(fns):
        if fn.envelope is None:
            raise ConfigError(
                f"{name} component at node {node} ({fn.describe()}) declares "
                "no growth envelope; stability cannot be assessed"
            )
        alphas.append(fn.envelope[0])
        betas.append(fn.envelope[1])
    return max(alphas), max(betas)


def stability_constant(triple: NonlinearityTriple,
                       matrix: CombinationMatrix) -> AssumptionReport:
    """Stability constant ``kappa_s`` of a configured system.

    With family envelopes ``|sigma(y)| <= alpha_s |y| + beta_s``,
    ``|g(y)| <= alpha_g |y|^p + beta_g`` and ``|h(y)| <= alpha_h |y|^q +
    beta_h`` (componentwise, aggregated by maxima), the constant is

    - ``alpha_s * alpha_g * alpha_h * ||A||``  when ``p > 0`` and ``q > 0``,
    - ``alpha_s * alpha_g * beta_h  * ||A||``  when ``p = 1`` and ``q = 0``,
    - ``alpha_s * alpha_h * beta_g  * ||A||``  when ``p = 0`` and ``q = 1``.

    ``||A||`` is the infinity norm, the largest absolute row sum.  The
    matrix's ``rho`` bounds it up to rounding (see
    :class:`CombinationMatrix`) and stands in for it, so the constant of a
    uniform averaging matrix carries no summation rounding.  ``kappa_s <
    1`` is sufficient for the state recursion to forget its initial
    condition.  A sigma envelope declared with exponent ``e < 1`` is first
    relaxed to exponent one via ``|y|^e <= |y| + 1``.
    """
    norm_a = float(matrix.rho)
    alpha_s, beta_s = _family_envelope(triple.sigma, "sigma")
    sigma_roles = {fn.exponent_role for fn in triple.sigma
                   if fn.exponent_role is not None}
    if sigma_roles and sigma_roles != {1.0}:
        beta_s = beta_s + alpha_s
    alpha_g, beta_g = _family_envelope(triple.g, "g")
    alpha_h, beta_h = _family_envelope(triple.h, "h")
    p, q, _ = resolve_exponents(triple.g, triple.h)
    if p > 0 and q > 0:
        kappa = alpha_s * alpha_g * alpha_h * norm_a
        branch = "p>0,q>0"
    elif abs(p - 1.0) <= _PQ_TOL:
        kappa = alpha_s * alpha_g * beta_h * norm_a
        branch = "p=1,q=0"
    else:
        kappa = alpha_s * alpha_h * beta_g * norm_a
        branch = "p=0,q=1"
    return AssumptionReport(kappa_s=float(kappa), kappa_branch=branch)


def assumption_report(traj: Trajectory, triple: NonlinearityTriple,
                      config: WeightingConfig,
                      f0_hat: np.ndarray | None = None) -> AssumptionReport:
    """Empirical diagnostics from a realised trajectory.

    ``omega_moment_flag`` is False when the fitted tail exponent of the
    per-epoch squared weight norms ``||omega(y[k])||^2`` falls at or below
    ``OMEGA_TAIL_CRITICAL``.  Exponent one is the boundary where the norms
    lose their mean and the running average inside the one-lag functional
    stops converging — the blow-up failure mode — so the threshold sits
    just above it to absorb sampling error.  The exponent itself is kept in
    ``omega_tail_index``.  ``f0_condition`` is the condition number of the
    supplied zero-lag moment matrix.
    """
    if traj.n_steps < 2:
        raise ValueError("assumption_report needs at least two steps")
    tail = omega_tail_index(traj, triple, config)
    return AssumptionReport(
        f0_condition=float(np.linalg.cond(f0_hat)) if f0_hat is not None else None,
        omega_moment_flag=not tail <= OMEGA_TAIL_CRITICAL,
        omega_tail_index=tail,
    )

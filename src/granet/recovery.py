"""Edge classification, scoring and assumption diagnostics.

Off-diagonal entries of an estimated combination matrix are split into a
low and a high group by an exact one-dimensional 2-means; the high group is
declared to be the edge set.  Scoring compares the recovered support with
the ground truth and summarises how well the raw entries separate.  The
stability and assumption checkers evaluate the sufficient conditions under
which the weighted regression estimator is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (_PQ_TOL, NonlinearityTriple, Trajectory,
                       resolve_exponents)
from .errors import ConfigError, DegenerateClusterError
from .graphs import CombinationMatrix, DirectedGraph
from .lagmoments import WeightingConfig, omega_tail_index
from .nonlinearities import Nonlinearity

# A weight-norm tail exponent of 1 is where the norms lose their mean and
# the one-lag running average stops converging; the critical value sits a
# margin above so Hill-estimator noise cannot hide a genuine divergence.
OMEGA_TAIL_CRITICAL = 1.1


@dataclass(frozen=True)
class ClusterSplit:
    """An optimal two-group split of scalar values."""

    threshold: float
    low_centroid: float
    high_centroid: float
    within_sse: float


def kmeans2_1d(values: Sequence[float]) -> ClusterSplit:
    """Exact two-cluster 1-d k-means by contiguous-split enumeration.

    After sorting, an optimal 2-means partition is contiguous, so every
    split point is evaluated and the global within-cluster SSE minimiser
    returned (lowest split index on ties).  The threshold is the midpoint
    of the boundary pair.  Fewer than two values, or all-equal input, admit
    no two-group split and raise :class:`DegenerateClusterError`; so does
    input whose spread is at the float rounding scale, where any split
    would be noise-driven.
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
    sums = np.cumsum(v)
    sq_sums = np.cumsum(v * v)
    left_count = np.arange(1, n)
    left_sum = sums[:-1]
    right_sum = sums[-1] - left_sum
    right_count = n - left_count
    sse = (
        sq_sums[:-1] - left_sum ** 2 / left_count
        + (sq_sums[-1] - sq_sums[:-1]) - right_sum ** 2 / right_count
    )
    split = int(np.argmin(sse))
    low = v[:split + 1]
    high = v[split + 1:]
    return ClusterSplit(
        threshold=float((v[split] + v[split + 1]) / 2.0),
        low_centroid=float(low.mean()),
        high_centroid=float(high.mean()),
        within_sse=float(max(sse[split], 0.0)),
    )


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
    split = kmeans2_1d(a[off_mask])
    rows, cols = np.nonzero(off_mask & (a > split.threshold))
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


def score(recovered: DirectedGraph, truth: DirectedGraph,
          a_hat: np.ndarray, a_true: np.ndarray) -> RecoveryMetrics:
    """Compare a recovered graph and estimate against the ground truth.

    The matrix error is the relative Frobenius error over off-diagonal
    slots only; diagonals are never scored.
    """
    if recovered.n_nodes != truth.n_nodes:
        raise ValueError(
            f"graph size mismatch: recovered {recovered.n_nodes}, "
            f"truth {truth.n_nodes}"
        )
    n = truth.n_nodes
    a_hat = np.asarray(a_hat, dtype=float)
    a_true = np.asarray(a_true, dtype=float)
    if a_hat.shape != (n, n) or a_true.shape != (n, n):
        raise ValueError(
            f"matrices must be {n}x{n}, got {a_hat.shape} and {a_true.shape}"
        )
    rec = recovered.adjacency()
    tru = truth.adjacency()
    off = ~np.eye(n, dtype=bool)
    false_edges = int(np.count_nonzero(rec & ~tru & off))
    missed_edges = int(np.count_nonzero(~rec & tru & off))
    total = n * (n - 1)
    diff = (a_hat - a_true)[off]
    denom = np.linalg.norm(a_true[off])
    rel_error = float(np.linalg.norm(diff) / denom) if denom > 0 else float("nan")
    edge_vals = a_hat[tru & off]
    non_edge_vals = a_hat[~tru & off]
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


@dataclass(frozen=True)
class SortedProfile:
    """Off-diagonal entries sorted by true value, paired with estimates.

    ``slot_ids`` index the row-major enumeration of off-diagonal slots, so
    the same abscissa refers to the same matrix entry across estimators.
    """

    slot_ids: np.ndarray
    true_values: np.ndarray
    estimated_values: np.ndarray

    def rows(self):
        for s, t, e in zip(self.slot_ids, self.true_values, self.estimated_values):
            yield int(s), float(t), float(e)


def sorted_entry_profile(a_true: np.ndarray, a_hat: np.ndarray) -> SortedProfile:
    """Pair each off-diagonal slot's true and estimated values, sorted by truth."""
    a_true = np.asarray(a_true, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    if a_true.shape != a_hat.shape or a_true.ndim != 2 \
            or a_true.shape[0] != a_true.shape[1]:
        raise ValueError(
            f"matrices must be square and matching, got {a_true.shape} "
            f"and {a_hat.shape}"
        )
    off = ~np.eye(a_true.shape[0], dtype=bool)
    true_vals = a_true[off]
    est_vals = a_hat[off]
    order = np.argsort(true_vals, kind="stable")
    slots = np.arange(true_vals.size)
    return SortedProfile(
        slot_ids=slots[order],
        true_values=true_vals[order],
        estimated_values=est_vals[order],
    )


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
                       matrix: "CombinationMatrix | np.ndarray") -> AssumptionReport:
    """Stability constant ``kappa_s`` of a configured system.

    With family envelopes ``|sigma(y)| <= alpha_s |y| + beta_s``,
    ``|g(y)| <= alpha_g |y|^p + beta_g`` and ``|h(y)| <= alpha_h |y|^q +
    beta_h`` (componentwise, aggregated by maxima), the constant is

    - ``alpha_s * alpha_g * alpha_h * ||A||``  when ``p > 0`` and ``q > 0``,
    - ``alpha_s * alpha_g * beta_h  * ||A||``  when ``p = 1`` and ``q = 0``,
    - ``alpha_s * alpha_h * beta_g  * ||A||``  when ``p = 0`` and ``q = 1``.

    ``||A||`` is the infinity norm, the largest absolute row sum.
    ``kappa_s < 1`` is sufficient for the state recursion to forget its
    initial condition.  A sigma envelope declared with exponent ``e < 1``
    is first relaxed to exponent one via ``|y|^e <= |y| + 1``.
    """
    entries = matrix.entries if isinstance(matrix, CombinationMatrix) else \
        np.asarray(matrix, dtype=float)
    if isinstance(matrix, CombinationMatrix) and np.all(entries >= 0):
        # Non-negative rows sum to rho by construction, so the max
        # absolute row sum is rho without summation rounding.
        norm_a = float(matrix.rho)
    else:
        norm_a = float(np.max(np.abs(entries).sum(axis=1)))
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

"""Lag-moment accumulation for the weighted regression estimator.

For a trajectory ``y[0..n]`` the two empirical moments are

    F0(n) = (1/n) sum_k  h(y[k]) h(y[k])^T
    F1(n) = (1/n) sum_k  [ omega(y[k]) * sigma^{-1}(y[k+1]) ] h(y[k])^T * 1{y[k] not in Z}

with ``omega(y) = 1 / g(y)`` componentwise and ``Z`` the set of states at
which some ``g_i`` vanishes (numerically: is zero or subnormal, whose
reciprocal overflows or keeps no precision).  With exact weights
(``delta = 0``) a step whose base state lies in ``Z`` contributes to ``F0``
but its one-lag term is dropped; with ``delta > 0`` the reciprocal weight
is clamped near each root of ``g_i`` (constant on a ``delta``-neighbourhood,
equal to its boundary value) so no step is ever dropped.

The weighted one-lag target ``omega * sigma^{-1}`` is formed by one
kernel, :func:`_onelag_terms`, which also zeroes the rows of singular base
states.  A chunked pass allocates two chunk buffers once
(:func:`_chunk_buffers`) and writes every chunk into them in place; beyond
those it holds only what a nonlinearity's own kernel allocates.  Batch
moments come from one chunk reducer, :func:`_moment_sums`, fed either by
that kernel or, for the linear baselines, by raw state slices.
:func:`accumulate` forms one step's terms through the same kernel, as a
chunk of one pair, so it has no weighting code of its own, and adds their
two products to the sums.
All sums are plain (uncompensated): over 2e4 steps their relative error
stays near 1e-14, far inside every tolerance checked here.

With more than one CPU a pass of more than one chunk keeps a helper thread
(:mod:`granet._paired`): each chunk's terms are written as two row halves
into the same two buffers, the later half on the helper, and the chunk's
two matrix products run one on each thread.  Chunk boundaries and the order
of the sums do not move, so the sums are the same bits with or without the
helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._paired import _strict, paired
from .dynamics import NonlinearityTriple, Trajectory
from .errors import InvalidStateError, NumericalError

_BATCH_CHUNK = 8192

#: Size of the Hill fit in :func:`omega_tail_index`.
_TAIL_TOP_FRACTION = 0.01
_TAIL_MIN_TOP = 100

#: Sampling step of :func:`running_onelag_max`, in pairs.
_ONELAG_MAX_EVERY = 100

#: Under exact weights a state is singular when some ``|g_i|`` is below
#: this, the smallest normal float: zero or subnormal.
_G_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class WeightingConfig:
    """How reciprocal weights ``1/g_i`` are evaluated.

    delta : float
        Half-width of the clamped neighbourhood around each root of
        ``g_i``.  ``0`` gives exact weights: the raw reciprocal, with a
        state flagged singular when some ``g_i`` is zero or subnormal.  A
        positive ``delta`` clamps the weight near each root and never
        flags.
    """

    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")


def _check_regularizable(triple: NonlinearityTriple,
                         config: WeightingConfig) -> None:
    """Reject regularised weights for a g whose roots are not isolated.

    The clamp needs each root of each ``g_i`` as a point; exact weights
    need none.
    """
    if config.delta == 0.0:
        return
    for fn, *_ in triple.eval_g.runs:
        if fn.zeros is None:
            raise ValueError(f"{fn.describe()} has a non-isolated root set "
                             "and cannot be regularised")


def _regularized_weights(triple: NonlinearityTriple, config: WeightingConfig,
                         y: np.ndarray, weights: np.ndarray,
                         scratch: np.ndarray) -> None:
    """Write the clamped reciprocal weights of ``y`` into ``weights``.

    ``y`` has nodes on the last axis.  ``weights`` and ``scratch`` have its
    shape and overlap neither it nor each other; ``weights`` first holds
    the clamped states.
    """
    _check_regularizable(triple, config)
    delta = config.delta
    clamped = weights
    clamped[...] = y
    for fn, nodes, *_ in triple.eval_g.runs:
        if not fn.zeros:
            continue
        # Each run is a slice of the node axis, so ``sub``, ``nearest`` and
        # the run's clamped states are views that take no memory of their own.
        sub = y[..., nodes]
        # Offset to the nearest root, the first one on ties.
        nearest = np.subtract(sub, fn.zeros[0], out=scratch[..., nodes])
        for root in fn.zeros[1:]:
            offset = sub - root
            np.copyto(nearest, offset, where=np.abs(offset) < np.abs(nearest))
        # Within delta of the nearest root, move the state to the boundary
        # on its own side (ties at the root go to the upper boundary).  Two
        # comparisons give |nearest| < delta without a float temporary.
        near = nearest > -delta
        near &= nearest < delta
        offset = nearest[near]
        clamped[..., nodes][near] = (sub[near] - offset
                                     + delta * np.where(offset >= 0, 1.0, -1.0))
    triple.eval_g(clamped, scratch)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, scratch, out=weights)


def _omega_block(triple: NonlinearityTriple, config: WeightingConfig,
                 block: np.ndarray, weights: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Weights of a block of states (epochs x nodes), and its singular flags.

    Writes the weights into ``weights`` and returns the per-epoch flags.
    ``weights`` and ``scratch`` have ``block``'s shape and overlap neither
    it nor each other; ``scratch`` is left undefined.
    """
    if config.delta > 0.0:
        _regularized_weights(triple, config, block, weights, scratch)
        return np.zeros(block.shape[0], dtype=bool)
    triple.eval_g(block, weights)
    # Some |g_i| is below _G_TINY exactly when the row's smallest is; fmin
    # skips NaN as the comparison would.  One min over the block, NaN when
    # any entry is, clears a block with no such row before any per-row work.
    magnitudes = np.abs(weights, scratch)
    if magnitudes.size and magnitudes.min() >= _G_TINY:
        in_z = np.zeros(len(block), dtype=bool)
    else:
        in_z = np.fmin.reduce(magnitudes, axis=1) < _G_TINY
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, weights, out=weights)
    return in_z


def _chunk_buffers(rows: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The two ``(rows, n_nodes)`` buffers that one chunked pass reuses."""
    return np.empty((rows, n_nodes)), np.empty((rows, n_nodes))


def _onelag_terms(triple: NonlinearityTriple, config: WeightingConfig,
                  states: np.ndarray, start: int, stop: int,
                  out: tuple[np.ndarray, np.ndarray], epochs: bool = True,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One-lag targets and regressors of the pairs ``k = start .. stop - 1``.

    Writes rows ``omega(y[k]) * sigma^{-1}(y[k+1])`` and ``h(y[k])`` into
    the first ``m = stop - start`` rows of the caller-owned buffers
    ``out = (targets, h)`` and returns those two ``[:m]`` views.  Both
    buffers have ``states``' width and at least ``m`` rows, so one pair
    (see :func:`_chunk_buffers`) serves every chunk of a pass.  Target rows
    of singular base states (exact weights) are zero, so those pairs only
    feed the zero-lag moment.  Domain errors of ``sigma^{-1}`` name the
    node and, when ``epochs`` is true (the rows of ``states`` are a
    trajectory's epochs), the epoch of ``y[k+1]``.

    The range warns and raises as one call per pair, in order, would, so
    the earliest pair's error or warning is the one reported wherever the
    range starts or ends: a range of more than one pair runs with every
    floating-point condition that the caller does not ignore raised, a
    range that raises runs again as its two halves, in order, each the same
    way, and a single pair runs under the caller's error state.  Each
    pair's rows are the same bits either way, and a range with one bad pair
    runs about twice, not pair by pair.
    """
    m = stop - start
    if m == 1:
        return _onelag_rows(triple, config, states, start, stop, out, epochs)
    try:
        return _strict(lambda: _onelag_rows(triple, config, states, start,
                                            stop, out, epochs))
    except (FloatingPointError, NumericalError):
        pass
    half = m // 2
    _onelag_terms(triple, config, states, start, start + half, out, epochs)
    _onelag_terms(triple, config, states, start + half, stop,
                  tuple(buf[half:] for buf in out), epochs)
    return out[0][:m], out[1][:m]


def _onelag_rows(triple: NonlinearityTriple, config: WeightingConfig,
                 states: np.ndarray, start: int, stop: int,
                 out: tuple[np.ndarray, np.ndarray], epochs: bool,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_onelag_terms` as one vectorised range.

    Each step works in place: ``g`` then ``1/g`` in ``targets`` (``h`` is
    scratch for the singular check), ``sigma^{-1}(y[k+1])`` in ``h`` and
    multiplied into ``targets``, then ``h(y[k])`` in ``h``.  Each step
    finishes over the whole range before the next starts, so an error of a
    later pair in an earlier step comes before an earlier pair's in a later
    step.
    """
    m = stop - start
    targets, h = out[0][:m], out[1][:m]
    base = states[start:stop]
    in_z = _omega_block(triple, config, base, targets, h)
    triple.eval_sigma.inverse(states[start + 1:stop + 1],
                              epoch_offset=start + 1 if epochs else None, out=h)
    with np.errstate(invalid="ignore"):
        targets *= h
    if in_z.any():
        targets[in_z] = 0.0
    triple.eval_h(base, h)
    return targets, h


def _moment_sums(states: np.ndarray, n_pairs: int, fill=None) -> LagMatrices:
    """The :class:`LagMatrices` of the pairs ``k = 0 .. n_pairs - 1``.

    By default the ``(lead, base)`` rows of the pairs are the raw states
    ``(y[k+1], y[k])``, which give the sums of the linear triple bit for
    bit.  Otherwise ``fill(start, stop, out)`` writes the rows of the pairs
    ``start .. stop - 1`` into the row views ``out = (lead, base)`` of the
    two chunk buffers allocated here; each chunk is filled as two row
    halves, the later one beside the earlier (see :func:`_fill_halves`).
    Chunks of ``_BATCH_CHUNK`` pairs are reduced with matrix products, the
    base product here and the cross product beside it, and the per-chunk
    parts added in order; that order keeps stored moments byte-identical
    across releases.  A weight that overflowed makes the cross sum
    non-finite without a warning; the
    :class:`~granet.estimators.EstimateReport` built from it refuses it.
    """
    n_nodes = states.shape[1]
    lag = LagMatrices(n_nodes=n_nodes, count=n_pairs)
    if fill is not None:
        buffers = _chunk_buffers(min(n_pairs, _BATCH_CHUNK), n_nodes)

    def cross_product():
        with np.errstate(invalid="ignore", over="ignore"):
            return lead.T @ base

    with paired(n_pairs, _BATCH_CHUNK) as pair:
        for start in range(0, n_pairs, _BATCH_CHUNK):
            stop = min(start + _BATCH_CHUNK, n_pairs)
            if fill is None:
                lead, base = states[start + 1:stop + 1], states[start:stop]
            else:
                _fill_halves(pair, fill, start, stop, buffers)
                lead, base = (buf[:stop - start] for buf in buffers)
            base_part, cross_part = pair(lambda: base.T @ base, cross_product)
            lag.f0_sum += base_part
            with np.errstate(invalid="ignore", over="ignore"):
                lag.f1_sum += cross_part
    return lag


def _fill_halves(pair, fill, start: int, stop: int,
                 buffers: tuple[np.ndarray, np.ndarray]) -> None:
    """``fill(start, stop, buffers)`` as two calls over the row halves of
    the chunk: the earlier here, writing ``buffers`` from row 0, and the
    later beside it, writing them from the half's first row on.

    Each half writes its own buffer rows, so the chunk gets the bits of one
    call.  An error in the earlier half wins, and a fill that reports its
    earliest pair's error or warning, as :func:`_onelag_terms` does, makes
    each half report what one call over the chunk would; so the error does
    not depend on where the split falls.
    """
    mid = (start + stop + 1) // 2
    later = tuple(buf[mid - start:] for buf in buffers)
    pair(lambda: fill(start, mid, buffers),
         (lambda: fill(mid, stop, later)) if mid < stop else None)


def _pair_count(traj: Trajectory, triple: NonlinearityTriple,
                n_pairs: int | None) -> int:
    """Validated number of ``(y[k], y[k+1])`` pairs (default: all steps)."""
    if triple.n_nodes != traj.n_nodes:
        raise ValueError(
            f"dimension mismatch: trajectory {traj.n_nodes}, "
            f"triple {triple.n_nodes}"
        )
    n = traj.n_steps if n_pairs is None else int(n_pairs)
    if not 0 <= n <= traj.n_steps:
        raise ValueError(f"n_pairs must lie in [0, {traj.n_steps}], got {n}")
    return n


@dataclass
class LagMatrices:
    """Running (unnormalised) lag-moment sums.

    ``f0_sum`` and ``f1_sum`` hold plain sums over ``count`` steps; divide
    by ``count`` (see :func:`finalize`) to obtain the empirical averages.
    :func:`accumulate` adds one step in place (single writer);
    :func:`from_trajectory` fills a whole range through the chunk reducer.
    """

    n_nodes: int
    count: int = 0
    f0_sum: np.ndarray = None
    f1_sum: np.ndarray = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        shape = (self.n_nodes, self.n_nodes)
        for name in ("f0_sum", "f1_sum"):
            value = getattr(self, name)
            if value is None:
                setattr(self, name, np.zeros(shape))
            elif np.shape(value) != shape:
                raise ValueError(f"{name} must have shape {shape}")


def accumulate(lag: LagMatrices, triple: NonlinearityTriple,
               config: WeightingConfig, y_k: np.ndarray,
               y_k1: np.ndarray) -> LagMatrices:
    """Add one step ``(y[k], y[k+1])`` to the running sums, in place.

    The step's terms are the one-pair case of :func:`_onelag_terms`, and
    their products ``h^T h`` and ``targets^T h`` go straight into the sums
    with :func:`_moment_sums`' error state, so a weight that overflows
    leaves the same non-finite sums, without a warning, as in
    :func:`from_trajectory`.  On sums that start at +0.0, as a new
    :class:`LagMatrices`' do, this adds the bits a one-pair
    :func:`_moment_sums` would.  The zero-lag term is always added, and the
    one-lag term is zero when the base state is singular under exact
    weights.  ``y_k`` and ``y_k1`` must both have shape ``(n_nodes,)`` and
    ``lag`` must cover the triple's nodes;
    otherwise a ValueError names the shapes and the sums are left as they
    were.  The pair is not an epoch of a trajectory, so a domain error names
    only the node.  Returns ``lag`` for chaining.
    """
    n = triple.n_nodes
    shapes = np.shape(y_k), np.shape(y_k1)
    if shapes != ((n,), (n,)) or lag.n_nodes != n:
        raise ValueError(
            f"step shapes {shapes[0]} and {shapes[1]} and an accumulator over "
            f"{lag.n_nodes} nodes do not match a triple over {n} nodes"
        )
    pair = np.empty((2, n))
    pair[0], pair[1] = y_k, y_k1
    targets, h = _onelag_terms(triple, config, pair, 0, 1, _chunk_buffers(1, n),
                               epochs=False)
    lag.f0_sum += h.T @ h
    with np.errstate(invalid="ignore", over="ignore"):
        lag.f1_sum += targets.T @ h
    lag.count += 1
    return lag


def from_trajectory(traj: Trajectory, triple: NonlinearityTriple,
                    config: WeightingConfig,
                    n_pairs: int | None = None) -> LagMatrices:
    """Accumulate a whole trajectory in vectorised chunks.

    Gives the sums of calling :func:`accumulate` on consecutive pairs
    ``(y[k], y[k+1])`` for ``k = 0 .. n_pairs - 1`` (default: all steps),
    with the same errors except that a domain error also names the epoch;
    both run :func:`_onelag_terms`, here over chunks of pairs reduced with
    matrix products.
    """
    n = _pair_count(traj, triple, n_pairs)
    return _moment_sums(traj.states, n,
                        partial(_onelag_terms, triple, config, traj.states))


def finalize(lag: LagMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Empirical averages ``(F0, F1)``; leaves the accumulator reusable."""
    if lag.count < 1:
        raise InvalidStateError("cannot finalize an empty accumulator")
    return lag.f0_sum / lag.count, lag.f1_sum / lag.count


def running_weight_moment(traj: Trajectory, triple: NonlinearityTriple,
                          config: WeightingConfig) -> np.ndarray:
    """Running mean of ``||omega(y[k])||^2`` along the trajectory.

    Entry ``k`` is the average of the squared weight-vector norms over the
    first ``k + 1`` base states — the quantity whose boundedness underpins
    convergence of the one-lag average.  Singular states (the ones
    the one-lag accumulator drops) are excluded from the average; until the
    first regular state the running mean is 0.
    """
    norms, valid = _weight_norms(traj, triple, config, None)
    return np.cumsum(norms) / np.maximum(np.cumsum(valid), 1)


def _weight_norms(traj: Trajectory, triple: NonlinearityTriple,
                  config: WeightingConfig,
                  n_pairs: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch squared weight norms and the regular-state mask."""
    n = _pair_count(traj, triple, n_pairs)
    norms = np.empty(n)
    valid = np.empty(n, dtype=bool)
    buffers = _chunk_buffers(min(n, _BATCH_CHUNK), traj.n_nodes)

    def fill(start, stop, out):
        weights, scratch = (buf[:stop - start] for buf in out)
        in_z = _omega_block(triple, config, traj.states[start:stop], weights,
                            scratch)
        np.logical_not(in_z, out=valid[start:stop])
        if in_z.any():
            weights[in_z] = 0.0
        np.einsum("ij,ij->i", weights, weights, out=norms[start:stop])

    with paired(n, _BATCH_CHUNK) as pair:
        for start in range(0, n, _BATCH_CHUNK):
            _fill_halves(pair, fill, start, min(start + _BATCH_CHUNK, n),
                         buffers)
    return norms, valid


def omega_tail_index(traj: Trajectory, triple: NonlinearityTriple,
                     config: WeightingConfig,
                     n_pairs: int | None = None) -> float:
    """Tail exponent of the squared weight norms, via the Hill estimator.

    Fits a power law ``P(||omega(y)||^2 > t) ~ t**(-a)`` to the upper order
    statistics of the per-epoch squared weight norms and returns ``a``.  An
    exponent at or below one means the norms have no finite mean, so the
    running average inside the one-lag functional drifts between ever larger
    spikes instead of settling.  The top ``max(_TAIL_MIN_TOP,
    _TAIL_TOP_FRACTION * n)`` values (100 and 0.01) are used; singular
    states are excluded first.  Returns ``inf`` when too few
    regular states remain or when the upper tail is flat (bounded weights),
    both unremarkable tails.
    """
    norms, valid = _weight_norms(traj, triple, config, n_pairs)
    ordered = norms[valid]
    k = max(_TAIL_MIN_TOP, int(ordered.size * _TAIL_TOP_FRACTION))
    if k + 1 > ordered.size:
        return float("inf")
    ordered.partition(ordered.size - k - 1)
    pivot = ordered[ordered.size - k - 1]
    if pivot <= 0:
        return float("inf")
    log_excess = np.log(ordered[ordered.size - k:]) - np.log(pivot)
    total = float(log_excess.sum())
    if total <= 0.0:
        return float("inf")
    return k / total


def running_onelag_max(traj: Trajectory, triple: NonlinearityTriple,
                       config: WeightingConfig) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry magnitude of the running one-lag average over time.

    Returns ``(epochs, peaks)`` sampled every ``_ONELAG_MAX_EVERY`` (100)
    steps; a sequence of peaks that keeps jumping by orders of magnitude is
    the signature of a weight with no finite second moment.
    """
    n = _pair_count(traj, triple, None)
    f1_sum = np.zeros((traj.n_nodes, traj.n_nodes))
    epochs: list[int] = []
    peaks: list[float] = []
    buffers = _chunk_buffers(min(n, _ONELAG_MAX_EVERY), traj.n_nodes)
    for start in range(0, n, _ONELAG_MAX_EVERY):
        stop = min(start + _ONELAG_MAX_EVERY, n)
        targets, h_block = _onelag_terms(triple, config, traj.states, start,
                                         stop, buffers)
        f1_sum += targets.T @ h_block
        epochs.append(stop)
        peaks.append(float(np.max(np.abs(f1_sum))) / stop)
    return np.asarray(epochs), np.asarray(peaks)

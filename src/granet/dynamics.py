"""Networked dynamical system with multiplicative nonlinear coupling.

The state of an ``N``-node network evolves as

    y[n+1] = sigma( g(y[n]) * (A @ h(y[n])) + x[n+1] )

where ``sigma``, ``g`` and ``h`` apply componentwise (node ``i`` uses its
own scalar functions), ``A`` is a combination matrix and ``x`` is i.i.d.
Gaussian noise.  ``sigma`` must be invertible so that trajectories can be
mapped to the additive representation ``z[n] = sigma^{-1}(y[n])``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._paired import paired
from .errors import FunctionDomainError, SimulationDivergedError
from .graphs import CombinationMatrix
from .nonlinearities import (_KERNELS, _MAGNITUDE_ROLES, Nonlinearity,
                             _first_outside)

#: States whose magnitude exceeds this are treated as diverged.
DIVERGENCE_LIMIT = 1e12

#: Epochs of states screened at once in :func:`simulate`; its noise is
#: drawn in runs of such blocks.
_NOISE_BLOCK = 8192

#: Rows per block of the magnitude check in :class:`Trajectory`.
_MAGNITUDE_CHECK_ROWS = 4096

#: Tolerance used when checking that growth exponents sum to one.
_PQ_TOL = 1e-9


def resolve_exponents(g_fns: Sequence[Nonlinearity],
                      h_fns: Sequence[Nonlinearity]) -> tuple[float, float, bool]:
    """Resolve the growth exponents (p, q) of the g and h families.

    Within a family all declared exponents must agree; bounded members
    (``exponent_role=None``) conform to any exponent.  A family with no
    declared exponent inherits the complement of the other family's, and
    when neither declares one the convention ``(p, q) = (0, 1)`` is used
    (immaterial, since both alphas are then zero).

    Returns ``(p, q, ok)`` where ``ok`` records whether ``p + q = 1``
    within tolerance; raises ``ValueError`` on conflicting declarations
    within a family.
    """
    def family_role(fns: Sequence[Nonlinearity], name: str) -> float | None:
        declared = {fn.exponent_role for fn in fns if fn.exponent_role is not None}
        if len(declared) > 1:
            raise ValueError(
                f"conflicting growth exponents in {name} family: {sorted(declared)}"
            )
        return declared.pop() if declared else None

    p = family_role(g_fns, "g")
    q = family_role(h_fns, "h")
    if p is None and q is None:
        p, q = 0.0, 1.0
    elif p is None:
        p = 1.0 - q
    elif q is None:
        q = 1.0 - p
    ok = abs(p + q - 1.0) <= _PQ_TOL and 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
    return float(p), float(q), ok


class _Family:
    """Per-node scalar functions of one kind (sigma, g or h), vectorised.

    The nodes split into maximal runs of equal adjacent functions, listed
    in ``runs`` as ``(fn, nodes, kernel, inverse, radius)``: ``nodes`` is
    the run's slice of the node (last) axis, and the kernels of ``fn`` are
    bound to its params once, here (None where ``_KERNELS`` has none).  So
    each run maps a view of the input into a view of the output in place,
    with no gather, scatter or array of its own; a homogeneous family is
    the one-run case.  A per-node spec that alternates kinds gives one run
    per node, and so one kernel call per node.

    :func:`simulate`'s epoch loop calls ``apply`` of each family, except
    that g and h share one ``|y|`` buffer when each is one run of a kind
    built on ``sign(y) |y|**a`` (see :func:`_epoch_kernels`); it then binds
    the :meth:`magnitude_kernel` forms.
    """

    def __init__(self, fns: Sequence[Nonlinearity]):
        self.fns = tuple(fns)
        self.runs = []
        start = 0
        for fn, members in itertools.groupby(self.fns):
            stop = start + len(list(members))
            self.runs.append((fn, slice(start, stop), *(
                None if binder is None else binder(*fn.params)
                for binder in _KERNELS[fn.kind])))
            start = stop
        #: ``apply(y, out)`` writes the family of ``y`` into ``out`` (of
        #: ``y``'s shape, not overlapping it) and returns ``out``.  For a
        #: one-run family it is the bound kernel itself.
        self.apply = self.runs[0][2] if len(self.runs) == 1 else self._map_runs

    def magnitude_kernel(self, mag: np.ndarray, role: str):
        """The forward kernel in ``role`` with the shared ``|y|`` buffer
        ``mag`` (see :mod:`granet.nonlinearities`), or None unless the family
        is one run of a kind that takes that role."""
        fn = self.fns[0]
        if len(self.runs) > 1 or role not in _MAGNITUDE_ROLES.get(fn.kind, ()):
            return None
        return _KERNELS[fn.kind][0](*fn.params, mag=mag, role=role)

    def _map_runs(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        for _, nodes, kernel, _, _ in self.runs:
            kernel(y[..., nodes], out[..., nodes])
        return out

    def __call__(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate componentwise; ``y`` is a float array, nodes on the last axis.

        The result is written into ``out`` (a new array when None), which
        must have ``y``'s shape and must not overlap it.
        """
        if out is None:
            out = np.empty_like(y, dtype=float)
        return self.apply(y, out)

    def inverse(self, y: np.ndarray, epoch_offset: int | None = 0,
                out: np.ndarray | None = None) -> np.ndarray:
        """Componentwise inverse with (epoch, node) context in errors.

        ``y`` is a float array with nodes on the last axis; for 2-d input
        the first axis is epochs starting at ``epoch_offset``, and errors
        name no epoch when it is None.  The result is written into ``out``
        (of ``y``'s shape, not overlapping it; a new array when None),
        which also holds each run's domain check, and returned.  Runs are
        checked in node order, each once, and an error names the earliest
        offending epoch over all runs, then the lowest node, as a check of
        one epoch after another would.
        """
        if out is None:
            out = np.empty_like(y, dtype=float)
        failed = None
        for fn, nodes, _, inverse, radius in self.runs:
            if inverse is None:
                raise ValueError(f"{fn.kind}{fn.params} has no implemented inverse")
            sub, res = y[..., nodes], out[..., nodes]
            pos = None if radius is None else _first_outside(radius(sub, res))
            if pos is not None:
                # Runs come in node order, so only an earlier epoch wins.
                if failed is None or (sub.ndim > 1 and pos[0] < failed[1][0]):
                    failed = (fn, pos, nodes, sub)
            elif failed is None:
                inverse(sub, res)
        if failed is not None:
            fn, pos, nodes, sub = failed
            raise FunctionDomainError(
                f"input outside the domain of {fn.describe()} inverse",
                float(sub[pos]),
                node=nodes.start + int(pos[-1]),
                epoch=None if epoch_offset is None or sub.ndim < 2
                else epoch_offset + int(pos[0]),
            )
        return out


@dataclass(frozen=True)
class NonlinearityTriple:
    """Per-node (sigma, g, h) functions of an ``N``-node network.

    Construction validates that all sigma components are invertible and
    that the declared growth exponents of g and h are mutually consistent
    (they must sum to one when both families declare one).
    """

    sigma: tuple[Nonlinearity, ...]
    g: tuple[Nonlinearity, ...]
    h: tuple[Nonlinearity, ...]
    triple_id: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "h", tuple(self.h))
        n = len(self.sigma)
        if n == 0 or len(self.g) != n or len(self.h) != n:
            raise ValueError(
                "sigma, g and h must be non-empty and of equal length, got "
                f"{len(self.sigma)}/{len(self.g)}/{len(self.h)}"
            )
        for node, fn in enumerate(self.sigma):
            if not fn.invertible:
                raise ValueError(
                    f"sigma must be invertible at every node; node {node} "
                    f"has {fn.describe()}"
                )
        p, q, ok = resolve_exponents(self.g, self.h)
        if not ok:
            raise ValueError(
                f"growth exponents of g and h must sum to 1, got p={p}, q={q}"
            )

    @classmethod
    def uniform(cls, sigma: Nonlinearity, g: Nonlinearity, h: Nonlinearity,
                n_nodes: int, triple_id: str = "custom") -> "NonlinearityTriple":
        """Same (sigma, g, h) at every node."""
        return cls(
            sigma=(sigma,) * n_nodes,
            g=(g,) * n_nodes,
            h=(h,) * n_nodes,
            triple_id=triple_id,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.sigma)

    @cached_property
    def eval_sigma(self) -> _Family:
        return _Family(self.sigma)

    @cached_property
    def eval_g(self) -> _Family:
        return _Family(self.g)

    @cached_property
    def eval_h(self) -> _Family:
        return _Family(self.h)

    def restrict(self, nodes: Sequence[int]) -> "NonlinearityTriple":
        """Sub-triple over an observed subset of nodes (order preserved)."""
        nodes = [int(v) for v in nodes]
        return NonlinearityTriple(
            sigma=tuple(self.sigma[v] for v in nodes),
            g=tuple(self.g[v] for v in nodes),
            h=tuple(self.h[v] for v in nodes),
            triple_id=f"{self.triple_id}|subset",
        )


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean Gaussian excitation with per-node standard deviations.

    A standard deviation of zero silences that node's noise, which is
    handy for deterministic runs; the estimator consistency guarantees
    assume every node is excited (all deviations strictly positive).
    """

    per_node_std: np.ndarray

    def __post_init__(self):
        std = np.atleast_1d(np.asarray(self.per_node_std, dtype=float))
        if std.ndim != 1:
            raise ValueError("per_node_std must be one-dimensional")
        if not (np.all(np.isfinite(std)) and np.all(std >= 0)):
            raise ValueError("per_node_std entries must be finite and >= 0")
        std = std.copy()
        std.setflags(write=False)
        object.__setattr__(self, "per_node_std", std)

    @classmethod
    def uniform(cls, n_nodes: int, std: float = 1.0) -> "NoiseModel":
        return cls(per_node_std=np.full(n_nodes, float(std)))

    @property
    def n_nodes(self) -> int:
        return len(self.per_node_std)


def _first_beyond_limit(block: np.ndarray) -> tuple[int, int] | None:
    """Row and node of the first entry of the 2-d ``block`` that is not
    finite or exceeds ``DIVERGENCE_LIMIT`` in magnitude; None if there is none.

    Two reductions clear a good block (NaN fails both comparisons); only a
    bad one builds the mask that finds the entry.
    """
    if not block.size or (block.max() <= DIVERGENCE_LIMIT
                          and block.min() >= -DIVERGENCE_LIMIT):
        return None
    row, node = np.argwhere(~(np.abs(block) <= DIVERGENCE_LIMIT))[0]
    return int(row), int(node)


@dataclass(frozen=True)
class Trajectory:
    """A simulated state history.

    ``states`` has shape ``(n_steps + 1, n_nodes)``; row 0 is the initial
    condition.  Every entry is finite with magnitude at most
    ``DIVERGENCE_LIMIT``, the bound :func:`simulate` stops at.  ``states`` is
    read-only.  A read-only float64 array that owns its data is kept as
    given, so the trajectory may share that buffer with its producer.
    """

    states: np.ndarray
    seed: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or 0 in states.shape:
            raise ValueError(
                "states must be 2-d (n_steps + 1, n_nodes) with at least one "
                f"row and one node, got shape {states.shape}"
            )
        # Checked a block of rows at a time, so no temporary grows with the
        # trajectory.
        for start in range(0, states.shape[0], _MAGNITUDE_CHECK_ROWS):
            bad = _first_beyond_limit(states[start:start + _MAGNITUDE_CHECK_ROWS])
            if bad is not None:
                row, node = start + bad[0], bad[1]
                raise ValueError(
                    "trajectory states must all be finite with magnitude at "
                    f"most {DIVERGENCE_LIMIT:g}; row {row}, node {node} "
                    f"holds {float(states[row, node])!r}"
                )
        # A read-only array that owns its data cannot change under us, so it
        # is kept as it is; anything else (writable, or a view of a buffer
        # that may be writable elsewhere) is copied.
        if states.flags.writeable or not states.flags.owndata:
            states = states.copy()
            states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1


def _redraw(drawn_from: dict, skip: int, rows: int,
            std: np.ndarray) -> np.ndarray:
    """The scaled noise of the ``rows`` epochs that follow the first ``skip``
    epochs drawn from the PCG64 state ``drawn_from``.

    The skipped epochs are drawn into the same ``(rows, n)`` buffer, a piece
    at a time; the stream gives the bits of one draw however it is cut.
    """
    bits = np.random.PCG64()
    bits.state = drawn_from
    generator = np.random.Generator(bits)
    noise = np.empty((rows, len(std)))
    for start in range(0, skip, rows):
        generator.standard_normal(out=noise[:skip - start])
    generator.standard_normal(out=noise)
    noise *= std
    return noise


def _epoch_kernels(triple: NonlinearityTriple, mag: np.ndarray):
    """The ``(sigma, g, h)`` kernels of :func:`simulate`'s epoch loop, and
    whether they share the ``|y|`` buffer ``mag``.

    When g and h are each one run of a kind built on ``sign(y) |y|**a``,
    both take ``|y[n]|`` from ``mag`` instead of forming it each: a
    sign_power sigma writes ``|y[n+1]|`` there as it computes it, and under
    any other sigma g, which the loop calls first, forms it.  Any other
    triple gets its families' ``apply``.  Every form gives ``apply``'s bits.
    """
    sigma, g, h = triple.eval_sigma, triple.eval_g, triple.eval_h
    write_sigma = sigma.magnitude_kernel(mag, "write")
    shared_g = g.magnitude_kernel(mag, "form" if write_sigma is None else "read")
    read_h = h.magnitude_kernel(mag, "read")
    if shared_g is None or read_h is None:
        return sigma.apply, g.apply, h.apply, False
    return write_sigma or sigma.apply, shared_g, read_h, True


def simulate(matrix: CombinationMatrix, triple: NonlinearityTriple,
             noise: NoiseModel, y0: "np.ndarray | float", n_steps: int,
             seed: int) -> Trajectory:
    """Run the coupled recursion for ``n_steps`` epochs.

    Noise is drawn from a single PCG64 stream seeded with ``seed``: epoch
    ``k`` consumes the ``k``-th block of ``n_nodes`` standard normals, then
    scaled by the per-node standard deviations.  The noise is drawn straight
    into the state buffer in runs of ``_NOISE_BLOCK`` (8192) epoch blocks,
    each run as long as all the runs before it (1, 1, 2, 4, ... blocks),
    which leaves the stream identical to a one-shot draw.  With more than
    one CPU a run of more than one block keeps a helper thread
    (:mod:`granet._paired`) that draws run ``r + 1`` while run ``r``
    advances, so the states are the same bits with or without it.

    States are screened once per block of ``_NOISE_BLOCK`` (8192) epochs: a
    state with a non-finite entry or magnitude above ``DIVERGENCE_LIMIT``
    raises :class:`~granet.errors.SimulationDivergedError` with the first
    offending epoch, node and value.  The run warns or raises as a per-epoch
    loop under the caller's ``np.errstate`` would: the diverging epoch's
    floating-point warnings are kept, and nothing is warned after it.  Each
    block runs with overflow, invalid and divide raising; an epoch that
    raises is run again under the caller's error state.

    Parameters
    ----------
    matrix : CombinationMatrix
        Coupling weights; ``matrix.entries[i, j]`` scales the influence of
        node ``j`` on node ``i``.
    triple : NonlinearityTriple
        Per-node (sigma, g, h) functions.
    noise : NoiseModel
        Per-node Gaussian noise scales.
    y0 : float or array of shape (n_nodes,)
        Initial condition (a scalar is broadcast to all nodes).
    n_steps : int
        Number of epochs to advance.
    seed : int
        Noise stream seed.
    """
    n = matrix.n_nodes
    if triple.n_nodes != n or noise.n_nodes != n:
        raise ValueError(
            f"dimension mismatch: matrix {n}, triple {triple.n_nodes}, "
            f"noise {noise.n_nodes}"
        )
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (n,)).copy()
    if not np.all(np.abs(y0) <= DIVERGENCE_LIMIT):
        raise ValueError(f"y0 must be finite with magnitude at most "
                         f"{DIVERGENCE_LIMIT:g}")

    states = np.empty((n_steps + 1, n))
    states[0] = y0
    rng = np.random.default_rng(seed)
    std = noise.per_node_std
    g_vals, h_vals, drive, mag = (np.empty(n) for _ in range(4))
    apply_sigma, apply_g, apply_h, shared = _epoch_kernels(triple, mag)
    # The bound ``entries.dot`` runs ``np.dot``'s C routine without its
    # dispatch wrapper, and warns and raises as ``np.dot`` does.
    dot, multiply, add = matrix.entries.dot, np.multiply, np.add

    epoch = 0

    def advance(first, stop):
        # Runs epochs first .. stop - 1; on an exception ``epoch`` is the one
        # that raised.  Row ``epoch`` holds its noise until its state
        # overwrites it.  The ufuncs write ``drive`` in place through
        # ``out``: ``drive *= ...`` would make it a local of this function.
        # A shared ``mag`` is formed from the state before ``first``: a
        # restart at an epoch that raised may follow a sigma that wrote it.
        nonlocal epoch
        y = states[first - 1]
        if shared:
            np.abs(y, mag)
        for epoch in range(first, stop):
            apply_g(y, g_vals)
            apply_h(y, h_vals)
            dot(h_vals, drive)
            multiply(drive, g_vals, drive)
            y = states[epoch]
            add(drive, y, drive)
            apply_sigma(drive, y)

    def screen(first, stop):
        bad = _first_beyond_limit(states[first:stop])
        if bad is not None:
            row, node = first + bad[0], bad[1]
            raise SimulationDivergedError(
                epoch=row, node=node, value=float(states[row, node]))

    def draw(first, stop, drawn_from):
        # Unscaled noise of rows first .. stop - 1.  The stream is set to the
        # rows' start first, so a second call draws the same noise.
        rng.bit_generator.state = drawn_from
        rng.standard_normal(out=states[first:stop])

    def run_block(done, stop, run_first, drawn_from):
        # Block rows done + 1 .. stop - 1 of the run of blocks that starts at
        # row run_first, whose noise was drawn from drawn_from.
        redrawn = None
        first = done + 1
        while first < stop:
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    advance(first, stop)
                break
            except FloatingPointError:
                pass
            # A per-epoch screen would have stopped at a diverged state before
            # this event, with no warning from it.  Otherwise the epoch runs
            # again under the caller's error state, which gives its warnings
            # or error.  sigma may have overwritten the epoch's noise before
            # it raised, so the block's noise is drawn again from the same
            # stream state.
            screen(first, epoch)
            if redrawn is None:
                redrawn = _redraw(drawn_from, done + 1 - run_first,
                                  stop - done - 1, std)
            states[epoch] = redrawn[epoch - done - 1]
            advance(epoch, epoch + 1)
            screen(epoch, epoch + 1)
            first = epoch + 1
        screen(first, stop)

    def run_blocks(first, stop, drawn_from):
        states[first:stop] *= std
        for done in range(first - 1, stop - 1, _NOISE_BLOCK):
            run_block(done, min(done + _NOISE_BLOCK + 1, stop), first,
                      drawn_from)

    # Noise comes in runs of blocks, each as long as all the runs before it:
    # run r is scaled and advances here while the helper draws run r + 1.
    # Each wait of the helper for the interpreter lock (to wake, and after
    # the draw) slows this thread's epoch loop by up to a switch interval, so
    # the helper draws a few long runs, and the scaling, which would cost it
    # one more wait, is done here.
    with paired(n_steps, _NOISE_BLOCK) as pair:
        first, stop = 1, min(_NOISE_BLOCK, n_steps) + 1
        drawn_from = rng.bit_generator.state
        rng.standard_normal(out=states[first:stop])
        while first < stop:
            following = min(2 * stop - 1, n_steps + 1)
            next_from = rng.bit_generator.state if stop < following else None
            pair(lambda: run_blocks(first, stop, drawn_from),
                 (lambda: draw(stop, following, next_from))
                 if next_from else None)
            first, stop, drawn_from = stop, following, next_from
    states.setflags(write=False)
    return Trajectory(states=states, seed=seed)

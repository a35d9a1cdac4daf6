"""Directed graphs and combination matrices.

A directed edge ``(i, j)`` means *node j directly influences node i*; the
corresponding weight lives in slot ``A[i, j]`` of a combination matrix.
Combination matrices follow a uniform averaging rule: node ``i`` splits a
total mass ``rho`` evenly over its in-neighbourhood, which always counts
node ``i`` itself, so every diagonal entry is strictly positive and every
row sums to exactly ``rho``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes ``0 .. n_nodes - 1``.

    Parameters
    ----------
    n_nodes : int
        Number of nodes, at least 1.
    edges : iterable of (int, int)
        Ordered pairs ``(i, j)``: node ``j`` influences node ``i``.
        Self-loops ``(i, i)`` are rejected.
    """

    n_nodes: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        normalized = frozenset((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", normalized)
        for i, j in normalized:
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(
                    f"edge ({i}, {j}) out of range for n_nodes={self.n_nodes}"
                )
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) not permitted")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Boolean matrix with ``adj[i, j]`` true iff edge ``(i, j)`` exists."""
        adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        for i, j in self.edges:
            adj[i, j] = True
        return adj

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class CombinationMatrix:
    """Weight matrix of the uniform averaging rule.

    ``entries[i, j]`` is the weight node ``i`` assigns to node ``j``.  Rows
    sum to ``rho`` and all entries are non-negative, so the infinity norm of
    the matrix equals ``rho``.  Any square ``entries`` are accepted whose
    infinity norm (largest absolute row sum) is at most ``rho``, give or
    take ``n_nodes`` float spacings of ``rho`` for the rounding of a row
    sum; a larger or ``nan`` norm raises ValueError.
    """

    rho: float
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        norm = float(np.abs(entries).sum(axis=1).max(initial=0.0))
        if not norm <= self.rho + entries.shape[0] * np.spacing(self.rho):
            raise ValueError(f"entries have infinity norm {norm!r}; it must "
                             f"not exceed rho {self.rho!r}")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]


def generate_binomial_graph(n_nodes: int, p: float, seed: int) -> DirectedGraph:
    """Draw a binomial (Erdos-Renyi) digraph without self-loops.

    Each ordered pair ``(i, j)`` with ``i != j`` is included independently
    with probability ``p``.  A full ``n x n`` block of uniforms is drawn and
    the diagonal discarded, so the result is reproducible for a given seed
    regardless of ``p``.

    Parameters
    ----------
    n_nodes : int
        Number of nodes.
    p : float
        Edge probability in ``[0, 1]``.
    seed : int
        Seed for the PCG64 generator.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    mask = rng.random((n_nodes, n_nodes)) < p
    np.fill_diagonal(mask, False)
    edges = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(mask)))
    return DirectedGraph(n_nodes=n_nodes, edges=edges)


def build_combination_matrix(graph: DirectedGraph, rho: float) -> CombinationMatrix:
    """Assemble the uniform averaging matrix of a graph.

    Off-diagonal weights are ``rho / d_i`` on edges and zero elsewhere,
    where ``d_i`` is the in-degree of node ``i`` counting the node itself.
    The diagonal entry is set to ``rho`` minus the off-diagonal row sum, so
    each row sums to ``rho`` up to a final rounding.
    """
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    adj = graph.adjacency().astype(float)
    with_self = adj.copy()
    np.fill_diagonal(with_self, 1.0)
    degrees = with_self.sum(axis=1)
    entries = rho * adj / degrees[:, None]
    np.fill_diagonal(entries, 0.0)
    np.fill_diagonal(entries, rho - entries.sum(axis=1))
    return CombinationMatrix(rho=rho, entries=entries)


def support_offdiagonal(a: np.ndarray) -> DirectedGraph:
    """Recover the off-diagonal support of a matrix as a directed graph.

    Entries with ``|a_ij| > 0`` and ``i != j`` become edges (NaN entries do
    not); the diagonal is ignored entirely.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    mask = np.abs(a) > 0
    np.fill_diagonal(mask, False)
    edges = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(mask)))
    return DirectedGraph(n_nodes=a.shape[0], edges=edges)

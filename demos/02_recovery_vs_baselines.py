#!/usr/bin/env python3
"""Recover the network from one trajectory and compare against blind baselines.

The weighted one-lag estimator inverts the nonlinearities before
regressing, so its entries cluster tightly around the true coupling
weights.  Plain Granger regression, correlation, and precision matrices
see only the warped states and cannot separate edges from non-edges:
their identifiability gap (smallest estimated value on a true edge minus
largest value on a non-edge) stays negative.
"""

import time

import numpy as np

from granet import (NoiseModel, build_combination_matrix,
                    correlation_estimate, egg_from_trajectory,
                    generate_binomial_graph, granger_estimate,
                    precision_estimate, score, simulate, triple_preset)

N_NODES = 50
N_STEPS = 100_000
SEED = 3001


def main() -> None:
    graph = generate_binomial_graph(N_NODES, 0.2, 101)
    matrix = build_combination_matrix(graph, 0.5)
    triple = triple_preset("example1", N_NODES)

    t0 = time.time()
    traj = simulate(matrix, triple, NoiseModel.uniform(N_NODES), 0.0,
                    N_STEPS, seed=SEED)
    print(f"simulated {N_STEPS} steps in {time.time() - t0:.1f}s")

    a_hat = egg_from_trajectory(traj, triple).A_hat
    m = score(a_hat, matrix.entries)
    print(f"\nweighted one-lag estimator:")
    print(f"  edge error rate      {m.edge_error_rate:.4f} "
          f"({m.false_edges} false, {m.missed_edges} missed "
          f"of {m.total_offdiag} slots)")
    print(f"  identifiability gap  {m.identifiability_gap:+.4f}")
    print(f"  matrix rel error     {m.matrix_rel_error:.4f}")

    print("\nblind baselines on the same data:")
    for name, estimate in (("granger", granger_estimate),
                           ("correlation", correlation_estimate),
                           ("precision", precision_estimate)):
        blind = estimate(traj).A_hat
        gap = score(blind, matrix.entries).identifiability_gap
        print(f"  {name:<12} identifiability gap {gap:+.4f}"
              + ("   (edges separable)" if gap > 0 else "   (blind)"))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""What goes wrong when the gain function g can vanish.

The estimator weights each sample by 1/g(y).  The ``singular-g`` preset
uses g(y) = y on two nodes, so states near zero produce enormous
weights: the running one-lag average never settles and the weight
second moment grows without bound.  Both effects are detectable from
the data alone, and ``assumption_report`` flags the run before anyone
trusts the estimate.
"""

import numpy as np

from granet import (NoiseModel, WeightingConfig, assumption_report,
                    build_combination_matrix, generate_binomial_graph,
                    running_onelag_max, running_weight_moment, simulate,
                    triple_preset)

N_NODES = 50
N_STEPS = 100_000


def main() -> None:
    graph = generate_binomial_graph(N_NODES, 0.2, 101)
    matrix = build_combination_matrix(graph, 0.5)
    config = WeightingConfig()
    noise = NoiseModel.uniform(N_NODES)

    for preset in ("example1", "singular-g"):
        triple = triple_preset(preset, N_NODES)
        traj = simulate(matrix, triple, noise, 0.0, N_STEPS, seed=3001)

        epochs, peaks = running_onelag_max(traj, triple, config)
        ratio = peaks.max() / np.median(peaks)
        moment = running_weight_moment(traj, triple, config)
        report = assumption_report(traj, triple, config)

        print(f"\npreset {preset!r}:")
        print(f"  running one-lag peak / median      {ratio:8.1f}"
              + ("   <- spikes, never settles" if ratio > 10 else ""))
        print(f"  weight 2nd moment at n/10 vs n     "
              f"{moment[N_STEPS // 10 - 1]:10.1f} vs {moment[-1]:10.1f}")
        print(f"  weight tail index                  "
              f"{report.omega_tail_index:8.3f}"
              + ("   <- heavy tail, infinite variance"
                 if report.omega_tail_index <= 1.1 else ""))
        print(f"  omega_moment_flag                  {report.omega_moment_flag}")

    print("\nwith exact weights the singular-g estimate is garbage; "
          "see the regularized-weighting demo for the workaround")


if __name__ == "__main__":
    main()

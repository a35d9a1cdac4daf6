"""End-to-end acceptance gate.

Each test checks one release criterion against thresholds calibrated on
pilot runs, and prints a single ``[criterion-N] PASS``/``FAIL`` verdict
line (run pytest with ``-s`` to see them).  The criteria are ordered so
that the expensive 200k-step trajectories are reused from the shared
memoized factory rather than re-simulated.
"""

import json
import time

import numpy as np
import pytest

from granet import (
    LagMatrices,
    NearSingularError,
    NoiseModel,
    WeightingConfig,
    accumulate,
    assumption_report,
    build_combination_matrix,
    correlation_estimate,
    egg_estimate,
    egg_from_trajectory,
    finalize,
    from_trajectory,
    generate_binomial_graph,
    granger_estimate,
    kmeans2_1d,
    least_squares_estimate,
    partial_estimate,
    precision_estimate,
    running_onelag_max,
    score,
    simulate,
    sorted_entry_profile,
    stability_constant,
    triple_preset,
)
from granet import experiments as xp

SEEDS = (3001, 3002, 3003, 3004, 3005)
LONG_RUN = 200_000


def _gate(number: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion-{number}] {'PASS' if ok else 'FAIL'}")
    assert ok, detail


def test_criterion_01_linear_collapse(instance50, trajectory_factory):
    """With identity coupling functions the weighted estimator IS Granger."""
    t0 = time.time()
    traj = trajectory_factory("linear", 3001, 100_000)
    egg = egg_from_trajectory(traj, triple_preset("linear", 50)).A_hat
    granger = granger_estimate(traj).A_hat
    rel = np.linalg.norm(egg - granger) / np.linalg.norm(granger)
    elapsed = time.time() - t0
    _gate(1, rel <= 1e-10 and elapsed < 30.0,
          f"rel={rel:.3e} elapsed={elapsed:.1f}s")


def test_criterion_02_ensemble_one_lag_identity(instance50):
    """E[F1] = A E[F0] at a fixed epoch, checked by Monte-Carlo averaging.

    The relative error is pure sampling noise of size ~c/sqrt(M); the
    calibration constant c = 82 was measured over three master seeds.
    """
    _, matrix = instance50
    triple = triple_preset("example2", 50)
    noise = NoiseModel.uniform(50)
    config = WeightingConfig()
    epoch, n_draws = 20, 10_000
    t0 = time.time()
    lag = LagMatrices(n_nodes=50)
    seeds = np.random.SeedSequence(7001).generate_state(n_draws,
                                                        dtype=np.uint64)
    for m in range(n_draws):
        traj = simulate(matrix, triple, noise, 0.0, epoch + 1,
                        seed=int(seeds[m]))
        accumulate(lag, triple, config, traj.states[epoch],
                   traj.states[epoch + 1])
    f0, f1 = finalize(lag)
    target = matrix.entries @ f0
    rel = np.linalg.norm(f1 - target) / np.linalg.norm(target)
    threshold = 5 * 82 / np.sqrt(n_draws)
    elapsed = time.time() - t0
    _gate(2, rel < threshold and elapsed < 300.0,
          f"rel={rel:.4f} threshold={threshold:.2f} elapsed={elapsed:.1f}s")


def test_criterion_03_recovery_beats_blind_baselines(instance50,
                                                     trajectory_factory):
    """Weighted recovery separates edges; raw-moment estimators do not."""
    _, matrix = instance50
    ok, details = True, []
    for preset in ("example1", "example2"):
        triple = triple_preset(preset, 50)
        errs, gaps = [], []
        base_gaps = {"granger": [], "correlation": [], "precision": []}
        slowest = 0.0
        for seed in SEEDS:
            t0 = time.time()
            traj = trajectory_factory(preset, seed, LONG_RUN)
            a_hat = egg_from_trajectory(traj, triple).A_hat
            m = score(a_hat, matrix.entries)
            errs.append(m.edge_error_rate)
            gaps.append(m.identifiability_gap)
            for name, estimate in (("granger", granger_estimate),
                                   ("correlation", correlation_estimate),
                                   ("precision", precision_estimate)):
                blind = estimate(traj).A_hat
                base_gaps[name].append(
                    score(blind, matrix.entries).identifiability_gap)
            slowest = max(slowest, time.time() - t0)
        med_err, med_gap = np.median(errs), np.median(gaps)
        ok &= med_err <= 0.05 and med_gap > 0 and slowest < 120.0
        ok &= all(np.median(v) <= 0 for v in base_gaps.values())
        details.append(f"{preset}: err={med_err:.4f} gap={med_gap:+.4f} "
                       + " ".join(f"{k}={np.median(v):+.4f}"
                                  for k, v in base_gaps.items()))
    _gate(3, ok, "; ".join(details))


def test_criterion_04_vanishing_weight_detectors(instance50):
    """A g with zeros breaks weight integrability; both detectors fire."""
    _, matrix = instance50
    triple = triple_preset("singular-g", 50)
    noise = NoiseModel.uniform(50)
    config = WeightingConfig()
    flag_fired = blowup_fired = 0
    for seed in SEEDS:
        traj = simulate(matrix, triple, noise, 0.0, 100_000, seed=seed)
        _, peaks = running_onelag_max(traj, triple, config)
        blowup_fired += peaks.max() / np.median(peaks) > 10
        report = assumption_report(traj, triple, config)
        flag_fired += report.omega_moment_flag is False
    _gate(4, flag_fired >= 4 and blowup_fired >= 4,
          f"omega flag {flag_fired}/5, one-lag blow-up {blowup_fired}/5")


def test_criterion_05_saturating_h_breaks_invertibility(trajectory_factory):
    """Saturated responses make the zero-lag moment matrix ill-conditioned."""
    traj = trajectory_factory("singular-h", 3001, 50_000)
    triple = triple_preset("singular-h", 50)
    lag = from_trajectory(traj, triple, WeightingConfig())
    f0, f1 = finalize(lag)
    cond = np.linalg.cond(f0)
    raised = False
    try:
        egg_estimate(f0, f1, n_samples=lag.count)
    except NearSingularError:
        raised = True
    _gate(5, cond > 1e8 and raised, f"cond={cond:.3e} raised={raised}")


def test_criterion_06_regularization_trade_off(instance50,
                                               trajectory_factory):
    """Smaller delta: wilder profile oscillation but smaller mean offset."""
    _, matrix = instance50
    triple = triple_preset("singular-g", 50)
    traj = trajectory_factory("singular-g", 3002, LONG_RUN)
    osc, offset, err = {}, {}, {}
    for delta in (0.1, 0.2):
        config = WeightingConfig(delta=delta)
        a_hat = egg_from_trajectory(traj, triple, config).A_hat
        profile = sorted_entry_profile(matrix.entries, a_hat)
        diff = profile[:, 2] - profile[:, 1]
        offset[delta] = diff.mean()
        osc[delta] = np.abs(diff - offset[delta]).max()
        err[delta] = score(a_hat, matrix.entries).edge_error_rate
    ok = (osc[0.1] > osc[0.2]
          and abs(offset[0.1]) < abs(offset[0.2])
          and min(err.values()) <= 0.10)
    _gate(6, ok,
          f"osc={osc[0.1]:.4f}/{osc[0.2]:.4f} "
          f"offset={offset[0.1]:.2e}/{offset[0.2]:.2e} "
          f"err={err[0.1]:.4f}/{err[0.2]:.4f}")


def test_criterion_07_partial_observation(instance50, trajectory_factory):
    """Probing 10 of 50 nodes still recovers the observed subgraph."""
    _, matrix = instance50
    observed = tuple(range(10))
    sub_entries = matrix.entries[np.ix_(observed, observed)]
    ok, details = True, []
    for preset in ("example1", "example2"):
        triple = triple_preset(preset, 50)
        errs = []
        for seed in SEEDS:
            traj = trajectory_factory(preset, seed, LONG_RUN)
            report = partial_estimate(traj, observed, "egg", triple=triple)
            m = score(report.A_hat, sub_entries)
            ok &= m.total_offdiag == 90
            errs.append(m.edge_error_rate)
        med = np.median(errs)
        ok &= med <= 0.10
        details.append(f"{preset}: median err={med:.4f}")
    _gate(7, ok, "; ".join(details))


def test_criterion_08_oracle_equivalence():
    """The moment-ratio estimator equals direct weighted least squares."""
    rng = np.random.default_rng(8001)
    names = ("linear", "example1", "example2")
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 9))
        graph = generate_binomial_graph(n, float(rng.uniform(0.2, 0.8)),
                                        int(rng.integers(2 ** 31)))
        matrix = build_combination_matrix(graph, float(rng.uniform(0.2, 0.8)))
        triple = triple_preset(names[i % 3], n)
        traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0,
                        int(rng.integers(100, 1001)),
                        int(rng.integers(2 ** 31)))
        a_egg = egg_from_trajectory(traj, triple).A_hat
        a_ls = least_squares_estimate(traj, triple).A_hat
        worst = max(worst, np.linalg.norm(a_egg - a_ls)
                    / max(1.0, np.linalg.norm(a_ls)))
    _gate(8, worst <= 1e-8, f"worst scaled difference {worst:.3e}")


def test_criterion_09_exact_two_means():
    """The 1-d clustering split is exactly the brute-force optimum."""
    rng = np.random.default_rng(9001)
    mismatches = 0
    for _ in range(1000):
        values = rng.uniform(-1, 1, size=int(rng.integers(2, 21)))
        threshold = kmeans2_1d(values)
        v = np.sort(values)
        low, high = v[v <= threshold], v[v > threshold]
        chosen = (((low - low.mean()) ** 2).sum()
                  + ((high - high.mean()) ** 2).sum())
        best = min(((v[:c] - v[:c].mean()) ** 2).sum()
                   + ((v[c:] - v[c:].mean()) ** 2).sum()
                   for c in range(1, v.size))
        mismatches += chosen != best
    _gate(9, mismatches == 0, f"{mismatches} of 1000 splits suboptimal")


def test_criterion_10_stability_constant(instance50, tmp_path):
    """kappa is exact for the linear preset; kappa >= 1 warns, never blocks."""
    _, matrix = instance50
    report = stability_constant(triple_preset("linear", 50), matrix)
    exact = report.kappa_s == 0.5 and report.kappa_branch == "p=0,q=1"

    config = xp.expand_config({
        "graph": {"n_nodes": 6, "p": 0.4, "seed": 5},
        "rho": 0.5,
        "triple": {
            "sigma": {"kind": "identity", "envelope": [2.4, 0.0]},
            "g": {"kind": "constant_one"},
            "h": {"kind": "identity"},
            "triple_id": "inflated-linear",
        },
        "sim": {"n_steps": 200, "seed": 9, "y0": 0.0},
        "estimators": ["egg"],
    })
    result = xp.run_experiment(config, tmp_path)
    saved = json.loads((tmp_path / "assumptions.json").read_text())
    unstable_ran = (result.errors == {}
                    and saved["kappa_stable"] is False
                    and saved["kappa_s"] == pytest.approx(1.2))
    _gate(10, exact and unstable_ran,
          f"kappa={report.kappa_s!r} branch={report.kappa_branch!r} "
          f"unstable_ran={unstable_ran}")

"""Weighting function and running lag-moment accumulation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import (
    FunctionDomainError,
    InvalidStateError,
    LagMatrices,
    NoiseModel,
    NonlinearityTriple,
    Trajectory,
    WeightingConfig,
    accumulate,
    build_combination_matrix,
    finalize,
    from_trajectory,
    generate_binomial_graph,
    omega_tail_index,
    running_onelag_max,
    running_weight_moment,
    simulate,
    triple_preset,
)
from granet import lagmoments
from granet import nonlinearities as nl

EXACT = WeightingConfig()


def linear_triple(n):
    return triple_preset("linear", n)


def omega_at(triple, config, y):
    """Weights and singular flag of one state, through the block kernel."""
    block = np.asarray(y, dtype=float)[None, :]
    weights = np.empty_like(block)
    in_z = lagmoments._omega_block(triple, config, block, weights,
                                   np.empty_like(block))
    return weights[0], bool(in_z[0])


# --- omega -----------------------------------------------------------------

def test_omega_constant_one_gives_unit_weights():
    w, in_z = omega_at(linear_triple(3), EXACT, np.array([0.3, -5.0, 0.0]))
    assert np.array_equal(w, np.ones(3))
    assert in_z is False


def test_omega_sign_power_flags_origin():
    triple = NonlinearityTriple(sigma=(nl.identity(),),
                                g=(nl.sign_power(0.3),),
                                h=(nl.sign_power(0.7),))
    _, in_z = omega_at(triple, EXACT, np.array([0.0]))
    assert in_z is True
    _, in_z = omega_at(triple, EXACT, np.array([0.5]))
    assert in_z is False
    # in a chunk, one singular row and one NaN row (NaN is skipped, so it
    # flags only beside a zero); a chunk without them flags nothing
    triple = NonlinearityTriple.uniform(nl.identity(), nl.sign_power(0.3),
                                        nl.sign_power(0.7), 3)
    rows = [[0.5, -1.0, 2.0], [0.5, 0.0, 2.0], [0.5, np.nan, 2.0],
            [np.nan, -0.0, 0.1], [0.5, -1.0, 2.0]]
    for block, flags in ((rows, [False, True, False, True, False]),
                         (rows[:1] + rows[2:3], [False, False]),
                         (rows[:1], [False])):
        block = np.array(block)
        weights = np.empty_like(block)
        in_z = lagmoments._omega_block(triple, EXACT, block, weights,
                                       np.empty_like(block))
        assert in_z.tolist() == flags
        assert [omega_at(triple, EXACT, row)[1] for row in block] == flags


def test_omega_regularized_boundary_fill():
    triple = triple_preset("singular-g", 1)  # g is the identity
    cfg = WeightingConfig(delta=0.1)
    w, in_z = omega_at(triple, cfg, np.array([0.05]))
    assert w[0] == pytest.approx(10.0, abs=1e-12)
    assert in_z is False
    # outside the neighborhood, the raw reciprocal
    w, _ = omega_at(triple, cfg, np.array([0.5]))
    assert w[0] == pytest.approx(2.0, abs=1e-12)


def test_omega_regularized_heterogeneous_matches_per_node_clamp():
    g = (nl.sign_power(0.4), nl.tanh()) * 3
    triple = NonlinearityTriple(sigma=(nl.identity(),) * 6, g=g,
                                h=(nl.sign_power(0.6),) * 6)
    delta = 0.05
    cfg = WeightingConfig(delta=delta)
    y = np.random.default_rng(4).normal(scale=0.1, size=(40, 6))
    y[:4] = [[0.0] * 6, [delta] * 6, [-delta] * 6, [0.7] * 6]
    got = np.array([omega_at(triple, cfg, row)[0] for row in y])
    for node, fn in enumerate(g):
        # the clamp formula, one node (column) at a time
        sub = y[:, node]
        offsets = sub[:, None] - np.asarray(fn.zeros)
        nearest = np.take_along_axis(
            offsets, np.argmin(np.abs(offsets), axis=-1)[:, None], axis=-1)[:, 0]
        boundary = (sub - nearest) + delta * np.where(nearest >= 0, 1.0, -1.0)
        clamped = np.where(np.abs(nearest) < delta, boundary, sub)
        expected = 1.0 / nl._KERNELS[fn.kind][0](*fn.params)(
            clamped, np.empty_like(clamped))
        assert np.array_equal(got[:, node], expected)


def test_weighting_config_validation():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            WeightingConfig(delta=bad)
    with pytest.raises(ValueError):
        WeightingConfig(delta=-1.0)


# --- accumulation ----------------------------------------------------------

def test_accumulate_outer_products():
    lag = LagMatrices(n_nodes=2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    accumulate(lag, linear_triple(2), EXACT, e1, e2)
    assert np.array_equal(lag.f0_sum, np.outer(e1, e1))
    assert np.array_equal(lag.f1_sum, np.outer(e2, e1))
    assert lag.count == 1


def test_singular_state_skips_f1_but_not_f0():
    # g = tanh vanishes at 0 while h = 1 there, so the pair contributes
    # only to the zero-lag sum; so does a subnormal g, whose reciprocal
    # overflows, but not the smallest normal one
    triple = NonlinearityTriple(sigma=(nl.identity(),), g=(nl.tanh(),),
                                h=(nl.constant_one(),))
    for y in (0.0, 5e-324, -1e-310):
        lag = LagMatrices(n_nodes=1)
        accumulate(lag, triple, EXACT, np.array([y]), np.array([2.0]))
        assert np.array_equal(lag.f1_sum, [[0.0]])
        assert np.array_equal(lag.f0_sum, [[1.0]])
    _, in_z = omega_at(triple, EXACT, np.array([np.finfo(float).tiny]))
    assert in_z is False


def test_double_accumulation_doubles_sums():
    lag = LagMatrices(n_nodes=2)
    y0 = np.array([0.7, -0.2])
    y1 = np.array([0.1, 0.4])
    accumulate(lag, linear_triple(2), EXACT, y0, y1)
    f0_once = lag.f0_sum.copy()
    f1_once = lag.f1_sum.copy()
    accumulate(lag, linear_triple(2), EXACT, y0, y1)
    assert lag.count == 2
    assert np.allclose(lag.f0_sum, 2 * f0_once, rtol=1e-12, atol=0)
    assert np.allclose(lag.f1_sum, 2 * f1_once, rtol=1e-12, atol=0)


def test_finalize_single_pair():
    lag = LagMatrices(n_nodes=2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    accumulate(lag, linear_triple(2), EXACT, e1, e2)
    f0, f1 = finalize(lag)
    assert np.array_equal(f0, np.outer(e1, e1))
    assert np.array_equal(f1, np.outer(e2, e1))


def test_finalize_is_average_over_identical_pairs():
    lag = LagMatrices(n_nodes=2)
    y0 = np.array([0.3, 0.9])
    y1 = np.array([-0.5, 0.2])
    for _ in range(7):
        accumulate(lag, linear_triple(2), EXACT, y0, y1)
    f0, f1 = finalize(lag)
    assert np.allclose(f0, np.outer(y0, y0), rtol=1e-14, atol=0)
    assert np.allclose(f1, np.outer(y1, y0), rtol=1e-14, atol=0)


def test_finalize_empty_accumulator_is_an_error():
    with pytest.raises(InvalidStateError):
        finalize(LagMatrices(n_nodes=3))


def test_linear_f0_equals_raw_correlation(instance50):
    _, matrix = instance50
    triple = linear_triple(50)
    traj = simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 2000, seed=17)
    f0, _ = finalize(from_trajectory(traj, triple, EXACT))
    r0 = traj.states[:-1].T @ traj.states[:-1] / traj.n_steps
    assert np.abs(f0 - r0).max() <= 1e-12 * max(1.0, np.abs(r0).max())


@pytest.mark.parametrize("preset, n_steps", [
    ("example1", 2 * lagmoments._BATCH_CHUNK + 37), ("example2", 1000)],
    ids=["three chunks", "under a chunk"])
def test_the_raw_walk_is_the_linear_pass_bit_for_bit(trajectory_factory,
                                                     preset, n_steps):
    # the raw baselines read this walk; with linear functions the one-lag
    # kernel writes the raw states, so both sums keep their bytes
    traj = trajectory_factory(preset, 12, n_steps)
    raw = lagmoments._moment_sums(traj.states, traj.n_steps)
    lag = from_trajectory(traj, linear_triple(50), EXACT)
    assert isinstance(raw, LagMatrices) and raw.count == lag.count == n_steps
    assert raw.f0_sum.tobytes() == lag.f0_sum.tobytes()
    assert raw.f1_sum.tobytes() == lag.f1_sum.tobytes()


def test_from_trajectory_prefix_matches_manual_loop():
    n = 4
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 2), 0.5)
    triple = triple_preset("example2", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 60, seed=23)
    lag = LagMatrices(n_nodes=n)
    for k in range(25):
        accumulate(lag, triple, EXACT, traj.states[k], traj.states[k + 1])
    batch = from_trajectory(traj, triple, EXACT, n_pairs=25)
    assert batch.count == lag.count == 25
    scale = np.abs(lag.f0_sum).max()
    assert np.abs(batch.f0_sum - lag.f0_sum).max() <= 1e-12 * scale
    assert np.abs(batch.f1_sum - lag.f1_sum).max() <= 1e-12 * max(
        1.0, np.abs(lag.f1_sum).max())


@pytest.mark.parametrize("preset, config", [
    ("example1", EXACT),
    ("example2", EXACT),
    ("singular-g", EXACT),
    ("singular-g", WeightingConfig(delta=0.1)),
    ("singular-h", EXACT),
], ids=["example1", "example2", "singular-g-exact", "singular-g-delta0.1",
        "singular-h"])
def test_empty_batch_then_one_step_matches_a_fresh_accumulator(preset, config):
    # node 1 of the base state sits at the root 0 of every g here but
    # singular-h's, which is constant
    triple = triple_preset(preset, 3)
    lead = [2.5, -2.5, 0.4] if preset == "singular-h" else [0.4, -0.5, 0.6]
    traj = Trajectory(states=[[0.3, 0.0, -0.2], lead], seed=0)
    at_root = (triple.eval_g(traj.states[0]) == 0.0).tolist()
    assert at_root == [False, preset != "singular-h", False]
    lag = accumulate(from_trajectory(traj, triple, config, n_pairs=0), triple,
                     config, traj.states[0], traj.states[1])
    fresh = from_trajectory(traj, triple, config)
    assert np.array_equal(lag.f0_sum.view(np.uint64), fresh.f0_sum.view(np.uint64))
    assert np.array_equal(lag.f1_sum.view(np.uint64), fresh.f1_sum.view(np.uint64))
    # exact weights drop the whole one-lag row of a singular base state
    dropped = config.delta == 0 and any(at_root)
    assert lag.f1_sum.any() != dropped


@pytest.mark.parametrize("preset, config", [
    ("example1", EXACT),
    ("example2", EXACT),
    ("linear", EXACT),
    ("singular-h", EXACT),
    ("singular-g", EXACT),
    ("singular-g", WeightingConfig(delta=0.1)),
], ids=["example1", "example2", "linear", "singular-h", "singular-g-exact",
        "singular-g-delta0.1"])
def test_accumulate_matches_the_per_step_formula_bitwise(trajectory_factory,
                                                         preset, config):
    # the one-pair kernel adds the outer products of h(y[k]) and of the
    # weighted target, and nothing for the one-lag term of a singular base
    triple = triple_preset(preset, 50)
    states = np.array(trajectory_factory(preset, 3001, 2000).states)
    states[100, 7] = 0.0  # a root of every g here but the constant ones
    lag = LagMatrices(n_nodes=50)
    f0_ref, f1_ref = np.zeros((50, 50)), np.zeros((50, 50))
    for k in range(2000):
        accumulate(lag, triple, config, states[k], states[k + 1])
        h = triple.eval_h(states[k])
        w, in_z = omega_at(triple, config, states[k])
        f0_ref += np.outer(h, h)
        if not in_z:
            f1_ref += np.outer(w * triple.eval_sigma.inverse(states[k + 1]), h)
    assert np.array_equal(lag.f0_sum.view(np.uint64), f0_ref.view(np.uint64))
    assert np.array_equal(lag.f1_sum.view(np.uint64), f1_ref.view(np.uint64))


@pytest.mark.parametrize("y_k1, n_nodes, shapes", [
    (np.zeros(1), 3, r"\(3,\) and \(1,\) and an accumulator over 3 nodes"),
    (0.5, 3, r"\(3,\) and \(\) and an accumulator over 3 nodes"),
    (np.zeros(3), 4, r"\(3,\) and \(3,\) and an accumulator over 4 nodes"),
], ids=["one-node-lead", "scalar-lead", "four-node-accumulator"])
def test_accumulate_rejects_mismatched_shapes(y_k1, n_nodes, shapes):
    lag = LagMatrices(n_nodes=n_nodes)
    with pytest.raises(ValueError, match=f"step shapes {shapes} .* 3 nodes"):
        accumulate(lag, linear_triple(3), EXACT, np.zeros(3), y_k1)
    assert lag.count == 0
    assert not lag.f0_sum.any() and not lag.f1_sum.any()


def test_accumulate_of_an_overflowing_weight_is_silent_like_the_pass():
    # a subnormal delta clamps the root 0 of g to 1e-310, whose reciprocal
    # overflows; one pair goes through the chunk reducer, so the sums turn
    # non-finite without a warning, as they do in from_trajectory
    triple = triple_preset("singular-g", 3)
    config = WeightingConfig(delta=1e-310)
    traj = Trajectory(states=[[0.0] * 3, [0.5] * 3], seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lag = accumulate(LagMatrices(n_nodes=3), triple, config,
                         traj.states[0], traj.states[1])
    fresh = from_trajectory(traj, triple, config)
    assert not np.isfinite(lag.f1_sum).any()
    np.testing.assert_array_equal(lag.f0_sum, fresh.f0_sum)
    np.testing.assert_array_equal(lag.f1_sum, fresh.f1_sum)


def test_singular_base_still_checks_the_next_state():
    # the one-lag term of a singular base state is zeroed, not skipped, so
    # sigma^{-1} checks y[k+1] in both paths
    triple = triple_preset("example2", 3)  # g(0) = 0, sigma = tanh
    states = [[0.3, 0.0, -0.2], [0.4, 1.0, 0.6]]
    lag = LagMatrices(n_nodes=3)
    with pytest.raises(FunctionDomainError) as err:
        accumulate(lag, triple, EXACT, states[0], states[1])
    # a lone pair is no epoch of a trajectory, so only the node is named
    assert (err.value.epoch, err.value.node) == (None, 1)
    assert str(err.value) == ("input outside the domain of tanh inverse "
                              "at node 1: value 1.0")
    assert lag.count == 0 and not lag.f0_sum.any()
    with pytest.raises(FunctionDomainError) as err:
        from_trajectory(Trajectory(states=states, seed=0), triple, EXACT)
    assert (err.value.epoch, err.value.node) == (1, 1)


def test_moment_identity_per_sample():
    # sigma^{-1}(y_{k+1}) recovers the additive drive exactly, so
    # F1hat - A F0hat equals the noise cross-moment term, corrected by the
    # zero-lag contribution of epochs the one-lag indicator drops (here
    # only epoch 0: y0 = 0 sits in the singular set of g)
    n, steps, seed = 6, 400, 31
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.4, 4), 0.5)
    triple = triple_preset("example2", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, steps, seed=seed)
    f0, f1 = finalize(from_trajectory(traj, triple, EXACT))
    noise = np.random.default_rng(seed).standard_normal((steps, n))
    rhs = np.zeros((n, n))
    singular_epochs = []
    for k in range(steps):
        w, in_z = omega_at(triple, EXACT, traj.states[k])
        h_k = triple.eval_h(traj.states[k])
        if in_z:
            singular_epochs.append(k)
            rhs -= matrix.entries @ np.outer(h_k, h_k)
        else:
            rhs += np.outer(w * noise[k], h_k)
    rhs /= steps
    assert singular_epochs == [0]
    residual = f1 - matrix.entries @ f0 - rhs
    assert np.abs(residual).max() <= 1e-10


def test_plain_summation_tracks_extended_precision(trajectory_factory):
    # the per-step path sums without compensation; over 5k pairs it stays
    # within 1e-12 relative of an extended-precision running sum
    n_pairs = 5_000
    traj = trajectory_factory("example2", 3001, 200_000)
    triple = triple_preset("example2", 50)
    lag = LagMatrices(n_nodes=50)
    h_rows, target_rows = [], []
    for k in range(n_pairs):
        accumulate(lag, triple, EXACT, traj.states[k], traj.states[k + 1])
        w, in_z = omega_at(triple, EXACT, traj.states[k])
        h_rows.append(triple.eval_h(traj.states[k]))
        target_rows.append(np.zeros(50) if in_z
                           else w * triple.eval_sigma.inverse(traj.states[k + 1]))
    h = np.asarray(h_rows, dtype=np.longdouble)
    targets = np.asarray(target_rows, dtype=np.longdouble)
    for got, ref in ((lag.f0_sum, h.T @ h), (lag.f1_sum, targets.T @ h)):
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel <= 1e-12


@pytest.mark.parametrize("fn", [from_trajectory, omega_tail_index])
def test_n_pairs_outside_the_trajectory_is_rejected(instance50, fn):
    _, matrix = instance50
    triple = linear_triple(50)
    traj = simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 200, seed=6)
    for n_pairs in (-1, traj.n_steps + 1):
        with pytest.raises(ValueError, match=r"n_pairs must lie in \[0, 200\]"):
            fn(traj, triple, EXACT, n_pairs=n_pairs)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fn(traj, linear_triple(3), EXACT)


def test_f0_symmetry_and_psd(trajectory_factory):
    traj = trajectory_factory("example2", 3001, 200_000)
    triple = triple_preset("example2", 50)
    lag = from_trajectory(traj, triple, EXACT)
    f0, _ = finalize(lag)
    assert np.abs(lag.f0_sum - lag.f0_sum.T).max() <= 1e-10 * lag.count
    assert np.linalg.eigvalsh(f0).min() >= -1e-10


@settings(deadline=None, max_examples=25)
@given(
    preset=st.sampled_from(["linear", "example1", "example2"]),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=2, max_value=120),
)
def test_f0_psd_property(preset, seed, steps):
    n = 4
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 1), 0.5)
    triple = triple_preset(preset, n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, steps, seed=seed)
    f0, _ = finalize(from_trajectory(traj, triple, EXACT))
    assert np.abs(f0 - f0.T).max() <= 1e-10
    assert np.linalg.eigvalsh(f0).min() >= -1e-10


def test_ergodic_decades_shrink(trajectory_factory):
    # |F0(1e5) - F0(1e4)| should be smaller than |F0(1e4) - F0(1e3)|
    # for most seeds of the stable bounded-sigma preset
    triple = triple_preset("example2", 50)
    wins = 0
    for seed in (3001, 3002, 3003, 3004, 3005):
        traj = trajectory_factory("example2", seed, 200_000)
        mats = {}
        for n in (1_000, 10_000, 100_000):
            f0, _ = finalize(from_trajectory(traj, triple, EXACT, n_pairs=n))
            mats[n] = f0
        d1 = np.linalg.norm(mats[10_000] - mats[1_000])
        d2 = np.linalg.norm(mats[100_000] - mats[10_000])
        wins += d2 < d1
    assert wins >= 3


def test_running_weight_moment_linear_is_one(instance50):
    _, matrix = instance50
    triple = linear_triple(50)
    traj = simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 500, seed=2)
    running = running_weight_moment(traj, triple, EXACT)
    assert running.shape == (500,)
    assert np.allclose(running, 50.0, rtol=0, atol=1e-12)  # ||1||^2 = N
    with pytest.raises(ValueError, match="dimension mismatch"):
        running_weight_moment(traj, linear_triple(3), EXACT)


def test_running_onelag_max_shape_and_finiteness(instance50):
    _, matrix = instance50
    triple = linear_triple(50)
    traj = simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 1000, seed=4)
    checkpoints, maxima = running_onelag_max(traj, triple, EXACT)
    assert checkpoints.tolist() == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
    assert np.all(np.isfinite(maxima))
    assert maxima.shape == checkpoints.shape


def test_omega_tail_index_degenerate_weights_is_infinite(instance50):
    _, matrix = instance50
    triple = linear_triple(50)
    traj = simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 2000, seed=6)
    assert omega_tail_index(traj, triple, EXACT) == np.inf


def test_omega_tail_index_heavy_tail_is_low(trajectory_factory):
    # reciprocal-identity weights have a divergent second moment; the
    # estimated tail exponent sits near 1
    traj = trajectory_factory("singular-g", 3001, 100_000)
    triple = triple_preset("singular-g", 50)
    tail = omega_tail_index(traj, triple, EXACT)
    assert np.isfinite(tail)
    assert tail < 2.0


# --- reused chunk buffers --------------------------------------------------

def _fresh_weights(triple, config, base):
    """Weights and singular flags of ``base``, built from fresh arrays."""
    if config.delta > 0:
        clamped = base.copy()
        for fn, nodes, *_ in triple.eval_g.runs:
            if not fn.zeros:
                continue
            sub = base[..., nodes]
            offsets = sub[..., None] - np.asarray(fn.zeros)
            nearest = np.take_along_axis(
                offsets, np.argmin(np.abs(offsets), axis=-1)[..., None], axis=-1
            )[..., 0]
            side = np.where(nearest >= 0, 1.0, -1.0)
            boundary = sub - nearest + config.delta * side
            clamped[..., nodes] = np.where(np.abs(nearest) < config.delta,
                                           boundary, sub)
        return 1.0 / triple.eval_g(clamped), np.zeros(len(base), dtype=bool)
    g_vals = triple.eval_g(base)
    with np.errstate(divide="ignore"):
        return 1.0 / g_vals, np.any(g_vals == 0.0, axis=1)


@pytest.mark.parametrize("preset, config", [
    ("example1", EXACT),
    ("example2", EXACT),
    ("singular-h", EXACT),
    ("singular-g", EXACT),
    ("singular-g", WeightingConfig(delta=0.1)),
], ids=["example1", "example2", "singular-h", "singular-g-exact",
        "singular-g-delta0.1"])
def test_reused_buffers_match_fresh_chunks_bitwise(instance50, preset, config):
    # two full chunks and a partial one; a stale row left in a reused
    # buffer, or a changed order of sums, would change some bits
    _, matrix = instance50
    triple = triple_preset(preset, 50)
    chunk = lagmoments._BATCH_CHUNK
    n = 2 * chunk + 37
    states = np.array(simulate(matrix, triple, NoiseModel.uniform(50), 0.0, n,
                               seed=11).states)
    states[n - 20, 3] = 0.0  # a root of every g here but singular-h's
    traj = Trajectory(states=states, seed=11)

    base_parts, cross_parts, norm_parts, valid_parts = [], [], [], []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        base = states[start:stop]
        weights, in_z = _fresh_weights(triple, config, base)
        lead = triple.eval_sigma.inverse(states[start + 1:stop + 1])
        with np.errstate(invalid="ignore"):
            targets = weights * lead
        targets[in_z] = 0.0
        h = triple.eval_h(base)
        base_parts.append(h.T @ h)
        cross_parts.append(targets.T @ h)
        weights[in_z] = 0.0
        norm_parts.append(np.einsum("ij,ij->i", weights, weights))
        valid_parts.append(~in_z)
    singular = config.delta == 0 and preset != "singular-h"
    assert valid_parts[-1].tolist().count(False) == singular

    lag = from_trajectory(traj, triple, config)
    assert np.array_equal(lag.f0_sum, sum(base_parts, np.zeros((50, 50))))
    assert np.array_equal(lag.f1_sum, sum(cross_parts, np.zeros((50, 50))))

    norms, valid = np.concatenate(norm_parts), np.concatenate(valid_parts)
    got_norms, got_valid = lagmoments._weight_norms(traj, triple, config, None)
    assert np.array_equal(got_norms, norms) and np.array_equal(got_valid, valid)
    values = norms[valid]
    top = max(lagmoments._TAIL_MIN_TOP,
              int(values.size * lagmoments._TAIL_TOP_FRACTION))
    ordered = np.partition(values, values.size - top - 1)
    pivot = ordered[values.size - top - 1]
    total = float((np.log(ordered[values.size - top:]) - np.log(pivot)).sum())
    expected = top / total if total > 0.0 else float("inf")
    assert omega_tail_index(traj, triple, config) == expected


_FOOTPRINT_PAIRS = 3 * lagmoments._BATCH_CHUNK
#: Two reused chunk buffers of 50 nodes, and half of one to spare.
_FOOTPRINT_BOUND = 2.5 * lagmoments._BATCH_CHUNK * 50 * 8


#: example1 in both modes, singular-h, whose sigma family has three runs, and
#: example2, whose h kernel needs a temporary for its sine.
_FOOTPRINT_CASES = pytest.mark.parametrize("preset, config", [
    ("example1", EXACT),
    ("example1", WeightingConfig(delta=0.1)),
    ("singular-h", EXACT),
    ("example2", EXACT),
], ids=["exact", "delta0.1", "singular-h-exact", "example2-exact"])


@_FOOTPRINT_CASES
def test_from_trajectory_holds_two_chunk_buffers(trajectory_factory,
                                                 peak_traced_bytes, preset,
                                                 config):
    traj = trajectory_factory(preset, 12, _FOOTPRINT_PAIRS)
    triple = triple_preset(preset, 50)
    _, peak = peak_traced_bytes(lambda: from_trajectory(traj, triple, config))
    assert peak < _FOOTPRINT_BOUND


@_FOOTPRINT_CASES
def test_omega_tail_index_holds_two_chunk_buffers(trajectory_factory,
                                                  peak_traced_bytes, preset,
                                                  config):
    traj = trajectory_factory(preset, 12, _FOOTPRINT_PAIRS)
    triple = triple_preset(preset, 50)
    _, peak = peak_traced_bytes(lambda: omega_tail_index(traj, triple, config))
    # plus the per-epoch norms, the regular-state mask and the copy of the
    # regular norms that the Hill fit partitions in place
    assert peak < _FOOTPRINT_BOUND + _FOOTPRINT_PAIRS * (8 + 1 + 8)

"""Estimator algebra, baselines, and partial observation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import (
    CombinationMatrix,
    FunctionDomainError,
    NearSingularError,
    NoiseModel,
    Trajectory,
    WeightingConfig,
    build_combination_matrix,
    correlation_estimate,
    egg_estimate,
    egg_from_trajectory,
    from_trajectory,
    generate_binomial_graph,
    granger_estimate,
    least_squares_estimate,
    partial_estimate,
    precision_estimate,
    score,
    simulate,
    triple_preset,
)
from granet import estimators, lagmoments


def noiseless_scalar_ar():
    a = CombinationMatrix(0.5, np.array([[0.5]]))
    return simulate(a, triple_preset("linear", 1), NoiseModel.uniform(1, 0.0),
                    1.0, 3, seed=0)


def test_egg_identity_solve():
    m = np.array([[0.3, -1.2], [4.0, 0.5]])
    rep = egg_estimate(np.eye(2), m)
    assert np.allclose(rep.A_hat, m, rtol=1e-14, atol=0)
    assert rep.estimator_kind == "egg"
    assert rep.cond_F0 == pytest.approx(1.0)


def test_egg_rejects_asymmetric_f0():
    with pytest.raises(ValueError):
        egg_estimate(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


def test_egg_near_singular_carries_condition_number():
    with pytest.raises(NearSingularError) as err:
        egg_estimate(np.diag([1.0, 1e-15]), np.eye(2))
    assert err.value.cond > 1e12


def test_egg_exactly_singular():
    with pytest.raises(NearSingularError) as err:
        egg_estimate(np.diag([1.0, 0.0]), np.eye(2))
    assert err.value.cond == float("inf")


def test_egg_refuses_a_nan_moment_matrix():
    with pytest.raises(NearSingularError) as err:
        egg_estimate(np.diag([1.0, np.nan]), np.eye(2))
    assert np.isnan(err.value.cond)


def test_noiseless_scalar_recovers_coefficient_exactly():
    traj = noiseless_scalar_ar()
    assert granger_estimate(traj).A_hat[0, 0] == 0.5
    assert egg_from_trajectory(traj, triple_preset("linear", 1)).A_hat[0, 0] == 0.5
    # least squares factors the design instead of dividing its moments, so
    # it is held to a tolerance, not to the bit
    ls = least_squares_estimate(traj, triple_preset("linear", 1)).A_hat[0, 0]
    assert ls == pytest.approx(0.5, abs=1e-12)


def test_granger_var_consistency_long_run():
    n = 5
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.4, 7), 0.5)
    traj = simulate(matrix, triple_preset("linear", n), NoiseModel.uniform(n),
                    0.0, 1_000_000, seed=13)
    a_hat = granger_estimate(traj).A_hat
    rel = np.linalg.norm(a_hat - matrix.entries) / np.linalg.norm(matrix.entries)
    assert rel < 0.02


def test_granger_blind_on_nonlinear_data(trajectory_factory, instance50):
    graph, matrix = instance50
    traj = trajectory_factory("example1", 3001, 200_000)
    a_hat = granger_estimate(traj).A_hat
    metrics = score(a_hat, matrix.entries)
    assert metrics.identifiability_gap <= 0


def test_correlation_pure_noise_approximates_identity():
    n = 3
    a = CombinationMatrix(0.5, np.zeros((n, n)))
    traj = simulate(a, triple_preset("linear", n), NoiseModel.uniform(n),
                    0.0, 1_000_000, seed=29)
    r0 = correlation_estimate(traj).A_hat
    assert np.abs(r0 - np.eye(n)).max() < 0.02


def test_correlation_constant_trajectory_is_rank_one():
    v = np.array([2.0, -1.0, 0.5])
    states = np.tile(v, (5, 1))
    traj = Trajectory(states=states, seed=0)
    assert np.array_equal(correlation_estimate(traj).A_hat, np.outer(v, v))


def test_precision_diagonal_inverse():
    # four states whose raw second moment is exactly diag(4, 1)
    states = np.array(
        [[2.0, 1.0], [-2.0, 1.0], [2.0, -1.0], [-2.0, -1.0], [0.0, 0.0]])
    traj = Trajectory(states=states, seed=0)
    assert np.array_equal(correlation_estimate(traj).A_hat, np.diag([4.0, 1.0]))
    assert np.allclose(precision_estimate(traj).A_hat, np.diag([0.25, 1.0]),
                       rtol=1e-14, atol=0)


def test_precision_blind_on_nonlinear_data(trajectory_factory, instance50):
    _, matrix = instance50
    traj = trajectory_factory("example2", 3001, 200_000)
    for estimate in (precision_estimate(traj), correlation_estimate(traj)):
        metrics = score(estimate.A_hat, matrix.entries)
        assert metrics.identifiability_gap <= 0


def test_least_squares_single_pair_ratio():
    traj = Trajectory(states=np.array([[2.0], [3.0]]), seed=0)
    rep = least_squares_estimate(traj, triple_preset("linear", 1))
    assert rep.A_hat[0, 0] == 1.5
    assert rep.estimator_kind == "least_squares"


def test_least_squares_rank_deficient():
    traj = Trajectory(states=np.array([[1.0, 2.0], [0.5, 0.5]]), seed=0)
    with pytest.raises(NearSingularError):
        least_squares_estimate(traj, triple_preset("linear", 2))


def test_least_squares_fewer_pairs_than_nodes_is_infinitely_conditioned():
    # one pair on three nodes: the design has rank 1, so its third
    # singular value is zero, not the ratio of the one lstsq would return
    traj = Trajectory(states=np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.1]]),
                      seed=0)
    with pytest.raises(NearSingularError) as err:
        least_squares_estimate(traj, triple_preset("linear", 3))
    assert err.value.cond == float("inf")


_ORACLE_NODES = 6
_CHUNK = lagmoments._BATCH_CHUNK
_QR_BLOCK = estimators._QR_BLOCK
_ORACLE_CASES = pytest.mark.parametrize("preset, config", [
    ("example1", WeightingConfig()),
    ("example2", WeightingConfig()),
    ("linear", WeightingConfig()),
    ("singular-g", WeightingConfig(delta=0.1)),
], ids=["example1", "example2", "linear", "singular-g-delta0.1"])


@functools.lru_cache(maxsize=None)
def _oracle_trajectory(preset):
    n = _ORACLE_NODES
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 31), 0.5)
    return simulate(matrix, triple_preset(preset, n), NoiseModel.uniform(n),
                    0.0, 2 * _CHUNK + 17, seed=37)


@_ORACLE_CASES
@pytest.mark.parametrize("n_pairs", [1, _ORACLE_NODES - 1, _QR_BLOCK - 1,
                                     _QR_BLOCK, _QR_BLOCK + 1,
                                     2 * _QR_BLOCK + 17, _CHUNK - 1, _CHUNK,
                                     _CHUNK + 1, 2 * _CHUNK + 17])
def test_streamed_least_squares_matches_lstsq_on_the_whole_design(
        preset, config, n_pairs):
    # the reference is lstsq (SVD) on the full-range design; the streamed
    # QR sums in another order, so the two agree to rounding, not bitwise
    full = _oracle_trajectory(preset)
    traj = Trajectory(states=full.states[:n_pairs + 1], seed=full.seed)
    triple = triple_preset(preset, _ORACLE_NODES)
    targets, design = lagmoments._onelag_terms(
        triple, config, traj.states, 0, n_pairs,
        lagmoments._chunk_buffers(n_pairs, _ORACLE_NODES))
    coeffs, _, rank, singular_values = np.linalg.lstsq(design, targets,
                                                       rcond=None)
    if rank < _ORACLE_NODES:
        with pytest.raises(NearSingularError):
            least_squares_estimate(traj, triple, config)
        return
    report = least_squares_estimate(traj, triple, config)
    expected = coeffs.T
    assert np.linalg.norm(report.A_hat - expected) \
        <= 1e-12 * np.linalg.norm(expected)
    assert report.cond_F0 == pytest.approx(
        (singular_values[0] / singular_values[-1]) ** 2, rel=1e-10)
    assert report.n_samples == n_pairs


def test_streamed_least_squares_names_the_epoch_of_a_domain_error():
    # sigma = tanh; a state at 1 in the second chunk is outside arctanh's
    # domain, and both passes name its epoch and node
    states = np.array(_oracle_trajectory("example2").states)
    states[_CHUNK + 100, 4] = 1.0
    traj = Trajectory(states=states, seed=0)
    triple = triple_preset("example2", _ORACLE_NODES)
    with pytest.raises(FunctionDomainError) as oracle:
        least_squares_estimate(traj, triple)
    with pytest.raises(FunctionDomainError) as moments:
        from_trajectory(traj, triple, WeightingConfig())
    assert (oracle.value.epoch, oracle.value.node) \
        == (moments.value.epoch, moments.value.node) == (_CHUNK + 100, 4)


@pytest.mark.parametrize("preset", ["example1", "example2"])
def test_least_squares_memory_does_not_grow_with_the_trajectory(
        trajectory_factory, peak_traced_bytes, preset):
    chunk_buffer = _CHUNK * 50 * 8
    long = trajectory_factory(preset, 13, 12 * _CHUNK)
    short = Trajectory(states=long.states[:3 * _CHUNK + 1], seed=long.seed)
    triple = triple_preset(preset, 50)
    _, long_peak = peak_traced_bytes(lambda: least_squares_estimate(long, triple))
    _, short_peak = peak_traced_bytes(
        lambda: least_squares_estimate(short, triple))
    assert long_peak < 8 * chunk_buffer
    assert abs(long_peak - short_peak) < 0.5 * chunk_buffer


@pytest.mark.parametrize("preset", ["example1", "example2"])
@pytest.mark.parametrize("n_chunks", [3, 12])
def test_least_squares_holds_under_one_chunk_buffer(trajectory_factory,
                                                    peak_traced_bytes, preset,
                                                    n_chunks):
    # the (2N + _QR_BLOCK, 2N) buffer and the copy qr makes of it
    long = trajectory_factory(preset, 13, 12 * _CHUNK)
    traj = Trajectory(states=long.states[:n_chunks * _CHUNK + 1], seed=long.seed)
    triple = triple_preset(preset, 50)
    _, peak = peak_traced_bytes(lambda: least_squares_estimate(traj, triple))
    assert peak < _CHUNK * 50 * 8


def test_least_squares_agrees_with_egg():
    n = 6
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.4, 17), 0.5)
    triple = triple_preset("example2", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 800, seed=3)
    a = egg_from_trajectory(traj, triple).A_hat
    b = least_squares_estimate(traj, triple).A_hat
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-8


def test_linear_collapse_small():
    n = 8
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.3, 19), 0.5)
    triple = triple_preset("linear", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 3000, seed=5)
    egg = egg_from_trajectory(traj, triple).A_hat
    gra = granger_estimate(traj).A_hat
    assert np.linalg.norm(egg - gra) / np.linalg.norm(gra) < 1e-10
    ls = least_squares_estimate(traj, triple).A_hat
    assert np.linalg.norm(ls - gra) / np.linalg.norm(gra) < 1e-8


def _permuted_trajectory(traj, perm):
    return Trajectory(states=traj.states[:, perm], seed=traj.seed)


@pytest.mark.parametrize("kind", ["egg", "granger", "correlation", "precision"])
def test_permutation_equivariance(kind):
    n = 6
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 23), 0.5)
    triple = triple_preset("example2", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 400, seed=9)
    perm = np.array([3, 0, 5, 1, 4, 2])
    p = np.eye(n)[perm]

    def run(t):
        if kind == "egg":
            return egg_from_trajectory(t, triple).A_hat
        if kind == "granger":
            return granger_estimate(t).A_hat
        if kind == "correlation":
            return correlation_estimate(t).A_hat
        return precision_estimate(t).A_hat

    base = run(traj)
    permuted = run(_permuted_trajectory(traj, perm))
    expected = p @ base @ p.T
    if kind == "correlation":
        # plain moment reindexing, no solve involved
        assert np.array_equal(permuted, expected)
    else:
        assert np.abs(permuted - expected).max() <= 1e-10


def test_partial_full_set_is_identical_to_full_estimate():
    n = 8
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.3, 5), 0.5)
    triple = triple_preset("example1", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 500, seed=3)
    full = egg_from_trajectory(traj, triple)
    part = partial_estimate(traj, list(range(n)), "egg", triple=triple)
    assert np.array_equal(full.A_hat, part.A_hat)
    assert part.estimator_kind == "egg_partial"
    assert part.observed_set == tuple(range(n))


def test_partial_single_node_never_ill_conditioned():
    n = 8
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.3, 5), 0.5)
    triple = triple_preset("example1", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 500, seed=3)
    rep = partial_estimate(traj, [4], "egg", triple=triple)
    assert rep.A_hat.shape == (1, 1)
    assert rep.cond_F0 == 1.0


def test_partial_validation():
    traj = noiseless_scalar_ar()
    with pytest.raises(ValueError):
        partial_estimate(traj, [0], "correlation")
    with pytest.raises(ValueError):
        partial_estimate(traj, [], "granger")
    with pytest.raises(ValueError):
        partial_estimate(traj, [0, 3], "granger")
    with pytest.raises(ValueError):
        partial_estimate(traj, [0], "egg")  # egg needs the triple


def test_partial_observed_set_is_sorted_unique():
    n = 6
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 23), 0.5)
    traj = simulate(matrix, triple_preset("linear", n), NoiseModel.uniform(n),
                    0.0, 300, seed=2)
    rep = partial_estimate(traj, [5, 1, 3], "granger")
    assert rep.observed_set == (1, 3, 5)
    assert rep.A_hat.shape == (3, 3)


def test_report_metadata(instance50):
    _, matrix = instance50
    traj = simulate(matrix, triple_preset("linear", 50), NoiseModel.uniform(50),
                    0.0, 250, seed=1)
    rep = granger_estimate(traj)
    assert rep.n_samples == 250
    assert np.isfinite(rep.cond_F0)
    assert rep.observed_set is None
    assert correlation_estimate(traj).cond_F0 is None


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=50, max_value=400),
)
def test_oracle_equivalence_property(seed, steps):
    n = 5
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 11), 0.5)
    triple = triple_preset("example1", n)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, steps, seed=seed)
    try:
        egg = egg_from_trajectory(traj, triple)
    except NearSingularError:
        return  # ill-conditioned draws are outside the equivalence contract
    if egg.cond_F0 >= 1e8:
        return
    ls = least_squares_estimate(traj, triple)
    assert np.linalg.norm(egg.A_hat - ls.A_hat) / np.linalg.norm(egg.A_hat) < 1e-8

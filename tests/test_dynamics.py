"""Simulator behavior: exact reductions, determinism, guards."""

import warnings

import numpy as np
import pytest

from granet import (
    CombinationMatrix,
    FunctionDomainError,
    NoiseModel,
    NonlinearityTriple,
    SimulationDivergedError,
    Trajectory,
    build_combination_matrix,
    generate_binomial_graph,
    simulate,
    triple_preset,
)
from granet import nonlinearities as nl
from granet.dynamics import (DIVERGENCE_LIMIT, _epoch_kernels, _Family,
                             _redraw)


def per_node(fns, y, column=0):
    """``y`` mapped one node (column) at a time by that node's bound kernel,
    ``nl._KERNELS[kind][column]`` (0 the function, 1 its inverse): the
    reference a multi-run family must match bit for bit."""
    out = np.empty_like(y)
    for node, fn in enumerate(fns):
        sub = y[..., node:node + 1]
        kernel = nl._KERNELS[fn.kind][column](*fn.params)
        out[..., node:node + 1] = kernel(sub, np.empty_like(sub))
    return out


def zero_matrix(n):
    return CombinationMatrix(0.5, np.zeros((n, n)))


def heterogeneous_triple(n):
    """sigma cycles through four kinds, g alternates two, h is uniform."""
    sigma = (nl.tanh(), nl.identity(), nl.tanh_shifted(2.0), nl.sign_power(0.5))
    g = (nl.sign_power(0.4), nl.tanh())
    return NonlinearityTriple(sigma=tuple(sigma[i % 4] for i in range(n)),
                              g=tuple(g[i % 2] for i in range(n)),
                              h=(nl.sign_power(0.6),) * n)


def reference_states(matrix, triple, noise, n_steps, seed, y0=0.0):
    """The recursion one epoch at a time, on noise drawn in one shot."""
    n = matrix.n_nodes
    x = np.random.default_rng(seed).standard_normal((n_steps, n)) \
        * noise.per_node_std
    states = np.zeros((n_steps + 1, n))
    states[0] = y0
    for k in range(n_steps):
        y = states[k]
        states[k + 1] = triple.eval_sigma(
            triple.eval_g(y) * (matrix.entries @ triple.eval_h(y)) + x[k])
    return states


@pytest.mark.parametrize("name, std, n_steps", [
    ("example1", 1.0, 3000), ("example1", 0.7, 3000),
    # across an 8192-epoch noise block, where |y| is formed again
    ("example1", 1.0, 9000),
    ("example2", 1.0, 3000), ("example2", 0.7, 3000),
    ("singular-g", 1.0, 3000), ("singular-h", 1.0, 3000),
    # across eight 8192-epoch noise blocks and a partial ninth
    ("linear", 1.0, 70_000), ("linear", 0.7, 3000),
    ("heterogeneous", 1.0, 3000), ("heterogeneous", 0.7, 3000),
])
def test_simulate_equals_reference_recursion(instance50, name, std, n_steps):
    if name == "heterogeneous":
        n = 20
        matrix = build_combination_matrix(generate_binomial_graph(n, 0.2, 101), 0.5)
        triple = heterogeneous_triple(n)
    else:
        n = 50
        _, matrix = instance50
        triple = triple_preset(name, n)
    noise = NoiseModel.uniform(n, std)
    traj = simulate(matrix, triple, noise, 0.0, n_steps, seed=77)
    assert np.array_equal(traj.states,
                          reference_states(matrix, triple, noise, n_steps, 77))


def test_zero_coupling_reproduces_noise_stream():
    # with A = 0 and identity functions the state IS the noise sequence
    traj = simulate(zero_matrix(3), triple_preset("linear", 3),
                    NoiseModel.uniform(3), 0.0, 200, seed=42)
    expected = np.random.default_rng(42).standard_normal((200, 3))
    assert np.array_equal(traj.states[1:], expected)
    assert np.array_equal(traj.states[0], np.zeros(3))


def test_scalar_geometric_decay_with_silent_noise():
    a = CombinationMatrix(0.5, np.array([[0.5]]))
    traj = simulate(a, triple_preset("linear", 1), NoiseModel.uniform(1, 0.0),
                    1.0, 3, seed=7)
    assert np.array_equal(traj.states.ravel(), [1.0, 0.5, 0.25, 0.125])


def test_example1_long_run_stays_finite(trajectory_factory):
    traj = trajectory_factory("example1", 3001, 200_000)
    assert np.all(np.isfinite(traj.states))
    assert traj.states.shape == (200_001, 50)


def test_linear_case_matches_separate_recursion():
    n_nodes, n_steps, seed = 10, 2000, 314
    matrix = build_combination_matrix(
        generate_binomial_graph(n_nodes, 0.3, seed=21), 0.5)
    traj = simulate(matrix, triple_preset("linear", n_nodes),
                    NoiseModel.uniform(n_nodes), 0.0, n_steps, seed=seed)
    # independent hand-rolled recursion on the same noise stream
    noise = np.random.default_rng(seed).standard_normal((n_steps, n_nodes))
    y = np.zeros(n_nodes)
    worst = 0.0
    for k in range(n_steps):
        y = matrix.entries @ y + noise[k]
        worst = max(worst, np.abs(y - traj.states[k + 1]).max())
    assert worst <= 1e-12


def test_seed_determinism(instance50):
    _, matrix = instance50
    triple = triple_preset("example2", 50)
    noise = NoiseModel.uniform(50)
    a = simulate(matrix, triple, noise, 0.0, 300, seed=5)
    b = simulate(matrix, triple, noise, 0.0, 300, seed=5)
    c = simulate(matrix, triple, noise, 0.0, 300, seed=6)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_bounded_sigma_keeps_states_in_range():
    # singular-h sigma: shifted tanh on nodes 0 and 1, plain tanh elsewhere
    n = 5
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.6, 3), 0.5)
    traj = simulate(matrix, triple_preset("singular-h", n),
                    NoiseModel.uniform(n), 0.0, 500, seed=11)
    after = traj.states[1:]
    assert np.all(after[:, 0] >= 1.0) and np.all(after[:, 0] <= 3.0)
    assert np.all(after[:, 1] >= -3.0) and np.all(after[:, 1] <= -1.0)
    assert np.all(np.abs(after[:, 2:]) <= 1.0)


def test_scalar_ar1_stationary_variance():
    a = CombinationMatrix(0.5, np.array([[0.5]]))
    traj = simulate(a, triple_preset("linear", 1), NoiseModel.uniform(1),
                    0.0, 1_000_000, seed=11)
    var = float(np.mean(traj.states[1:] ** 2))
    assert abs(var - 4.0 / 3.0) / (4.0 / 3.0) < 0.03


def test_divergence_guard_reports_first_epoch_and_node():
    # quadratic response around an unstable point blows up fast
    a = CombinationMatrix(0.9, np.array([[0.9]]))
    triple = NonlinearityTriple(sigma=(nl.identity(),), g=(nl.constant_one(),),
                                h=(nl.sign_power(2.0),))
    with pytest.raises(SimulationDivergedError) as err:
        simulate(a, triple, NoiseModel.uniform(1, 0.0), 2.0, 50, seed=0)
    assert err.value.epoch == 6
    assert err.value.node == 0
    assert abs(err.value.value) > 1e12


@pytest.mark.parametrize("power, y0, std, epoch, value, messages", [
    # an overflow to inf in h, then inf - inf in the matvec
    (30.0, 1e11, 1.0, 1, float("nan"),
     ["overflow encountered in power", "invalid value encountered in dot"]),
    # finite but above the limit: no warning
    (3.0, 0.0, 1e5, 2, 280543951196263.75, []),
])
def test_divergence_pins_epoch_node_value_and_warnings(power, y0, std, epoch,
                                                       value, messages):
    matrix = build_combination_matrix(generate_binomial_graph(8, 0.4, 1), 0.9)
    triple = NonlinearityTriple.uniform(nl.identity(), nl.constant_one(),
                                        nl.sign_power(power), 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SimulationDivergedError) as err:
            simulate(matrix, triple, NoiseModel.uniform(8, std), y0, 10, seed=5)
    assert (err.value.epoch, err.value.node) == (epoch, 0)
    assert repr(err.value.value) == repr(value)
    assert [(w.category, str(w.message)) for w in caught] == \
        [(RuntimeWarning, message) for message in messages]


def test_divergence_screen_adds_no_warning():
    # h = y**14 of y0 = 1e12 is finite, but its square overflows: the stop
    # is at epoch 1, and the sum-of-squares screen adds no warning of its own
    matrix = build_combination_matrix(generate_binomial_graph(8, 0.4, 1), 0.9)
    triple = NonlinearityTriple.uniform(nl.identity(), nl.constant_one(),
                                        nl.sign_power(14.0), 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SimulationDivergedError) as err:
            simulate(matrix, triple, NoiseModel.uniform(8), 1e12, 10, seed=5)
    assert (err.value.epoch, err.value.node, err.value.value) == (1, 0, 9e167)
    assert caught == []


def recorded(run):
    """What ``run()`` gives, and the ``(category, message)`` of each warning
    it gives: ``("states", bytes)`` or ``("diverged", epoch, node, repr)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ("states", run().states.tobytes())
        except SimulationDivergedError as err:
            outcome = ("diverged", err.epoch, err.node, repr(err.value))
    return outcome, [(w.category, str(w.message)) for w in caught]


def overflowing_h_run(matrix, sigma, y0, n_steps):
    """h = y**30 overflows at y0 = 1e11: in a dense matrix every row sums
    +inf, in a sparse one some row sums +inf - inf = nan."""
    n = matrix.n_nodes
    triple = NonlinearityTriple.uniform(sigma, nl.constant_one(),
                                        nl.sign_power(30.0), n)
    return lambda: simulate(matrix, triple, NoiseModel.uniform(n), y0,
                            n_steps, seed=5)


DENSE8 = CombinationMatrix(0.9, np.full((8, 8), 0.9 / 8))


def test_an_overflow_at_an_epoch_that_does_not_diverge_runs_on():
    # tanh maps the inf drive of epoch 1 to 1; the block's raising error
    # state must neither stop the run nor change a state
    outcome, caught = recorded(overflowing_h_run(DENSE8, nl.tanh(), 1e11, 50))
    assert caught == [(RuntimeWarning, "overflow encountered in power")]
    triple = NonlinearityTriple.uniform(nl.tanh(), nl.constant_one(),
                                        nl.sign_power(30.0), 8)
    with np.errstate(over="ignore"):
        expected = reference_states(DENSE8, triple, NoiseModel.uniform(8), 50,
                                    5, y0=1e11)
    assert outcome == ("states", expected.tobytes())
    assert np.all(expected[1] == 1.0)


@pytest.mark.parametrize("matrix, y0, node", [
    (build_combination_matrix(generate_binomial_graph(8, 0.4, 1), 0.9),
     1e12, 0),
    # node 0 stays within the limit only on its own noise, which sigma
    # overwrites before it overflows at node 1
    (CombinationMatrix(0.9, np.diag([0.5, 0.5])), np.array([2.0, 1e12]), 1),
])
def test_an_overflow_inside_sigma_names_its_epoch_node_and_value(matrix, y0,
                                                                 node):
    n = matrix.n_nodes
    triple = NonlinearityTriple.uniform(nl.sign_power(3.0), nl.constant_one(),
                                        nl.sign_power(9.0), n)
    outcome, caught = recorded(lambda: simulate(
        matrix, triple, NoiseModel.uniform(n), y0, 10, seed=5))
    assert outcome == ("diverged", 1, node, "inf")
    assert caught == [(RuntimeWarning, "overflow encountered in power")]


def test_a_restart_under_a_sigma_that_leaves_y_magnitude_forms_it_again():
    # sigma = sign_power(30) overflows at epoch 2 after writing the shared
    # |y|; the epoch runs again from |y[1]|, as in the reference recursion
    # (from the stale |y| = inf it would give nan and a dot warning)
    matrix = build_combination_matrix(generate_binomial_graph(8, 0.4, 1), 0.9)
    triple = NonlinearityTriple.uniform(nl.sign_power(30.0), nl.sign_power(0.3),
                                        nl.sign_power(0.7), 8)
    assert _epoch_kernels(triple, np.empty(8))[3]
    outcome, caught = recorded(lambda: simulate(
        matrix, triple, NoiseModel.uniform(8, 0.0), 2.6, 30, seed=5))
    assert outcome == ("diverged", 2, 0, "inf")
    assert caught == [(RuntimeWarning, "overflow encountered in power")]


def test_a_divergence_after_the_first_noise_block_names_its_epoch():
    # y -> 0.9 y**2 + x escapes its stable point only after 8192 epochs
    a = CombinationMatrix(0.9, np.array([[0.9]]))
    triple = NonlinearityTriple(sigma=(nl.identity(),), g=(nl.constant_one(),),
                                h=(nl.sign_power(2.0),))
    outcome, caught = recorded(lambda: simulate(
        a, triple, NoiseModel.uniform(1, 0.22), 0.0, 30_000, seed=0))
    assert outcome == ("diverged", 8339, 0, "-6.801029873866522e+21")
    assert caught == []


@pytest.mark.parametrize("run", [
    overflowing_h_run(DENSE8, nl.tanh(), 1e11, 50),
    overflowing_h_run(
        build_combination_matrix(generate_binomial_graph(8, 0.4, 1), 0.9),
        nl.identity(), 1e11, 10),
], ids=["runs on", "diverges"])
def test_simulate_keeps_the_callers_error_state(run):
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError,
                           match="overflow encountered in power"):
            run()
    with np.errstate(all="ignore"):
        quiet, caught = recorded(run)
    assert caught == []
    assert quiet == recorded(run)[0]


def test_simulate_peak_memory_is_one_state_buffer(instance50, peak_traced_bytes):
    # the trajectory buffer is allocated once and handed to Trajectory:
    # no defensive copy, no separate noise block
    _, matrix = instance50
    triple = triple_preset("example1", 50)
    traj, peak = peak_traced_bytes(
        lambda: simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 100_000,
                         seed=3))
    assert peak < 1.5 * traj.states.nbytes
    assert not traj.states.flags.writeable


def test_trajectory_keeps_only_owned_read_only_buffers():
    owned = np.zeros((6, 2))
    owned.setflags(write=False)
    assert Trajectory(states=owned, seed=0).states is owned
    # a writable input is copied, so later writes do not reach the trajectory
    writable = np.arange(12.0).reshape(6, 2)
    traj = Trajectory(states=writable, seed=0)
    writable[0, 0] = 99.0
    assert traj.states[0, 0] == 0.0 and not traj.states.flags.writeable
    # a read-only view may share a writable base: copied as well
    base = np.arange(12.0).reshape(6, 2)
    view = base[1:]
    view.setflags(write=False)
    traj = Trajectory(states=view, seed=0)
    base[1, 0] = 99.0
    assert traj.states is not view and traj.states[0, 0] == 2.0
    # other dtypes are converted, never kept
    ints = np.arange(12).reshape(6, 2)
    ints.setflags(write=False)
    assert Trajectory(states=ints, seed=0).states.dtype == np.float64


def test_family_out_matches_allocating_call():
    sigma = (nl.tanh(), nl.identity(), nl.tanh_shifted(2.0), nl.sign_power(0.5))
    family = NonlinearityTriple(sigma=sigma * 2, g=(nl.constant_one(),) * 8,
                                h=(nl.identity(),) * 8).eval_sigma
    y = np.random.default_rng(4).uniform(-3.0, 3.0, size=(5, 8))
    out = np.full_like(y, np.nan)
    assert family(y, out=out) is out
    expected = per_node(sigma * 2, y)
    assert np.array_equal(out, expected)
    assert np.array_equal(family(y), expected)


def test_family_apply_is_bit_equal_to_per_node_kernels():
    # every kernel kind as a two-node run and again as a one-node run, so
    # each run is a strided column view on 2-d input
    kinds = (nl.identity(), nl.constant_one(), nl.sign_power(0.5),
             nl.sign_power(2.0), nl.tanh(), nl.tanh_shifted(-2.0),
             nl.limiter(-0.5, 1.5), nl.sin_plus_sign_power(4.0, 0.6))
    assert {fn.kind for fn in kinds} == set(nl._KERNELS)
    fns = tuple(fn for fn in kinds for _ in range(2)) + kinds
    family = _Family(fns)
    assert len(family.runs) == 2 * len(kinds)
    invertible = tuple(fn for fn in fns if fn.invertible)
    inverse_family = _Family(invertible)
    rng = np.random.default_rng(12)
    for shape in ((), (6,)):
        y = rng.standard_normal(shape + (len(fns),)) * 3.0
        expected = per_node(fns, y)
        out = np.full_like(y, np.nan)
        assert family.apply(y, out) is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(family(y).view(np.uint64),
                              expected.view(np.uint64))
        # the forward image lies in each inverse's domain
        y = inverse_family(rng.standard_normal(shape + (len(invertible),)) * 3.0)
        expected = per_node(invertible, y, column=1)
        out = np.full_like(y, np.nan)
        assert inverse_family.inverse(y, out=out) is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(inverse_family.inverse(y).view(np.uint64),
                              expected.view(np.uint64))
    # a one-run family's apply is the bound kernel itself
    assert _Family((nl.tanh(),) * 4).apply is np.tanh


@pytest.mark.parametrize("name, roles", [
    ("example1", ("write", "read", "read")),
    ("example2", (None, "form", "read")),
    ("singular-g", None), ("singular-h", None), ("linear", None),
    ("heterogeneous", None),
])
def test_epoch_loop_shares_y_magnitude_only_between_power_g_and_h(name, roles):
    # the shared forms where g and h are both one run built on |y|**a;
    # every family's own kernels otherwise
    n = 8
    triple = (heterogeneous_triple(n) if name == "heterogeneous"
              else triple_preset(name, n))
    mag = np.empty(n)
    kernels = _epoch_kernels(triple, mag)
    families = (triple.eval_sigma, triple.eval_g, triple.eval_h)
    assert kernels[3] is (roles is not None)
    for kernel, family, role in zip(kernels, families, roles or (None,) * 3):
        if role is None:
            assert kernel is family.apply
        else:
            y = np.random.default_rng(3).standard_normal(n)
            mag[...] = np.abs(y) if role == "read" else np.nan
            out = kernel(y, np.empty(n))
            assert out.tobytes() == family(y).tobytes()
            left = out if role == "write" else y
            assert mag.tobytes() == np.abs(left).tobytes()


def test_transform_tanh_sigma_is_arctanh():
    n = 4
    triple = NonlinearityTriple(sigma=(nl.tanh(),) * n, g=(nl.constant_one(),) * n,
                                h=(nl.tanh(),) * n)
    matrix = build_combination_matrix(generate_binomial_graph(n, 0.5, 9), 0.5)
    traj = simulate(matrix, triple, NoiseModel.uniform(n), 0.0, 200, seed=8)
    out = triple.eval_sigma.inverse(traj.states)
    assert np.allclose(out, np.arctanh(traj.states), rtol=0, atol=0)
    assert out.shape == traj.states.shape


def test_transform_domain_check_adds_no_full_temporary(instance50,
                                                      peak_traced_bytes):
    # the tanh domain check runs in the result buffer: no float or boolean
    # mask of the trajectory's size
    _, matrix = instance50
    example2 = triple_preset("example2", 50)
    shifted = NonlinearityTriple.uniform(nl.tanh_shifted(2.0), nl.constant_one(),
                                         nl.identity(), 50)
    states = 2.0 + np.tanh(np.random.default_rng(5).standard_normal((50_001, 50)))
    cases = (
        (simulate(matrix, example2, NoiseModel.uniform(50), 0.0, 50_000, seed=5),
         example2, 0.0),
        (Trajectory(states=states, seed=0), shifted, 2.0),
    )
    for traj, triple, shift in cases:
        z, peak = peak_traced_bytes(lambda: triple.eval_sigma.inverse(traj.states))
        assert peak < 1.05 * traj.states.nbytes
        assert np.array_equal(z, np.arctanh(traj.states - shift))


def test_transform_domain_error_names_epoch_and_node():
    n = 2
    triple = NonlinearityTriple(sigma=(nl.tanh(),) * n, g=(nl.constant_one(),) * n,
                                h=(nl.identity(),) * n)
    states = np.zeros((4, n))
    states[2, 1] = 1.0  # outside the open range of tanh
    traj = Trajectory(states=states, seed=0)
    with pytest.raises(FunctionDomainError) as err:
        triple.eval_sigma.inverse(traj.states)
    msg = str(err.value)
    assert "epoch 2" in msg and "node 1" in msg


def test_family_groups_map_heterogeneous_nodes():
    sigma = (nl.tanh(), nl.identity(), nl.tanh(), nl.identity())
    triple = NonlinearityTriple(sigma=sigma, g=(nl.constant_one(),) * 4,
                                h=(nl.identity(),) * 4)
    assert [run[:2] for run in triple.eval_g.runs] == [
        (nl.constant_one(), slice(0, 4))]
    family = triple.eval_sigma
    assert [run[:2] for run in family.runs] == [
        (nl.tanh(), slice(0, 1)), (nl.identity(), slice(1, 2)),
        (nl.tanh(), slice(2, 3)), (nl.identity(), slice(3, 4))]
    y = np.random.default_rng(3).uniform(-0.9, 0.9, size=(3, 4))
    assert np.array_equal(family(y), per_node(sigma, y))
    assert np.array_equal(family.inverse(y), per_node(sigma, y, column=1))
    y[1, 2] = 1.5  # outside the open range of tanh
    with pytest.raises(FunctionDomainError) as err:
        family.inverse(y, epoch_offset=10)
    assert err.value.epoch == 11 and err.value.node == 2


def test_family_inverse_reports_first_failing_group():
    sigma = (nl.tanh(), nl.tanh_shifted(2.0)) * 2
    triple = NonlinearityTriple(sigma=sigma, g=(nl.constant_one(),) * 4,
                                h=(nl.identity(),) * 4)
    y = np.tile([0.0, 2.0, 0.0, 2.0], (10, 1))
    y[5, 3] = 3.5  # earlier epoch, in the later tanh_shifted group
    y[7, 0] = 1.0
    y[5, 1] = 0.5  # same epoch, lower node than (5, 3)
    with pytest.raises(FunctionDomainError) as err:
        triple.eval_sigma.inverse(y, epoch_offset=100)
    assert (err.value.epoch, err.value.node, err.value.value) == (105, 1, 0.5)
    y[5, 1] = 2.0
    with pytest.raises(FunctionDomainError) as err:
        triple.eval_sigma.inverse(y, epoch_offset=100)
    assert (err.value.epoch, err.value.node, err.value.value) == (105, 3, 3.5)
    assert str(err.value) == ("input outside the domain of tanh_shifted(2) "
                              "inverse at epoch 105, node 3: value 3.5")
    with pytest.raises(FunctionDomainError) as err:
        triple.eval_sigma.inverse(y[7])
    assert (err.value.epoch, err.value.node) == (None, 0)
    assert str(err.value) == ("input outside the domain of tanh inverse "
                              "at node 0: value 1.0")


def test_simulate_validation():
    a = zero_matrix(2)
    triple = triple_preset("linear", 2)
    noise = NoiseModel.uniform(2)
    with pytest.raises(ValueError):
        simulate(a, triple, noise, 0.0, -1, seed=0)
    with pytest.raises(ValueError):
        simulate(a, triple_preset("linear", 3), noise, 0.0, 5, seed=0)
    with pytest.raises(ValueError):
        simulate(a, triple, noise, np.array([np.nan, 0.0]), 5, seed=0)


def test_noise_model_validation():
    assert NoiseModel.uniform(3, 0.0).n_nodes == 3  # silent noise is legal
    nm = NoiseModel(per_node_std=[1.0, 2.0, 0.5])
    assert np.array_equal(nm.per_node_std, [1.0, 2.0, 0.5])
    with pytest.raises(ValueError):
        NoiseModel.uniform(2, -1.0)
    with pytest.raises(ValueError):
        NoiseModel(per_node_std=[np.inf])
    with pytest.raises(ValueError):
        NoiseModel(per_node_std=[[1.0, 2.0]])


def test_per_node_noise_scaling():
    traj = simulate(zero_matrix(2), triple_preset("linear", 2),
                    NoiseModel(per_node_std=[2.0, 0.0]), 0.0, 100, seed=3)
    raw = np.random.default_rng(3).standard_normal((100, 2))
    assert np.array_equal(traj.states[1:, 0], 2.0 * raw[:, 0])
    assert np.all(traj.states[1:, 1] == 0.0)


def test_trajectory_rejects_nonfinite_states():
    bad = np.zeros((3, 2))
    bad[1, 0] = np.inf
    with pytest.raises(ValueError):
        Trajectory(states=bad, seed=0)


def test_trajectory_finiteness_check_adds_no_full_temporary(peak_traced_bytes):
    states = np.random.default_rng(2).standard_normal((50_000, 50))
    states.setflags(write=False)
    traj, peak = peak_traced_bytes(lambda: Trajectory(states=states, seed=0))
    assert traj.states is states
    # a full boolean temporary would be states.nbytes / 8
    assert peak < 0.05 * states.nbytes
    # a bad entry in the last row block is still found
    bad = states.copy()
    bad[-1, -1] = np.nan
    with pytest.raises(ValueError, match="must all be finite"):
        Trajectory(states=bad, seed=0)


def test_trajectory_holds_states_within_the_divergence_limit():
    # simulate stops at this bound; beyond it the moment sums overflow
    states = np.full((4, 2), 1.0)
    states[2, 1] = 1e200
    with pytest.raises(ValueError, match=r"must all be finite with magnitude "
                       r"at most 1e\+12; row 2, node 1 holds 1e\+200"):
        Trajectory(states=states, seed=0)
    states[2, 1] = -DIVERGENCE_LIMIT
    assert Trajectory(states=states, seed=0).states[2, 1] == -DIVERGENCE_LIMIT
    with pytest.raises(ValueError, match="y0 must be finite with magnitude"):
        simulate(zero_matrix(2), triple_preset("linear", 2),
                 NoiseModel.uniform(2), 1e13, 5, seed=0)


def test_trajectory_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros(3), seed=0)
    with pytest.raises(ValueError, match="at least one row and one node"):
        Trajectory(states=np.zeros((3, 0)), seed=0)


def test_triple_requires_invertible_sigma():
    with pytest.raises(ValueError):
        NonlinearityTriple(sigma=(nl.limiter(-1.0, 1.0),),
                           g=(nl.constant_one(),), h=(nl.identity(),))


def test_triple_enforces_exponent_budget():
    with pytest.raises(ValueError):
        NonlinearityTriple(sigma=(nl.identity(),), g=(nl.sign_power(0.5),),
                           h=(nl.sign_power(0.7),))


def test_chunked_noise_equals_one_shot_draw():
    # crossing 8192-epoch noise block boundaries, and ending in a partial
    # block, must not perturb the stream
    n_steps = 70_000
    traj = simulate(zero_matrix(1), triple_preset("linear", 1),
                    NoiseModel.uniform(1), 0.0, n_steps, seed=99)
    expected = np.random.default_rng(99).standard_normal((n_steps, 1))
    assert np.array_equal(traj.states[1:], expected)


def test_every_epoch_that_overflows_runs_again_on_its_own_noise():
    # g = y**30 overflows at node 0, near 1e11, in every epoch, and
    # tanh_shifted maps its inf drive back to 1e11 + 1; node 1 runs on its
    # noise.  So every epoch runs again on its block's noise drawn anew,
    # also in the fourth block, the second of its run of blocks
    matrix = CombinationMatrix(0.9, np.diag([0.5, 0.5]))
    triple = NonlinearityTriple(sigma=(nl.tanh_shifted(1e11), nl.tanh()),
                                g=(nl.sign_power(30.0),) * 2,
                                h=(nl.identity(),) * 2)
    noise, n_steps = NoiseModel.uniform(2), 3 * 8192 + 5
    with np.errstate(over="ignore"):
        traj = simulate(matrix, triple, noise, 1e11, n_steps, seed=8)
        expected = reference_states(matrix, triple, noise, n_steps, 8, y0=1e11)
    assert np.array_equal(traj.states, expected)
    assert np.all(traj.states[1:, 0] == 1e11 + 1)


@pytest.mark.parametrize("skip, rows", [(0, 7), (16, 7), (21, 7), (3, 8)])
def test_a_redrawn_block_is_its_slice_of_the_stream(skip, rows):
    # the noise of a block in the middle of a run of blocks is drawn again
    # from the run's stream state, past the epochs before it
    drawn_from = np.random.PCG64(5).state
    std = np.array([2.0, 0.0, 0.5])
    whole = np.random.Generator(np.random.PCG64(5)).standard_normal((30, 3))
    assert np.array_equal(_redraw(drawn_from, skip, rows, std).view(np.uint64),
                          (whole[skip:skip + rows] * std).view(np.uint64))

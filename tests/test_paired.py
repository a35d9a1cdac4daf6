"""The helper thread of the chunked passes and of ``simulate`` changes no bit.

With more than one CPU, :mod:`granet._paired` runs the later row half of
each chunk of a moment pass, each chunk's cross product and ``simulate``'s
next noise block on a helper thread.  These tests run each job with the CPU
count forced to 1 and to 2 and compare bytes, errors and warnings; they
also check that no thread outlives a job and that the helper keeps the
caller's error state.
"""

import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import granet
from granet import (CombinationMatrix, FunctionDomainError, LagMatrices,
                    NoiseModel, NonlinearityTriple, SimulationDivergedError,
                    Trajectory, WeightingConfig, accumulate,
                    build_combination_matrix, correlation_estimate,
                    from_trajectory, generate_binomial_graph, granger_estimate,
                    least_squares_estimate, omega_tail_index,
                    precision_estimate, simulate, triple_preset)
from granet import _paired, dynamics, lagmoments
from granet import nonlinearities as nl

CHUNK = lagmoments._BATCH_CHUNK
BLOCK = dynamics._NOISE_BLOCK
#: Two full chunks and a partial one.
PAIRS = 2 * CHUNK + 37


@pytest.fixture
def cpus(monkeypatch):
    """``run(count, job)``: what :func:`outcome` gives for ``job`` with
    ``count`` CPUs, and how many calls the helper was given."""
    posts = []
    submit = ThreadPoolExecutor.submit

    def counted(self, fn, /, *args, **kwargs):
        posts.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)

    def run(count, job):
        monkeypatch.setattr(_paired, "_cpu_count", lambda: count)
        posts.clear()
        return outcome(job), len(posts)
    return run


def outcome(job):
    """``job()``'s result as bytes, or its error's type, text and context,
    with the ``(category, message)`` of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("result", b"".join(
                np.ascontiguousarray(part).tobytes() for part in job()))
        except (FunctionDomainError, SimulationDivergedError) as err:
            result = (type(err), str(err), err.epoch, err.node,
                      repr(err.value))
        except ArithmeticError as err:
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


def same_either_way(cpus, job):
    """``job``'s outcome, checked to be the same with one CPU and with two,
    and the number of calls the helper was given with two."""
    alone, no_posts = cpus(1, job)
    helped, posts = cpus(2, job)
    assert no_posts == 0
    assert helped == alone
    return helped, posts


def moment_parts(traj, triple, config):
    lag = from_trajectory(traj, triple, config)
    norms, valid = lagmoments._weight_norms(traj, triple, config, None)
    return (lag.f0_sum, lag.f1_sum, norms, valid,
            [omega_tail_index(traj, triple, config)])


@pytest.mark.parametrize("delta", [0.0, 0.1])
@pytest.mark.parametrize("preset", ["example1", "example2", "singular-g",
                                    "singular-h", "linear"])
def test_moment_passes_do_not_depend_on_the_helper(cpus, trajectory_factory,
                                                   preset, delta):
    traj = trajectory_factory(preset, 12, PAIRS)
    triple = triple_preset(preset, 50)
    config = WeightingConfig(delta=delta)

    def job():
        parts = list(moment_parts(traj, triple, config))
        for estimate in (granger_estimate, correlation_estimate,
                         precision_estimate):
            parts.append(estimate(traj).A_hat)
        return parts

    (result, caught), posts = same_either_way(cpus, job)
    assert result[0] == "result" and caught == []
    # per chunk: the later half of from_trajectory's terms, its cross
    # product, the later half of each of the two weight-norm passes, and
    # granger's cross product
    assert posts == 3 * 5


@pytest.mark.parametrize("n_steps, runs", [
    (BLOCK, 1), (BLOCK + 1, 2), (3 * BLOCK + 5, 3), (9 * BLOCK, 5)])
def test_simulate_does_not_depend_on_the_helper(cpus, instance50, n_steps,
                                                runs):
    _, matrix = instance50
    (result, caught), posts = same_either_way(cpus, lambda: [simulate(
        matrix, triple_preset("example1", 50), NoiseModel.uniform(50), 0.3,
        n_steps, seed=3).states])
    assert result[0] == "result" and caught == []
    # runs of 1, 1, 2, 4, ... blocks; each after the first is drawn beside
    # the one before it
    assert posts == runs - 1


def diverging_run():
    """y -> 0.9 y**200 + x escapes at epoch 20742, in the third noise block,
    the first of the third run (blocks 2 and 3); the power overflows there.
    Eight blocks, so the fourth run is being drawn."""
    a = CombinationMatrix(0.9, np.array([[0.9]]))
    triple = NonlinearityTriple(sigma=(nl.identity(),), g=(nl.constant_one(),),
                                h=(nl.sign_power(200.0),))
    return [simulate(a, triple, NoiseModel.uniform(1, 0.25), 0.0, 8 * BLOCK,
                     seed=10).states]


def test_a_divergence_in_a_later_block_does_not_depend_on_the_helper(cpus):
    (result, caught), posts = same_either_way(cpus, diverging_run)
    assert result[0] is SimulationDivergedError
    assert result[2:] == (20742, 0, "inf")
    assert caught == [(RuntimeWarning, "overflow encountered in power")]
    assert posts == 3


def with_bad_states(traj, cells):
    states = np.array(traj.states)
    for (epoch, node), value in cells.items():
        states[epoch, node] = value
    return Trajectory(states=states, seed=traj.seed)


@pytest.mark.parametrize("cells, epoch, node, value", [
    # both in the later half of the second chunk, the half the helper fills
    ({(CHUNK + 7000, 2): -2.0, (CHUNK + 6000, 7): 1.5}, CHUNK + 6000, 7, 1.5),
    # one in each half: the earlier half's error wins
    ({(CHUNK + 6000, 7): 1.5, (CHUNK + 100, 9): -1.0}, CHUNK + 100, 9, -1.0),
], ids=["later-half", "both-halves"])
def test_a_domain_error_in_a_later_half_does_not_depend_on_the_helper(
        cpus, trajectory_factory, cells, epoch, node, value):
    # example2's sigma is tanh, defined on (-1, 1)
    triple = triple_preset("example2", 50)
    traj = with_bad_states(trajectory_factory("example2", 12, PAIRS), cells)
    (result, caught), _ = same_either_way(
        cpus, lambda: [from_trajectory(traj, triple, WeightingConfig()).f1_sum])
    assert result == (FunctionDomainError,
                      f"input outside the domain of tanh inverse at epoch "
                      f"{epoch}, node {node}: value {value}",
                      epoch, node, repr(value))
    assert caught == []


def test_from_trajectory_names_the_pair_accumulate_fails_at():
    # singular-h's sigma runs are node 0, node 1 and nodes 2..4; the earliest
    # bad state is in the last run, so checking run after run would name
    # epoch 60 (all three are in the first half of the one chunk)
    matrix = build_combination_matrix(generate_binomial_graph(5, 0.5, 2), 0.5)
    triple = triple_preset("singular-h", 5)
    traj = simulate(matrix, triple, NoiseModel.uniform(5), 0.0, 200, seed=4)
    traj = with_bad_states(traj, {(10, 4): 1.5, (60, 0): 0.5, (80, 3): -1.5})
    lag = LagMatrices(n_nodes=5)
    with pytest.raises(FunctionDomainError) as stepwise:
        for k in range(traj.n_steps):
            accumulate(lag, triple, WeightingConfig(), traj.states[k],
                       traj.states[k + 1])
    with pytest.raises(FunctionDomainError) as chunked:
        from_trajectory(traj, triple, WeightingConfig())
    assert (lag.count + 1, stepwise.value.node, stepwise.value.value) == \
        (chunked.value.epoch, chunked.value.node, chunked.value.value) == \
        (10, 4, 1.5)


def order_job(job):
    """``job()``'s error type and text, and its warnings' texts, with
    overflow raised and under the default error state."""
    results = []
    for state in ({"over": "raise"}, {}):
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(**state):
            warnings.simplefilter("always")
            with pytest.raises((FloatingPointError, FunctionDomainError)) as err:
                job()
        results.append((err.type, str(err.value),
                        [str(w.message) for w in caught]))
    return results


@pytest.mark.parametrize("late", [13, 20], ids=["same-half", "later-half"])
def test_an_earlier_pairs_overflow_comes_before_a_later_domain_error(late):
    # the weight 1/3e-308 times tanh^{-1}(0.999999) overflows at pair 10, and
    # sigma^{-1} = tanh^{-1} fails at epoch ``late``, in the chunk's earlier
    # half (pairs 0..14) with the overflow or in its later half; the pairs
    # report in order, as accumulate's do, wherever the halves split
    triple = NonlinearityTriple.uniform(nl.tanh(), nl.identity(), nl.tanh(), 3)
    states = np.full((30, 3), 0.3)
    states[10, 0], states[11, 0], states[late, 1] = 3e-308, 0.999999, 1.5
    traj = Trajectory(states=states, seed=0)
    failed_at = []

    def stepwise():
        lag = LagMatrices(n_nodes=3)
        try:
            for k in range(traj.n_steps):
                accumulate(lag, triple, WeightingConfig(), states[k],
                           states[k + 1])
        finally:
            failed_at.append(lag.count)

    overflow = "overflow encountered in multiply"
    domain = "input outside the domain of tanh inverse at {}node 1: value 1.5"
    assert order_job(stepwise) == [
        (FloatingPointError, overflow, []),
        (FunctionDomainError, domain.format(""), [overflow])]
    assert failed_at == [10, late - 1]
    for job in (from_trajectory, least_squares_estimate):
        assert order_job(lambda: job(traj, triple, WeightingConfig())) == [
            (FloatingPointError, overflow, []),
            (FunctionDomainError, domain.format(f"epoch {late}, "), [overflow])]


def test_a_range_run_again_in_parts_keeps_its_bits():
    # an overflow that only warns makes each half of the chunk (pairs 0..14
    # and 15..28) run again in parts, split down to its bad pair; with
    # overflow ignored, each half runs once
    triple = NonlinearityTriple.uniform(nl.tanh(), nl.identity(), nl.tanh(), 3)
    states = np.random.default_rng(3).uniform(-0.5, 0.5, (30, 3))
    states[10, 0], states[11, 0] = 3e-308, 0.999999
    states[25, 2], states[26, 2] = 3e-308, 0.999999
    traj = Trajectory(states=states, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        replayed = from_trajectory(traj, triple, WeightingConfig())
    with np.errstate(over="ignore"):
        once = from_trajectory(traj, triple, WeightingConfig())
    assert [str(w.message) for w in caught] == \
        ["overflow encountered in multiply"] * 2
    assert replayed.f0_sum.tobytes() == once.f0_sum.tobytes()
    assert replayed.f1_sum.tobytes() == once.f1_sum.tobytes()


def test_no_thread_outlives_a_job(cpus, trajectory_factory):
    triple = triple_preset("example2", 50)
    traj = trajectory_factory("example2", 12, PAIRS)
    bad = with_bad_states(traj, {(CHUNK + 6000, 7): 1.5})
    start = threading.active_count()
    jobs = [
        lambda: [from_trajectory(traj, triple, WeightingConfig()).f1_sum],
        lambda: [from_trajectory(bad, triple, WeightingConfig()).f1_sum],
        diverging_run,
    ]
    for job, expected in zip(jobs, ["result", FunctionDomainError,
                                    SimulationDivergedError]):
        (result, _), posts = cpus(2, job)
        assert result[0] == expected and posts > 0
        assert threading.active_count() == start


def test_a_warning_in_the_helpers_half_follows_the_callers_error_state(
        cpus, trajectory_factory):
    # at singular-g's base state 1e-300 the weight is 1e300, and the next
    # state's sigma^{-1} = 1e10 makes their product overflow; the pair is in
    # the later half of the second chunk
    pair = CHUNK + 6000
    triple = triple_preset("singular-g", 50)
    traj = with_bad_states(trajectory_factory("singular-g", 12, PAIRS),
                           {(pair, 4): 1e-300, (pair + 1, 4): 1e5})

    def job():
        with np.errstate(over="raise"):
            return [from_trajectory(traj, triple, WeightingConfig()).f1_sum]

    (result, caught), _ = same_either_way(cpus, job)
    assert result == (FloatingPointError, "overflow encountered in multiply")
    assert caught == []

    # under the default error state the warning is given once, on the
    # caller's thread
    threads = []

    def recorded_job():
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda *args: threads.append(
                threading.get_ident())
            return [from_trajectory(traj, triple, WeightingConfig()).f0_sum]

    (result, _), posts = cpus(2, recorded_job)
    assert result[0] == "result" and posts > 0
    assert threads == [threading.get_ident()]


def test_a_second_call_that_failed_on_the_helper_runs_again_here(monkeypatch):
    monkeypatch.setattr(_paired, "_cpu_count", lambda: 2)
    threads = []

    def second():
        threads.append(threading.get_ident())
        if len(threads) == 1:
            raise ValueError("on the helper")
        return "second"

    with _paired.paired(2, 1) as pair:
        assert pair(lambda: "first", second) == ("first", "second")
    assert threads[0] != threading.get_ident()
    assert threads[1:] == [threading.get_ident()]


def test_an_error_of_the_first_call_wins(monkeypatch):
    monkeypatch.setattr(_paired, "_cpu_count", lambda: 2)

    def failing(message):
        def call():
            raise ValueError(message)
        return call

    start = threading.active_count()
    with pytest.raises(ValueError, match="first"):
        with _paired.paired(2, 1) as pair:
            pair(failing("first"), failing("second"))
    assert threading.active_count() == start


def test_pairs_in_quick_succession_keep_their_results(monkeypatch):
    # a short switch interval interleaves the two threads often; a result
    # handed to the wrong pair, or read before it was written, shows here
    monkeypatch.setattr(_paired, "_cpu_count", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _paired.paired(2, 1) as pair:
            results = [pair(lambda i=i: -i, lambda i=i: i * i)
                       for i in range(2000)]
    finally:
        sys.setswitchinterval(interval)
    assert results == [(-i, i * i) for i in range(2000)]


def test_importing_the_cli_loads_no_executor():
    # concurrent.futures loads logging; only a job that pairs imports it
    env = dict(os.environ,
               PYTHONPATH=str(Path(granet.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, granet.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")

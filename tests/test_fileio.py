"""File formats: CSV/JSON round-trips at full precision."""

import json
import re
import warnings

import numpy as np
import pytest

from granet import (
    ConfigError,
    DirectedGraph,
    NoiseModel,
    RecoveryMetrics,
    Trajectory,
    WeightingConfig,
    assumption_report,
    build_combination_matrix,
    from_trajectory,
    generate_binomial_graph,
    granger_estimate,
    simulate,
    sorted_entry_profile,
    triple_preset,
)
from granet import fileio
from granet.recovery import score, stability_constant


@pytest.fixture()
def small_run():
    g = generate_binomial_graph(6, 0.4, seed=44)
    matrix = build_combination_matrix(g, 0.5)
    triple = triple_preset("example2", 6)
    traj = simulate(matrix, triple, NoiseModel.uniform(6), 0.0, 120, seed=45)
    return g, matrix, triple, traj


def test_graph_roundtrip(tmp_path, small_run):
    g, _, _, _ = small_run
    path = tmp_path / "graph.csv"
    fileio.save_graph(g, path)
    head = path.read_text().splitlines()[0]
    assert head == "# N=6"
    back = fileio.load_graph(path)
    assert back.n_nodes == g.n_nodes
    assert back.edges == g.edges


def test_matrix_roundtrip_is_bitwise(tmp_path, small_run):
    _, matrix, _, _ = small_run
    path = tmp_path / "matrix.csv"
    fileio.save_matrix(matrix.entries, path)
    back = fileio.load_matrix(path)
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(back, matrix.entries)


def test_trajectory_roundtrip(tmp_path, small_run):
    _, _, _, traj = small_run
    path = tmp_path / "trajectory.csv"
    fileio.save_trajectory(traj, path)
    head = path.read_text().splitlines()[0]
    assert head == "# N=6, steps=120, seed=45"
    back = fileio.load_trajectory(path)
    assert np.array_equal(back.states, traj.states)
    assert back.seed == traj.seed
    assert back.n_steps == traj.n_steps


def test_lag_matrices_roundtrip(tmp_path, small_run):
    _, _, triple, traj = small_run
    lag = from_trajectory(traj, triple, WeightingConfig())
    f0_path, f1_path = tmp_path / "f0.csv", tmp_path / "f1.csv"
    fileio.save_lag_matrices(lag, f0_path, f1_path)
    assert f0_path.read_text().startswith("# count=120")
    back = fileio.load_lag_matrices(f0_path, f1_path)
    assert back.count == lag.count
    assert np.array_equal(back.f0_sum, lag.f0_sum)
    assert np.array_equal(back.f1_sum, lag.f1_sum)


def test_estimate_report_roundtrip(tmp_path, small_run):
    _, _, _, traj = small_run
    rep = granger_estimate(traj)
    json_path = tmp_path / "estimate_granger.json"
    matrix_path = tmp_path / "estimate_granger.csv"
    fileio.save_estimate_report(rep, json_path, matrix_path)
    payload = json.loads(json_path.read_text())
    assert payload["estimator_kind"] == "granger"
    assert payload["n_samples"] == 120
    assert payload["cond_F0"] == rep.cond_F0
    assert payload["observed_set"] is None
    assert payload["matrix_file"] == "estimate_granger.csv"
    assert np.array_equal(fileio.load_matrix(matrix_path), rep.A_hat)


def test_recovery_metrics_roundtrip(tmp_path, small_run):
    g, matrix, _, _ = small_run
    m = score(g, g, matrix.entries, matrix.entries)
    path = tmp_path / "metrics.json"
    fileio.save_recovery_metrics(m, path)
    back = fileio.load_recovery_metrics(path)
    assert back == m


def test_recovery_metrics_nan_survives(tmp_path):
    m = RecoveryMetrics(false_edges=0, missed_edges=0, total_offdiag=2,
                        edge_error_rate=0.0, matrix_rel_error=float("nan"),
                        identifiability_gap=float("nan"))
    path = tmp_path / "metrics.json"
    fileio.save_recovery_metrics(m, path)
    back = fileio.load_recovery_metrics(path)
    assert np.isnan(back.matrix_rel_error)
    assert np.isnan(back.identifiability_gap)


def test_profile_roundtrip(tmp_path, small_run):
    _, matrix, _, _ = small_run
    prof = sorted_entry_profile(matrix.entries, matrix.entries * 1.5)
    path = tmp_path / "profile.csv"
    fileio.save_profile(prof, path)
    assert path.read_text().splitlines()[0] == "slot,true,estimate"
    back = fileio.load_profile(path)
    assert list(back.slot_ids) == list(prof.slot_ids)
    assert np.array_equal(back.true_values, prof.true_values)
    assert np.array_equal(back.estimated_values, prof.estimated_values)


def test_assumption_report_json(tmp_path, small_run):
    _, matrix, _, _ = small_run
    triple = triple_preset("linear", 6)
    traj = simulate(matrix, triple, NoiseModel.uniform(6), 0.0, 100, seed=1)
    rep = assumption_report(traj, triple, WeightingConfig()).merged_with(
        stability_constant(triple, matrix))
    path = tmp_path / "assumptions.json"
    fileio.save_assumption_report(rep, path)
    payload = json.loads(path.read_text())
    assert payload["kappa_s"] == 0.5
    assert payload["kappa_branch"] == "p=0,q=1"
    assert payload["kappa_stable"] is True
    assert payload["omega_moment_flag"] is True
    # constant unit weights have no tail; non-finite floats are stored as
    # strings to stay inside strict JSON
    assert payload["omega_tail_index"] == "inf"


def test_load_graph_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a header\n0,1\n")
    with pytest.raises(ValueError):
        fileio.load_graph(bad)


def test_load_trajectory_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# N=2, steps=xyz, seed=0\n0,0\n")
    with pytest.raises(ValueError):
        fileio.load_trajectory(bad)


# loader -> (header line, whether the format needs a data row)
_FORMATS = {
    "graph": ("# N=3\n", False),
    "matrix": ("", True),
    "trajectory": ("# N=2, steps=1, seed=0\n", True),
    "lag_matrices": ("# count=1\n", True),
    "profile": ("slot,true,estimate\n", False),
}
_BAD_PAYLOADS = {
    "bad cell": b"0,1,2\n1,x,2\n",
    "ragged row": b"0,1,2\n1,2\n",
    "not utf-8": b"0,1,2\n1,\xff,2\n",
    "no rows": b"",
}


@pytest.mark.parametrize("kind, payload", [
    (kind, payload) for kind, (_, needs_row) in _FORMATS.items()
    for payload in _BAD_PAYLOADS if needs_row or payload != "no rows"
])
def test_loaders_name_the_file_on_a_bad_payload(tmp_path, kind, payload):
    path = tmp_path / "bad.csv"
    path.write_bytes(_FORMATS[kind][0].encode() + _BAD_PAYLOADS[payload])
    load = getattr(fileio, f"load_{kind}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load(path, path) if kind == "lag_matrices" else load(path)


@pytest.mark.parametrize("payload", [b'{"false_edges": 0,', b'{"\xff": 0}'])
def test_metrics_loader_names_the_file_on_a_bad_payload(tmp_path, payload):
    path = tmp_path / "metrics.json"
    path.write_bytes(payload)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        fileio.load_recovery_metrics(path)


@pytest.mark.parametrize("f1_text", ["# count=2\n1\n", "# count=1\n1,2\n3,4\n"])
def test_lag_loader_names_both_files_when_they_disagree(tmp_path, f1_text):
    f0_path, f1_path = tmp_path / "f0.csv", tmp_path / "f1.csv"
    f0_path.write_text("# count=1\n1\n")
    f1_path.write_text(f1_text)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(f'{f0_path} and {f1_path}')}: "):
        fileio.load_lag_matrices(f0_path, f1_path)


def test_profile_without_rows_loads_empty(tmp_path):
    path = tmp_path / "profile.csv"
    fileio.save_profile(sorted_entry_profile(np.eye(1), np.eye(1)), path)
    assert fileio.load_profile(path).slot_ids.size == 0


def test_graph_file_sorted_edge_order(tmp_path):
    g = DirectedGraph(n_nodes=4, edges=frozenset({(2, 0), (0, 3), (2, 1)}))
    path = tmp_path / "graph.csv"
    fileio.save_graph(g, path)
    lines = path.read_text().splitlines()
    assert lines[1:] == ["0,3", "2,0", "2,1"]


def test_trajectory_roundtrip_large_magnitudes(tmp_path):
    states = np.array([[1e-300, -1e300], [123.456789012345678, 0.1]])
    traj = Trajectory(states=states, seed=9)
    path = tmp_path / "t.csv"
    fileio.save_trajectory(traj, path)
    assert np.array_equal(fileio.load_trajectory(path).states, states)

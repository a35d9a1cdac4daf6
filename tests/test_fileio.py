"""File formats: CSV/JSON round-trips at full precision."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import (
    ConfigError,
    DirectedGraph,
    LagMatrices,
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
    edges = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
    assert {(int(i), int(j)) for i, j in edges} == g.edges


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
    for path, payload in ((f0_path, lag.f0_sum), (f1_path, lag.f1_sum)):
        assert path.read_text().startswith(f"# count={lag.count}\n")
        assert np.array_equal(np.loadtxt(path, delimiter=","), payload)


def _around(value: float) -> tuple:
    """``value`` and the doubles either side of it."""
    return (float(np.nextafter(value, 0)), value,
            float(np.nextafter(value, math.inf)))


#: Values whose text is easy to get wrong, all of which a trajectory may
#: hold: each side of every power of ten from 1e-11 to 1e11, and below
#: 1e12, the largest state a trajectory holds (the cell kernel takes
#: 1e-11 < |x| < 1e17, and the double nearest 1e-11 lies below 1e-11);
#: 1e-14 and 1e-70, whose 17 digits round up to a power of ten; dyadic ties
#: at the 17th digit, rounding to even down and up; subnormals and signed
#: zeros.
_EDGE_VALUES = (-0.0, 5e-324, 1e12, -1e12, 1 / 3, 0.1, -2.5e-7, 0.0,
                *(v for p in range(-11, 12) for v in _around(10.0 ** p)),
                float(np.nextafter(1e12, 0)),
                1e-14, -1e-70, 2.0 ** -25, -3 * 2.0 ** -25,
                123456789012.015625, -123456789012.046875,
                2.2250738585072014e-308, -1e-300, 12345.0, 100.5)
#: Values a matrix may hold but a trajectory may not: above 1e12, two ties
#: in fixed notation with 16 integer digits, each side of every power of
#: ten from 1e13 to 1e17, the largest double, infinities and a NaN with
#: either sign bit (``%`` writes both as "nan").
_BEYOND_TRAJECTORY = (float(np.nextafter(1e12, math.inf)),
                      1234567890123456.25, -1234567890123456.75,
                      *(v for p in range(13, 18) for v in _around(10.0 ** p)),
                      1.7976931348623157e308, -1e300, math.inf, -math.inf,
                      math.nan, math.copysign(math.nan, -1.0))


def _edge_rows(n_rows: int, n_cols: int) -> np.ndarray:
    """Rows that cycle through values whose text is easy to get wrong."""
    cells = np.resize(np.array(_EDGE_VALUES), n_rows * n_cols)
    return cells.reshape(n_rows, n_cols)


def _savetxt_bytes(path, rows, header="") -> bytes:
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header)
    return path.read_bytes()


_WRITER_SHAPES = {
    "one row": (1, 5),
    "one node": (7, 1),
    "one block": (fileio._BLOCK_ROWS, 3),
    "ragged last block": (2 * fileio._BLOCK_ROWS + 3, 4),
}


def _percent_bytes(rows: np.ndarray, header: str = "") -> bytes:
    """What the cell kernel must write: every cell formatted by ``%``."""
    line = ",".join([fileio._FMT] * rows.shape[1]) + "\n"
    text = f"# {header}\n" if header else ""
    return (text + "".join(line % tuple(row) for row in rows.tolist())).encode()


_PERCENT_ROWS = {
    "edge values": np.array(_EDGE_VALUES + _BEYOND_TRAJECTORY).reshape(-1, 1),
    "beyond a trajectory": np.resize(np.array(_BEYOND_TRAJECTORY), (11, 7)),
    "float32": np.array(_EDGE_VALUES, np.float32).reshape(-1, 1),
    "int64": np.array([[0, 1, -7, 10 ** 16, 10 ** 17 - 1, 10 ** 17],
                       [2 ** 53 + 1, 12345678901234567, -2 ** 63,
                        2 ** 63 - 1, 99, -100_000]]),
    "no column": np.zeros((3, 0)),
}


@pytest.mark.parametrize("rows", _PERCENT_ROWS.values(), ids=_PERCENT_ROWS)
def test_write_rows_writes_the_bytes_of_percent(tmp_path, rows):
    fileio._write_rows(tmp_path / "rows.csv", rows, "# count=3")
    assert (tmp_path / "rows.csv").read_bytes() == _percent_bytes(rows,
                                                                  "count=3")


@settings(deadline=None, max_examples=150)
@given(n_cols=st.integers(min_value=1, max_value=6),
       data=st.data())
def test_write_rows_matches_percent_on_raw_bit_patterns(tmp_path_factory,
                                                        n_cols, data):
    # Biased exponents near the kernel's range (986 to 1079) are drawn
    # more often than any other, as are mantissas with many zero bits.
    exponents = st.one_of(st.integers(0, 2047), st.integers(980, 1085))
    mantissas = st.one_of(st.integers(0, 2 ** 52 - 1),
                          st.integers(0, 2 ** 12).map(lambda m: m << 40))
    cells = st.builds(lambda sign, exp, mant: sign << 63 | exp << 52 | mant,
                      st.integers(0, 1), exponents, mantissas)
    patterns = data.draw(st.lists(cells, min_size=n_cols,
                                  max_size=40 * n_cols))
    patterns = patterns[:len(patterns) // n_cols * n_cols]
    rows = np.array(patterns, np.uint64).view(np.float64).reshape(-1, n_cols)
    path = tmp_path_factory.mktemp("bits") / "rows.csv"
    fileio._write_rows(path, rows)
    assert path.read_bytes() == _percent_bytes(rows)


def test_save_trajectory_memory_does_not_grow_with_its_rows(tmp_path,
                                                            peak_traced_bytes):
    # The writer holds one block's slots and temporaries, about 2.6 MB for
    # 256 rows of 50 cells, whatever the trajectory's length.
    rng = np.random.default_rng(7)
    peaks = []
    for n_blocks in (3, 12):
        states = np.tanh(rng.standard_normal((n_blocks * fileio._BLOCK_ROWS,
                                              50)))
        traj = Trajectory(states=states, seed=0)
        _, peak = peak_traced_bytes(
            lambda: fileio.save_trajectory(traj, tmp_path / "t.csv"))
        peaks.append(peak)
    assert max(peaks) < 4 * 2 ** 20
    assert abs(peaks[1] - peaks[0]) < 2 ** 18


@pytest.mark.parametrize("shape", _WRITER_SHAPES.values(), ids=_WRITER_SHAPES)
def test_array_writers_write_the_bytes_of_savetxt(tmp_path, shape):
    rows = _edge_rows(*shape)
    ref = tmp_path / "ref.csv"
    traj = Trajectory(states=rows, seed=-3)
    fileio.save_trajectory(traj, tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == _savetxt_bytes(
        ref, rows, f"N={shape[1]}, steps={shape[0] - 1}, seed=-3")
    fileio.save_matrix(rows, tmp_path / "matrix.csv")
    assert (tmp_path / "matrix.csv").read_bytes() == _savetxt_bytes(ref, rows)
    # save_matrix writes a 1-d array as one row, where savetxt writes a column.
    fileio.save_matrix(rows[0], tmp_path / "vector.csv")
    assert (tmp_path / "vector.csv").read_bytes() == _savetxt_bytes(
        ref, rows[:1])
    side = shape[0]
    lag = LagMatrices(n_nodes=side, count=side - 1,
                      f0_sum=_edge_rows(side, side),
                      f1_sum=-_edge_rows(side, side)[::-1])
    fileio.save_lag_matrices(lag, tmp_path / "f0.csv", tmp_path / "f1.csv")
    for name, payload in (("f0.csv", lag.f0_sum), ("f1.csv", lag.f1_sum)):
        assert (tmp_path / name).read_bytes() == _savetxt_bytes(
            ref, payload, f"count={side - 1}")


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
    _, matrix, _, _ = small_run
    m = score(matrix.entries, matrix.entries)
    path = tmp_path / "metrics.json"
    fileio.save_recovery_metrics(m, path)
    assert RecoveryMetrics(**json.loads(path.read_text())) == m


def test_recovery_metrics_nan_survives(tmp_path):
    m = RecoveryMetrics(false_edges=0, missed_edges=0, total_offdiag=2,
                        edge_error_rate=0.0, matrix_rel_error=float("nan"),
                        identifiability_gap=float("nan"))
    path = tmp_path / "metrics.json"
    fileio.save_recovery_metrics(m, path)
    # stored as strings to stay inside strict JSON; float() reads them back
    payload = json.loads(path.read_text())
    assert payload["matrix_rel_error"] == payload["identifiability_gap"] == "nan"
    assert np.isnan(float(payload["matrix_rel_error"]))


def test_profile_roundtrip(tmp_path, small_run):
    _, matrix, _, _ = small_run
    prof = sorted_entry_profile(matrix.entries, matrix.entries * 1.5)
    path = tmp_path / "profile.csv"
    fileio.save_profile(prof, path)
    assert path.read_text().splitlines()[0] == "slot,true,estimate"
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), prof)


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


def test_load_trajectory_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# N=2, steps=xyz, seed=0\n0,0\n")
    with pytest.raises(ValueError):
        fileio.load_trajectory(bad)


# loader -> header line
_FORMATS = {
    "matrix": "",
    "trajectory": "# N=2, steps=1, seed=0\n",
}
_BAD_PAYLOADS = {
    "bad cell": b"0,1,2\n1,x,2\n",
    "ragged row": b"0,1,2\n1,2\n",
    "not utf-8": b"0,1,2\n1,\xff,2\n",
    "no rows": b"",
}


@pytest.mark.parametrize("payload", _BAD_PAYLOADS)
@pytest.mark.parametrize("kind", _FORMATS)
def test_loaders_name_the_file_on_a_bad_payload(tmp_path, kind, payload):
    path = tmp_path / "bad.csv"
    path.write_bytes(_FORMATS[kind].encode() + _BAD_PAYLOADS[payload])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            getattr(fileio, f"load_{kind}")(path)


@pytest.mark.parametrize("kind", _FORMATS)
def test_a_ragged_row_is_named_without_loadtxt_advice(tmp_path, kind):
    path = tmp_path / "ragged.csv"
    path.write_bytes(_FORMATS[kind].encode() + _BAD_PAYLOADS["ragged row"])
    with pytest.raises(ConfigError) as err:
        getattr(fileio, f"load_{kind}")(path)
    assert str(err.value) == \
        f"{path}: the number of columns changed from 3 to 2 at row 1"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_matrix_loader_rejects_a_non_finite_cell(tmp_path, cell):
    path = tmp_path / "matrix.csv"
    path.write_text(f"0.5,0\n0,{cell}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "
                       f"non-finite cell {cell} at row 1, column 1$"):
        fileio.load_matrix(path)


def _row_formatter_bytes(profile) -> bytes:
    """What a profile file must hold: each row formatted by an f-string."""
    lines = ["slot,true,estimate"]
    lines += [f"{int(slot)},{float(true):.17g},{float(est):.17g}"
              for slot, true, est in profile]
    return ("\n".join(lines) + "\n").encode()


def _joined_graph_bytes(graph: DirectedGraph) -> bytes:
    """What a graph file must hold: its header and edges joined as text."""
    lines = [f"# N={graph.n_nodes}"]
    lines += [f"{i},{j}" for i, j in graph.sorted_edges()]
    return ("\n".join(lines) + "\n").encode()


#: Estimates of the standard 50-node matrix, drawn with a given generator,
#: whose cells exercise each path of the cell kernel.
_PROFILE_ESTIMATES = {
    "scaled and noisy":
        lambda a, rng: 1.5 * a + 0.01 * rng.standard_normal(a.shape),
    "zeros and -0.0":
        lambda a, rng: np.where(rng.random(a.shape) < 0.5, -0.0, a),
    "below 1e-11": lambda a, rng: 1e-14 * rng.standard_normal(a.shape),
    "at and above 1e17":
        lambda a, rng: np.where(rng.random(a.shape) < 0.5, 1e17, 1e20 * a),
}


@pytest.mark.parametrize("estimate", _PROFILE_ESTIMATES.values(),
                         ids=_PROFILE_ESTIMATES)
def test_save_profile_writes_the_bytes_of_the_row_formatter(tmp_path,
                                                            estimate):
    a_true = build_combination_matrix(
        generate_binomial_graph(50, 0.2, seed=101), 0.5).entries
    profile = sorted_entry_profile(
        a_true, estimate(a_true, np.random.default_rng(29)))
    fileio.save_profile(profile, tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_bytes() == \
        _row_formatter_bytes(profile)


def test_profile_without_rows_loads_empty(tmp_path):
    # a one-node matrix has no off-diagonal slot: the file is its header
    path = tmp_path / "profile.csv"
    profile = sorted_entry_profile(np.eye(1), np.eye(1))
    fileio.save_profile(profile, path)
    assert path.read_text() == "slot,true,estimate\n"
    assert path.read_bytes() == _row_formatter_bytes(profile)


def test_graph_file_sorted_edge_order(tmp_path):
    g = DirectedGraph(n_nodes=4, edges=frozenset({(2, 0), (0, 3), (2, 1)}))
    path = tmp_path / "graph.csv"
    fileio.save_graph(g, path)
    lines = path.read_text().splitlines()
    assert lines[1:] == ["0,3", "2,0", "2,1"]
    edgeless = DirectedGraph(n_nodes=3, edges=frozenset())
    standard = generate_binomial_graph(50, 0.2, seed=101)
    for graph in (g, edgeless, standard):
        fileio.save_graph(graph, path)
        assert path.read_bytes() == _joined_graph_bytes(graph)


def test_trajectory_roundtrip_large_magnitudes(tmp_path):
    states = np.array([[1e-300, -1e12], [123.456789012345678, 0.1]])
    traj = Trajectory(states=states, seed=9)
    path = tmp_path / "t.csv"
    fileio.save_trajectory(traj, path)
    assert np.array_equal(fileio.load_trajectory(path).states, states)

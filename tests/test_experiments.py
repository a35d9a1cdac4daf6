"""Config expansion, experiment runs, and sweeps."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import (ConfigError, WeightingConfig, cli, estimators, fileio,
                    lagmoments, presets)
from granet import experiments as xp
from granet.dynamics import DIVERGENCE_LIMIT
from granet.estimators import ESTIMATOR_KINDS


def small_config(**overrides):
    cfg = {
        "graph": {"n_nodes": 6, "p": 0.4, "seed": 5},
        "rho": 0.5,
        "triple": "linear",
        "sim": {"n_steps": 300, "seed": 9, "y0": 0.0},
        "estimators": ["egg", "granger"],
    }
    cfg.update(overrides)
    return cfg


# --- expand_config --------------------------------------------------------

def test_expand_fills_defaults_and_is_idempotent():
    expanded = xp.expand_config(small_config())
    assert expanded["noise_std"] == 1.0
    assert expanded["weighting"] == {"delta": 0.0}
    # the preset name is replaced by a fully explicit spec
    assert isinstance(expanded["triple"], dict)
    assert xp.expand_config(expanded) == expanded


def test_expand_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(bogus=1))
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(graph={"n_nodes": 6, "p": 0.4,
                                             "seed": 5, "extra": 2}))


def test_expand_validates_fields():
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(rho=1.5))
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(triple="no-such-preset"))
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(sim={"n_steps": 0, "seed": 1, "y0": 0.0}))
    with pytest.raises(ConfigError, match="n_steps"):
        xp.expand_config(small_config(sim={"n_steps": 1, "seed": 1, "y0": 0.0}))
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(estimators=["egg", "mystery"]))
    deep = []
    for _ in range(2000):
        deep = [deep]
    for key in ("triple", "estimators"):
        with pytest.raises(ConfigError, match=f"^{key}: nested too deeply$"):
            xp.expand_config(small_config(**{key: deep}))


def test_expand_observed_set_rules():
    cfg = small_config(observed_set=[4, 1, 3], estimators=["egg_partial"])
    expanded = xp.expand_config(cfg)
    assert expanded["observed_set"] == [1, 3, 4]
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(observed_set=[0, 9]))
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(observed_set=[1, 1, 3],
                                      estimators=["egg_partial"]))
    # partial estimators need an observed set
    with pytest.raises(ConfigError):
        xp.expand_config(small_config(estimators=["granger_partial"]))


_SIGMA_SPECS = st.one_of(
    st.sampled_from(["identity", "tanh"]),
    st.floats(0.1, 1.0).map(lambda a: {"kind": "sign_power", "params": [a]}),
    st.floats(-3.0, 3.0).map(lambda c: {"kind": "tanh_shifted", "params": [c]}),
)


@st.composite
def valid_configs(draw, max_nodes=8):
    """A valid experiment config of 3 to ``max_nodes`` nodes and at most 20
    epochs, which sets every key that has a documented range."""
    n = draw(st.integers(3, max_nodes))
    cfg = {"graph": {"n_nodes": n, "p": draw(st.floats(0.0, 1.0)),
                     "seed": draw(st.integers(0, 2**31))},
           "rho": draw(st.floats(0.05, 0.95)),
           "noise_std": draw(st.floats(0.1, 2.0)),
           "sim": {"n_steps": draw(st.integers(2, 20)),
                   "seed": draw(st.integers(0, 2**31)),
                   "y0": draw(st.one_of(
                       st.floats(-1.0, 1.0),
                       st.lists(st.floats(-1.0, 1.0), min_size=n,
                                max_size=n)))},
           "save_trajectory": draw(st.sampled_from([None, True, False]))}
    source = draw(st.sampled_from(["preset", "triple", "explicit"]))
    if source == "explicit":
        # g = 1 declares no growth exponent, so any sign_power h fits
        sigma = draw(st.one_of(_SIGMA_SPECS, st.lists(
            _SIGMA_SPECS, min_size=n, max_size=n).map(lambda s: {"per_node": s})))
        cfg["triple"] = {"sigma": sigma, "g": "constant_one",
                         "h": {"kind": "sign_power",
                               "params": [draw(st.floats(0.1, 1.0))]}}
    else:
        cfg[source] = draw(st.sampled_from(presets.TRIPLE_PRESETS))
    cfg["weighting"] = {"delta": draw(st.one_of(st.just(0.0),
                                                st.floats(1e-3, 1.0)))}
    kinds = [k for k in ESTIMATOR_KINDS if not k.endswith("_partial")]
    if draw(st.booleans()):
        cfg["observed_set"] = draw(st.lists(st.integers(0, n - 1),
                                            min_size=1, unique=True))
        kinds = list(ESTIMATOR_KINDS)
    cfg["estimators"] = draw(st.lists(st.sampled_from(kinds), min_size=1,
                                      unique=True))
    return cfg


#: A value just below the documented range of each bounded key (for
#: ``sim.y0``, a magnitude above ``DIVERGENCE_LIMIT``).
_BELOW_RANGE = {
    ("graph", "n_nodes"): 0, ("graph", "p"): -0.1, ("graph", "seed"): -1,
    ("rho",): 0.0, ("noise_std",): 0.0, ("sim", "n_steps"): 1,
    ("sim", "seed"): -1, ("sim", "y0"): -2 * DIVERGENCE_LIMIT,
    ("weighting", "delta"): -0.1,
}

#: Values of each JSON type, for replacing a value by one of another type.
_RETYPED = (None, True, 3, 0.5, "x", [], [1], {})

#: Keys a mutation never drops: their defaults are 50 nodes and 200k
#: epochs, far larger than a test should run.
_KEPT = {("graph",), ("sim",), ("graph", "n_nodes"), ("sim", "n_steps")}


def _paths(cfg):
    """The top-level keys of ``cfg`` and the keys under its sections."""
    paths = [(key,) for key in cfg]
    for section in ("graph", "sim", "weighting"):
        if isinstance(cfg.get(section), dict):
            paths += [(section, key) for key in cfg[section]]
    return sorted(paths)


@st.composite
def _mutated(draw, cfg, bounded):
    """``cfg`` with one change: a key dropped, a value of another type, or
    a number below its range (from ``bounded``: path -> value)."""
    cfg = json.loads(json.dumps(cfg))
    paths = _paths(cfg)
    change = draw(st.sampled_from(["drop", "retype", "below"]))
    if change == "drop":
        path = draw(st.sampled_from([p for p in paths if p not in _KEPT]))
    elif change == "retype":
        path = draw(st.sampled_from(paths))
    else:
        path = draw(st.sampled_from(sorted(p for p in bounded if p in paths)))
    *parents, key = path
    holder = cfg
    for parent in parents:
        holder = holder[parent]
    if change == "drop":
        del holder[key]
    elif change == "retype":
        old = holder[key]
        holder[key] = draw(st.sampled_from(
            [v for v in _RETYPED if type(v) is not type(old)]))
    else:
        holder[key] = bounded[path]
    return cfg


@st.composite
def mutated_configs(draw):
    """A valid config of at most 6 nodes with one malformed entry."""
    return draw(_mutated(draw(valid_configs(max_nodes=6)), _BELOW_RANGE))


@st.composite
def mutated_sweeps(draw):
    """A sweep over a valid base with one malformed sweep key."""
    base = draw(valid_configs(max_nodes=6))
    n = base["graph"]["n_nodes"]
    axis = draw(st.sampled_from(xp.SWEEP_AXES))
    value = {"n_steps": st.integers(2, 20), "delta": st.floats(0.0, 1.0),
             "observed_set_size": st.integers(1, n)}[axis]
    sweep = {"base": base, "axis": axis,
             "values": draw(st.lists(value, min_size=1, max_size=2)),
             "master_seed": draw(st.integers(0, 2**31)),
             "summary_estimator": draw(st.sampled_from(base["estimators"]))}
    below = {"n_steps": 1, "delta": -0.1, "observed_set_size": 0}[axis]
    bounded = {("master_seed",): -1, ("values",): [below]}
    mutated = draw(_mutated({k: v for k, v in sweep.items() if k != "base"},
                            bounded))
    return dict(mutated, base=base)


def _run_cli(argv):
    """``cli.main(argv)`` with its output captured; returns the exit code
    and stderr.  An exception escaping ``main`` fails the caller."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(deadline=None, max_examples=30)
@given(cfg=mutated_configs())
def test_experiment_on_a_mutated_config(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("mutated")
    (root / "config.json").write_text(json.dumps(cfg))
    run = root / "run"
    rc, err = _run_cli(["experiment", "--config", str(root / "config.json"),
                        "--out", str(run)])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), err
    assert "Traceback" not in err
    if rc == cli.EXIT_CONFIG:
        assert not run.exists()
    elif rc == cli.EXIT_OK:
        expanded = json.loads((run / "config.expanded.json").read_text())
        expected = {"config.expanded.json", "graph.csv", "matrix.csv",
                    "lag_f0.csv", "lag_f1.csv", "assumptions.json"}
        if expanded["save_trajectory"] is not False:
            expected.add("trajectory.csv")
        for kind in expanded["estimators"]:
            expected |= {f"estimate_{kind}.json", f"estimate_{kind}.csv",
                         f"metrics_{kind}.json", f"profile_{kind}.csv"}
        assert {p.name for p in run.iterdir()} == expected


@settings(deadline=None, max_examples=15)
@given(sweep=mutated_sweeps())
def test_sweep_on_a_mutated_config(tmp_path_factory, sweep):
    root = tmp_path_factory.mktemp("mutated_sweep")
    (root / "sweep.json").write_text(json.dumps(sweep))
    out = root / "out"
    rc, err = _run_cli(["sweep", "--config", str(root / "sweep.json"),
                        "--out", str(out)])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), err
    assert "Traceback" not in err
    if rc == cli.EXIT_CONFIG:
        assert not out.exists()
    else:
        points = {f"point_{k:03d}" for k in range(len(sweep["values"]))}
        assert {p.name for p in out.iterdir()} == points | {"summary.csv"}


@settings(deadline=None, max_examples=60)
@given(valid_configs())
def test_expand_is_idempotent_and_survives_json(cfg):
    expanded = xp.expand_config(cfg)
    assert xp.expand_config(expanded) == expanded
    assert json.loads(json.dumps(expanded)) == expanded


def test_experiment_preset_names():
    for name in ("example1", "example2", "singular-g", "singular-h", "linear"):
        cfg = xp.experiment_preset(name)
        assert cfg["triple"] == name
        assert cfg["sim"]["n_steps"] == 200_000
    with pytest.raises(ConfigError):
        xp.experiment_preset("example3")


# --- run_experiment -------------------------------------------------------

def test_run_writes_complete_inventory(tmp_path):
    res = xp.run_experiment(xp.expand_config(small_config()), tmp_path)
    expected = {
        "config.expanded.json", "graph.csv", "matrix.csv", "trajectory.csv",
        "lag_f0.csv", "lag_f1.csv", "assumptions.json",
        "estimate_egg.json", "estimate_egg.csv", "metrics_egg.json",
        "profile_egg.csv", "estimate_granger.json", "estimate_granger.csv",
        "metrics_granger.json", "profile_granger.csv",
    }
    assert {p.name for p in tmp_path.iterdir()} == expected
    assert res.errors == {}
    assert not res.failed
    # expanded config on disk re-runs to the same state
    stored = json.loads((tmp_path / "config.expanded.json").read_text())
    assert stored == res.config


def test_rerun_from_stored_config_is_bit_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    xp.run_experiment(xp.expand_config(small_config()), first)
    stored = json.loads((first / "config.expanded.json").read_text())
    xp.run_experiment(stored, second)
    for item in sorted(first.iterdir()):
        assert (second / item.name).read_bytes() == item.read_bytes()


def test_metrics_match_direct_scoring(tmp_path):
    res = xp.run_experiment(xp.expand_config(small_config()), tmp_path)
    stored = json.loads((tmp_path / "metrics_egg.json").read_text())
    assert stored["edge_error_rate"] == res.metrics["egg"].edge_error_rate
    assert stored["identifiability_gap"] == res.metrics["egg"].identifiability_gap


def test_estimator_failure_is_recorded_not_fatal(tmp_path):
    cfg = xp.experiment_preset("singular-h")
    cfg["sim"]["n_steps"] = 400
    cfg["estimators"] = ["egg", "correlation"]
    res = xp.run_experiment(xp.expand_config(cfg), tmp_path)
    assert res.failed  # a hard numerical error occurred...
    assert "egg" in res.errors  # ...but the run completed and recorded it
    payload = json.loads((tmp_path / "estimate_egg.json").read_text())
    assert "ill-conditioned" in payload["error"]
    assert not (tmp_path / "estimate_egg.csv").exists()
    # the surviving estimator still has its full artifact set
    assert (tmp_path / "estimate_correlation.csv").exists()
    assert (tmp_path / "metrics_correlation.json").exists()


def test_trajectory_persistence_gate(tmp_path):
    cfg = small_config(save_trajectory=False)
    xp.run_experiment(xp.expand_config(cfg), tmp_path)
    assert not (tmp_path / "trajectory.csv").exists()


def test_partial_estimators_scored_against_subgraph(tmp_path):
    cfg = small_config(observed_set=[0, 2, 4],
                       estimators=["egg_partial", "granger_partial"])
    res = xp.run_experiment(xp.expand_config(cfg), tmp_path)
    rep = res.reports["egg_partial"]
    assert rep.A_hat.shape == (3, 3)
    assert rep.observed_set == (0, 2, 4)
    stored = json.loads((tmp_path / "estimate_egg_partial.json").read_text())
    assert stored["observed_set"] == [0, 2, 4]
    # metrics exist and are computed over the 3x3 observed block
    m = res.metrics["egg_partial"]
    assert m.total_offdiag == 6


#: Two full moment chunks and a partial one.
PAIRS = 2 * lagmoments._BATCH_CHUNK + 37


def raw_walks(monkeypatch):
    """The ``cross`` flag of each walk ``_moment_sums`` makes over raw
    states, in order."""
    walks = []
    original = lagmoments._moment_sums

    def spy(states, n_pairs, fill=None, buffers=None, cross=True):
        if fill is None:
            walks.append(cross)
        return original(states, n_pairs, fill, buffers, cross)

    monkeypatch.setattr(lagmoments, "_moment_sums", spy)
    return walks


def test_the_estimate_stage_walks_the_raw_states_once(tmp_path, monkeypatch,
                                                      trajectory_factory):
    traj = trajectory_factory("example1", 12, PAIRS)
    triple = presets.triple_preset("example1", 50)
    walks = raw_walks(monkeypatch)
    kinds = ["granger", "correlation", "precision"]
    for listed, cross in ((kinds, True), (kinds[1:], False)):
        walks.clear()
        reports, errors = xp.run_estimators(tmp_path / listed[0], traj, triple,
                                            WeightingConfig(), listed, None)
        assert walks == [cross] and errors == {}
        # a bare call walks the trajectory itself, to the same bits
        walks.clear()
        for kind in listed:
            alone = estimators._TABLE[kind][1](traj=traj)
            assert reports[kind].A_hat.tobytes() == alone.A_hat.tobytes()
        assert walks == [kind == "granger" for kind in listed]


def test_a_partial_kind_reads_its_own_columns_in_a_stage_with_granger(
        tmp_path, trajectory_factory):
    traj = trajectory_factory("example1", 12, PAIRS)
    reports, _ = xp.run_estimators(
        tmp_path, traj, presets.triple_preset("example1", 50),
        WeightingConfig(), ["granger", "granger_partial"], [0, 2, 4])
    alone = estimators.partial_estimate(traj, [0, 2, 4], "granger")
    assert reports["granger_partial"].A_hat.tobytes() == alone.A_hat.tobytes()


def test_an_underflowing_rho_is_scored_against_the_matrix_support(tmp_path):
    # rho / d underflows to zero, so the matrix has none of the generated
    # edges; the truth scored against is the matrix's support, which is empty
    cfg = small_config(graph={"n_nodes": 6, "p": 0.5, "seed": 5}, rho=5e-324,
                       estimators=["correlation"])
    res = xp.run_experiment(xp.expand_config(cfg), tmp_path)
    assert res.graph.n_edges == 16
    assert not (res.matrix.entries * ~np.eye(6, dtype=bool)).any()
    m = res.metrics["correlation"]
    assert m.missed_edges == 0
    assert np.isnan(m.identifiability_gap)


def test_kappa_flag_does_not_block_run(tmp_path):
    cfg = small_config(triple={
        "sigma": {"kind": "identity", "envelope": [2.4, 0.0]},
        "g": {"kind": "constant_one"},
        "h": {"kind": "identity"},
        "triple_id": "inflated-linear",
    })
    res = xp.run_experiment(xp.expand_config(cfg), tmp_path)
    assert res.errors == {}
    payload = json.loads((tmp_path / "assumptions.json").read_text())
    assert payload["kappa_s"] == pytest.approx(1.2)
    assert payload["kappa_stable"] is False


# --- run_sweep ------------------------------------------------------------

def test_sweep_over_n_steps(tmp_path):
    sweep = {"base": small_config(), "axis": "n_steps",
             "values": [100, 200, 300], "master_seed": 7,
             "summary_estimator": "egg"}
    rows = xp.run_sweep(sweep, tmp_path)
    assert [row["index"] for row in rows] == [0, 1, 2]
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == ("index,value,estimator,edge_error_rate,"
                        "matrix_rel_error,identifiability_gap,error")
    assert len(lines) == 4
    # each point ran with its own derived simulation seed
    seeds = set()
    for k in range(3):
        cfg = json.loads(
            (tmp_path / f"point_{k:03d}" / "config.expanded.json").read_text())
        assert cfg["sim"]["n_steps"] == [100, 200, 300][k]
        seeds.add(cfg["sim"]["seed"])
    assert len(seeds) == 3


def test_sweep_failed_point_records_error_and_continues(tmp_path):
    base = xp.experiment_preset("singular-h")
    base["sim"]["n_steps"] = 300
    base["estimators"] = ["egg"]
    sweep = {"base": base, "axis": "n_steps", "values": [200, 300],
             "master_seed": 1, "summary_estimator": "egg"}
    xp.run_sweep(sweep, tmp_path)
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert "ill-conditioned" in row


def test_sweep_validation(tmp_path):
    base = small_config()
    with pytest.raises(ConfigError):
        xp.run_sweep({"base": base, "axis": "n_steps", "values": [],
                      "master_seed": 1, "summary_estimator": "egg"}, tmp_path)
    with pytest.raises(ConfigError):
        xp.run_sweep({"base": base, "axis": "temperature", "values": [1],
                      "master_seed": 1, "summary_estimator": "egg"}, tmp_path)
    with pytest.raises(ConfigError):
        xp.run_sweep({"base": base, "axis": "n_steps", "values": [100],
                      "master_seed": 1, "summary_estimator": "egg",
                      "stray": True}, tmp_path)
    with pytest.raises(ConfigError, match="master_seed"):
        xp.run_sweep({"base": base, "axis": "n_steps", "values": [100],
                      "master_seed": True, "summary_estimator": "egg"}, tmp_path)
    assert not list(tmp_path.glob("point_*"))


def test_sweep_rejects_a_single_step_before_any_point_runs(tmp_path):
    sweep = {"base": small_config(), "axis": "n_steps", "values": [200, 1],
             "master_seed": 1, "summary_estimator": "egg"}
    with pytest.raises(ConfigError, match="n_steps"):
        xp.run_sweep(sweep, tmp_path)
    assert not list(tmp_path.glob("point_*"))


def test_sweep_delta_axis_switches_to_regularized(tmp_path):
    base = small_config(triple="singular-g")
    base["sim"]["n_steps"] = 500
    base["estimators"] = ["egg"]
    sweep = {"base": base, "axis": "delta", "values": [0.1, 0.2],
             "master_seed": 3, "summary_estimator": "egg"}
    xp.run_sweep(sweep, tmp_path)
    for k, delta in enumerate([0.1, 0.2]):
        cfg = json.loads(
            (tmp_path / f"point_{k:03d}" / "config.expanded.json").read_text())
        assert cfg["weighting"]["delta"] == delta


def test_sweep_observed_set_size_axis(tmp_path):
    sweep = {"base": small_config(), "axis": "observed_set_size",
             "values": [2, 4], "master_seed": 11,
             "summary_estimator": "egg_partial"}
    xp.run_sweep(sweep, tmp_path)
    for k, size in enumerate([2, 4]):
        cfg = json.loads(
            (tmp_path / f"point_{k:03d}" / "config.expanded.json").read_text())
        assert len(cfg["observed_set"]) == size
        assert cfg["estimators"] == ["egg_partial"]


@pytest.mark.parametrize("axis, values, summary_kind", [
    ("observed_set_size", [2, 4], "egg"),
    ("n_steps", [100, 200], "granger_partial"),
    ("n_steps", [100, 200], "least_squares"),
])
def test_sweep_rejects_a_summary_kind_no_point_runs(tmp_path, axis, values,
                                                    summary_kind):
    sweep = {"base": small_config(), "axis": axis, "values": values,
             "master_seed": 5, "summary_estimator": summary_kind}
    with pytest.raises(ConfigError, match="summary_estimator"):
        xp.run_sweep(sweep, tmp_path)
    assert not list(tmp_path.glob("point_*"))


def _tree_bytes(root):
    """Every file under ``root``, keyed by its relative path."""
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("axis, values, summary_kind", [
    ("n_steps", [100, 150, 200], "egg"),
    ("observed_set_size", [2, 4], "egg_partial"),
])
def test_sweep_reruns_are_byte_identical(tmp_path, axis, values, summary_kind):
    sweep = {"base": small_config(), "axis": axis, "values": values,
             "master_seed": 5, "summary_estimator": summary_kind}
    xp.run_sweep(sweep, tmp_path / "first")
    xp.run_sweep(sweep, tmp_path / "second")
    first = _tree_bytes(tmp_path / "first")
    points = {f"point_{k:03d}" for k in range(len(values))}
    assert {name.parts[0] for name in first} == points | {"summary.csv"}
    assert _tree_bytes(tmp_path / "second") == first

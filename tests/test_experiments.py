"""Config expansion, experiment runs, and sweeps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import ConfigError, fileio, presets
from granet import experiments as xp
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
    assert expanded["cond_limit"] == 1e12
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
def valid_configs(draw):
    n = draw(st.integers(3, 8))
    cfg = {"graph": {"n_nodes": n, "p": draw(st.floats(0.0, 1.0)),
                     "seed": draw(st.integers(0, 2**31))},
           "sim": {"y0": draw(st.one_of(
               st.floats(-1.0, 1.0),
               st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))}}
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


def test_sweep_workers_agree_with_serial(tmp_path):
    sweep = {"base": small_config(), "axis": "n_steps", "values": [100, 150],
             "master_seed": 5, "summary_estimator": "egg"}
    xp.run_sweep(sweep, tmp_path / "serial", workers=1)
    xp.run_sweep(sweep, tmp_path / "parallel", workers=2)
    assert (tmp_path / "serial" / "summary.csv").read_text() == \
        (tmp_path / "parallel" / "summary.csv").read_text()


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


@pytest.mark.parametrize("workers", [0, -1, True])
def test_sweep_rejects_workers_below_one(tmp_path, workers):
    sweep = {"base": small_config(), "axis": "n_steps", "values": [100],
             "master_seed": 5, "summary_estimator": "egg"}
    with pytest.raises(ConfigError, match="workers"):
        xp.run_sweep(sweep, tmp_path, workers=workers)
    assert not (tmp_path / "point_000").exists()


def test_sweep_pool_is_capped_at_the_point_count(tmp_path, monkeypatch):
    # a stand-in pool that runs the points in-process and records its size
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(xp, "ProcessPoolExecutor", RecordingPool)
    sweep = {"base": small_config(), "axis": "n_steps", "values": [100, 150],
             "master_seed": 5, "summary_estimator": "egg"}
    xp.run_sweep(sweep, tmp_path / "capped", workers=64)
    assert sizes == [2]
    xp.run_sweep(dict(sweep, values=[100]), tmp_path / "single", workers=64)
    assert sizes == [2]  # one point runs serially, without a pool

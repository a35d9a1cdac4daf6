"""In-process command-line interface checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import granet
from granet import cli, estimators, fileio
from granet import experiments as xp


def small_experiment_config():
    return {
        "graph": {"n_nodes": 6, "p": 0.4, "seed": 5},
        "rho": 0.5,
        "triple": "linear",
        "sim": {"n_steps": 300, "seed": 9, "y0": 0.0},
        "estimators": ["egg"],
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Artifacts from a generate → simulate chain shared by the tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert cli.main(["generate", "--n", "6", "--p", "0.4", "--rho", "0.5",
                     "--seed", "5", "--out", str(root / "gen")]) == 0
    assert cli.main(["simulate", "--matrix", str(root / "gen" / "matrix.csv"),
                     "--triple", "linear", "--steps", "100", "--seed", "2",
                     "--out", str(root / "sim")]) == 0
    return root


@pytest.fixture(scope="module")
def singular_run(tmp_path_factory):
    """A completed-but-failed experiment on the ill-conditioned preset."""
    root = tmp_path_factory.mktemp("singular")
    cfg = xp.experiment_preset("singular-h")
    cfg["sim"]["n_steps"] = 400
    cfg["estimators"] = ["egg", "correlation"]
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(root / "run")])
    return rc, root / "run"


def test_exit_codes_are_distinct():
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_IO) \
        == (0, 2, 3, 4)


def test_help_lists_all_subcommands():
    text = cli.build_parser().format_help()
    for name in ("generate", "simulate", "estimate", "score",
                 "experiment", "sweep"):
        assert name in text


def test_generate_outputs_load_and_are_deterministic(tmp_path, pipeline):
    graph = fileio.load_graph(pipeline / "gen" / "graph.csv")
    matrix = fileio.load_matrix(pipeline / "gen" / "matrix.csv")
    assert graph.n_nodes == 6
    assert matrix.shape == (6, 6)
    assert cli.main(["generate", "--n", "6", "--p", "0.4", "--rho", "0.5",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
    for name in ("graph.csv", "matrix.csv"):
        assert (tmp_path / name).read_bytes() == \
            (pipeline / "gen" / name).read_bytes()


def test_simulate_output_shape(pipeline):
    traj = fileio.load_trajectory(pipeline / "sim" / "trajectory.csv")
    assert traj.n_steps == 100
    assert traj.states.shape == (101, 6)


def test_estimate_and_score_chain(pipeline, tmp_path, capsys):
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--triple", "linear", "--estimators", "egg,granger",
                   "--out", str(tmp_path / "est")])
    assert rc == 0
    for kind in ("egg", "granger"):
        assert (tmp_path / "est" / f"estimate_{kind}.csv").exists()
        payload = json.loads(
            (tmp_path / "est" / f"estimate_{kind}.json").read_text())
        assert payload["estimator_kind"] == kind
    rc = cli.main(["score", "--estimate",
                   str(tmp_path / "est" / "estimate_egg.csv"),
                   "--truth", str(pipeline / "gen" / "matrix.csv"),
                   "--out", str(tmp_path / "scored")])
    assert rc == 0
    metrics = json.loads((tmp_path / "scored" / "metrics.json").read_text())
    assert {"edge_error_rate", "identifiability_gap",
            "matrix_rel_error"} <= metrics.keys()
    header = (tmp_path / "scored" / "profile.csv").read_text().splitlines()[0]
    assert header == "slot,true,estimate"
    assert "edge error rate" in capsys.readouterr().out


def test_estimate_unknown_kind(pipeline, tmp_path, capsys):
    # a known kind listed first writes nothing either
    for kinds in ("mystery", "egg,mystery"):
        out = tmp_path / kinds
        rc = cli.main(["estimate", "--trajectory",
                       str(pipeline / "sim" / "trajectory.csv"),
                       "--estimators", kinds, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "unknown kind 'mystery'" in capsys.readouterr().err
        assert not out.exists()


def test_estimate_partial_needs_observed(pipeline, tmp_path):
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--triple", "linear", "--estimators", "egg_partial",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


def test_estimate_partial_with_observed(pipeline, tmp_path):
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--triple", "linear", "--estimators", "egg_partial",
                   "--observed", "0,2,4", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "estimate_egg_partial.json").read_text())
    assert payload["observed_set"] == [0, 2, 4]


@pytest.mark.parametrize("observed, reason", [
    ("0,9", "integers in range"), ("-1", "integers in range"),
    ("0,0", "distinct"),
], ids=["node_above_n_nodes", "negative_node", "repeated_node"])
def test_estimate_checks_observed_for_every_kind(pipeline, tmp_path, capsys,
                                                 observed, reason):
    # egg reads no observed set, yet a bad one is still rejected up front
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--triple", "linear", "--estimators", "egg",
                   "--observed", observed, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert f"observed_set: nodes must be {reason}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("limit", ["-1", "0", "nan"])
def test_estimate_cond_limit_must_be_positive(pipeline, tmp_path, capsys, limit):
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--triple", "linear", "--estimators", "egg,granger",
                   "--cond-limit", limit, "--out", str(tmp_path / "est")])
    assert rc == cli.EXIT_CONFIG
    assert "cond_limit" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()


@pytest.mark.parametrize("kind", [kind for kind in estimators.ESTIMATOR_KINDS
                                  if kind not in estimators._PARTIAL_KINDS])
def test_estimate_rejects_a_zero_step_trajectory(pipeline, tmp_path, capsys,
                                                 kind):
    assert cli.main(["simulate", "--matrix", str(pipeline / "gen" / "matrix.csv"),
                     "--triple", "linear", "--steps", "0",
                     "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    rc = cli.main(["estimate", "--trajectory",
                   str(tmp_path / "sim" / "trajectory.csv"),
                   "--triple", "linear", "--estimators", kind,
                   "--out", str(tmp_path / "est")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "at least one step" in err and "Traceback" not in err
    assert not (tmp_path / "est").exists()


def test_unregularizable_g_is_rejected_before_any_file(pipeline, tmp_path,
                                                       capsys):
    # limiter(0, 1) vanishes on a half-line, so no clamp can regularise 1/g
    triple = {"sigma": "identity", "h": "identity",
              "g": {"kind": "limiter", "params": [0.0, 1.0]}}
    cfg = dict(small_experiment_config(), triple=triple,
               weighting={"delta": 0.1})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "weighting: limiter(0, 1) has a non-isolated root set" in \
        capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--triple", str(cfg_path), "--delta", "0.1",
                   "--out", str(tmp_path / "est")])
    assert rc == cli.EXIT_CONFIG
    assert "non-isolated root set" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()


def test_experiment_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--out", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--config", "a.json", "--preset", "linear",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_experiment_seed_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_experiment_config()))
    rc = cli.main(["experiment", "--config", str(cfg_path), "--seed", "42",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    stored = json.loads(
        (tmp_path / "run" / "config.expanded.json").read_text())
    assert stored["sim"]["seed"] == 42


def test_experiment_reruns_are_bit_identical(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_experiment_config()))
    for sub in ("a", "b"):
        assert cli.main(["experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / sub)]) == 0
    for item in sorted((tmp_path / "a").iterdir()):
        assert (tmp_path / "b" / item.name).read_bytes() == item.read_bytes()


def test_experiment_config_error_exit(tmp_path, capsys):
    cfg = small_experiment_config()
    cfg["rho"] = 2.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"graph": "x"}, "graph"),
    ({"rho": "a"}, "rho"),
    ({"noise_std": None}, "noise_std"),
    ({"cond_limit": "x"}, "cond_limit"),
    ({"weighting": {"delta": "x"}}, "delta"),
    ({"sim": {"y0": {}}}, "y0"),
    ({"weighting": {"delta": float("nan")}}, "weighting"),
    ({"weighting": {"delta": float("inf")}}, "weighting"),
    ({"triple": "singular-g", "weighting": {"singular_tol": float("nan")}},
     "weighting"),
    ({"sim": {"y0": float("nan")}}, "y0"),
    ({"sim": {"y0": [0, 1]}}, "y0"),
    ({"noise_std": float("inf")}, "noise_std"),
    ({"save_trajectory": "no"}, "save_trajectory"),
    ({"save_trajectory": 1}, "save_trajectory"),
    ({"graph": {"n_nodes": 6, "p": 0.4, "seed": -1}}, "graph.seed"),
    ({"sim": {"n_steps": 300, "seed": -5, "y0": 0.0}}, "sim.seed"),
    ({"triple": {"sigma": {"kind": "sign_power", "params": [float("nan")]},
                 "g": "constant_one", "h": "identity"}}, "finite"),
    ({"triple": {"sigma": {"per_node": 5}, "g": "constant_one",
                 "h": "identity"}}, "per_node"),
    ({"norm": "infinity"}, "norm"),
    ({"weighting": {"mode": "exact", "delta": 0.0}}, "mode"),
])
def test_experiment_mistyped_value_exit_config(tmp_path, capsys, overrides, key):
    cfg = dict(small_experiment_config(), **overrides)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_sweep_mistyped_delta_exit_config(tmp_path, capsys):
    for bad in ("x", float("inf")):
        sweep = {"base": small_experiment_config(), "axis": "delta",
                 "values": [0.1, bad], "master_seed": 7}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(sweep))
        rc = cli.main(["sweep", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "delta" in capsys.readouterr().err
        assert not (tmp_path / "out" / "point_000").exists()


@pytest.mark.parametrize("command, payload", [
    ("experiment", [1, 2]),
    ("experiment", {"sim": 5}),
    ("sweep", [1, 2]),
], ids=["experiment_list", "experiment_sim_int", "sweep_list"])
def test_malformed_config_with_seed_exit_config(tmp_path, capsys, command,
                                                payload):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
    rc = cli.main([command, "--config", str(cfg_path), "--seed", "3",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis, values, summary", [
    ("n_steps", [200, 1], None),
    ("delta", [0.1, -0.5], None),
    ("observed_set_size", [2, 7], None),
    ("n_steps", [200], "nope"),
], ids=["n_steps_1", "negative_delta", "observed_above_n_nodes",
        "unknown_summary_kind"])
def test_rejected_sweep_makes_no_out_directory(tmp_path, axis, values, summary):
    sweep = {"base": small_experiment_config(), "axis": axis,
             "values": values, "master_seed": 7}
    if summary is not None:
        sweep["summary_estimator"] = summary
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    rc = cli.main(["sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_invalid_json_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("not json at all {")
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG


def test_missing_input_files_exit_io(tmp_path, pipeline):
    missing = str(tmp_path / "nope")
    assert cli.main(["estimate", "--trajectory",
                     str(pipeline / "sim" / "trajectory.csv"),
                     "--triple", missing,
                     "--out", str(tmp_path / "e")]) == cli.EXIT_IO
    assert cli.main(["experiment", "--config", missing,
                     "--out", str(tmp_path / "a")]) == cli.EXIT_IO
    assert cli.main(["estimate", "--trajectory", missing,
                     "--out", str(tmp_path / "b")]) == cli.EXIT_IO
    assert cli.main(["simulate", "--matrix", missing, "--steps", "10",
                     "--out", str(tmp_path / "c")]) == cli.EXIT_IO
    assert cli.main(["score", "--estimate", missing, "--truth", missing,
                     "--out", str(tmp_path / "d")]) == cli.EXIT_IO


@pytest.mark.parametrize("payload", [
    "not json {",
    json.dumps({"sigma": "tanh", "g": "constant_one"}),
    json.dumps({"triple": {"sigma": "limiter", "g": "constant_one",
                           "h": "identity"}}),
    json.dumps({"sigma": 5, "g": "constant_one", "h": "identity"}),
    json.dumps({"sigma": {"kind": "tanh", "envelope": 5},
                "g": "constant_one", "h": "identity"}),
])
def test_bad_triple_file_exit_config(pipeline, tmp_path, capsys, payload):
    path = tmp_path / "triple.json"
    path.write_text(payload)
    for argv in (["simulate", "--matrix", str(pipeline / "gen" / "matrix.csv"),
                  "--steps", "10"],
                 ["estimate", "--trajectory",
                  str(pipeline / "sim" / "trajectory.csv")]):
        rc = cli.main(argv + ["--triple", str(path), "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err


def test_empty_matrix_file_exits_config_without_warnings(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    env = dict(os.environ,
               PYTHONPATH=str(Path(granet.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "granet", "simulate", "--matrix", str(path),
         "--steps", "10", "--out", str(tmp_path / "sim")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_CONFIG
    assert str(path) in proc.stderr
    assert "Warning" not in proc.stderr


def test_experiment_numerical_failure_exit(singular_run):
    rc, run_dir = singular_run
    assert rc == cli.EXIT_NUMERICAL
    payload = json.loads((run_dir / "estimate_egg.json").read_text())
    assert "ill-conditioned" in payload["error"]
    # the run itself completed: the benign estimator was still written
    assert (run_dir / "metrics_correlation.json").exists()


def test_experiment_one_observed_node_records_the_error(tmp_path, capsys):
    # one observed node leaves no off-diagonal entry to cluster
    cfg = dict(small_experiment_config(), observed_set=[2],
               estimators=["egg", "egg_partial"])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_NUMERICAL
    assert "egg_partial: need at least two values to split, got 0" in \
        capsys.readouterr().err
    run_dir = tmp_path / "run"
    assert (run_dir / "estimate_egg_partial.csv").exists()
    assert not (run_dir / "metrics_egg_partial.json").exists()
    assert (run_dir / "metrics_egg.json").exists()
    assert (run_dir / "assumptions.json").exists()


def test_estimate_singular_exit(singular_run, tmp_path, capsys):
    _, run_dir = singular_run
    rc = cli.main(["estimate", "--trajectory",
                   str(run_dir / "trajectory.csv"),
                   "--triple", "singular-h", "--estimators", "egg",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "ill-conditioned" in capsys.readouterr().err


def test_sweep_cli_roundtrip(tmp_path):
    sweep = {"base": small_experiment_config(), "axis": "n_steps",
             "values": [100, 200], "master_seed": 7,
             "summary_estimator": "egg"}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    rc = cli.main(["sweep", "--config", str(cfg_path), "--workers", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "out" / "point_000").is_dir()
    assert (tmp_path / "out" / "point_001").is_dir()


def test_sweep_empty_values_exit(tmp_path):
    sweep = {"base": small_experiment_config(), "axis": "n_steps",
             "values": [], "master_seed": 7, "summary_estimator": "egg"}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    rc = cli.main(["sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_exit_config(tmp_path, workers):
    sweep = {"base": small_experiment_config(), "axis": "n_steps",
             "values": [100], "master_seed": 7, "summary_estimator": "egg"}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    rc = cli.main(["sweep", "--config", str(cfg_path), "--workers", workers,
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG


def test_sweep_failed_points_exit_numerical(tmp_path):
    base = xp.experiment_preset("singular-h")
    base["sim"]["n_steps"] = 300
    base["estimators"] = ["egg"]
    sweep = {"base": base, "axis": "n_steps", "values": [200, 300],
             "master_seed": 1, "summary_estimator": "egg"}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    rc = cli.main(["sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NUMERICAL


def test_dispatch_reads_the_patched_module_attribute(tmp_path, monkeypatch):
    # experiments and the CLI look the estimator up at call time, so a
    # patch of ``granet.estimators`` (as a tracer makes) reaches both,
    # also through the partial kind
    calls = []
    original = estimators.granger_estimate

    def spy(*args, **kwargs):
        calls.append(args[0].n_nodes)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "granger_estimate", spy)
    cfg = dict(small_experiment_config(), observed_set=[0, 2, 4],
               estimators=["granger", "granger_partial"])
    xp.run_experiment(cfg, tmp_path / "run")
    assert calls == [6, 3]
    assert cli.main(["estimate", "--trajectory",
                     str(tmp_path / "run" / "trajectory.csv"),
                     "--estimators", "granger,granger_partial",
                     "--observed", "1,3", "--out", str(tmp_path / "est")]) == 0
    assert calls == [6, 3, 6, 2]


_SIGMAS = [{"kind": "tanh"}, {"kind": "identity"},
           {"kind": "tanh_shifted", "params": [2.0]},
           {"kind": "sign_power", "params": [0.5]}]
_PER_NODE_TRIPLE = {
    "sigma": {"per_node": [_SIGMAS[i % 4] for i in range(6)]},
    "g": {"per_node": [{"kind": "sign_power", "params": [0.4]},
                       {"kind": "tanh"}] * 3},
    "h": {"kind": "sign_power", "params": [0.6]},
}


def test_estimate_reproduces_experiment_files(tmp_path):
    # a preset by name, and a per-node triple through the run's stored config
    for case, triple in (("preset", "example1"), ("per_node", _PER_NODE_TRIPLE)):
        run, est = tmp_path / case / "run", tmp_path / case / "est"
        cfg = dict(small_experiment_config(), triple=triple,
                   save_trajectory=True, observed_set=[0, 2, 3, 5],
                   estimators=list(estimators.ESTIMATOR_KINDS))
        result = xp.run_experiment(cfg, run)
        assert result.errors == {}
        triple_arg = triple if isinstance(triple, str) \
            else str(run / "config.expanded.json")
        assert cli.main(["estimate", "--trajectory", str(run / "trajectory.csv"),
                         "--triple", triple_arg,
                         "--estimators", ",".join(estimators.ESTIMATOR_KINDS),
                         "--observed", "0,2,3,5", "--out", str(est)]) == 0
        for kind in estimators.ESTIMATOR_KINDS:
            for suffix in ("csv", "json"):
                name = f"estimate_{kind}.{suffix}"
                assert (est / name).read_bytes() == (run / name).read_bytes(), \
                    (case, name)

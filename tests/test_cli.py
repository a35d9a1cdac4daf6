"""In-process command-line interface checks."""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import granet
from granet import _paired, cli, estimators, fileio, lagmoments
from granet import experiments as xp
from granet import nonlinearities as nl


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
    header = (pipeline / "gen" / "graph.csv").read_text().splitlines()[0]
    matrix = fileio.load_matrix(pipeline / "gen" / "matrix.csv")
    assert header == "# N=6"
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


def test_score_reproduces_an_experiments_scoring(tmp_path):
    kinds = list(estimators.ESTIMATOR_KINDS)
    observed = [1, 4, 6, 7, 10, 11]
    cfg = {"graph": {"n_nodes": 12, "p": 0.3, "seed": 5}, "triple": "example2",
           "sim": {"n_steps": 3000, "seed": 9, "y0": 0.0}, "estimators": kinds,
           "observed_set": observed}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(run)]) == 0
    # a partial kind is scored against the observed sub-block of the truth
    block = tmp_path / "matrix_observed.csv"
    fileio.save_matrix(
        fileio.load_matrix(run / "matrix.csv")[np.ix_(observed, observed)],
        block)
    for kind in kinds:
        truth = block if kind in estimators._PARTIAL_KINDS else run / "matrix.csv"
        out = tmp_path / f"score_{kind}"
        assert cli.main(["score", "--estimate", str(run / f"estimate_{kind}.csv"),
                         "--truth", str(truth), "--out", str(out)]) == 0
        assert (out / "metrics.json").read_bytes() == \
            (run / f"metrics_{kind}.json").read_bytes()
        assert (out / "profile.csv").read_bytes() == \
            (run / f"profile_{kind}.csv").read_bytes()


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


_SHORT_TRIPLES = ("linear", "example1", "singular-g")


@pytest.fixture(scope="module")
def short_trajectories(pipeline, tmp_path_factory):
    """A 20-epoch trajectory on the 6-node pipeline matrix per triple."""
    root = tmp_path_factory.mktemp("short")
    for triple in _SHORT_TRIPLES:
        assert cli.main(["simulate", "--matrix", str(pipeline / "gen" / "matrix.csv"),
                         "--triple", triple, "--steps", "20", "--seed", "4",
                         "--out", str(root / triple)]) == 0
    return root


_observed_items = st.one_of(st.integers(-2, 7).map(str),
                            st.sampled_from(["", " 1", "a", "1.5", "2e0"]))
_observed_args = st.one_of(
    st.just(""),
    st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True)
    .map(lambda nodes: ",".join(map(str, nodes))),
    st.lists(_observed_items, min_size=1, max_size=5).map(",".join),
)
_delta_args = st.one_of(
    st.sampled_from(["-1", "-0.0", "0", "5e-324", "1e-310", "1e-110",
                     "nan", "inf", "-inf"]),
    st.floats(0.0, 1.0).map(repr),
)


@settings(deadline=None, max_examples=25)
@given(triple=st.sampled_from(_SHORT_TRIPLES), observed=_observed_args,
       delta=_delta_args,
       kinds=st.lists(st.sampled_from(estimators.ESTIMATOR_KINDS), min_size=1,
                      max_size=3, unique=True))
def test_estimate_on_drawn_observed_and_delta(short_trajectories,
                                              tmp_path_factory, triple,
                                              observed, delta, kinds):
    out = tmp_path_factory.mktemp("drawn_estimate") / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(["estimate", "--trajectory",
                           str(short_trajectories / triple / "trajectory.csv"),
                           "--triple", triple, "--estimators", ",".join(kinds),
                           f"--observed={observed}", f"--delta={delta}",
                           "--out", str(out)])
        except SystemExit as exc:  # argparse refused a flag's value
            rc = exc.code
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), err
    assert "Traceback" not in err.getvalue()
    if rc == cli.EXIT_CONFIG:
        assert not out.exists()
    else:
        written = sorted(out.glob("estimate_*.csv"))
        if rc == cli.EXIT_OK:
            assert len(written) == len(kinds)
        for path in written:
            assert np.isfinite(np.loadtxt(path, delimiter=",", ndmin=2)).all()


@pytest.mark.parametrize("limit", ["-1", "0", "nan"])
def test_estimate_cond_limit_must_be_positive(pipeline, tmp_path, capsys, limit):
    # the limit is the constant estimators.COND_LIMIT, so the retired flag
    # is an argparse error whatever its value
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--trajectory",
                  str(pipeline / "sim" / "trajectory.csv"),
                  "--triple", "linear", "--estimators", "egg,granger",
                  "--cond-limit", limit, "--out", str(tmp_path / "est")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "--cond-limit" in capsys.readouterr().err
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


def test_estimate_rejects_states_beyond_the_divergence_limit(tmp_path, capsys):
    # such states overflow the moment sums, so the loader refuses them
    path = tmp_path / "trajectory.csv"
    path.write_text("# N=2, steps=3, seed=0\n0,0\n1,2\n3,1e200\n0,1\n")
    rc = cli.main(["estimate", "--trajectory", str(path), "--triple", "linear",
                   "--estimators", "egg,granger", "--out", str(tmp_path / "est")])
    assert rc == cli.EXIT_CONFIG
    assert f"configuration error: {path}: trajectory states must all be " \
        "finite" in capsys.readouterr().err
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


def test_a_repeated_kind_is_rejected_before_any_file(pipeline, tmp_path,
                                                      capsys):
    rc = cli.main(["estimate", "--trajectory",
                   str(pipeline / "sim" / "trajectory.csv"),
                   "--estimators", "egg,egg,granger",
                   "--out", str(tmp_path / "est")])
    assert rc == cli.EXIT_CONFIG
    assert "kind 'egg' is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(small_experiment_config(),
                                        estimators=["egg", "granger", "egg"])))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "kind 'egg' is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    ({"triple": {"sigma": "identity", "g": "constant_one",
                 "h": {"kind": "limiter", "parms": [0.5, 2.0]}}}, "parms"),
    ({"triple": {"sigma": "identity", "g": "constant_one", "h": "identity",
                 "extra": 1}}, "extra"),
    ({"triple": {"sigma": {"kind": ["tanh"]}, "g": "constant_one",
                 "h": "identity"}}, "unknown nonlinearity kind"),
    ({"triple": {"sigma": {"uniform": "identity", "per_node": 5},
                 "g": "constant_one", "h": "identity"}}, "only 'uniform'"),
    ({"sim": {"y0": 1e13}}, "y0"),
    ({"triple": {"sigma": "identity", "g": "constant_one", "h": "identity",
                 "triple_id": None}}, "triple_id must be a string, got None"),
    ({"triple": {"sigma": "identity", "g": "constant_one", "h": "identity",
                 "triple_id": [1, 2]}}, "triple_id must be a string, got [1, 2]"),
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


_VALID_TRIPLE = {"sigma": {"kind": "tanh_shifted", "params": [0.5]},
                 "g": {"kind": "constant_one"},
                 "h": {"kind": "sign_power", "params": [0.6]}}
_KINDS = sorted(nl._FACTORIES)
_NOT_A_NUMBER = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                          st.lists(st.integers(), max_size=2))


def _mutated(spec):
    """Strategy: ``spec`` with one thing wrong that from_spec must refuse."""
    unknown_key = st.text(min_size=1, max_size=8).filter(
        lambda key: key not in ("kind", "params", "envelope", "exponent_role"))
    bad_kind = st.one_of(
        st.text(max_size=12).filter(lambda kind: kind not in _KINDS),
        st.lists(st.sampled_from(_KINDS), min_size=1, max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=1))
    bad_params = st.one_of(
        st.text(max_size=4), st.booleans(),
        st.lists(st.one_of(st.booleans(), st.text(max_size=3)),
                 min_size=1, max_size=2))
    bad_envelope = st.one_of(
        st.floats(0.0, 2.0), st.text(max_size=4),
        st.lists(st.floats(0.0, 2.0), max_size=4).filter(lambda e: len(e) != 2),
        st.tuples(_NOT_A_NUMBER, st.floats(0.0, 2.0)).map(list),
        st.tuples(st.floats(0.0, 2.0), st.floats(-2.0, -0.01)).map(list))
    return st.one_of(
        st.tuples(unknown_key, st.integers()).map(
            lambda item: {**spec, item[0]: item[1]}),
        bad_kind.map(lambda kind: {**spec, "kind": kind}),
        bad_params.map(lambda params: {**spec, "params": params}),
        bad_envelope.map(lambda envelope: {**spec, "envelope": envelope}))


@st.composite
def _triples_with_one_bad_spec(draw, n_nodes):
    family = draw(st.sampled_from(sorted(_VALID_TRIPLE)))
    spec = _VALID_TRIPLE[family]
    bad = draw(_mutated(spec))
    triple = dict(_VALID_TRIPLE)
    form = draw(st.sampled_from(["bare", "uniform", "per_node"]))
    if form == "per_node":
        specs = [spec] * n_nodes
        specs[draw(st.integers(0, n_nodes - 1))] = bad
        triple[family] = {"per_node": specs}
    else:
        triple[family] = bad if form == "bare" else {"uniform": bad}
    return triple


@settings(deadline=None, max_examples=30)
@given(triple=_triples_with_one_bad_spec(3))
def test_experiment_refuses_a_malformed_nonlinearity_spec(tmp_path_factory,
                                                         triple):
    root = tmp_path_factory.mktemp("mutant")
    cfg = dict(small_experiment_config(), triple=triple,
               graph={"n_nodes": 3, "p": 0.5, "seed": 5},
               sim={"n_steps": 20, "seed": 9, "y0": 0.0})
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["experiment", "--config", str(cfg_path),
                       "--out", str(root / "run")])
    assert rc == cli.EXIT_CONFIG, err.getvalue()
    assert f"configuration error: {cfg_path}: triple: " in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not (root / "run").exists()


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


_SEEDED_COMMANDS = {
    "generate": ["generate"],
    "simulate": ["simulate", "--matrix", "matrix.csv", "--steps", "5"],
    "experiment": ["experiment", "--preset", "example1"],
    "sweep": ["sweep", "--config", "sweep.json"],
}


@pytest.mark.parametrize("argv", _SEEDED_COMMANDS.values(),
                         ids=_SEEDED_COMMANDS)
def test_a_negative_seed_is_named_by_its_flag(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "argument --seed: must be a non-negative integer, got '-1'" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_BAD_FLAG_VALUES = {
    "observed empty item": ["estimate", "--trajectory", "trajectory.csv",
                            "--observed", "1,,2"],
    "observed not a number": ["estimate", "--trajectory", "trajectory.csv",
                              "--observed", "x"],
    "std negative": ["simulate", "--matrix", "matrix.csv", "--steps", "5",
                     "--std", "-1"],
    "std infinite": ["simulate", "--matrix", "matrix.csv", "--steps", "5",
                     "--std", "inf"],
}


@pytest.mark.parametrize("argv", _BAD_FLAG_VALUES.values(),
                         ids=_BAD_FLAG_VALUES)
def test_a_bad_flag_value_is_named_by_its_flag(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_CONFIG
    flag, value = argv[-2:]
    err = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {flag}: " in err and repr(value) in err
    assert not (tmp_path / "out").exists()


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


#: Per reader, the command that reads a mutated file, where ``{file}`` is
#: that file, ``{matrix}`` a valid matrix file and ``{out}`` the output.
_READER_ARGV = {
    "matrix csv": ["simulate", "--matrix", "{file}", "--triple", "linear",
                   "--steps", "30", "--out", "{out}"],
    "trajectory csv": ["estimate", "--trajectory", "{file}", "--triple",
                       "linear", "--estimators", "egg,granger", "--out",
                       "{out}"],
    "triple json": ["simulate", "--matrix", "{matrix}", "--triple", "{file}",
                    "--steps", "30", "--out", "{out}"],
    "experiment config": ["experiment", "--config", "{file}", "--out",
                          "{out}"],
}
#: Bytes to insert: any, or a token one of the readers parses.
_INSERTS = st.one_of(st.binary(max_size=4), st.sampled_from([
    b"nan", b"-inf", b"1e999", b"-0", b"\xef\xbb\xbf", b"\r\n", b"\n", b",",
    b"#", b'"', b"{", b"]", b"null"]))


@pytest.fixture(scope="module")
def reader_inputs(pipeline, tmp_path_factory):
    """A valid file for each reader of ``_READER_ARGV``."""
    root = tmp_path_factory.mktemp("readers")
    files = {"matrix csv": pipeline / "gen" / "matrix.csv",
             "trajectory csv": pipeline / "sim" / "trajectory.csv",
             "triple json": root / "triple.json",
             "experiment config": root / "config.json"}
    files["triple json"].write_text(json.dumps(_VALID_TRIPLE))
    # n_nodes is the last number, so a deletion that joins numbers makes at
    # most 404 steps.
    files["experiment config"].write_text(json.dumps({
        "estimators": ["egg"], "triple": "linear", "sim": {"n_steps": 40},
        "graph": {"n_nodes": 4}}))
    return files


def _byte_mutants(data: bytes, inserts):
    """Strategy: ``data`` after one to three edits, each of which deletes up
    to 8 bytes at a position and inserts a string from ``inserts`` there."""
    edit = st.tuples(st.integers(0, len(data)), st.integers(0, 8), inserts)

    def edited(edits):
        text = data
        for at, cut, insert in edits:
            text = text[:at] + insert + text[at + cut:]
        return text
    return st.lists(edit, min_size=1, max_size=3).map(edited)


@pytest.mark.parametrize("reader", _READER_ARGV)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_a_mutated_input_file_ends_in_an_exit_code(tmp_path_factory,
                                                   reader_inputs, reader,
                                                   data):
    inserts = _INSERTS
    if reader == "experiment config":
        # A digit inserted into n_steps or n_nodes could ask for a run of
        # any size.
        inserts = inserts.map(lambda text: text.translate(None, b"0123456789"))
    mutant = data.draw(_byte_mutants(reader_inputs[reader].read_bytes(),
                                     inserts))
    root = tmp_path_factory.mktemp("mutant")
    path = root / reader_inputs[reader].name
    path.write_bytes(mutant)
    argv = [arg.format(file=path, matrix=reader_inputs["matrix csv"],
                       out=root / "out") for arg in _READER_ARGV[reader]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL,
                  cli.EXIT_IO), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == cli.EXIT_CONFIG:
        assert not (root / "out").exists()


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


@pytest.mark.parametrize("command", ["generate", "simulate", "experiment"])
def test_an_allocation_beyond_the_address_space_exits_io(pipeline, tmp_path,
                                                         capsys, command):
    # Every request is above the 128 TiB x86-64 user address space (71 PiB,
    # 437 TiB, 364 TiB), so it fails at once and nothing is allocated.
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--n", "100000000"]
    elif command == "simulate":
        argv = ["simulate", "--matrix", str(pipeline / "gen" / "matrix.csv"),
                "--triple", "linear", "--steps", "10000000000000"]
    else:
        config = small_experiment_config()
        config["graph"]["n_nodes"] = 5
        config["sim"]["n_steps"] = 10_000_000_000_000
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["experiment", "--config", str(cfg_path)]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("out of memory: ")
    if command == "experiment":
        # like a numerical failure, the files written before it are kept
        assert {p.name for p in out.iterdir()} == {
            "config.expanded.json", "graph.csv", "matrix.csv"}


@pytest.mark.parametrize("where", ["outside-a-pass", "in-a-chunked-pass"])
def test_an_interrupt_exits_130_in_one_line(tmp_path, capsys, monkeypatch,
                                            where):
    # a patched function raises the interrupt on the calling thread, where
    # SIGINT's handler raises it; in the chunked pass the helper is running
    # the later half of the second chunk meanwhile
    monkeypatch.setattr(_paired, "_cpu_count", lambda: 2)
    caller, start = threading.get_ident(), threading.active_count()
    threads_at_raise = []

    def interrupt():
        threads_at_raise.append(threading.active_count())
        raise KeyboardInterrupt

    if where == "outside-a-pass":
        monkeypatch.setattr(fileio, "save_matrix", lambda *args: interrupt())
    else:
        rows = lagmoments._onelag_rows

        def onelag_rows(triple, config, states, first, *rest):
            if threading.get_ident() == caller and \
                    first >= lagmoments._BATCH_CHUNK:
                interrupt()
            return rows(triple, config, states, first, *rest)
        monkeypatch.setattr(lagmoments, "_onelag_rows", onelag_rows)
    config = dict(small_experiment_config(),
                  sim={"n_steps": 3 * lagmoments._BATCH_CHUNK, "seed": 9,
                       "y0": 0.0})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    try:
        rc = cli.main(["experiment", "--config", str(path),
                       "--out", str(tmp_path / "run")])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert rc == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert threads_at_raise == [start if where == "outside-a-pass"
                                else start + 1]
    assert threading.active_count() == start


def _reading_json(pipeline, command, path):
    """The argv of ``command`` with ``path`` as its config or triple file."""
    return {
        "experiment": ["experiment", "--config", str(path)],
        "sweep": ["sweep", "--config", str(path)],
        "simulate": ["simulate", "--matrix",
                     str(pipeline / "gen" / "matrix.csv"), "--steps", "10",
                     "--triple", str(path)],
        "estimate": ["estimate", "--trajectory",
                     str(pipeline / "sim" / "trajectory.csv"),
                     "--triple", str(path)],
    }[command]


@pytest.mark.parametrize("command", ["experiment", "sweep", "simulate",
                                     "estimate"])
def test_a_file_that_is_not_utf8_is_named(pipeline, tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    assert cli.main(_reading_json(pipeline, command, path)
                    + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "sweep", "simulate",
                                     "estimate"])
def test_a_file_nested_too_deeply_is_named(pipeline, tmp_path, capsys,
                                           command):
    # deeper than json.loads can recurse
    path = tmp_path / "input.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "out"
    assert cli.main(_reading_json(pipeline, command, path)
                    + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"configuration error: {path}: JSON nested too deeply\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_a_config_value_nested_too_deeply_exits_config(tmp_path, capsys,
                                                       command):
    # json.loads reads 600 levels, but copying them recurses too deeply
    deep = []
    for _ in range(600):
        deep = [deep]
    config = {"triple": deep}
    if command == "sweep":
        config = {"base": config, "axis": "delta", "values": [0.1]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"configuration error: {path}: triple: nested too deeply\n"
    assert not out.exists()


_BAD_CONFIG_VALUES = {
    "experiment value": ("experiment", {"sim": {"n_steps": 1}},
                         "sim.n_steps: must be an integer >= 2"),
    "sweep base value": ("sweep", {"base": {"sim": {"n_steps": 1}},
                                   "axis": "delta", "values": [0.1]},
                         "sim.n_steps: must be an integer >= 2"),
    "sweep point value": ("sweep", {"base": {}, "axis": "delta",
                                    "values": [0.1, -1.0]},
                          "weighting: "),
    "sweep key": ("sweep", {"base": {}, "axis": "seed", "values": [1]},
                  "unknown sweep axis 'seed'"),
}


@pytest.mark.parametrize("case", _BAD_CONFIG_VALUES)
def test_a_config_error_starts_with_the_config_file(tmp_path, capsys, case):
    command, config, message = _BAD_CONFIG_VALUES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: {message}"), err
    assert err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("command, flag", [("score", "--estimate"),
                                           ("score", "--truth"),
                                           ("simulate", "--matrix")])
def test_non_finite_matrix_cell_exits_config(pipeline, tmp_path, capsys,
                                            command, flag):
    bad = tmp_path / "bad.csv"
    bad.write_text("nan,0\n0,inf\n")
    good = str(pipeline / "gen" / "matrix.csv")
    argv = {"score": ["score", "--estimate", good, "--truth", good],
            "simulate": ["simulate", "--matrix", good, "--steps", "10"]}[command]
    argv[argv.index(flag) + 1] = str(bad)
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert f"configuration error: {bad}: non-finite cell nan" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, content, message", [
    # equal off-diagonal entries: classifying them first was a numerical failure
    ("score", "--estimate", "0.5,0.1\n0.1,0.5\n", "shape (2, 2) does not match"),
    ("score", "--estimate", "0.5,0.1\n0.3,0.5\n", "shape (2, 2) does not match"),
    ("score", "--estimate", "0.5,0.1,0\n0.3,0.5,0\n", "must be square"),
    ("score", "--truth", "0.5,0.1,0\n0.3,0.5,0\n", "must be square"),
    ("simulate", "--matrix", "0.5,0.1,0\n0.3,0.5,0\n", "must be square"),
    ("simulate", "--matrix", "0.5,0.5\n0.5,0.5\n", "got 1.0"),
    ("simulate", "--matrix", "0,0\n0,0\n", "got 0.0"),
    # rho is the largest absolute row sum, not the mean (0.75) of the rows
    ("simulate", "--matrix", "0.75,0.5\n0.25,0\n",
     "largest absolute row sum must lie in (0, 1), got 1.25"),
], ids=["score_size_equal_entries", "score_size", "score_estimate_not_square",
        "score_truth_not_square", "simulate_not_square", "simulate_row_sum_one",
        "simulate_row_sum_zero", "simulate_unequal_rows_norm_above_one"])
def test_a_bad_matrix_file_is_named_before_any_work(pipeline, tmp_path, capsys,
                                                    command, flag, content,
                                                    message):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    good = str(pipeline / "gen" / "matrix.csv")
    argv = {"score": ["score", "--estimate", good, "--truth", good],
            "simulate": ["simulate", "--matrix", good, "--steps", "10"]}[command]
    argv[argv.index(flag) + 1] = str(bad)
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {bad}: ")
    assert message in err
    assert not (tmp_path / "out").exists()


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


def _assert_failed_non_finite(out_dir, kind):
    payload = json.loads((out_dir / f"estimate_{kind}.json").read_text())
    assert payload["estimator_kind"] == kind
    assert payload["error"].startswith("estimate has a non-finite entry")
    for name in (f"estimate_{kind}.csv", f"metrics_{kind}.json",
                 f"profile_{kind}.csv"):
        assert not (out_dir / name).exists()


# A positive delta whose clamped g underflows to zero (or to a subnormal)
# makes the regularised reciprocal overflow.
_OVERFLOWING_WEIGHTS = [
    ("singular-g", 1e-310),
    ({"sigma": {"kind": "sign_power", "params": [0.5]},
      "g": {"kind": "sign_power", "params": [3.0]},
      "h": {"kind": "tanh"}, "triple_id": "cubic-g"}, 1e-110),
]


@pytest.mark.parametrize("triple, delta", _OVERFLOWING_WEIGHTS,
                         ids=["singular_g", "cubic_g"])
def test_experiment_refuses_a_non_finite_estimate(tmp_path, capsys, triple,
                                                  delta):
    cfg = {"graph": {"n_nodes": 6, "p": 0.4, "seed": 5}, "triple": triple,
           "sim": {"n_steps": 20, "seed": 9, "y0": 0.0},
           "weighting": {"delta": delta},
           "estimators": ["egg", "least_squares", "granger"]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["experiment", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Warning" not in err
    for kind in ("egg", "least_squares"):
        assert f"{kind}: estimate has a non-finite entry nan" in err
        _assert_failed_non_finite(tmp_path / "run", kind)
    # the linear baseline reads no weight and is still scored
    assert (tmp_path / "run" / "metrics_granger.json").exists()


@pytest.mark.parametrize("triple, delta", _OVERFLOWING_WEIGHTS,
                         ids=["singular_g", "cubic_g"])
def test_estimate_refuses_a_non_finite_estimate(pipeline, tmp_path, capsys,
                                                triple, delta):
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(triple))
    spec = triple if isinstance(triple, str) else str(triple_path)
    assert cli.main(["simulate", "--matrix", str(pipeline / "gen" / "matrix.csv"),
                     "--triple", spec, "--steps", "40", "--seed", "3",
                     "--out", str(tmp_path / "sim")]) == 0
    rc = cli.main(["estimate", "--trajectory",
                   str(tmp_path / "sim" / "trajectory.csv"), "--triple", spec,
                   "--delta", repr(delta), "--observed", "0,2,3",
                   "--estimators", "egg,least_squares,egg_partial,granger",
                   "--out", str(tmp_path / "est")])
    assert rc == cli.EXIT_NUMERICAL
    assert "Warning" not in capsys.readouterr().err
    for kind in ("egg", "least_squares", "egg_partial"):
        _assert_failed_non_finite(tmp_path / "est", kind)
    assert np.isfinite(
        np.loadtxt(tmp_path / "est" / "estimate_granger.csv", delimiter=",")).all()


def test_estimate_singular_exit(singular_run, tmp_path, capsys):
    _, run_dir = singular_run
    rc = cli.main(["estimate", "--trajectory",
                   str(run_dir / "trajectory.csv"),
                   "--triple", "singular-h", "--estimators", "egg",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "ill-conditioned" in capsys.readouterr().err
    # the failed kind is recorded as the experiment records it
    payload = json.loads((tmp_path / "estimate_egg.json").read_text())
    assert payload.keys() == {"estimator_kind", "error"}
    assert "ill-conditioned" in payload["error"]
    assert not (tmp_path / "estimate_egg.csv").exists()


def test_sweep_cli_roundtrip(tmp_path):
    sweep = {"base": small_experiment_config(), "axis": "n_steps",
             "values": [100, 200], "master_seed": 7,
             "summary_estimator": "egg"}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    rc = cli.main(["sweep", "--config", str(cfg_path),
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
    # a preset by name, a per-node triple through the run's stored config,
    # and a preset on which egg and least_squares fail
    for case, triple, failed in (("preset", "example1", set()),
                                 ("per_node", _PER_NODE_TRIPLE, set()),
                                 ("singular", "singular-h",
                                  {"egg", "least_squares"})):
        run, est = tmp_path / case / "run", tmp_path / case / "est"
        cfg = dict(small_experiment_config(), triple=triple,
                   save_trajectory=True, observed_set=[0, 2, 3, 5],
                   estimators=list(estimators.ESTIMATOR_KINDS))
        result = xp.run_experiment(cfg, run)
        assert result.errors.keys() == failed
        triple_arg = triple if isinstance(triple, str) \
            else str(run / "config.expanded.json")
        rc = cli.main(["estimate", "--trajectory", str(run / "trajectory.csv"),
                       "--triple", triple_arg,
                       "--estimators", ",".join(estimators.ESTIMATOR_KINDS),
                       "--observed", "0,2,3,5", "--out", str(est)])
        assert rc == (cli.EXIT_NUMERICAL if failed else cli.EXIT_OK)
        for kind in estimators.ESTIMATOR_KINDS:
            for suffix in ("csv", "json"):
                name = f"estimate_{kind}.{suffix}"
                # a failed kind writes its error JSON and no matrix
                written = suffix == "json" or kind not in failed
                assert (est / name).exists() == (run / name).exists() == written
                if written:
                    assert (est / name).read_bytes() == (run / name).read_bytes(), \
                        (case, name)


def test_command_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits the moment pass's products and the QR differently on
    # one thread and on two; the commands run on one whatever the caller set.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preset": "example1", "sim": {"n_steps": 3000},
        "estimators": list(estimators.ESTIMATOR_KINDS),
        "observed_set": list(range(10))}))
    kinds = ",".join(estimators.ESTIMATOR_KINDS)
    observed = ",".join(str(node) for node in range(10))
    roots = {}
    for threads in ("1", "2"):
        root = roots[threads] = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(granet.__file__).resolve().parents[1]))
        for argv in (["experiment", "--config", str(config),
                      "--out", str(root / "run")],
                     ["estimate", "--trajectory", str(root / "run" / "trajectory.csv"),
                      "--estimators", kinds, "--observed", observed,
                      "--out", str(root / "est")]):
            proc = subprocess.run([sys.executable, "-m", "granet", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == cli.EXIT_OK, proc.stderr
    files = {threads: sorted(p.relative_to(root) for p in root.rglob("*")
                             if p.is_file())
             for threads, root in roots.items()}
    assert files["1"] == files["2"]
    differ = [str(name) for name in files["1"]
              if (roots["1"] / name).read_bytes() != (roots["2"] / name).read_bytes()]
    assert differ == []


@pytest.mark.parametrize("code", [cli.EXIT_OK, cli.EXIT_CONFIG])
def test_main_restores_the_callers_blas_thread_count(tmp_path, monkeypatch,
                                                     code):
    lib = cli._openblas()
    if lib is None:
        pytest.skip("NumPy carries no scipy-openblas library")
    get_threads = lib.scipy_openblas_get_num_threads64_
    set_threads = lib.scipy_openblas_set_num_threads64_
    found = get_threads()
    seen = []

    def command(args):
        seen.append(get_threads())
        if code == cli.EXIT_CONFIG:
            raise granet.ConfigError("refused")
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_cmd_generate", command)
    set_threads(2)
    caller = get_threads()
    try:
        assert cli.main(["generate", "--out", str(tmp_path)]) == code
        after = get_threads()
    finally:
        set_threads(found)
    assert seen == [1]
    assert after == caller


def test_main_runs_where_no_openblas_library_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert cli.main(["generate", "--n", "6", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "matrix.csv").exists()

"""The package's public names, command-line options and config keys, pinned.

A public name, an option or a config key is added or removed by editing the
lists below, so a change to the API shows in the diff of this test.
"""

import argparse
import functools
import importlib
import importlib.util
import inspect
import json
import sys
import threading
from pathlib import Path

import granet
from granet import _paired, cli, experiments, lagmoments

PUBLIC_NAMES = [
    "AssumptionReport", "CombinationMatrix", "ConfigError",
    "DegenerateClusterError", "DirectedGraph", "EstimateReport",
    "FunctionDomainError", "InvalidStateError", "LagMatrices",
    "NearSingularError", "NoiseModel", "NonlinearityTriple", "NumericalError",
    "RecoveryMetrics", "SimulationDivergedError", "Trajectory",
    "WeightingConfig", "accumulate", "assumption_report",
    "build_combination_matrix", "classify_edges", "correlation_estimate",
    "egg_estimate", "egg_from_trajectory", "finalize", "from_trajectory",
    "generate_binomial_graph", "granger_estimate", "kmeans2_1d",
    "least_squares_estimate", "omega_tail_index", "partial_estimate",
    "precision_estimate", "running_onelag_max", "running_weight_moment",
    "score", "simulate", "sorted_entry_profile", "stability_constant",
    "support_offdiagonal", "triple_preset",
]


def test_public_names_are_pinned_and_import():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert granet.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from granet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


#: Each subcommand's long options, ``--help`` aside.
CLI_OPTIONS = {
    "generate": ["--n", "--out", "--p", "--rho", "--seed"],
    "simulate": ["--matrix", "--out", "--seed", "--std", "--steps", "--triple",
                 "--y0"],
    "estimate": ["--delta", "--estimators", "--observed", "--out",
                 "--trajectory", "--triple"],
    "score": ["--estimate", "--out", "--truth"],
    "experiment": ["--config", "--out", "--preset", "--seed"],
    "sweep": ["--config", "--out", "--seed"],
}

#: The experiment config's top-level keys (``preset`` aside, which picks the
#: defaults and is not stored), and the keys of each section.
CONFIG_KEYS = ["estimators", "graph", "noise_std", "observed_set", "rho",
               "save_trajectory", "sim", "triple", "weighting"]
CONFIG_SECTIONS = {
    "graph": ["n_nodes", "p", "seed"],
    "sim": ["n_steps", "seed", "y0"],
    "weighting": ["delta"],
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (subcommands,) = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
    options = {
        name: sorted(option for action in sub._actions
                     for option in action.option_strings
                     if option.startswith("--") and option != "--help")
        for name, sub in subcommands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_experiment_config_keys_are_pinned():
    config = experiments.experiment_preset("example1")
    assert sorted(config) == CONFIG_KEYS
    assert {key: sorted(value) for key, value in config.items()
            if isinstance(value, dict)} == CONFIG_SECTIONS


#: Parameters that the benchmark's span counters read from traced calls.
TRACED_PARAMETERS = {
    ("granet.dynamics", "simulate"): ["n_steps"],
    ("granet.lagmoments", "from_trajectory"): ["traj", "n_pairs"],
    ("granet.lagmoments", "omega_tail_index"): ["traj", "n_pairs"],
    ("granet.fileio", "save_trajectory"): ["path"],
    ("granet.estimators", "partial_estimate"): ["kind"],
}


def perfbench_spans(monkeypatch):
    """The benchmark's span module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_functions_the_benchmark_traces_exist(monkeypatch):
    spans = perfbench_spans(monkeypatch)
    original = granet.simulate
    # opening the recorder looks up every traced function and raises if one
    # is missing; closing it puts the originals back
    with spans.Recorder():
        assert granet.simulate is not original
    assert granet.simulate is original
    for (module, name), params in TRACED_PARAMETERS.items():
        fn = getattr(importlib.import_module(module), name)
        missing = set(params) - set(inspect.signature(fn).parameters)
        assert not missing, f"{module}.{name} lacks {sorted(missing)}"


def test_traced_spans_nest_on_the_calling_thread(monkeypatch, tmp_path,
                                                 capsys):
    # the recorder keeps one span stack; the helper thread of the chunked
    # passes and of simulate must call no traced function
    spans = perfbench_spans(monkeypatch)
    monkeypatch.setattr(_paired, "_cpu_count", lambda: 2)
    threads = set()

    class Recorder(spans.Recorder):
        def _wrap(self, fn, name, work):
            traced = super()._wrap(fn, name, work)

            @functools.wraps(fn)
            def noted(*args, **kwargs):
                threads.add(threading.get_ident())
                return traced(*args, **kwargs)
            return noted

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preset": "example1", "sim": {"n_steps": 3 * lagmoments._BATCH_CHUNK}}))
    with Recorder() as recorder:
        assert cli.main(["experiment", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == 0
    assert threads == {threading.get_ident()}
    for span in recorder.spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = recorder.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    names = [span.name for span in recorder.spans]
    assert names.count("lagmoments.from_trajectory") == 2
    assert "dynamics.simulate" in names

"""Command-line entry points.

Subcommands::

    granet generate    draw a graph and its combination matrix
    granet simulate    advance the coupled dynamics from a matrix file
    granet estimate    run estimators on a stored trajectory
    granet score       compare an estimate against a true matrix
    granet experiment  full config-driven pipeline
    granet sweep       repeat an experiment along one axis

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error or out of memory, 130 interrupted.

A command runs the OpenBLAS that NumPy has loaded on one thread, so its
files do not depend on ``OPENBLAS_NUM_THREADS``; :func:`main` restores the
caller's thread count on return.  Where NumPy carries no scipy-openblas
library, the thread count is left alone.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, fileio, presets, recovery
from .dynamics import NoiseModel, NonlinearityTriple, simulate
from .errors import ConfigError, NumericalError
from .graphs import (CombinationMatrix, build_combination_matrix,
                     generate_binomial_graph)
from .lagmoments import WeightingConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
#: As a shell reports a command that SIGINT ended: 128 + 2.
_EXIT_INTERRUPTED = 130

_TRIPLE_HELP = ("triple preset name (default example1), or a JSON file with a "
                "triple spec or a run's config.expanded.json")


@functools.cache
def _openblas():
    """The scipy-openblas library that NumPy has loaded, or None where there
    is no such library."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        with contextlib.suppress(OSError):
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the count."""
    lib = _openblas()
    if lib is None:
        yield
        return
    found = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(found)


def _non_negative_int(text: str) -> int:
    """The value of a ``--seed`` or ``--steps`` flag: a non-negative decimal
    integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _observed(text: str) -> "list[int] | None":
    """The value of an ``--observed`` flag: comma-separated decimal integers,
    or None for the empty default.  The run checks that they are nodes."""
    nodes = [node.strip() for node in text.split(",")] if text else []
    if not all(node.removeprefix("-").isdecimal() for node in nodes):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated node indices, got {text!r}")
    return [int(node) for node in nodes] or None


def _non_negative_float(text: str) -> float:
    """The value of a ``--std`` or ``--delta`` flag: a finite number >= 0."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := float(text)) < np.inf:
            return value
    raise argparse.ArgumentTypeError(
        f"must be a finite number >= 0, got {text!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc


@contextlib.contextmanager
def _validating(path: str):
    """Re-raise a ConfigError from validating the config read from ``path``
    as one that starts with the path."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_triple(spec: str, n_nodes: int) -> NonlinearityTriple:
    """A triple preset name, or a JSON file holding a triple spec or a run's
    ``config.expanded.json`` (whose ``"triple"`` entry is used)."""
    if spec in presets.TRIPLE_PRESETS:
        return presets.triple_preset(spec, n_nodes)
    payload = _load_config(spec)
    if isinstance(payload, dict) and "triple" in payload:
        payload = payload["triple"]
    try:
        return presets.triple_from_spec(payload, n_nodes)
    except ValueError as exc:
        raise ConfigError(f"{spec}: {exc}") from exc


def _cmd_generate(args) -> int:
    graph = generate_binomial_graph(args.n, args.p, args.seed)
    matrix = build_combination_matrix(graph, args.rho)
    out = _out_dir(args)
    fileio.save_graph(graph, out / "graph.csv")
    fileio.save_matrix(matrix.entries, out / "matrix.csv")
    print(f"wrote graph ({graph.n_edges} edges) and matrix to {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    entries = fileio.load_matrix(args.matrix)
    rho = float(np.abs(entries).sum(axis=1).max())
    if not 0 < rho < 1:
        raise ConfigError(f"{args.matrix}: the largest absolute row sum must "
                          f"lie in (0, 1), got {rho!r}")
    matrix = CombinationMatrix(rho=rho, entries=entries)
    triple = _load_triple(args.triple, matrix.n_nodes)
    noise = NoiseModel.uniform(matrix.n_nodes, args.std)
    traj = simulate(matrix, triple, noise, args.y0, args.steps, args.seed)
    out = _out_dir(args)
    fileio.save_trajectory(traj, out / "trajectory.csv")
    print(f"wrote {args.steps}-step trajectory to {out / 'trajectory.csv'}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    traj = fileio.load_trajectory(args.trajectory)
    triple = _load_triple(args.triple, traj.n_nodes)
    kinds = [k.strip() for k in args.estimators.split(",")]
    out = Path(args.out)
    _, errors = experiments.run_estimators(
        out, traj, triple, WeightingConfig(delta=args.delta), kinds,
        args.observed)
    for kind in kinds:
        if kind in errors:
            print(f"{kind}: {errors[kind]}", file=sys.stderr)
        else:
            print(f"wrote {kind} estimate to {out / f'estimate_{kind}.csv'}")
    return EXIT_NUMERICAL if errors else EXIT_OK


def _cmd_score(args) -> int:
    a_hat = fileio.load_matrix(args.estimate)
    a_true = fileio.load_matrix(args.truth)
    if a_hat.shape != a_true.shape:
        raise ConfigError(f"{args.estimate}: shape {a_hat.shape} does not "
                          f"match the truth {args.truth} of shape "
                          f"{a_true.shape}")
    metric = recovery.score(a_hat, a_true)
    out = _out_dir(args)
    fileio.save_recovery_metrics(metric, out / "metrics.json")
    fileio.save_profile(recovery.sorted_entry_profile(a_true, a_hat),
                        out / "profile.csv")
    print(f"edge error rate {metric.edge_error_rate:.4f}, "
          f"gap {metric.identifiability_gap:.6g}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.config:
        config = _load_config(args.config)
        with _validating(args.config):
            config = experiments.expand_config(config)
    else:
        config = experiments.expand_config({"preset": args.preset})
    if args.seed is not None:
        config["sim"]["seed"] = args.seed
    result = experiments.run_experiment(config, args.out)
    for kind, metric in sorted(result.metrics.items()):
        print(f"{kind}: edge error rate {metric.edge_error_rate:.4f}, "
              f"gap {metric.identifiability_gap:.6g}")
    for kind, message in sorted(result.errors.items()):
        print(f"{kind}: {message}", file=sys.stderr)
    return EXIT_NUMERICAL if result.failed else EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    # run_sweep rejects a config that is not a mapping.
    if args.seed is not None and isinstance(config, dict):
        config["master_seed"] = args.seed
    # A point's errors go into its summary row, so a ConfigError that gets
    # out of run_sweep comes from validating the config.
    with _validating(args.config):
        rows = experiments.run_sweep(config, args.out)
    print(f"wrote sweep summary to {Path(args.out) / 'summary.csv'}")
    return EXIT_NUMERICAL if any(row["error"] for row in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granet",
        description="Directed-graph recovery for networks with nonlinear coupling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a graph and combination matrix")
    p.add_argument("--n", type=int, default=50, help="number of nodes")
    p.add_argument("--p", type=float, default=0.2, help="edge probability")
    p.add_argument("--rho", type=float, default=0.5, help="total row mass")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="simulate the coupled dynamics")
    p.add_argument("--matrix", required=True, help="combination matrix CSV")
    p.add_argument("--triple", default="example1", help=_TRIPLE_HELP)
    p.add_argument("--steps", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--std", type=_non_negative_float, default=1.0,
                   help="noise std")
    p.add_argument("--y0", type=float, default=0.0, help="initial state")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate from a stored trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--triple", default="example1", help=_TRIPLE_HELP)
    p.add_argument("--estimators", default="egg",
                   help="comma-separated estimator kinds")
    p.add_argument("--delta", type=_non_negative_float, default=0.0,
                   help="regularisation half-width (0 = exact weights)")
    p.add_argument("--observed", type=_observed, default="",
                   help="comma-separated observed nodes for partial kinds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("score", help="score an estimate against the truth")
    p.add_argument("--estimate", required=True, help="estimated matrix CSV")
    p.add_argument("--truth", required=True, help="true matrix CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="experiment config JSON")
    src.add_argument("--preset", help="experiment preset name")
    p.add_argument("--seed", type=_non_negative_int,
                   help="override simulation seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="run an experiment along one axis")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--seed", type=_non_negative_int,
                   help="override master seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return _EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

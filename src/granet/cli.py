"""Command-line entry points.

Subcommands::

    granet generate    draw a graph and its combination matrix
    granet simulate    advance the coupled dynamics from a matrix file
    granet estimate    run estimators on a stored trajectory
    granet score       compare an estimate against a true matrix
    granet experiment  full config-driven pipeline
    granet sweep       repeat an experiment along one axis

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import estimators, experiments, fileio, lagmoments, presets, recovery
from .dynamics import NoiseModel, NonlinearityTriple, simulate
from .errors import ConfigError, NumericalError
from .graphs import (CombinationMatrix, build_combination_matrix,
                     generate_binomial_graph, support_offdiagonal)
from .lagmoments import WeightingConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_TRIPLE_HELP = ("triple preset name (default example1), or a JSON file with a "
                "triple spec or a run's config.expanded.json")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


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
    matrix = CombinationMatrix(rho=float(entries.sum(axis=1).mean()),
                               entries=entries)
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
    weighting = WeightingConfig(delta=args.delta)
    lagmoments._check_regularizable(triple, weighting)
    observed = estimators._check_observed(
        [int(v) for v in args.observed.split(",")] if args.observed else None,
        traj.n_nodes)
    kinds = [k.strip() for k in args.estimators.split(",")]
    estimators._check_kinds(kinds, observed)
    estimators._check_cond_limit(args.cond_limit)
    estimators._check_steps(traj)
    out = _out_dir(args)
    status = EXIT_OK
    for kind in kinds:
        try:
            report = estimators.run_estimator(kind, traj, triple, weighting,
                                              observed, args.cond_limit)
        except NumericalError as exc:
            print(f"{kind}: {exc}", file=sys.stderr)
            status = EXIT_NUMERICAL
            continue
        fileio.save_estimate_report(report, out / f"estimate_{kind}.json",
                                    out / f"estimate_{kind}.csv")
        print(f"wrote {kind} estimate to {out / f'estimate_{kind}.csv'}")
    return status


def _cmd_score(args) -> int:
    a_hat = fileio.load_matrix(args.estimate)
    a_true = fileio.load_matrix(args.truth)
    truth_graph = support_offdiagonal(a_true)
    recovered = recovery.classify_edges(a_hat)
    metric = recovery.score(recovered, truth_graph, a_hat, a_true)
    out = _out_dir(args)
    fileio.save_recovery_metrics(metric, out / "metrics.json")
    fileio.save_profile(recovery.sorted_entry_profile(a_true, a_hat),
                        out / "profile.csv")
    print(f"edge error rate {metric.edge_error_rate:.4f}, "
          f"gap {metric.identifiability_gap:.6g}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = _load_config(args.config) if args.config else {"preset": args.preset}
    if args.seed is not None:
        # Validate first, so a config that is not a mapping is a config error.
        config = experiments.expand_config(config)
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
    rows = experiments.run_sweep(config, args.out, workers=args.workers)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="simulate the coupled dynamics")
    p.add_argument("--matrix", required=True, help="combination matrix CSV")
    p.add_argument("--triple", default="example1", help=_TRIPLE_HELP)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--std", type=float, default=1.0, help="noise std")
    p.add_argument("--y0", type=float, default=0.0, help="initial state")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate from a stored trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--triple", default="example1", help=_TRIPLE_HELP)
    p.add_argument("--estimators", default="egg",
                   help="comma-separated estimator kinds")
    p.add_argument("--delta", type=float, default=0.0,
                   help="regularisation half-width (0 = exact weights)")
    p.add_argument("--observed", default="",
                   help="comma-separated observed nodes for partial kinds")
    p.add_argument("--cond-limit", type=float,
                   default=estimators.DEFAULT_COND_LIMIT)
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
    p.add_argument("--seed", type=int, help="override simulation seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="run an experiment along one axis")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the granet pipeline.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload experiment|roundtrip|ensemble \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

The benchmark imports granet from ``src/`` of the checkout it sits in and
drives it from outside: the ``granet`` entry point in-process
(``granet.cli.main``) and the public library functions, in one process
with no workers.  Set-up time is the median time to import granet in a
fresh interpreter (five probes) plus the median of three builds of the
workload's inputs.  The benchmark then runs jobs for ``--seconds`` seconds
and checks the output of every job.

With ``--trace 0`` it reports the end-to-end metrics.  ``wall_s`` is the
mean wall time of the run's jobs, that is the run's job time divided by its
job count; the report line adds the median, quartiles and count.  The mean
is reported because the host's speed drifts by tens of percent over
seconds to minutes, and the mean of a run's jobs varied less from run to
run than their median or lower quartile did.  With ``--trace 1`` it
alternates untraced jobs with jobs traced by ``spans.Recorder`` and reports
the per-layer metrics of the traced jobs (medians over those jobs);
``trace.overhead_s`` is the difference of the traced and untraced means.

The last line of standard output is the result as one JSON object; the line
before it is a report with the run's provenance, every job time and any
failure.  Files are written under ``.perfbench-work/`` and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
IMPORT_PROBES = 5
SETUP_REPEATS = 3


def _import_granet():
    """Import granet from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "granet" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import granet
    import granet.cli  # noqa: F401  (the entry point the workloads drive)
    if Path(granet.__file__).resolve().parent != src / "granet":
        return None
    return granet


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "start = time.perf_counter(); import granet.cli; "
                 "print(time.perf_counter() - start)")


def _import_seconds() -> float:
    """Time to import granet and its entry point in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, numpy_version: str) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "tracer_loaded": "spans" in sys.modules,
    }


class Runner:
    """Runs jobs of one workload and counts the ones that fail."""

    def __init__(self, workload, workroot: Path):
        self.workload = workload
        self.workroot = workroot
        self.attempted = 0
        self.failures: list[str] = []

    def job(self) -> float:
        """Run one job in a fresh directory and return its wall time."""
        index = self.attempted
        self.attempted += 1
        workdir = self.workroot / f"job{index}"
        workdir.mkdir()
        start = time.perf_counter()
        try:
            self.workload.run(index, workdir)
        except Exception:  # a failed job is counted and reported
            self.failures.append(f"job {index}: {traceback.format_exc()}")
        wall = time.perf_counter() - start
        shutil.rmtree(workdir)
        return wall


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "p25": p25, "p75": p75, "n": len(values), "samples": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    granet = _import_granet()
    if granet is None:
        print(f"granet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](granet, args.seed, SIZES[args.size])
    import_s = [_import_seconds() for _ in range(IMPORT_PROBES)]
    generate_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        generate_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(generate_s)

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    runner = Runner(workload, workroot)
    report = {}
    try:
        deadline = time.perf_counter() + args.seconds
        walls = []
        if args.trace:
            import spans
            traced, per_job = [], []
            # Untraced and traced jobs alternate, so that both see the same
            # share of whatever else the machine is doing.
            while not traced or time.perf_counter() < deadline:
                walls.append(runner.job())
                with spans.Recorder() as recorder:
                    traced.append(runner.job())
                per_job.append(spans.reduce_spans(recorder.spans,
                                                  workload.trajectory_steps))
            metrics = {
                name: {"value": statistics.median(job[name] for job in per_job),
                       "unit": spans.PER_LAYER[name][0]}
                for name in per_job[0]
            }
            metrics["trace.overhead_s"] = {
                "value": statistics.fmean(traced) - statistics.fmean(walls),
                "unit": "s",
            }
            report["traced_wall_s"] = quartiles(traced)
        else:
            while not walls or time.perf_counter() < deadline:
                walls.append(runner.job())
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:  # another run is still using it
            pass

    failed = len(runner.failures)
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1 - failed / runner.attempted, "unit": "fraction"},
        }
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    report.update({
        "provenance": provenance(args, numpy.__version__),
        "import_s": import_s,
        "generate_s": generate_s,
        "wall_s": quartiles(walls),
        "fail_frac": failed / runner.attempted,
        "failures": [failure.splitlines()[-1] for failure in runner.failures],
    })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

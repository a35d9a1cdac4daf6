"""The byte-identity check set: the sha256 of every file a fixed set of
``granet`` commands writes.

The set runs ``granet experiment`` on each triple preset at delta 0 and 0.1,
with all seven estimator kinds and an observed set, at ``n_steps`` that
straddle the moment-chunk and noise-block edges (8191, 8193 and
3 * 8192 + 5), ``granet estimate`` on a stored trajectory, ``granet score``
on that estimate's egg matrix against the stored true matrix, and ``granet
generate`` and ``granet simulate`` for a noise-free linear run whose states
decay through 1e-11 into subnormals and then to zero, so that its
trajectory file holds every kind of cell the CSV writer formats.  Writing a
trajectory is most of a run's time, and its bytes do not depend on delta,
so each preset stores only its longest trajectory at delta 0.  It runs
everything twice, with the helper thread of :mod:`granet._paired` off and
on, and both runs must give one manifest.

Bytes depend on NumPy, the SIMD targets it dispatches to, the BLAS build
and the CPU, so the manifest records those as its provenance.
``tests/test_identity_set.py`` reruns the set with the helper off and on,
and compares it with the committed manifest where the provenance matches.

Usage::

    python tests/identity_set.py          # compare with the manifest
    python tests/identity_set.py --write  # rebuild the manifest

A change that moves bytes on purpose rebuilds the manifest and names each
file whose hash moved.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from granet import _paired, cli, estimators, presets

MANIFEST = Path(__file__).with_name("identity_manifest.json")

CHUNK = 8192
N_STEPS = (CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5)
DELTAS = (0.0, 0.1)
OBSERVED = [0, 3, 7, 11, 20]
#: ``(delta, n_steps)`` of the one experiment per preset that stores its
#: trajectory.
STORED = (0.0, N_STEPS[-1])
#: The preset whose stored trajectory ``granet estimate`` reads, at delta 0.1.
ESTIMATE_SOURCE = "example2"
#: Epochs of the noise-free linear run from y0 = 1.  Its states shrink by
#: about half each epoch: below 1e-11 from epoch 37, subnormal from about
#: epoch 1022 and zero from about epoch 1074.
DECAY_STEPS = 1100


def _openblas_strings() -> dict:
    """The configuration and core name of the scipy-openblas library that
    NumPy has loaded, or "none" for each where there is no such library."""
    lib = cli._openblas()
    if lib is None:
        return {"openblas_config": "none", "openblas_corename": "none"}
    config = lib.scipy_openblas_get_config64_
    corename = lib.scipy_openblas_get_corename64_
    config.restype = corename.restype = ctypes.c_char_p
    return {"openblas_config": config().decode(),
            "openblas_corename": corename().decode()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def _numpy_dispatch() -> str:
    """The SIMD targets that NumPy dispatches its ufunc loops to on this CPU:
    those it was built for that the CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(target for target in umath.__cpu_dispatch__
                    if umath.__cpu_features__.get(target))


def provenance() -> dict:
    """What the manifest's bytes depend on, besides granet itself."""
    return {"numpy": np.__version__, "numpy_dispatch": _numpy_dispatch(),
            **_openblas_strings(), "cpu_model": _cpu_model()}


def mismatch(recorded: dict) -> "str | None":
    """Which field of this host's provenance differs from ``recorded``, said
    in one line, or None when none does."""
    here = provenance()
    for field, value in recorded.items():
        if here.get(field) != value:
            return (f"the manifest was built with {field} {value!r}, and this "
                    f"host has {here.get(field)!r}")
    return None


def _commands(root: Path) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of each command; a command writes under
    ``root / name``, and the experiment configs are written under ``root``."""
    kinds = ",".join(estimators.ESTIMATOR_KINDS)
    commands = []
    for preset in presets.TRIPLE_PRESETS:
        for delta in DELTAS:
            for n_steps in N_STEPS:
                name = f"experiment/{preset}-delta{delta}-{n_steps}"
                config = root / "configs" / f"{preset}-{delta}-{n_steps}.json"
                config.parent.mkdir(parents=True, exist_ok=True)
                config.write_text(json.dumps({
                    "preset": preset, "sim": {"n_steps": n_steps},
                    "weighting": {"delta": delta},
                    "estimators": list(estimators.ESTIMATOR_KINDS),
                    "observed_set": OBSERVED,
                    "save_trajectory": (delta, n_steps) == STORED}))
                commands.append((name, ["experiment", "--config", str(config),
                                        "--out", str(root / name)]))
    preset = ESTIMATE_SOURCE
    delta, n_steps = STORED
    trajectory = root / f"experiment/{preset}-delta{delta}-{n_steps}" / \
        "trajectory.csv"
    commands.append((f"estimate/{preset}", [
        "estimate", "--trajectory", str(trajectory), "--triple", preset,
        "--estimators", kinds, "--delta=0.1",
        "--observed", ",".join(map(str, OBSERVED)),
        "--out", str(root / f"estimate/{preset}")]))
    commands.append(("generate", ["generate", "--out", str(root / "generate")]))
    commands.append(("simulate/linear-decay", [
        "simulate", "--matrix", str(root / "generate" / "matrix.csv"),
        "--triple", "linear", "--std", "0", "--y0", "1",
        "--steps", str(DECAY_STEPS), "--out",
        str(root / "simulate/linear-decay")]))
    commands.append((f"score/{preset}", [
        "score", "--estimate",
        str(root / f"estimate/{preset}/estimate_egg.csv"),
        "--truth", str(trajectory.with_name("matrix.csv")),
        "--out", str(root / f"score/{preset}")]))
    return commands


def build(root: Path, cpu_count: int) -> dict:
    """Run the set under ``root`` with ``cpu_count`` CPUs as the helper sees
    them, and return its manifest entries: each command's exit code and the
    sha256 of each file it wrote, keyed by path under ``root``."""
    entries = {}
    found = _paired._cpu_count
    _paired._cpu_count = lambda: cpu_count
    try:
        for name, argv in _commands(root):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                entries[f"{name}/exit"] = cli.main(argv)
    finally:
        _paired._cpu_count = found
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.parent.name != "configs":
            entries[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return entries


def differences(expected: dict, found: dict) -> list[str]:
    """The entries on which two manifests differ, each named once."""
    return sorted(name for name in expected.keys() | found.keys()
                  if expected.get(name) != found.get(name))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rebuild the manifest instead of comparing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        alone = build(Path(tmp) / "cpus1", 1)
        helped = build(Path(tmp) / "cpus2", 2)
    moved = differences(alone, helped)
    if moved:
        print(f"the helper changes {len(moved)} entries: {moved}",
              file=sys.stderr)
        return 1
    if args.write:
        MANIFEST.write_text(json.dumps(
            {"provenance": provenance(), "entries": alone}, indent=1,
            sort_keys=True) + "\n")
        print(f"wrote {len(alone)} entries to {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text())
    moved = differences(manifest["entries"], alone)
    reason = mismatch(manifest["provenance"])
    if reason:
        print(reason, file=sys.stderr)
    print(f"{len(moved)} of {len(manifest['entries'])} entries differ: "
          f"{moved}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

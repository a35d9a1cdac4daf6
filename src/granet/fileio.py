"""On-disk formats: CSV for arrays and graphs, JSON for reports.

All numeric CSV output uses 17 significant digits so values round-trip
exactly through text.  Graph files list ``i,j`` pairs under a ``# N=<n>``
header; trajectory files carry ``# N=<n>, steps=<k>, seed=<s>``; lag-moment
files prepend ``# count=<c>`` to the dense matrix payload; profile files
have a ``slot,true,estimate`` header.  Writers emit deterministic bytes.

Every numeric CSV, graph and profile files among them, is written by
:func:`_write_rows`, with the bytes Python's ``"%.17g" % x`` gives cell by
cell (a node or slot id below 2**53 as an integer), but by a NumPy integer
kernel that formats a block of rows at a time.  For a finite cell with
1e-11 < |x| < 1e17, x = m * 2**e with m < 2**53, a table on e guesses the
decimal exponent X = floor(log10|x|), and m * 5**(16 - X), at most 116 bits
held in two 64-bit limbs, is shifted right by -(e + 16 - X) bits and
rounded half to even on the exact remainder.  That gives the 17 digits D
exactly; where D falls below 10**16 the guess was one too high, and X drops
by one before D is formed again.  The digits, stripped of trailing zeros,
are laid out as C's ``%g`` lays them out: fixed notation for -4 <= X < 17,
else ``d.ddde-XX``, a ``-`` from the sign bit, and ``0`` or ``-0`` for a
zero.  The rare cells, |x| <= 1e-11 but not zero (subnormals among them),
|x| >= 1e17, inf and nan, are formatted by ``%`` itself and laid into the
same slots.

The matrix and trajectory loaders raise a :class:`ConfigError` that starts
with the path when the content is bad: a cell that is not a number, a
ragged row, bytes that are not UTF-8, or no data row.  A matrix file must
also hold a square matrix of finite cells, and a trajectory file only
states that a :class:`~granet.dynamics.Trajectory` accepts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigError
from .estimators import EstimateReport
from .graphs import DirectedGraph
from .lagmoments import LagMatrices
from .recovery import AssumptionReport, RecoveryMetrics

_FMT = "%.17g"

#: Rows formatted per block in :func:`_write_rows`.
_BLOCK_ROWS = 256

# The cell kernel.  Each cell gets a 32-byte slot of candidate characters:
#
#   0 sign   1-5 "0.000"   6 d0   7 "."   8-23 d1..d16   24-27 "e-XX"   28 ","
#
# A slot holds NUL wherever its cell has no character, and a block's text is
# its slots with the NULs deleted.  A kernel slot is the OR of its key's
# template (sign, layout, the zeros of an integer part, separator), the
# leading digit and four 4-digit groups; in fixed notation with X >= 1 the
# "." then moves after d_X.  A zero's slot is its template, and a rare
# cell's ``%`` text, at most 24 bytes, fills the start of its slot.  The
# tables are built at the first write, so importing the module builds none.
_SLOT = 32
#: Kernel cells: key (X + 11) * 4 + 2 * sign + has-dot, X in [-11, 16].
_KERNEL_KEYS = 28 * 4
_ZERO_KEY = _KERNEL_KEYS  # + sign
_RARE_KEY = _KERNEL_KEYS + 2
#: The kernel covers finite cells with _TINY < |x| < _HUGE, so 5**(16 - X)
#: stays below 2**63.  The double nearest 1e-11 lies below 1e-11, so every
#: kernel cell has X >= -11.
_TINY, _HUGE = 1e-11, 1e17
_U32 = np.uint64(0xFFFFFFFF)


@functools.cache
def _slot_templates() -> np.ndarray:
    """One 32-byte slot template per key, as four uint64 words."""
    exp10 = np.repeat(np.arange(-11, 17), 4)
    sign = np.tile([False, False, True, True], 28)
    dot = np.tile([False, True], 56)
    table = np.zeros((_RARE_KEY + 1, _SLOT), np.uint8)
    table[:, 28] = ord(",")
    kernel = table[:_KERNEL_KEYS]
    kernel[sign, 0] = ord("-")
    small = (exp10 >= -4) & (exp10 < 0)  # 0.000ddd
    kernel[small, 1:3] = np.frombuffer(b"0.", np.uint8)
    kernel[:, 3:6] = np.where(
        small[:, None] & (np.arange(3) < -1 - exp10[:, None]), ord("0"), 0)
    kernel[:, 6] = ord("0")
    # the integer digits d1..d_X of fixed notation, even where they are zero
    kernel[:, 8:24] = np.where(np.arange(1, 17) <= exp10[:, None], ord("0"), 0)
    kernel[dot & ~small, 7] = ord(".")
    sci = exp10 < -4
    kernel[sci, 24:26] = np.frombuffer(b"e-", np.uint8)
    kernel[sci, 26] = ord("0") + -exp10[sci] // 10
    kernel[sci, 27] = ord("0") + -exp10[sci] % 10
    table[_ZERO_KEY:_ZERO_KEY + 2, 1] = ord("0")
    table[_ZERO_KEY + 1, 0] = ord("-")
    return table.view(np.uint64)


@functools.cache
def _digit_groups() -> np.ndarray:
    """The four ASCII digits of each g < 10**4 as a uint32 at g, and at
    10**4 + g the same with trailing zeros as NUL."""
    table = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        table[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    table[1, :, :, :, 0, 3] = 0
    table[1, :, :, 0, 0, 2] = 0
    table[1, :, 0, 0, 0, 1] = 0
    table[1, 0, 0, 0, 0, 0] = 0
    return table.reshape(20_000, 4).view(np.uint32).ravel()


@functools.cache
def _dot_moves() -> np.ndarray:
    """Row X: where each byte of slot bytes 6..23 comes from once the "."
    at 7 moves after d_X."""
    j = np.arange(18)
    exp10 = np.arange(17)[:, None]
    return np.where((j >= 1) & (j <= exp10), j + 1,
                    np.where(j == exp10 + 1, 1, j))


@functools.cache
def _exponent_guess() -> "tuple[np.ndarray, np.ndarray]":
    """By biased exponent b: floor(log10(2**(b - 1023))) and the double
    nearest the next power of ten.  Their sum with ``x >= that double`` is
    floor(log10(x)), or one too high at a power of ten.  Kernel cells have
    b < 1080, as |x| < 1e17 < 2**57."""
    base = np.floor(np.arange(-1023, 57) * np.log10(2.0)).astype(np.intp)
    return base, 10.0 ** (base + 1)


_POW5_HI = np.array([5 ** k >> 32 for k in range(28)], np.uint64)
_POW5_LO = np.array([5 ** k & 0xFFFFFFFF for k in range(28)], np.uint64)
#: By X + 11: 10**(digits after d_X), whose remainder says if a "." is due.
_DOT_DIVISOR = np.array([10 ** (16 - max(x, 0)) for x in range(-11, 17)],
                        np.uint64)


def _twice_scaled(mant: np.ndarray, exp2: np.ndarray, exp10: np.ndarray
                  ) -> "tuple[np.ndarray, np.ndarray]":
    """floor(2v) and whether 2v has a fraction, for v = mant * 2**exp2 *
    10**(16 - exp10), exactly: the product mant * 5**(16 - exp10) of at most
    116 bits is formed in two 64-bit limbs and shifted."""
    k = 16 - exp10
    c_hi, c_lo = _POW5_HI.take(k), _POW5_LO.take(k)
    m_hi, m_lo = mant >> 32, mant & _U32
    lo = m_lo * c_lo
    mid = m_lo * c_hi
    mid += m_hi * c_lo
    hi = m_hi * c_hi
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid
    shift = -1 - exp2 - k
    right = np.maximum(shift, 0).astype(np.uint64)
    spill = 64 - right
    twice = hi << spill
    twice |= lo >> right
    inexact = (lo << spill) != 0
    left = np.flatnonzero(shift < 0)
    if left.size:
        twice[left] = lo[left] << (-shift[left]).astype(np.uint64)
    return twice, inexact


def _decimal(mag: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The decimal exponent X and the 17 significant digits D of each
    magnitude in ``mag``, all of them in the kernel's range: ``mag`` is D *
    10**(X - 16) rounded half to even."""
    bits = mag.view(np.uint64)
    biased = (bits >> 52).astype(np.intp)
    mant = bits & np.uint64(2 ** 52 - 1)
    mant |= np.uint64(2 ** 52)
    exp2 = biased - 1075
    base, above = _exponent_guess()
    exp10 = base.take(biased)
    exp10 += mag >= above.take(biased)
    twice, inexact = _twice_scaled(mant, exp2, exp10)
    # The guess is one too high only for a double just below a power of ten,
    # and then the unrounded digits fall below 10**16.
    high = np.flatnonzero(twice < 2 * 10 ** 16)
    if high.size:
        exp10[high] -= 1
        twice[high], inexact[high] = _twice_scaled(mant[high], exp2[high],
                                                   exp10[high])
    # No double of the kernel's range lies within 5e-18 below a power of ten,
    # so rounding never carries the digits to 10**17.
    bump = twice >> 1
    bump |= inexact
    bump &= 1
    twice += bump
    return exp10, twice >> 1


def _format_cells(cells: np.ndarray, n_cols: int) -> bytearray:
    """The text of the float64 ``cells``, whole rows of ``n_cols``, as
    ``%.17g`` cells joined by "," and each row ended by a newline."""
    mag = np.abs(cells)
    sign = np.signbit(cells)
    kernel = mag > _TINY
    kernel &= mag < _HUGE
    other = np.flatnonzero(~kernel)
    mag[other] = 1.0  # a stand-in, whose digits are then dropped
    exp10, digits = _decimal(mag)
    digits[other] = 0
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    g0 = upper // 10 ** 4
    g1 = upper - g0 * 10 ** 4
    g2 = lower // 10 ** 4
    g3 = lower - g2 * 10 ** 4
    # A group followed only by zero groups drops its trailing zeros.
    g3 += 10_000
    last = np.flatnonzero(g3 == 10_000)
    if last.size:
        g2[last] += 10_000
        last = last[lower[last] == 0]
        g0[last[g1[last] == 0]] += 10_000
        g1[last] += 10_000
    key = exp10 + 11
    has_dot = digits % _DOT_DIVISOR.take(key) != 0
    key <<= 2
    key += 2 * sign
    key += has_dot
    key[other] = np.where(cells[other] == 0, _ZERO_KEY + sign[other],
                          _RARE_KEY)
    text = bytearray(cells.size * _SLOT)
    words = np.frombuffer(text, np.uint64).reshape(cells.size, 4)
    np.take(_slot_templates(), key, axis=0, out=words)
    words[:, 0] |= lead << 48
    halves = words.view(np.uint32)
    for col, group in enumerate((g0, g1, g2, g3), start=2):
        halves[:, col] |= _digit_groups().take(group)
    slots = words.view(np.uint8)
    slots[n_cols - 1::n_cols, 28] = ord("\n")
    wide = np.flatnonzero(exp10 >= 1)
    if wide.size:
        slots[wide, 6:24] = np.take_along_axis(
            slots[wide, 6:24], _dot_moves()[exp10[wide]], axis=1)
    rare = other[key[other] == _RARE_KEY]
    if rare.size:
        texts = np.array([_FMT % v for v in cells[rare].tolist()], "S24")
        slots[rare, :24] = texts.view(np.uint8).reshape(rare.size, 24)
    return text.translate(None, b"\0")


@contextlib.contextmanager
def _naming(path: "str | Path"):
    """Re-raise a ValueError from reading a file as a ConfigError that starts
    with the file's ``path``."""
    try:
        with warnings.catch_warnings():
            # _rows checks for a data row; the warning would only reach
            # stderr.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _first_line(path: "str | Path") -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline()


def _rows(path: "str | Path") -> np.ndarray:
    """The comma-separated float rows of ``path``; there must be one."""
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8")
    except ValueError as exc:
        # NumPy counts a ragged row from 1 and ends the message with advice
        # on loadtxt's own parameters, which a reader of the file cannot act
        # on.  Count from 0, as the other messages about a cell or a state
        # do, and drop the advice.
        raise ValueError(re.sub(
            r"at row (\d+); use `usecols`.*",
            lambda m: f"at row {int(m.group(1)) - 1}", str(exc))) from exc
    if not rows.size:
        raise ValueError("no data rows")
    return rows


def _write_rows(path: "str | Path", rows: np.ndarray, header: str = "") -> None:
    """Write the 2-D ``rows`` to ``path`` with the bytes of ``np.savetxt(path,
    rows, fmt=_FMT, delimiter=",", header=header, comments="")``: the
    ``header`` line as given, if any, then ``_BLOCK_ROWS`` rows per
    :func:`_format_cells` call and write."""
    n_rows, n_cols = rows.shape
    with open(path, "wb") as fh:
        if header:
            fh.write(f"{header}\n".encode())
        if not n_cols:
            fh.write(b"\n" * n_rows)
            return
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = np.ascontiguousarray(rows[start:start + _BLOCK_ROWS],
                                         np.float64)
            fh.write(_format_cells(block.ravel(), n_cols))


def save_graph(graph: DirectedGraph, path: "str | Path") -> None:
    edges = np.array(graph.sorted_edges(), np.float64).reshape(-1, 2)
    _write_rows(path, edges, f"# N={graph.n_nodes}")


def save_matrix(matrix: np.ndarray, path: "str | Path") -> None:
    _write_rows(path, np.atleast_2d(matrix))


def load_matrix(path: "str | Path") -> np.ndarray:
    """The matrix in ``path``; a matrix that is not square, or a cell that is
    not finite, is a ConfigError."""
    with _naming(path):
        rows = _rows(path)
        if rows.shape[0] != rows.shape[1]:
            raise ValueError(f"matrix must be square, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            row, col = np.argwhere(~np.isfinite(rows))[0]
            raise ValueError(f"non-finite cell {float(rows[row, col])!r} "
                             f"at row {row}, column {col}")
        return rows


def save_trajectory(traj: Trajectory, path: "str | Path") -> None:
    header = f"# N={traj.n_nodes}, steps={traj.n_steps}, seed={traj.seed}"
    _write_rows(path, traj.states, header)


def load_trajectory(path: "str | Path") -> Trajectory:
    with _naming(path):
        first = _first_line(path)
        match = re.match(
            r"#\s*N\s*=\s*(\d+),\s*steps\s*=\s*(\d+),\s*seed\s*=\s*(-?\d+)",
            first,
        )
        if not match:
            raise ValueError(f"malformed trajectory header {first!r}")
        n, steps, seed = (int(g) for g in match.groups())
        states = _rows(path)
        if states.shape != (steps + 1, n):
            raise ValueError(
                f"payload shape {states.shape} does not match header "
                f"(N={n}, steps={steps})"
            )
        states.setflags(write=False)
        return Trajectory(states=states, seed=seed)


def save_lag_matrices(lag: LagMatrices, f0_path: "str | Path",
                      f1_path: "str | Path") -> None:
    for path, payload in ((f0_path, lag.f0_sum), (f1_path, lag.f1_sum)):
        _write_rows(path, payload, f"# count={lag.count}")


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value).replace("'", "")  # "inf", "-inf", "nan"
    if isinstance(value, np.floating):
        return _jsonable(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(payload: dict, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_estimate_report(report: EstimateReport, json_path: "str | Path",
                         matrix_path: "str | Path") -> None:
    """Write the estimate matrix as CSV and its metadata as JSON."""
    save_matrix(report.A_hat, matrix_path)
    payload = {
        "estimator_kind": report.estimator_kind,
        "n_samples": report.n_samples,
        "cond_F0": _jsonable(report.cond_F0),
        "observed_set": list(report.observed_set)
        if report.observed_set is not None else None,
        "matrix_file": Path(matrix_path).name,
    }
    _write_json(payload, json_path)


def save_recovery_metrics(metrics: RecoveryMetrics, path: "str | Path") -> None:
    payload = {k: _jsonable(v) for k, v in dataclasses.asdict(metrics).items()}
    _write_json(payload, path)


def save_assumption_report(report: AssumptionReport, path: "str | Path") -> None:
    payload = {k: _jsonable(v) for k, v in dataclasses.asdict(report).items()}
    payload["kappa_stable"] = report.kappa_stable
    _write_json(payload, path)


def save_profile(rows: np.ndarray, path: "str | Path") -> None:
    _write_rows(path, rows, "slot,true,estimate")

"""Scalar nonlinearity catalogue with growth-envelope metadata.

Each :class:`Nonlinearity` bundles a scalar function applied componentwise,
an optional inverse, and the constants of a growth envelope

    |f(y)| <= alpha * |y|**e + beta        for all real y,

where ``e`` is the declared ``exponent_role``.  Bounded functions carry
``alpha = 0`` and a free exponent (``exponent_role = None``), meaning the
envelope holds for any exponent in ``[0, 1]``.  The envelope constants feed
the stability checker; callers may tighten or override them when they know
more about the operating range.

``zeros`` lists the isolated real roots of the function when they are known
in closed form (used to regularise reciprocal weights); ``None`` marks a
function whose root set is not a finite set of isolated points.

How a kind is evaluated, inverted and domain-checked lives in one table,
``_KERNELS``: kind -> (binder, inverse binder or None, domain binder or
None).  A kind is invertible exactly when the table has its inverse.  Each
binder takes the kind's params once and returns a kernel ``kernel(y, out)``
that writes its function of ``y`` into the caller-owned ``out`` and returns
it.  The one evaluator, ``dynamics._Family``, binds each kernel when it is
built and checks an inverse's domain, so the simulator's epoch loop calls
the kernel directly, with its own buffers and no per-call params.  A kernel
binds the ufuncs it calls along with its params, so a call looks up no
``np`` attribute.

The kinds built on ``sign(y) |y|**a`` (``sign_power`` and the power term of
``sin_plus_sign_power``) share one core, ``power(mag, a, out); copysign(out,
y, out)``, and their forward binders also take a buffer ``mag`` shared by
the kernels of one state and a role (``_MAGNITUDE_ROLES``): ``"read"`` takes
``mag = |y|`` from the buffer, ``"form"`` writes ``|y|`` into it first, and
``"write"`` (sign_power alone) leaves ``|f(y)|``, which it computes anyway,
there for the next state.  The plain kernel runs the core on ``mag = |y|``
formed in ``out``.  Every form gives the plain kernel's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Nonlinearity:
    """A componentwise scalar function plus envelope metadata.

    Instances compare equal when kind and parameters match, which lets
    vector evaluators map each run of equal adjacent nodes in one shot.
    """

    kind: str
    params: tuple[float, ...] = ()
    envelope: tuple[float, float] | None = None
    exponent_role: float | None = None
    zeros: tuple[float, ...] | None = ()

    def __post_init__(self):
        if not all(map(math.isfinite, self.params + (self.envelope or ()))):
            raise ValueError(f"{self.kind} params {self.params} and envelope "
                             f"{self.envelope} must be finite")
        if self.envelope is not None:
            alpha, beta = self.envelope
            if alpha < 0 or beta < 0:
                raise ValueError(f"envelope constants must be >= 0, got {self.envelope}")
        if self.exponent_role is not None and not 0 <= self.exponent_role <= 1:
            raise ValueError(
                f"exponent_role must lie in [0, 1], got {self.exponent_role}"
            )

    # -- evaluation ---------------------------------------------------------

    @property
    def invertible(self) -> bool:
        """Whether the catalogue implements an inverse for this kind."""
        return _KERNELS[self.kind][1] is not None

    def describe(self) -> str:
        if self.params:
            inner = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind

    def with_envelope(self, alpha: float, beta: float,
                      exponent_role: float | None = None) -> "Nonlinearity":
        """Copy of this function with overridden envelope constants."""
        return Nonlinearity(
            kind=self.kind,
            params=self.params,
            envelope=(float(alpha), float(beta)),
            exponent_role=exponent_role if exponent_role is not None else self.exponent_role,
            zeros=self.zeros,
        )


# Binders hold float params as 0-d float64 arrays.  A ufunc converts a
# Python float operand anew on every call, which costs about as much as the
# operation on a 50-node vector; on float64 input the results are the same
# bits.


def _magnitude_power(a):
    """``(power, a)`` such that ``power(mag, a, out)`` writes ``mag ** a``
    into ``out`` with the bits and floating-point messages of ``out **= a``.

    ``out **= a`` runs ``np.power``, whose loop itself takes np.sqrt's path
    for a scalar exponent of 0.5 and np.square's for 2, while overflow
    messages still name ``power``.  Calling np.sqrt directly skips power's
    two-operand dispatch for the same bits, and sets no flag on the
    magnitudes (``>= 0`` or NaN) it is given; np.square would name itself
    in an overflow message, so 2 stays with np.power.
    """
    if a == 0.5:
        sqrt = np.sqrt

        def root(mag, _, out):
            return sqrt(mag, out)
        return root, None
    return np.power, np.array(a, dtype=float)


def _bind_signed_power(a, mag=None, role=None):
    """``sign(y) |y|**a``: the plain kernel, or with the shared buffer
    ``mag`` (of ``y``'s shape, overlapping neither ``y`` nor ``out``) the
    kernel of ``role`` (see the module docstring)."""
    power, a = _magnitude_power(a)
    absolute, copysign = np.abs, np.copysign
    if mag is None:
        def kernel(y, out):
            power(absolute(y, out), a, out)
            return copysign(out, y, out)
    elif role == "read":
        def kernel(y, out):
            power(mag, a, out)
            return copysign(out, y, out)
    elif role == "form":
        def kernel(y, out):
            power(absolute(y, mag), a, out)
            return copysign(out, y, out)
    else:
        # "write": |sign(y) |y|**a| is |y|**a, bit for bit (copysign sets
        # only the sign bit), so the power goes to ``mag``, the sign to ``out``.
        def kernel(y, out):
            power(absolute(y, out), a, mag)
            return copysign(mag, y, out)
    return kernel


def _identity(y, out):
    out[...] = y
    return out


def _constant_one(y, out):
    out.fill(1.0)
    return out


def _bind_tanh_shifted(c):
    c = np.array(c, dtype=float)
    tanh, add = np.tanh, np.add

    def kernel(y, out):
        return add(tanh(y, out), c, out)
    return kernel


#: Rows per block of :func:`_bind_sin_plus_signed_power`'s temporary.
_WAVE_ROWS = 1024


def _bind_sin_plus_signed_power(freq, a, mag=None, role=None):
    freq = np.array(freq, dtype=float)
    power = _bind_signed_power(a, mag, role)
    multiply, sin, add = np.multiply, np.sin, np.add

    def kernel(y, out):
        # ``sin(freq * y)`` needs a temporary of the input's shape; over
        # blocks of rows of 2-d input it stays small however many epochs
        # come in.  The function is elementwise, so the blocks give the same
        # bits, and a 1-d state (one epoch) takes one pass with no loop.
        if y.ndim > 1 and len(y) > _WAVE_ROWS:
            for start in range(0, len(y), _WAVE_ROWS):
                rows = slice(start, start + _WAVE_ROWS)
                kernel(y[rows], out[rows])
            return out
        wave = multiply(freq, y)
        sin(wave, wave)
        return add(power(y, out), wave, out)
    return kernel


def _bind_arctanh_shifted(c):
    c = np.array(c, dtype=float)

    def kernel(y, out):
        np.subtract(y, c, out)
        return np.arctanh(out, out)
    return kernel


def _bind_distance(c):
    c = np.array(c, dtype=float)

    def kernel(y, out):
        np.subtract(y, c, out)
        return np.abs(out, out)
    return kernel


def _bind_limiter(lo, hi):
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    clip = np.clip

    def kernel(y, out):
        return clip(y, lo, hi, out=out)
    return kernel


def _first_outside(radius: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry of ``radius`` at or above 1, or None.

    ``radius`` comes from a domain kernel, so such an entry lies outside
    the inverse's domain; a NaN entry never does.  When every entry is
    inside, the check costs one ``max`` and no temporary; the boolean mask
    is formed only when the max is not below 1 (NaN included).
    """
    if radius.size == 0 or radius.max() < 1.0:
        return None
    bad = radius >= 1.0
    if not bad.any():
        return None
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


# Per kind: (binder, inverse binder or None, domain binder or None when the
# inverse is defined on the whole line).  Every binder takes the kind's
# params and returns ``kernel(y, out)``: ``y`` is a float64 array, ``out``
# an array of its shape that must not overlap it, and the kernel writes its
# result into ``out`` and returns ``out``.  The forward kernel writes the
# function, the inverse kernel its inverse, and the domain kernel a radius
# that is below 1 exactly where ``y`` lies in the inverse's domain (see
# :func:`_first_outside`).
_KERNELS: dict[str, tuple[Callable, Callable | None, Callable | None]] = {
    "identity": (lambda: _identity, lambda: _identity, None),
    "constant_one": (lambda: _constant_one, None, None),
    "sign_power": (_bind_signed_power,
                   lambda a: _bind_signed_power(1.0 / a), None),
    "tanh": (lambda: np.tanh, lambda: np.arctanh, lambda: np.abs),
    "tanh_shifted": (_bind_tanh_shifted, _bind_arctanh_shifted,
                     _bind_distance),
    "limiter": (_bind_limiter, None, None),
    "sin_plus_sign_power": (_bind_sin_plus_signed_power, None, None),
}

#: Per kind whose forward binder also takes a shared ``|y|`` buffer
#: (``binder(*params, mag=mag, role=role)``), the roles it can take.
_MAGNITUDE_ROLES: dict[str, tuple[str, ...]] = {
    "sign_power": ("read", "form", "write"),
    "sin_plus_sign_power": ("read", "form"),
}


# -- catalogue -------------------------------------------------------------

def identity() -> Nonlinearity:
    """f(y) = y."""
    return Nonlinearity(
        kind="identity",
        envelope=(1.0, 0.0),
        exponent_role=1.0,
        zeros=(0.0,),
    )


def constant_one() -> Nonlinearity:
    """f(y) = 1."""
    return Nonlinearity(
        kind="constant_one",
        envelope=(0.0, 1.0),
        exponent_role=None,
        zeros=(),
    )


def sign_power(a: float) -> Nonlinearity:
    """f(y) = sign(y) |y|**a with a > 0.

    For ``a < 1`` the conservative global envelope ``|y|**a <= |y| + 1``
    is declared (alpha=1, beta=1; the bound ``alpha=1, beta=0`` would fail
    inside the unit interval); ``a = 1`` is the identity with its tight
    envelope.  For ``a > 1`` no linear-growth envelope exists and none is
    declared.  The inverse is ``sign_power(1/a)``.
    """
    if a <= 0:
        raise ValueError(f"sign_power exponent must be > 0, got {a}")
    bounded_growth = a <= 1.0
    if a == 1.0:
        env = (1.0, 0.0)
    elif a < 1.0:
        env = (1.0, 1.0)
    else:
        env = None
    return Nonlinearity(
        kind="sign_power",
        params=(float(a),),
        envelope=env,
        exponent_role=float(a) if bounded_growth else None,
        zeros=(0.0,),
    )


def tanh() -> Nonlinearity:
    """f(y) = tanh(y); bounded, inverse defined on (-1, 1)."""
    return Nonlinearity(
        kind="tanh",
        envelope=(0.0, 1.0),
        exponent_role=None,
        zeros=(0.0,),
    )


def tanh_shifted(c: float) -> Nonlinearity:
    """f(y) = tanh(y) + c; bounded with range (c - 1, c + 1)."""
    c = float(c)
    if abs(c) < 1.0:
        fn_zeros: tuple[float, ...] | None = (math.atanh(-c),)
    else:
        fn_zeros = ()
    return Nonlinearity(
        kind="tanh_shifted",
        params=(c,),
        envelope=(0.0, 1.0 + abs(c)),
        exponent_role=None,
        zeros=fn_zeros,
    )


def limiter(lo: float = -1.0, hi: float = 1.0) -> Nonlinearity:
    """f(y) = clamp(y, lo, hi); bounded and non-invertible."""
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"limiter needs lo < hi, got ({lo}, {hi})")
    if lo < 0.0 < hi:
        fn_zeros: tuple[float, ...] | None = (0.0,)
    elif lo == 0.0 or hi == 0.0:
        # The function is zero on a half-line, not at isolated points.
        fn_zeros = None
    else:
        fn_zeros = ()
    return Nonlinearity(
        kind="limiter",
        params=(lo, hi),
        envelope=(0.0, max(abs(lo), abs(hi))),
        exponent_role=None,
        zeros=fn_zeros,
    )


def sin_plus_sign_power(freq: float, a: float) -> Nonlinearity:
    """f(y) = sin(freq * y) + sign(y) |y|**a with 0 < a <= 1.

    Envelope ``|f(y)| <= |y|**a + 1``.  The only real root is 0: for
    ``y > 0`` the power term dominates the sine's most negative values, and
    the function is odd.
    """
    if not 0 < a <= 1:
        raise ValueError(f"sin_plus_sign_power exponent must lie in (0, 1], got {a}")
    return Nonlinearity(
        kind="sin_plus_sign_power",
        params=(float(freq), float(a)),
        envelope=(1.0, 1.0),
        exponent_role=float(a),
        zeros=(0.0,),
    )


_FACTORIES: dict[str, Callable[..., Nonlinearity]] = {
    "identity": identity,
    "constant_one": constant_one,
    "sign_power": sign_power,
    "tanh": tanh,
    "tanh_shifted": tanh_shifted,
    "limiter": limiter,
    "sin_plus_sign_power": sin_plus_sign_power,
}


_SPEC_KEYS = ("kind", "params", "envelope", "exponent_role")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, length: int | None = None) -> bool:
    """Whether ``value`` is a list (or tuple) of numbers, of ``length`` if
    given; a string or a boolean is not a number."""
    return (isinstance(value, (list, tuple)) and all(map(_is_number, value))
            and length in (None, len(value)))


def from_spec(spec: "str | dict") -> Nonlinearity:
    """Build a nonlinearity from a plain-data spec.

    A string is a parameterless kind; a dict holds ``kind`` plus a list of
    positional ``params`` and optional ``envelope`` (a pair of numbers) and
    ``exponent_role`` (a number) overrides, and no other key.
    """
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"nonlinearity spec missing 'kind': {spec!r}")
    unknown = sorted(set(spec) - set(_SPEC_KEYS))
    if unknown:
        raise ValueError(f"unknown nonlinearity spec keys {unknown}; "
                         f"expected some of {list(_SPEC_KEYS)}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FACTORIES:
        raise ValueError(
            f"unknown nonlinearity kind {kind!r}; "
            f"expected one of {sorted(_FACTORIES)}"
        )
    params = spec.get("params", ())
    envelope, role = spec.get("envelope"), spec.get("exponent_role")
    if not _numbers(params):
        raise ValueError(f"params for {kind!r} must be a list of numbers, "
                         f"got {params!r}")
    if not (envelope is None or _numbers(envelope, 2)) \
            or not (role is None or _is_number(role)):
        raise ValueError(
            f"bad envelope override for {kind!r}: {envelope!r}, "
            f"exponent_role {role!r}"
        )
    try:
        fn = _FACTORIES[kind](*params)
    except TypeError as exc:
        raise ValueError(f"bad params for {kind!r}: {params!r}") from exc
    if envelope is None and role is not None:
        if fn.envelope is None:
            raise ValueError(
                f"exponent_role override for {kind!r} requires an envelope"
            )
        envelope = fn.envelope
    if envelope is not None:
        fn = fn.with_envelope(*envelope, role)
    return fn


def to_spec(fn: Nonlinearity) -> dict:
    """Plain-data spec of a nonlinearity, inverse of :func:`from_spec`."""
    spec: dict = {"kind": fn.kind}
    if fn.params:
        spec["params"] = list(fn.params)
    reference = _FACTORIES[fn.kind](*fn.params)
    if fn.envelope != reference.envelope or fn.exponent_role != reference.exponent_role:
        spec["envelope"] = list(fn.envelope) if fn.envelope else None
        spec["exponent_role"] = fn.exponent_role
    return spec

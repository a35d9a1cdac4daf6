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
it.  Vector evaluators bind each kernel when they are built, so the
simulator's epoch loop calls the kernel directly, with its own buffers and
no per-call params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FunctionDomainError


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

    def evaluate(self, y):
        """Apply the function elementwise to ``y`` (scalar or array).

        A scalar is computed as a one-element array, so it gets the same
        bits as the array path, and is returned as a ``float``.
        """
        arr = np.asarray(y, dtype=float)
        vec = np.atleast_1d(arr)
        out = _KERNELS[self.kind][0](*self.params)(vec, np.empty_like(vec))
        return out if arr.ndim else float(out[0])

    def evaluate_inverse(self, y):
        """Apply the inverse elementwise; raises on out-of-domain input.

        Only invertible functions support this.  Domain violations raise
        :class:`FunctionDomainError` naming the first offending value.  A
        scalar is handled as in :meth:`evaluate`.
        """
        _, bind_inverse, bind_radius = _KERNELS[self.kind]
        if bind_inverse is None:
            raise ValueError(f"{self.kind}{self.params} has no implemented inverse")
        arr = np.asarray(y, dtype=float)
        vec = np.atleast_1d(arr)
        out = np.empty_like(vec)
        if bind_radius is not None:
            pos = _first_outside(bind_radius(*self.params)(vec, out))
            if pos is not None:
                raise FunctionDomainError(
                    f"input outside the domain of {self.describe()} inverse",
                    float(vec[pos]),
                )
        out = bind_inverse(*self.params)(vec, out)
        return out if arr.ndim else float(out[0])

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


def _bind_signed_power(a):
    a = np.array(a, dtype=float)

    def kernel(y, out):
        # ``**=`` takes the same scalar fast paths for a 0-d exponent as for
        # a float (0.5 runs np.sqrt, 2 runs np.square); np.power(out, a)
        # would not.
        np.abs(y, out)
        out **= a
        return np.copysign(out, y, out)
    return kernel


def _identity(y, out):
    out[...] = y
    return out


def _constant_one(y, out):
    out.fill(1.0)
    return out


def _bind_tanh_shifted(c):
    c = np.array(c, dtype=float)

    def kernel(y, out):
        np.tanh(y, out)
        out += c
        return out
    return kernel


def _bind_sin_plus_signed_power(freq, a):
    freq = np.array(freq, dtype=float)
    power = _bind_signed_power(a)

    def kernel(y, out):
        wave = np.multiply(freq, y)
        np.sin(wave, wave)
        power(y, out)
        out += wave
        return out
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
    "limiter": (lambda lo, hi: lambda y, out: np.clip(y, lo, hi, out=out),
                None, None),
    "sin_plus_sign_power": (_bind_sin_plus_signed_power, None, None),
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


def from_spec(spec: "str | dict") -> Nonlinearity:
    """Build a nonlinearity from a plain-data spec.

    A string is a parameterless kind; a dict holds ``kind`` plus positional
    ``params`` and optional ``envelope``/``exponent_role`` overrides.
    """
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"nonlinearity spec missing 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _FACTORIES:
        raise ValueError(
            f"unknown nonlinearity kind {kind!r}; "
            f"expected one of {sorted(_FACTORIES)}"
        )
    params = spec.get("params", ())
    try:
        fn = _FACTORIES[kind](*params)
    except TypeError as exc:
        raise ValueError(f"bad params for {kind!r}: {params!r}") from exc
    envelope, role = spec.get("envelope"), spec.get("exponent_role")
    if envelope is None and role is not None:
        if fn.envelope is None:
            raise ValueError(
                f"exponent_role override for {kind!r} requires an envelope"
            )
        envelope = fn.envelope
    if envelope is not None:
        try:
            fn = fn.with_envelope(*envelope, role)
        except TypeError as exc:
            raise ValueError(
                f"bad envelope override for {kind!r}: {envelope!r}, "
                f"exponent_role {role!r}"
            ) from exc
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

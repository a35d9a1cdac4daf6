"""Scalar nonlinearities: values, inverses, envelopes, specs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import FunctionDomainError
from granet import nonlinearities as nl
from granet.dynamics import _Family, resolve_exponents


def _apply(fn, y):
    """``fn`` of each entry of ``y``, through a one-node family whose node
    takes ``y`` as its column of epochs."""
    y = np.asarray(y, dtype=float)
    return _Family((fn,))(y.reshape(-1, 1)).reshape(y.shape)


def _apply_inverse(fn, y):
    """The inverse of ``fn`` at each entry of ``y``, as in :func:`_apply`."""
    y = np.asarray(y, dtype=float)
    return _Family((fn,)).inverse(y.reshape(-1, 1)).reshape(y.shape)


def test_sign_power_value():
    assert np.array_equal(_apply(nl.sign_power(0.5), [4.0, -4.0, 0.0]),
                          [2.0, -2.0, 0.0])


# Closed forms of each kind: the bound kernels must match them bit for bit.
_REFERENCE = {
    "identity": lambda y: y,
    "constant_one": lambda y: np.ones_like(y),
    "sign_power": lambda y, a: np.copysign(np.abs(y) ** a, y),
    "tanh": np.tanh,
    "tanh_shifted": lambda y, c: np.tanh(y) + c,
    "limiter": lambda y, lo, hi: np.clip(y, lo, hi),
    "sin_plus_sign_power": lambda y, freq, a:
        np.sin(freq * y) + np.copysign(np.abs(y) ** a, y),
}


@pytest.mark.parametrize("fn", [
    nl.identity(), nl.constant_one(), nl.sign_power(0.5), nl.sign_power(2.0),
    nl.sign_power(0.3), nl.sign_power(1.0), nl.tanh(), nl.tanh_shifted(-2.0),
    nl.limiter(-0.5, 1.5), nl.sin_plus_sign_power(4.0, 0.6),
], ids=lambda fn: fn.describe())
def test_kernel_out_is_bit_equal_to_closed_form(fn):
    # a kind in one table but not the other fails here
    assert set(_REFERENCE) == set(nl._KERNELS) == set(nl._FACTORIES)
    # the longer input spans several of the row blocks a kernel may work in
    for rows in (40, 2 * nl._WAVE_ROWS + 17):
        y = np.random.default_rng(8).standard_normal((rows, 7)) * 3.0
        y[0, :3] = (0.0, -0.0, 1.0)
        expected = _REFERENCE[fn.kind](y, *fn.params)
        out = np.full_like(y, np.nan)
        assert nl._KERNELS[fn.kind][0](*fn.params)(y, out) is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _signed_power_reference(y, out, a):
    """The sign-power kernel as ``abs; out **= a; copysign``."""
    np.abs(y, out)
    out **= np.array(a)
    return np.copysign(out, y, out)


def _run(kernel, y):
    """The bytes ``kernel(y, out)`` writes, or the message of the error it
    raises under ``np.errstate(all="raise")``."""
    out = np.full_like(y, np.nan)
    with np.errstate(all="raise"):
        try:
            kernel(y, out)
        except FloatingPointError as err:
            return str(err)
    return out.tobytes()


# zeros of both signs, subnormals, huge values, infinities and NaN: each
# alone, so that each raises on its own, and all together
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308, 1e-200, 0.7,
                -3.5, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan)
_EDGE_INPUTS = [np.array([v]) for v in _EDGE_VALUES] + [np.array(_EDGE_VALUES)]


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 1.0, 2.0, 1 / 0.3])
def test_every_magnitude_form_gives_the_reference_bits_and_errors(a):
    # each kernel form simulate's epoch loop may bind; "read" finds |y| in
    # the shared buffer, "form" puts it there, "write" leaves |f(y)| there
    families = [(_Family((nl.sign_power(a),)),
                 lambda y, out: _signed_power_reference(y, out, a),
                 ("read", "form", "write"))]
    if a <= 1:
        sine = _Family((nl.sin_plus_sign_power(4.0, a),))
        families.append((sine, sine.apply, ("read", "form")))
    for family, reference, roles in families:
        for y in _EDGE_INPUTS:
            expected = _run(reference, y)
            assert _run(family.apply, y) == expected
            for role in roles:
                mag = np.abs(y) if role == "read" else np.full_like(y, np.nan)
                assert _run(family.magnitude_kernel(mag, role), y) == expected
                if isinstance(expected, bytes):
                    # what the buffer holds for the kernels that read it next
                    left = np.frombuffer(expected) if role == "write" else y
                    assert mag.tobytes() == np.abs(left).tobytes()
    # only sign_power leaves |f(y)| behind
    assert _Family((nl.sin_plus_sign_power(4.0, 0.5),)).magnitude_kernel(
        np.empty(1), "write") is None


_INVERSE_REFERENCE = {
    "identity": lambda y: y,
    "sign_power": lambda y, a: np.copysign(np.abs(y) ** (1.0 / a), y),
    "tanh": np.arctanh,
    "tanh_shifted": lambda y, c: np.arctanh(y - c),
}


@pytest.mark.parametrize("fn", [
    nl.identity(), nl.sign_power(0.5), nl.sign_power(2.0), nl.sign_power(0.3),
    nl.tanh(), nl.tanh_shifted(-2.0),
], ids=lambda fn: fn.describe())
def test_inverse_kernel_out_is_bit_equal_to_closed_form(fn):
    # the inverse column binds like the forward one: kernel(y, out)
    assert {k for k, (_, inverse, _) in nl._KERNELS.items()
            if inverse is not None} == set(_INVERSE_REFERENCE)
    assert set(nl._KERNELS) == set(nl._FACTORIES)
    y = np.random.default_rng(9).uniform(-0.99, 0.99, (40, 7))
    y[0, :2] = (0.0, -0.0)
    if fn.kind == "tanh_shifted":
        y += fn.params[0]
    expected = _INVERSE_REFERENCE[fn.kind](y, *fn.params)
    out = np.full_like(y, np.nan)
    assert nl._KERNELS[fn.kind][1](*fn.params)(y, out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_tanh_at_origin():
    assert _apply(nl.tanh(), 0.0) == 0.0


def test_sin_plus_sign_power_at_origin():
    assert _apply(nl.sin_plus_sign_power(4.0, 0.6), 0.0) == 0.0


def test_sign_power_inverse_value():
    assert np.array_equal(_apply_inverse(nl.sign_power(0.5), [2.0, -2.0, 0.0]),
                          [4.0, -4.0, 0.0])


def test_tanh_inverse_value():
    got = float(_apply_inverse(nl.tanh(), 0.5))
    assert math.isclose(got, math.atanh(0.5), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got, 0.549306, rel_tol=0, abs_tol=1e-6)


def test_tanh_inverse_domain_error_at_boundary():
    with pytest.raises(FunctionDomainError):
        _apply_inverse(nl.tanh(), 1.0)
    with pytest.raises(FunctionDomainError):
        _apply_inverse(nl.tanh_shifted(2.0), 3.0)


def test_invertibility_flags():
    assert nl.identity().invertible
    assert nl.sign_power(0.5).invertible
    assert nl.tanh().invertible
    assert nl.tanh_shifted(-2.0).invertible
    assert not nl.constant_one().invertible
    assert not nl.limiter(-1.0, 1.0).invertible
    assert not nl.sin_plus_sign_power(4.0, 0.6).invertible


@pytest.mark.parametrize(
    "fn, lo, hi",
    [
        (nl.identity(), -10.0, 10.0),
        (nl.sign_power(0.5), -10.0, 10.0),
        (nl.sign_power(0.3), -10.0, 10.0),
        (nl.sign_power(0.7), -10.0, 10.0),
        # artanh(tanh(y)) is ill-conditioned past |y| ~ 8 (the derivative of
        # artanh at tanh(10) is cosh(10)^2 = 2.4e8, amplifying the one-ulp
        # rounding of tanh to ~1e-8), so the bounded pair is checked on the
        # widest interval where 1e-10 is attainable in float64.
        (nl.tanh(), -7.0, 7.0),
        (nl.tanh_shifted(2.0), -7.0, 7.0),
        (nl.tanh_shifted(-2.0), -7.0, 7.0),
    ],
)
def test_inverse_roundtrip_grid(fn, lo, hi):
    grid = np.linspace(lo, hi, 1001)
    back = _apply_inverse(fn, _apply(fn, grid))
    assert np.abs(back - grid).max() <= 1e-10


def test_identity_returns_a_new_array():
    # writing to a result must never write into the caller's input
    y = np.linspace(-2.0, 2.0, 9)
    for out in (_apply(nl.identity(), y), _apply_inverse(nl.identity(), y)):
        assert np.array_equal(out, y)
        assert not np.shares_memory(out, y)


def test_limiter_clamps():
    f = nl.limiter(-1.0, 1.0)
    assert np.array_equal(_apply(f, [0.3, 5.0, -2.0]), [0.3, 1.0, -1.0])


def test_constant_one_is_flat():
    f = nl.constant_one()
    assert np.array_equal(_apply(f, [-3.0, 0.0, 10.0]), [1.0, 1.0, 1.0])


def test_parameter_validation():
    with pytest.raises(ValueError):
        nl.sign_power(0.0)
    with pytest.raises(ValueError):
        nl.sign_power(-1.0)
    with pytest.raises(ValueError):
        nl.limiter(1.0, 1.0)
    with pytest.raises(ValueError):
        nl.limiter(2.0, -2.0)
    nan, inf = float("nan"), float("inf")
    for factory, params in ((nl.sign_power, (nan,)), (nl.sign_power, (inf,)),
                            (nl.tanh_shifted, (nan,)),
                            (nl.sin_plus_sign_power, (nan, 0.5)),
                            (nl.limiter, (-inf, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            factory(*params)
    with pytest.raises(ValueError, match="finite"):
        nl.identity().with_envelope(1.0, inf)


def test_envelope_metadata():
    # alpha|y| + beta envelopes used by the stability constant
    assert nl.identity().envelope == (1.0, 0.0)
    assert nl.constant_one().envelope == (0.0, 1.0)
    assert nl.tanh().envelope == (0.0, 1.0)
    assert nl.tanh_shifted(2.0).envelope == (0.0, 3.0)
    assert nl.limiter(-1.0, 1.0).envelope == (0.0, 1.0)
    assert nl.sign_power(0.5).envelope == (1.0, 1.0)
    # super-linear growth admits no linear envelope
    assert nl.sign_power(2.0).envelope is None


def test_exponent_roles():
    assert nl.identity().exponent_role == 1.0
    assert nl.sign_power(0.3).exponent_role == 0.3
    assert nl.tanh().exponent_role is None
    assert nl.constant_one().exponent_role is None


def test_with_envelope_override():
    f = nl.identity().with_envelope(2.4, 0.0)
    assert f.envelope == (2.4, 0.0)
    assert _apply(f, 3.0) == 3.0  # behavior unchanged
    with pytest.raises(ValueError):
        nl.identity().with_envelope(-1.0, 0.0)


def test_spec_roundtrip():
    fns = [
        nl.identity(),
        nl.constant_one(),
        nl.sign_power(0.4),
        nl.tanh(),
        nl.tanh_shifted(-2.0),
        nl.limiter(-1.0, 1.0),
        nl.sin_plus_sign_power(4.0, 0.6),
        nl.identity().with_envelope(2.4, 0.0),
    ]
    for f in fns:
        back = nl.from_spec(nl.to_spec(f))
        assert back == f
        grid = np.linspace(-2.0, 2.0, 11)
        assert np.array_equal(_apply(back, grid), _apply(f, grid))


@pytest.mark.parametrize("spec, message", [
    ({"kind": "limiter", "parms": [0.5, 2.0]}, "unknown nonlinearity spec keys"),
    ({"kind": ["tanh"]}, "unknown nonlinearity kind"),
    ({"kind": "tanh_shifted", "params": "2"}, "list of numbers"),
    ({"kind": "sign_power", "params": [True]}, "list of numbers"),
    ({"kind": "tanh", "envelope": "12"}, "bad envelope"),
    ({"kind": "tanh", "envelope": [True, 1.0]}, "bad envelope"),
    ({"kind": "tanh", "envelope": [1.0]}, "bad envelope"),
    ({"kind": "identity", "exponent_role": True}, "bad envelope"),
])
def test_from_spec_rejects_what_it_would_misread(spec, message):
    with pytest.raises(ValueError, match=message):
        nl.from_spec(spec)


def test_equality_and_hashing():
    assert nl.sign_power(0.5) == nl.sign_power(0.5)
    assert nl.sign_power(0.5) != nl.sign_power(0.3)
    assert len({nl.tanh(), nl.tanh(), nl.identity()}) == 2


def test_resolve_exponents_pairs():
    # declared pair
    p, q, ok = resolve_exponents([nl.sign_power(0.3)], [nl.sign_power(0.7)])
    assert (p, q, ok) == (0.3, 0.7, True)
    # identity g forces p=1, undeclared h inherits q=0
    p, q, ok = resolve_exponents([nl.identity()], [nl.tanh()])
    assert (p, q, ok) == (1.0, 0.0, True)
    # neither declared: conventional (0, 1)
    p, q, ok = resolve_exponents([nl.constant_one()], [nl.tanh()])
    assert (p, q, ok) == (0.0, 1.0, True)
    # budget violation is reported, not raised
    _, _, ok = resolve_exponents([nl.sign_power(0.5)], [nl.sign_power(0.7)])
    assert not ok


def test_resolve_exponents_conflicting_family():
    with pytest.raises(ValueError):
        resolve_exponents([nl.sign_power(0.3), nl.sign_power(0.4)], [nl.tanh()])


@settings(deadline=None, max_examples=40)
@given(
    a=st.floats(min_value=0.1, max_value=1.0),
    y=st.floats(min_value=-50.0, max_value=50.0),
)
def test_sign_power_odd_symmetry(a, y):
    f = nl.sign_power(a)
    assert _apply(f, -y) == -_apply(f, y)


@settings(deadline=None, max_examples=40)
@given(y=st.floats(min_value=-1e6, max_value=1e6))
def test_limiter_range(y):
    out = _apply(nl.limiter(-1.0, 1.0), y)
    assert -1.0 <= out <= 1.0

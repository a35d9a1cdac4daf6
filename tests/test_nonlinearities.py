"""Scalar nonlinearities: values, inverses, envelopes, specs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import FunctionDomainError
from granet import nonlinearities as nl
from granet.dynamics import resolve_exponents


def test_sign_power_value():
    # a Python float and a 0-d array both evaluate to a float
    for y, expected in ((4.0, 2.0), (-4.0, -2.0), (np.array(4.0), 2.0)):
        got = nl.sign_power(0.5).evaluate(y)
        assert type(got) is float and got == expected
    # and to the same bits as the array path
    grid = np.random.default_rng(0).standard_normal(2000)
    for fn, method in ((nl.sign_power(0.4), "evaluate"),
                       (nl.sign_power(0.4), "evaluate_inverse"),
                       (nl.sin_plus_sign_power(4.0, 0.6), "evaluate")):
        apply = getattr(fn, method)
        assert np.array_equal([apply(float(v)) for v in grid], apply(grid))


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
    assert set(_REFERENCE) == set(nl._KERNELS)
    y = np.random.default_rng(8).standard_normal((40, 7)) * 3.0
    y[0, :3] = (0.0, -0.0, 1.0)
    expected = _REFERENCE[fn.kind](y, *fn.params)
    out = np.full_like(y, np.nan)
    assert nl._KERNELS[fn.kind][0](*fn.params)(y, out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(fn.evaluate(y).view(np.uint64),
                          expected.view(np.uint64))


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
    y = np.random.default_rng(9).uniform(-0.99, 0.99, (40, 7))
    y[0, :2] = (0.0, -0.0)
    if fn.kind == "tanh_shifted":
        y += fn.params[0]
    expected = _INVERSE_REFERENCE[fn.kind](y, *fn.params)
    out = np.full_like(y, np.nan)
    assert nl._KERNELS[fn.kind][1](*fn.params)(y, out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(fn.evaluate_inverse(y).view(np.uint64),
                          expected.view(np.uint64))


def test_tanh_at_origin():
    assert nl.tanh().evaluate(0.0) == 0.0


def test_sin_plus_sign_power_at_origin():
    assert nl.sin_plus_sign_power(4.0, 0.6).evaluate(0.0) == 0.0


def test_sign_power_inverse_value():
    for y in (2.0, np.array(2.0)):
        got = nl.sign_power(0.5).evaluate_inverse(y)
        assert type(got) is float and got == 4.0


def test_tanh_inverse_value():
    got = nl.tanh().evaluate_inverse(0.5)
    assert math.isclose(got, math.atanh(0.5), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got, 0.549306, rel_tol=0, abs_tol=1e-6)


def test_tanh_inverse_domain_error_at_boundary():
    with pytest.raises(FunctionDomainError):
        nl.tanh().evaluate_inverse(1.0)
    with pytest.raises(FunctionDomainError):
        nl.tanh_shifted(2.0).evaluate_inverse(3.0)


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
    back = np.array([fn.evaluate_inverse(fn.evaluate(y)) for y in grid])
    assert np.abs(back - grid).max() <= 1e-10


def test_identity_returns_a_new_array():
    # writing to a result must never write into the caller's input
    y = np.linspace(-2.0, 2.0, 9)
    for out in (nl.identity().evaluate(y), nl.identity().evaluate_inverse(y)):
        assert np.array_equal(out, y)
        assert not np.shares_memory(out, y)


def test_limiter_clamps():
    f = nl.limiter(-1.0, 1.0)
    assert f.evaluate(0.3) == 0.3
    assert f.evaluate(5.0) == 1.0
    assert f.evaluate(-2.0) == -1.0


def test_constant_one_is_flat():
    f = nl.constant_one()
    for y in (-3.0, 0.0, 10.0):
        assert f.evaluate(y) == 1.0


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
    assert f.evaluate(3.0) == 3.0  # behavior unchanged
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
        assert np.array_equal(
            np.array([back.evaluate(y) for y in grid]),
            np.array([f.evaluate(y) for y in grid]),
        )


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
    assert f.evaluate(-y) == -f.evaluate(y)


@settings(deadline=None, max_examples=40)
@given(y=st.floats(min_value=-1e6, max_value=1e6))
def test_limiter_range(y):
    out = nl.limiter(-1.0, 1.0).evaluate(y)
    assert -1.0 <= out <= 1.0

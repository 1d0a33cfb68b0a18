import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (LogBump, LogGaussian, ParityFunction, apply_J,
                       gaussian_even, gaussian_odd, scale)

positive = st.floats(min_value=0.05, max_value=20.0)


def test_loggaussian_pointwise():
    f = LogGaussian(amplitude=2.0, center=0.5, width=1.5)
    for x in (0.1, 1.0, 3.7):
        expect = 2.0 * math.exp(-((math.log(x) - 0.5) ** 2) / (2 * 1.5**2))
        assert f(x) == pytest.approx(expect, rel=1e-15)


def test_loggaussian_closed_mellin_oracle():
    # independent quadrature oracle value at s = 2+3i, 18 digits
    f = LogGaussian(1.0, 0.0, 1.0)
    val = f.mellin_closed(complex(2, 3))
    assert val == pytest.approx(
        complex(0.19756135293330209, -0.0574915768819384821), abs=1e-16)


def test_loggaussian_validation():
    with pytest.raises(ValueError):
        LogGaussian(1.0, 0.0, -1.0)


def test_logbump_support_and_smoothness():
    f = LogBump(amplitude=1.0, lo=0.5, hi=2.0)
    assert f(0.4999) == 0.0
    assert f(2.0001) == 0.0
    assert f(1.0) > 0.0
    # vanishing to all orders at the edges: still tiny just inside
    assert f(0.5 * 1.0001) < 1e-300 or f(0.5 * 1.0001) >= 0.0
    lo, hi = f.support()
    assert (lo, hi) == (0.5, 2.0)


def test_logbump_validation():
    with pytest.raises(ValueError):
        LogBump(1.0, 2.0, 0.5)


@given(t=positive, x=positive)
@settings(max_examples=50, deadline=None)
def test_scale_composition(t, x):
    f = LogGaussian(1.0, 0.0, 1.0)
    assert scale(scale(f, t), 1.0 / t)(x) == pytest.approx(f(x), rel=1e-12)


@given(x=positive)
@settings(max_examples=50, deadline=None)
def test_apply_J_involution(x):
    f = LogGaussian(1.0, 0.3, 0.8)
    assert apply_J(apply_J(f))(x) == pytest.approx(f(x), rel=1e-12)
    assert apply_J(f)(x) == pytest.approx(f(1.0 / x) / x, rel=1e-12)


@given(t=positive)
@settings(max_examples=50, deadline=None)
def test_scale_logbump_is_logbump(t):
    f = LogBump(2.0, 0.5, 3.0, 0.7)
    g = scale(f, t)
    assert isinstance(g, LogBump)
    assert g.support() == pytest.approx((0.5 * t, 3.0 * t), rel=1e-15)
    # Near the support edges the exponent -shape / ((u - A)(B - u))
    # amplifies the rounding of ln(t lo) against ln(x / t), hence atol.
    x = t * np.linspace(0.45, 3.2, 57)
    np.testing.assert_allclose(g(x), f(x / t), rtol=1e-12, atol=1e-14)


def test_apply_J_needs_log_gaussian():
    with pytest.raises(TypeError):
        apply_J(LogBump(1.0, 0.5, 2.0))


# ---------------------------------------------------------------------------
# parity functions
# ---------------------------------------------------------------------------

def test_parity_validation():
    with pytest.raises(ValueError):
        ParityFunction(+1, ((1.0, 1, 1.0),))   # odd degree, even parity
    with pytest.raises(ValueError):
        ParityFunction(-1, ((1.0, 2, 1.0),))
    with pytest.raises(ValueError):
        ParityFunction(+1, ((1.0, 0, -1.0),))  # bad gaussian scale


def test_gauss2_values():
    g = gaussian_even()
    assert g(0.0) == pytest.approx(2.0)
    assert g(1.0) == pytest.approx(2.0 * math.exp(-math.pi), rel=1e-15)
    assert g.at_zero() == 2.0


def test_parity_symmetry():
    g_even, g_odd = gaussian_even(), gaussian_odd()
    x = np.linspace(-3, 3, 41)
    np.testing.assert_allclose(g_even(x), g_even(-x), atol=0)
    np.testing.assert_allclose(g_odd(x), -g_odd(-x), atol=0)


@given(t=st.floats(min_value=0.1, max_value=10.0),
       x=st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_parity_dilate(t, x):
    f = ParityFunction(+1, ((1.0, 2, 1.0), (0.5, 0, 2.0)))
    assert complex(f.dilate(t)(x)) == pytest.approx(
        complex(f(x / t)), abs=1e-12)

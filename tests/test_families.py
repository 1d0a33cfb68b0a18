import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (LogBump, LogGaussian, ParityFunction, apply_J,
                       find_zeros, gaussian_even, gaussian_odd, scale)

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
    lo, hi = f.lo, f.hi
    assert (lo, hi) == (0.5, 2.0)


def test_logbump_validation():
    with pytest.raises(ValueError):
        LogBump(1.0, 2.0, 0.5)


@pytest.mark.parametrize("make", [
    lambda: LogGaussian(math.inf, 0.0, 1.0),
    lambda: LogGaussian(1.0, math.nan, 1.0),
    lambda: LogGaussian(1.0, 0.0, math.inf),
    # 2 sigma^2 underflows to 0 and divides the exponent
    lambda: LogGaussian(1.0, 0.0, 1e-300),
    lambda: LogBump(math.nan, 0.5, 2.0),
    lambda: LogBump(1.0, 0.5, math.inf),
    lambda: LogBump(1.0, 0.5, 2.0, math.inf),
])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


_OF_LOG_FUNCTIONS = [
    LogGaussian(1.0, 0.0, 1.0), LogGaussian(2.0, -1.0, 0.5),
    LogGaussian(1.0, 0.3, 0.15), LogGaussian(1.0, -0.2, 0.008),
    LogBump(1.0, 0.5, 2.0), LogBump(3.0, 0.7, 1.5, 0.5),
]


def _of_log_exact(mpmath, f, u: float) -> float:
    """f(e^u) at the double u, to 30 digits."""
    with mpmath.workdps(30):
        u = mpmath.mpf(u)
        if isinstance(f, LogGaussian):
            e = -(u - f.center) ** 2 / (2 * mpmath.mpf(f.width) ** 2)
        else:
            a, b = mpmath.log(f.lo), mpmath.log(f.hi)
            if not a < u < b:
                return 0.0
            e = -f.shape / ((u - a) * (b - u))
        return float(f.amplitude * mpmath.exp(e))


def _of_log_grid(f):
    """u in [-40, 40], with the peak and, for a bump, its support edges
    and points just inside and outside them."""
    extra = [f.center, f.center + f.width] if isinstance(f, LogGaussian) \
        else [e + d for e in map(math.log, (f.lo, f.hi))
              for d in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    return np.sort(np.concatenate((np.linspace(-40.0, 40.0, 1601), extra)))


@pytest.mark.parametrize("f", _OF_LOG_FUNCTIONS)
def test_of_log_matches_exact_and_call(f):
    mpmath = pytest.importorskip("mpmath")
    u = _of_log_grid(f)
    got = f.of_log(u)
    exact = np.array([_of_log_exact(mpmath, f, t) for t in u])
    peak = np.max(np.abs(exact))
    assert np.max(np.abs(got - exact)) <= 1e-15 * peak
    # outside a bump's support, edges included, the values are exact 0s
    assert np.array_equal(got[exact == 0.0], exact[exact == 0.0])
    # f(x) is of_log(ln x); through x = e^u it also sees ln(e^u) != u,
    # which costs a sigma = 0.008 log-Gaussian about 7e-15 of its peak
    call = f(np.exp(u))
    slack = 1e-15 if isinstance(f, LogBump) or f.width >= 0.15 \
        else 1e-14
    assert np.max(np.abs(call - got)) <= slack * peak
    # a scalar u gives a scalar, the same value as the array path
    mid = float(u[np.argmax(np.abs(exact))])
    assert np.ndim(f.of_log(mid)) == 0
    assert float(f.of_log(mid)) == f.of_log(np.array([mid]))[0]


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
    assert (g.lo, g.hi) == pytest.approx((0.5 * t, 3.0 * t), rel=1e-15)
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


# ---------------------------------------------------------------------------
# stated decay: each bound a family states is a bound
# ---------------------------------------------------------------------------

_LATTICE_FAMILIES = (
    (LogGaussian(2.0, 0.4, 0.7), math.exp(0.4 + 16 * 0.7)),
    (LogGaussian(1.0, -1.0, 0.3), math.exp(-1.0 + 16 * 0.3)),
    (LogBump(3.0, 0.7, 1.5, 0.5), 1.5),
    (gaussian_even(), 20.0), (gaussian_odd(), 20.0),
    (ParityFunction(+1, ((1.0, 0, 1.0), (-0.5, 2, 0.7), (0.3j, 4, 2.0))),
     20.0),
)
# each f is below 1e-50 of its peak past its end: the brute-force sums
# stop there
_LATTICE_XS = np.exp(np.linspace(math.log(0.05), math.log(20.0), 25))


@pytest.mark.parametrize("f, end", _LATTICE_FAMILIES,
                         ids=("lg", "lg-narrow", "lb", "gauss2", "xgauss2",
                              "mixed"))
def test_lattice_tail_bounds_the_brute_force_tail(f, end):
    # lattice_tail(x, n) >= sum_{m >= n} |f(m x)| at the n of the ladder's
    # first three probes, and it does not grow with n or with x
    previous = None
    for x in _LATTICE_XS:
        x = float(x)
        start = f.lattice_start(x)
        probes = (start + 1, 2 * start + 1, 4 * start + 1)
        m = np.arange(1, max(probes[-1], math.ceil(end / x)) + 1)
        # reversed cumulative sum: tails[n - 1] = sum_{m >= n} |f(m x)|
        tails = np.cumsum(np.abs(f(m * x))[::-1])[::-1]
        bounds = [f.lattice_tail(x, n) for n in probes]
        for n, bound in zip(probes, bounds):
            assert bound >= tails[n - 1]
        assert bounds[0] >= bounds[1] >= bounds[2]
        if previous is not None:
            assert all(f.lattice_tail(x, n) <= bound
                       for n, bound in zip(*previous))
        previous = probes, bounds


@pytest.fixture(scope="module")
def zeros120():
    return find_zeros(120.0)


@pytest.mark.parametrize("sigma", [0.08, 0.1, 0.12, 0.15, 0.2])
@pytest.mark.parametrize("mu", [-1.0, 0.3, 2.0])
def test_zero_tail_bounds_the_zeros_above_the_height(mu, sigma, zeros120):
    # zero_tail(60) against the table's zeros 60 < gamma <= 120
    f = LogGaussian(1.0, mu, sigma)
    gamma = np.asarray(zeros120.ordinates)
    above = gamma[gamma > 60.0]
    want = 2.0 * np.sum(np.abs(f.mellin_closed(0.5 + 1j * above)))
    assert f.zero_tail(60.0) >= want > 0.0


def test_log_bump_states_no_zero_tail():
    assert LogBump(1.0, 0.5, 2.0).zero_tail(60.0) is None

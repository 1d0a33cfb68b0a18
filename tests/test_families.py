import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (LogGaussian, LogSpline, ParityFunction, WindowError,
                       apply_J, find_zeros, gaussian_even, gaussian_odd,
                       scale)

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


def test_logspline_support_and_smoothness():
    f = LogSpline(amplitude=1.0, lo=0.5, hi=2.0)
    assert f(0.4999) == 0.0
    assert f(2.0001) == 0.0
    assert f(1.0) > 0.0
    # B_8 vanishes to order 7 at the edges: (t h)^7 / 7! just inside
    t = 1e-4 / f.log_scale()
    assert 0.0 < f(0.5 * math.exp(1e-4)) <= 1.01 * t ** 7 / math.factorial(7)
    lo, hi = f.lo, f.hi
    assert (lo, hi) == (0.5, 2.0)


@pytest.mark.parametrize("args", [
    (1.0, 2.0, 0.5), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0),
    # order: an integer from 3 to 12
    (1.0, 0.5, 2.0, 2), (1.0, 0.5, 2.0, 13), (1.0, 0.5, 2.0, 7.5),
    # ln lo == ln hi in floats, so the knot width is 0
    (1.0, 1e10, 1e10 * (1.0 + 2.0 ** -52), 8),
])
def test_logspline_validation(args):
    with pytest.raises(ValueError):
        LogSpline(*args)


@pytest.mark.parametrize("make", [
    lambda: LogGaussian(math.inf, 0.0, 1.0),
    lambda: LogGaussian(1.0, math.nan, 1.0),
    lambda: LogGaussian(1.0, 0.0, math.inf),
    # 2 sigma^2 underflows to 0 and divides the exponent
    lambda: LogGaussian(1.0, 0.0, 1e-300),
    lambda: LogSpline(math.nan, 0.5, 2.0),
    lambda: LogSpline(1.0, 0.5, math.inf),
    lambda: LogSpline(1.0, 0.5, 2.0, math.inf),
    # sigma^2 overflows
    lambda: LogGaussian(1.0, 0.0, 1e308),
])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


_OF_LOG_FUNCTIONS = [
    LogGaussian(1.0, 0.0, 1.0), LogGaussian(2.0, -1.0, 0.5),
    LogGaussian(1.0, 0.3, 0.15), LogGaussian(1.0, -0.2, 0.008),
    LogSpline(1.0, 0.5, 2.0), LogSpline(3.0, 0.7, 1.5, 5),
]


def _of_log_exact(mpmath, f, u: float) -> float:
    """f(e^u) at the double u, to 30 digits."""
    with mpmath.workdps(30):
        u = mpmath.mpf(u)
        if isinstance(f, LogGaussian):
            e = -(u - f.center) ** 2 / (2 * mpmath.mpf(f.width) ** 2)
        else:
            return float(f.amplitude * _b_spline_exact(mpmath, f, u))
        return float(f.amplitude * mpmath.exp(e))


def _b_spline_exact(mpmath, f, u):
    """B_K((u - c) / h) as the truncated-power sum at the working
    precision, with c and h rounded to doubles as f rounds them."""
    k = f.order
    x = (u - mpmath.mpf(f._centre())) / mpmath.mpf(f.log_scale()) + k / 2
    return sum((-1) ** j * mpmath.binomial(k, j)
               * max(x - j, 0) ** (k - 1) for j in range(k + 1)) \
        / mpmath.factorial(k - 1)


def _of_log_grid(f):
    """u in [-40, 40], with the peak and, for a spline, its support
    edges and points just inside and outside them."""
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
    # outside a spline's support, edges included, the values are exact 0s
    assert np.array_equal(got[exact == 0.0], exact[exact == 0.0])
    # f(x) is of_log(ln x); through x = e^u it also sees ln(e^u) != u,
    # which costs a sigma = 0.008 log-Gaussian about 7e-15 of its peak
    call = f(np.exp(u))
    slack = 1e-15 if isinstance(f, LogSpline) or f.width >= 0.15 \
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
def test_scale_logspline_is_logspline(t):
    f = LogSpline(2.0, 0.5, 3.0, 7)
    g = scale(f, t)
    assert isinstance(g, LogSpline)
    assert (g.lo, g.hi) == pytest.approx((0.5 * t, 3.0 * t), rel=1e-15)
    assert g.order == f.order
    # Near the support edges a value is a small power of the distance
    # to the edge, which amplifies the rounding of ln(t lo) against
    # ln(x / t), hence atol.
    x = t * np.linspace(0.45, 3.2, 57)
    np.testing.assert_allclose(g(x), f(x / t), rtol=1e-12, atol=1e-14)


def test_apply_J_needs_log_gaussian():
    with pytest.raises(TypeError):
        apply_J(LogSpline(1.0, 0.5, 2.0))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_parity_function_underflows_to_zero_far_out(degree):
    # past |x| ~ 1e154, x^2 overflows and e^{-pi x^2} is 0: a degree-2
    # term read inf * 0 = NaN, with an overflow warning
    f = ParityFunction(1 - 2 * (degree % 2), ((2.0, degree, 1.0),))
    x = np.array([1e300, -1e300, 1e160, 0.5])
    got = f(x)
    assert np.all(got[:3] == 0.0) and f(1e300) == 0.0
    assert got[3] == pytest.approx(2.0 * 0.5 ** degree
                                   * math.exp(-0.25 * math.pi), rel=1e-15)


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
    (LogSpline(3.0, 0.7, 1.5, 5), 1.5),
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


_ZERO_TAIL_PARAMS = [(mu, sigma) for mu in (-1.0, 0.3, 2.0)
                     for sigma in (0.08, 0.1, 0.12, 0.15, 0.2)]
_ZERO_TAIL_SPLINES = [(1.0, 0.5, 2.0, 8), (1.0, 0.7, 1.5, 6),
                      (2.0, 0.2, 3.0, 3), (1.0, 0.9, 1.1, 12)]


@pytest.mark.parametrize(
    "f", [LogGaussian(1.0, mu, sigma) for mu, sigma in _ZERO_TAIL_PARAMS]
    + [LogSpline(*p) for p in _ZERO_TAIL_SPLINES],
    ids=[f"{mu}-{sigma}" for mu, sigma in _ZERO_TAIL_PARAMS]
    + ["spline-" + "-".join(map(str, p)) for p in _ZERO_TAIL_SPLINES])
def test_zero_tail_bounds_the_zeros_above_the_height(f, zeros120):
    # zero_tail(60) against the table's zeros 60 < gamma <= 120
    gamma = np.asarray(zeros120.ordinates)
    above = gamma[gamma > 60.0]
    want = 2.0 * np.sum(np.abs(f.mellin_closed(0.5 + 1j * above)))
    assert f.zero_tail(60.0) >= want > 0.0


@pytest.mark.parametrize("order", range(3, 13))
def test_logspline_values_are_the_truncated_power_sum(order):
    # B_K by de Boor's recurrence against the exact sum over all K + 1
    # truncated powers
    mpmath = pytest.importorskip("mpmath")
    f = LogSpline(1.0, 0.5, 2.0, order)
    u = np.linspace(math.log(0.5) - 0.01, math.log(2.0) + 0.01, 301)
    with mpmath.workdps(40):
        exact = np.array([float(_b_spline_exact(mpmath, f, mpmath.mpf(t)))
                          for t in u])
    peak = np.max(exact)
    assert np.max(np.abs(f.of_log(u) - exact)) <= 1e-15 * peak
    assert peak == pytest.approx(f._peak(), rel=1e-14)
    # unit integral: M f(0) = h
    assert float(np.trapezoid(exact, u)) == pytest.approx(
        f.log_scale(), rel=1e-6)


@pytest.mark.parametrize("f, s, rel", [
    (LogSpline(1.0, 0.5, 2.0, 8), complex(0.5, 7.0), 4e-15),
    # sh/2 lies 0.32 from i pi, where sinh(sh/2) amplifies the rounding
    # of its argument
    (LogSpline(1.0, 0.5, 2.0, 8), complex(0.5, 40.0), 2e-14),
    (LogSpline(2.0, 0.7, 3.0, 3), complex(0.5, 7.0), 2e-15),
    (LogSpline(1.0, 0.2, 1.5, 12), complex(2.0, -3.0), 6e-15),
    (LogSpline(1.0, 0.5, 2.0, 8), 0.0, 1e-16),
])
def test_logspline_mellin_closed_form_against_quadrature(f, s, rel):
    # a h e^{sc} (sinh(sh/2) / (sh/2))^K against mpmath's quadrature of
    # f(e^u) e^{su} over the knot intervals; the K-th power of
    # sinh(z) / z, itself a few ulp off, sets the error
    mpmath = pytest.importorskip("mpmath")
    c, h, k = f._centre(), f.log_scale(), f.order
    knots = [c + (j - k / 2) * h for j in range(k + 1)]
    with mpmath.workdps(20):
        want = complex(mpmath.quad(
            lambda u: f.amplitude * _b_spline_exact(mpmath, f, u)
            * mpmath.exp(s * u), knots))
    assert abs(complex(f.mellin_closed(s)) - want) <= rel * abs(want)


@pytest.mark.parametrize("f", [LogSpline(1.0, 0.5, 2.0, 8),
                               LogSpline(1.0, 0.7, 1.5, 3),
                               LogSpline(-3.0, 2.0, 9.0, 12)])
def test_logspline_envelope_bounds_the_critical_line(f):
    # |M f(1/2 + it)| <= |a| h e^{c/2} (2 cosh(h/4) / (h |s|))^K
    t = np.concatenate((np.linspace(0.1, 100.0, 20001),
                        np.exp(np.linspace(math.log(100.0), 25.0, 2001))))
    got = np.abs(f.mellin_closed(0.5 + 1j * t))
    bound = np.array([f._envelope(abs(complex(0.5, x))) for x in t])
    assert np.all(got <= bound * (1.0 + 1e-12))


_DECAYING = [LogGaussian(1.0, 0.3, 0.9), LogGaussian(-2.0, -1.0, 0.15),
             LogSpline(1.0, 0.5, 2.0, 8), LogSpline(1.0, 0.7, 1.5, 3),
             LogSpline(-3.0, 2.0, 9.0, 12), LogSpline(1.0, 0.9, 1.1, 6)]


@pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-18])
@pytest.mark.parametrize("f", _DECAYING)
def test_visible_height_bounds_the_critical_line(f, eps):
    # |M f(1/2 + i r)| < eps |M f(1/2)| for every r above the height
    top = f.visible_height(eps)
    r = top * np.concatenate((np.linspace(1.0, 10.0, 40001),
                              np.exp(np.linspace(math.log(10.0), 12.0, 2001))))
    got = np.abs(f.mellin_closed(0.5 + 1j * r))
    assert np.all(got <= eps * abs(f.mellin_closed(0.5)) * (1.0 + 1e-12))


@pytest.mark.parametrize("eps", [1e-6, 1e-18])
@pytest.mark.parametrize("f", _DECAYING[:2])
def test_visible_height_is_exact_for_log_gaussians(f, eps):
    # negative control: at 0.9 of the height, |M f| = eps^0.81 |M f(1/2)|
    r = 0.9 * f.visible_height(eps) * np.linspace(0.99, 1.0, 11)
    got = np.abs(f.mellin_closed(0.5 + 1j * r))
    assert np.any(got > eps * abs(f.mellin_closed(0.5)))


def test_logspline_mellin_overflow_is_a_window_error():
    with pytest.raises(WindowError):
        LogSpline(1e300, 1e200, 1e300, 8).mellin_closed(1.0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (LogGaussian, LogSpline, ParityFunction, WindowError,
                       apply_J, fourier, gaussian_even, gaussian_odd,
                       haar_real_cross, mellin, pair_log_fourier,
                       DivergentIntegralError)
from weiltrace.grids import trapezoid, trapezoid_with_coarse

GRID = np.linspace(-4.0, 4.0, 81)

even_funcs = st.builds(
    ParityFunction,
    st.just(+1),
    st.lists(st.tuples(st.floats(-3, 3), st.sampled_from([0, 2, 4]),
                       st.floats(0.3, 3.0)),
             min_size=1, max_size=3).map(tuple))


def test_gauss2_fourier_fixed_point():
    g = gaussian_even()
    gh = fourier(g)
    assert np.max(np.abs(np.asarray(gh(GRID)) - g(GRID))) < 1e-12


def test_fourier_involution_even_odd():
    f_even = ParityFunction(+1, ((1.3, 2, 0.7), (0.4, 0, 2.0)))
    f_odd = ParityFunction(-1, ((0.9, 1, 1.2), (-0.2, 3, 0.6)))
    for f, sign in ((f_even, +1), (f_odd, -1)):
        ff = fourier(fourier(f))
        assert np.max(np.abs(np.asarray(ff(GRID))
                             - sign * np.asarray(f(GRID)))) < 1e-12


def fourier_quadrature(f, y) -> complex:
    """Oracle: (F f)(y) by trapezoid quadrature on [-12, 12].

    f must decay to negligible size by |x| = 12.  Slow but independent
    of the symbolic route.
    """
    x, h = np.linspace(-12.0, 12.0, 8193, retstep=True)
    vals = np.asarray(f(x), dtype=complex) * np.exp(2j * math.pi * x * y)
    return complex(trapezoid(vals, h))


@given(f=even_funcs, y=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_fourier_matches_quadrature(f, y):
    assert complex(fourier(f)(y)) == pytest.approx(
        fourier_quadrature(f, y), abs=1e-9)


def test_plancherel():
    f = ParityFunction(+1, ((1.0, 2, 1.0), (0.5, 0, 0.8)))
    fh = fourier(f)
    x = np.linspace(-12, 12, 20001)
    lhs = np.trapezoid(np.abs(np.asarray(f(x))) ** 2, x)
    rhs = np.trapezoid(np.abs(np.asarray(fh(x))) ** 2, x)
    assert abs(lhs - rhs) < 1e-10


def test_mellin_loggaussian_closed_form():
    f = LogGaussian(1.0, 0.0, 1.0)
    for s in (0.5, complex(2, 3), complex(0.5, 14)):
        mv = mellin(f, s)
        assert mv.value == pytest.approx(f.mellin_closed(s), abs=1e-12)
        assert abs(mv.value - f.mellin_closed(s)) <= max(
            4.0 * mv.est_error, 1e-12)


def test_mellin_j_reflection():
    f = LogGaussian(1.0, 0.3, 0.9)
    s = complex(0.7, 2.0)
    assert mellin(apply_J(f), s).value == pytest.approx(
        mellin(f, 1.0 - s).value, abs=1e-11)


def _exact_mellin(f, s) -> complex:
    """M f(s) from f's parameters at 40 digits with mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s, a = mp.mpc(s.real, s.imag), mp.mpf(f.amplitude)
        if isinstance(f, LogGaussian):
            mu, sig = mp.mpf(f.center), mp.mpf(f.width)
            return complex(a * mp.sqrt(2 * mp.pi) * sig
                           * mp.exp(s * mu + (sig * s) ** 2 / 2))
        lo, hi = mp.log(mp.mpf(f.lo)), mp.log(mp.mpf(f.hi))
        h, z = (hi - lo) / f.order, s * (hi - lo) / (2 * f.order)
        return complex(a * h * mp.exp(s * (lo + hi) / 2)
                       * (mp.sinh(z) / z) ** f.order)


def _seeded_points(rng, n=400, near_zeros=150):
    """n points (f, s) of each half-line family, -5 <= Re s <= 5 and
    |Im s| <= 1000, where the value is a normal float; for the splines
    the first near_zeros have z = sh/2 within 1e-3 of a zero i pi k of
    sinh, where z coth z is large."""
    for _ in range(n):
        sig = 10.0 ** rng.uniform(-2.0, 0.5)
        f = LogGaussian(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2),
                        rng.uniform(-5.0, 5.0), sig)
        # Re E >= -25 - 450: no underflow
        yield f, complex(rng.uniform(-5.0, 5.0),
                         rng.uniform(-1.0, 1.0) * min(1e3, 30.0 / sig))
    for i in range(n):
        lo = 10.0 ** rng.uniform(-3.0, 1.0)
        f = LogSpline(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2),
                      lo, lo * 10.0 ** rng.uniform(0.05, 2.0),
                      int(rng.integers(3, 13)))
        h = f.log_scale()
        if i < near_zeros:
            k = int(rng.integers(1, max(1e3 * h / (2.0 * math.pi), 1) + 1))
            z = 1j * math.pi * k * rng.choice([-1, 1]) + complex(
                *rng.uniform(-7e-4, 7e-4, 2))
            yield f, 2.0 * z / h
        else:
            yield f, complex(rng.uniform(-5.0, 5.0), rng.uniform(-1e3, 1e3))


def test_mellin_rounding_bound_covers_the_error():
    # est_error is each family's rounding bound, derived, not fitted: it
    # covers the error against mpmath at every point, and on each
    # family's worst point it is within 100x of the error
    worst = {LogGaussian: 0.0, LogSpline: 0.0}
    for f, s in _seeded_points(np.random.default_rng(35)):
        mv = mellin(f, s)
        err = abs(mv.value - _exact_mellin(f, s))
        assert err <= mv.est_error, (f, s, err, mv.est_error)
        worst[type(f)] = max(worst[type(f)], err / mv.est_error)
    assert min(worst.values()) >= 0.01, worst


@pytest.mark.parametrize("f, s", [
    # the u-window quadrature was 1.67e-15 off a value of 1.2e-43, and
    # its estimate 1.3e-16
    (LogGaussian(1.0, 0.0, 1.0), complex(0.5, 14.134725)),
    # and 0.16 % off here
    (LogSpline(1.0, 0.5, 2.0, 8), complex(0.5, 40.0)),
])
def test_mellin_is_the_closed_form_within_its_bound(f, s):
    mv = mellin(f, s)
    assert mv.value == complex(f.mellin_closed(s))
    assert abs(mv.value - _exact_mellin(f, s)) <= mv.est_error
    assert mv.est_error <= 1e-12 * abs(mv.value)


def test_even_point_count_rejected():
    with pytest.raises(ValueError):
        trapezoid_with_coarse(np.ones(10), 0.1)
    with pytest.raises(ValueError):
        pair_log_fourier(gaussian_even(), n_points=4000)


def test_mellin_parity_gauss2():
    # integral_0^inf 2 e^{-pi x^2} x^{s-1} dx = pi^{-s/2} Gamma(s/2)
    g = gaussian_even()
    for s in (2.0, complex(1.0, 3.0)):
        import cmath
        from weiltrace import gamma
        expect = math.pi ** (-s.real / 2) * gamma(s / 2) if isinstance(
            s, float) else cmath.exp(-s / 2 * cmath.log(math.pi)) * gamma(
                s / 2)
        assert mellin(g, s).value == pytest.approx(expect, abs=1e-12)


def test_mellin_parity_divergence():
    with pytest.raises(DivergentIntegralError):
        mellin(gaussian_even(), 0.0)


@pytest.mark.parametrize("s", [complex(0.5, 14.134725), complex(3.0, -2.0)])
def test_mellin_parity_against_quadrature(s):
    # the Gamma closed form, term by term, against mpmath's quadrature;
    # est_error is Gamma's stated 1e-13 of the terms' moduli
    mpmath = pytest.importorskip("mpmath")
    f = ParityFunction(+1, ((1.0, 0, 1.0), (-0.5, 2, 0.7), (0.3j, 4, 2.0)))
    with mpmath.workdps(20):
        # in u = ln x, split into unit intervals up to x = e^2
        want = complex(mpmath.quad(
            lambda u: sum(c * mpmath.exp(k * u - a * mpmath.pi
                                         * mpmath.exp(2 * u))
                          for c, k, a in f.terms) * mpmath.exp(s * u),
            list(range(-80, 3))))
    got = mellin(f, s)
    assert abs(got.value - want) <= got.est_error
    assert got.est_error <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("s", [1e300, 1e5, complex(1e5, 1e5)])
@pytest.mark.filterwarnings("error")
def test_mellin_parity_overflow_is_a_window_error(s):
    with pytest.raises(WindowError):
        mellin(gaussian_odd(), s)


@pytest.mark.filterwarnings("error")
def test_mellin_parity_underflows_to_zero_high_on_the_line():
    # |Gamma(1/4 + 500i)| ~ e^{-785} underflows; Gamma by reflection
    # would be 0 times infinity there
    for s in (complex(0.5, 1e3), complex(0.5, -1e300)):
        assert mellin(gaussian_even(), s).value == 0.0
    # s = 400 is finite, though Gamma(200) alone overflows
    assert math.isfinite(mellin(gaussian_even(), 400.0).value.real)


def test_pair_log_fourier_known_values():
    # <F(ln|x|), psi> for psi = 2exp(-pi x^2): equals -(gamma + ln 4pi)/2
    # per the classical Gaussian log-moment; frozen from the identity
    # integral ln|x| 2e^{-pi x^2} dx = -(gamma + ln 4pi)/2 ... value below
    # is the quadrature oracle.
    val, est = pair_log_fourier(gaussian_even())
    expect = -(0.5772156649015328606 + math.log(4 * math.pi))
    assert val == pytest.approx(expect, abs=1e-8)
    assert est < 1e-8
    # psi = y^2 exp(-pi y^2): pairing equals -1/(2 pi)
    psi = ParityFunction(+1, ((1.0, 2, 1.0),))
    assert pair_log_fourier(psi)[0] == pytest.approx(-1.0 / (2 * math.pi),
                                                     abs=1e-8)


def test_pair_log_fourier_odd_is_zero():
    assert pair_log_fourier(gaussian_odd()) == (0.0, 0.0)


def test_duality_on_vanishing_at_zero():
    # psi(0) = 0: <F(ln), psi> = -(1/2) integral psi(y)/|y| dy
    psi = ParityFunction(+1, ((1.0, 2, 1.0), (-0.5, 4, 2.0)))
    assert psi.at_zero() == 0.0
    assert pair_log_fourier(psi)[0] == pytest.approx(-haar_real_cross(psi),
                                                     abs=1e-7)


def test_haar_real_cross_oracle():
    # (1/2) integral x^2 e^{-pi x^2} / |x| dx = integral_0^inf x e^{-pi x^2}
    # = 1/(2 pi)
    psi = ParityFunction(+1, ((1.0, 2, 1.0),))
    assert haar_real_cross(psi) == pytest.approx(1.0 / (2 * math.pi),
                                                 abs=1e-10)

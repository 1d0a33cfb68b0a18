import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (LogGaussian, ParityFunction, WindowError, apply_J,
                       fourier, fourier_quadrature, gaussian_even,
                       gaussian_odd, haar_real_cross, mellin, mellin_parity,
                       pair_log_fourier, DivergentIntegralError,
                       QuadratureSpec)
from weiltrace.grids import trapezoid_with_coarse
from weiltrace.transforms import mellin_critical_line

LOG_GAUSSIANS = (LogGaussian(1.0, 0.3, 0.9), LogGaussian(1.0, 0.0, 1.0),
                 LogGaussian(2.0, -0.5, 0.6))

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


def test_mellin_uses_the_exact_step():
    # a step recomputed as u[1] - u[0] is off by ~3e-15, a relative
    # error of ~1.6e-13 in every value
    for f in LOG_GAUSSIANS:
        for s in (0.0, 1.0, 2.0, complex(0.5, 3.0)):
            want = f.mellin_closed(s)
            assert abs(mellin(f, s).value - want) <= 1e-14 * abs(want)


def test_mellin_critical_line_matches_closed_form():
    for f in LOG_GAUSSIANS:
        r, values, trunc = mellin_critical_line(f)
        assert r[0] == 0.0 and values.size % 2 == 1
        assert r[-1] == pytest.approx(math.pi / QuadratureSpec().u_grid()[1])
        assert type(trunc) is float and trunc < 1e-300
        want = f.mellin_closed(0.5 + 1j * r)
        assert np.max(np.abs(values - want)) < 1e-13


def test_mellin_critical_line_refines_for_narrow_functions():
    # sigma = 0.02: |M f| at the default grid's pi / h is ~1e-2 of its
    # peak; two halvings of the step bring it below 1e-13
    f = LogGaussian(1.0, 0.3, 0.02)
    r, values, _ = mellin_critical_line(f)
    assert r[-1] == pytest.approx(4.0 * math.pi
                                  / QuadratureSpec().u_grid()[1])
    assert abs(values[-1]) <= 1e-13 * np.max(np.abs(values))
    want = f.mellin_closed(0.5 + 1j * r)
    assert np.max(np.abs(values - want)) < 1e-13


def test_mellin_j_reflection():
    f = LogGaussian(1.0, 0.3, 0.9)
    s = complex(0.7, 2.0)
    assert mellin(apply_J(f), s).value == pytest.approx(
        mellin(f, 1.0 - s).value, abs=1e-11)


def test_mellin_window_error():
    f = LogGaussian(1.0, 0.0, 4.0)   # wide in log x
    with pytest.raises(WindowError):
        mellin(f, 3.0, QuadratureSpec(u_min=-5, u_max=5, n_points=201))


def test_mellin_estimate_is_the_half_grid_trapezoid():
    # the estimate taken from every other sample equals a separate pass
    # on the (n + 1) // 2-point grid of the same window, up to the
    # rounding of the spacing u[1] - u[0] that each pass computes
    f = LogGaussian(1.0, 0.3, 0.9)
    s = complex(0.5, 3.0)
    fine = mellin(f, s, QuadratureSpec(n_points=4001))
    coarse = mellin(f, s, QuadratureSpec(n_points=2001))
    assert abs(fine.est_error - abs(fine.value - coarse.value)) \
        <= 1e-12 * abs(coarse.value)


def test_even_point_count_rejected():
    with pytest.raises(ValueError):
        QuadratureSpec(n_points=4000)
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
        assert mellin_parity(g, s).value == pytest.approx(expect, abs=1e-12)


def test_mellin_parity_divergence():
    with pytest.raises(DivergentIntegralError):
        mellin_parity(gaussian_even(), 0.0)


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

import math

import numpy as np
import pytest

from weiltrace import (BudgetExceededError, DisagreementError, LogBump,
                       LogGaussian, TruncationSpec, W_infty, W_prime_total,
                       apply_J, archimedean_constant, digamma, find_zeros,
                       mellin, parse_function, primes_up_to, pv_regularised,
                       spectral_parts, verify_explicit_formula)
from weiltrace import explicit
from weiltrace.families import log_step
from weiltrace.grids import trapezoid
from weiltrace.stages import WORK
from weiltrace.transforms import mellin_critical_line

EULER_GAMMA = 0.5772156649015328606


def _wp_direct(f, p, e_max=60):
    # ln(p) sum_e [f(p^e) + f(p^-e) / p^e], the powers by Python's pow
    pe = np.array([float(p) ** e for e in range(1, e_max + 1)])
    return math.log(p) * math.fsum(f(pe) + f(1.0 / pe) / pe)


def test_W_prime_total_against_direct_sum():
    # the cut prime side against per-prime sums over every prime power
    for f in (LogGaussian(1.0, -0.5, 1.0), LogGaussian(1.0, -5.0, 1.0),
              LogGaussian(1.0, 0.3, 0.15), LogGaussian(2.0, 0.3, 0.012),
              parse_function("logbump(1,0.5,2,1)")):
        direct = math.fsum(_wp_direct(f, p)
                           for p in primes_up_to(TruncationSpec().p_max))
        value, _ = W_prime_total(f)
        assert abs(value - direct) < 1e-14


def test_prime_side_needs_every_prime(monkeypatch):
    # negative control: without p = 2 the formula no longer closes
    f = LogGaussian(1.0, 0.3, 0.15)
    zt = find_zeros(120.0)
    verify_explicit_formula(f, zt)
    monkeypatch.setattr(explicit, "primes_up_to",
                        lambda n: primes_up_to(n)[1:])
    with pytest.raises(BudgetExceededError):
        verify_explicit_formula(f, zt)


def _every_prime_power_sum(f, p_max=20000, e_max=60):
    # sum over every p <= p_max, e <= e_max with p^e <= 1e308, no cut
    p = np.asarray(primes_up_to(p_max), dtype=float)
    lp = np.log(p)
    terms = []
    for e in range(1, e_max + 1):
        n = p[lp * e <= 308.0 * math.log(10.0)] ** e
        terms.append(lp[:n.size] * (f(n) + f(1.0 / n) / n))
    return math.fsum(np.concatenate(terms))


@pytest.mark.parametrize("expr, e_max", [
    ("loggauss(1,0,1)", 60), ("loggauss(1,-5,1)", 60),
    ("loggauss(1,5,1)", 60), ("loggauss(1,0.3,0.15)", 60),
    ("loggauss(2,0.3,0.012)", 60), ("logbump(1,0.5,2,1)", 60),
    ("logbump(1,0.5,5000,1)", 60), ("loggauss(1,0,1)", 3)])
def test_W_prime_total_tail_honest(expr, e_max):
    # Every prime power W_prime_total leaves out (past its cut, past
    # p_max = 1000 or past e_max) is covered by the stated bound; the
    # last term allows for the rounding of the kept sum.
    f = parse_function(expr)
    small, bound = W_prime_total(f, TruncationSpec(p_max=1000, e_max=e_max))
    full = _every_prime_power_sum(f)
    assert abs(full - small) <= bound + 1e-15 * abs(full)
    if expr == "logbump(1,0.5,5000,1)":
        assert abs(full - small) > 1.0     # the support passes p_max
    if expr == "logbump(1,0.5,2,1)":
        assert bound == 0.0                # p_max covers the support


def test_W_prime_total_work_is_the_cut():
    # f is evaluated only where it can exceed 1e-20: 1,287 of the 73,740
    # prime powers p <= 1e4, e <= 60 for (1,0,1), 4 for (1,0.3,0.15),
    # none for (2,0.3,0.012), whose cut lies below ln 2
    for f, most in ((LogGaussian(1.0, 0.0, 1.0), 1300),
                    (LogGaussian(1.0, 0.3, 0.15), 10),
                    (LogGaussian(2.0, 0.3, 0.012), 0)):
        value, bound = W_prime_total(f)
        assert 0 <= WORK["prime_powers"] <= most
        assert WORK["primes"] == 1229
        assert bound < 1e-14
    assert value == 0.0
    with pytest.raises(TypeError):
        W_prime_total(lambda x: np.exp(-x))


def test_archimedean_constant():
    assert archimedean_constant() == pytest.approx(
        EULER_GAMMA + math.log(2 * math.pi), abs=1e-15)


@pytest.mark.parametrize("expr, want", [
    ("loggauss(1,0,1)", 1.53081939363193672830339750734),
    ("loggauss(1,0.3,0.15)", 1.12537944239297734090562491228),
    ("loggauss(1,-7,0.15)", 6.93483326328595141797229090053e-4),
    ("logbump(1,0.5,2,1)", -0.255317657012696094197623166136)])
def test_pv_regularised_against_mpmath(expr, want):
    # frozen 30-digit mpmath values of the unfolded subtracted form
    #   int_0^2 (f - f(1)) / |1 - x| + int_2^inf f / (x - 1)
    #   + int_0^inf f / (1 + x),
    # split at x = 1 and integrated in ln x
    got = pv_regularised(parse_function(expr))
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("f", [LogGaussian(1.0, 0.3, 0.7),
                               LogGaussian(2.0, -1.0, 0.4),
                               LogGaussian(1.0, 0.0, 0.15)])
def test_pv_regularised_is_J_invariant(f):
    # G(u) = f(e^u) + e^{-u} f(e^{-u}) and f(1) are unchanged under
    # J f(x) = f(1/x) / x, though J moves the visible interval
    for value, of_j in ((pv_regularised(f), pv_regularised(apply_J(f))),
                        (W_infty(f)[0], W_infty(apply_J(f))[0])):
        assert np.isfinite(value) and np.isfinite(of_j)
        assert abs(of_j - value) <= 1e-13 * max(1.0, abs(value))


def test_W_infty_routes_agree():
    f = LogGaussian(1.0, 0.3, 0.9)
    value, est, disagreement = W_infty(f)
    assert disagreement < 1e-5
    assert est < 1e-5


CRITERION_7 = (LogGaussian(1.0, 0.0, 1.0), LogGaussian(1.0, 0.5, 1.0),
               LogGaussian(1.0, -0.4, 1.0))


def _digamma_form_closed(f, r_max=40.0, n=40001):
    # Weil's form from the closed-form Mellin transform, on its own grid
    r, h = np.linspace(0.0, r_max, n, retstep=True)
    m = f.mellin_closed(0.5 + 1j * r).real
    w = math.log(math.pi) - digamma(0.25 + 0.5j * r).real
    return float(trapezoid(m * w, h)) / math.pi


def test_W_infty_is_the_digamma_form():
    for f in CRITERION_7:
        value, est, disagreement = W_infty(f)
        assert all(type(x) is float for x in (value, est, disagreement))
        assert abs(value - _digamma_form_closed(f)) < 1e-12
        assert est < 1e-12
        # the folded principal-value route
        assert disagreement < 1e-13


@pytest.mark.parametrize("mu, sigma", [(0.0, 0.04), (0.5, 0.03),
                                       (0.0, 0.02), (0.5, 0.015)])
def test_W_infty_narrow_log_gaussians(mu, sigma):
    # |M f(1/2 + i r)| ~ exp(-sigma^2 r^2 / 2) is not negligible at the
    # default grid's last height pi / h ~ 157, so the FFT grid refines
    f = LogGaussian(1.0, mu, sigma)
    value, est, disagreement = W_infty(f)
    want = _digamma_form_closed(f, r_max=9.0 / sigma, n=90001)
    assert abs(value - want) < 1e-12 * max(1.0, abs(value))
    assert est < 1e-11
    assert disagreement < 1e-12


@pytest.mark.parametrize("f, n_points", [(LogGaussian(1.0, 0.0, 1.0), 4001),
                                         (LogGaussian(1.0, 0.0, 0.04), 8001)])
def test_archimedean_weight_is_the_digamma_weight(f, n_points):
    # the cached weight is the one W_infty used to build on every call,
    # on the heights of the FFT grid it is paired with
    r_fft, _, _ = mellin_critical_line(f)
    r, weight, weight_l1 = explicit._archimedean_weight(n_points)
    assert r.size == n_points and np.array_equal(r, r_fft)
    assert np.array_equal(
        weight, math.log(math.pi) - digamma(0.25 + 0.5j * r).real)
    assert weight_l1 == float(trapezoid(np.abs(weight), r[1]))
    with pytest.raises(ValueError):
        weight[0] = 0.0


def test_W_infty_builds_the_weight_once_per_grid_size(monkeypatch,
                                                     cold_weight_cache):
    sizes = []

    def counted(z):
        sizes.append(np.size(z))
        return digamma(z)

    monkeypatch.setattr(explicit, "digamma", counted)
    W_infty(LogGaussian(1.0, 0.0, 1.0))
    W_infty(LogGaussian(2.0, 0.5, 0.7))
    assert sizes == [4001]


def test_digamma_mutant_reaches_W_infty(monkeypatch, cold_weight_cache):
    # (1/pi) integral_0^inf Re M f(1/2 + i r) dr = f(1), so digamma + c
    # moves W_infty by -c f(1); a warm cache would hide the patch
    f = LogGaussian(1.0, 0.0, 1.0)
    monkeypatch.setattr(explicit, "digamma", lambda z: digamma(z) + 1e-6)
    value, _, _ = W_infty(f)
    assert value - _digamma_form_closed(f) == pytest.approx(-1e-6 * f(1.0),
                                                           abs=1e-9)


@pytest.mark.parametrize("sigma", [0.12, 0.15, 1.0])
@pytest.mark.parametrize("mu", [-7.0, -5.0, -3.0, 0.0, 3.0, 7.0])
def test_W_infty_routes_agree_off_centre(mu, sigma):
    # the principal-value route resolves mass near x = 0 (in log
    # coordinates) and far out
    _, _, disagreement = W_infty(LogGaussian(1.0, mu, sigma))
    assert disagreement < 1e-13


@pytest.mark.parametrize("f", [LogGaussian(1.0, 0.0, 1.0),
                               LogGaussian(1.0, 0.3, 0.15)])
def test_pv_route_needs_the_whole_visible_window(monkeypatch, f):
    # negative control: a window of radius 2 sigma leaves out mass the
    # cross-check must miss
    mu, sig = f.center, f.width
    monkeypatch.setattr(LogGaussian, "visible",
                        lambda g, eps, relative=False: (mu - 2.0 * sig,
                                                        mu + 2.0 * sig))
    with pytest.raises(DisagreementError):
        W_infty(f)


@pytest.mark.parametrize("f, most", [(LogGaussian(1.0, 0.339, 0.1811), 1100),
                                     (LogGaussian(1.0, -0.5, 1.0), 700),
                                     # visible on 5.56 <= -ln x <= 8.44
                                     (LogGaussian(1.0, -7.0, 0.15), 1500)])
def test_pv_regularised_samples_only_the_visible_window(f, most):
    # the full |ln x| <= 60 grid at step 1/2048 holds 122,881 points
    pv_regularised(f)
    assert WORK["pv_points"] <= most


@pytest.mark.parametrize("f, step", [
    (LogGaussian(1.0, 0.0, 1.0), 1.0 / 64),
    (LogGaussian(1.0, 0.0, 5.0), 1.0 / 64),
    (LogGaussian(1.0, 0.3, 0.15), 1.0 / 512),
    (LogGaussian(1.0, 0.3, 0.125), 1.0 / 512),
    (LogGaussian(1.0, 0.0, 0.05), 1.0 / 2048),
    (LogGaussian(1.0, 0.0, 0.012), 1.0 / 2048),
    (LogBump(1.0, 0.5, 2.0, 1.0), 1.0 / 2048)])
def test_pv_step_follows_the_width(f, step):
    # the largest power of two at most min(sigma, 1) / 64, at least 1/2048
    assert log_step(f) == step


def test_W_infty_closed_form_heights():
    # |M f(1/2 + i r)| = C exp(-r^2 / 2) falls below 1e-18 of its peak at
    # r ~ 9.1, about 233 of the default grid's 4001 heights
    W_infty(LogGaussian(1.0, 0.0, 1.0))
    assert WORK["mellin_heights"] <= 300
    assert WORK["mellin_heights"] % 2 == 1


def test_W_infty_closed_form_matches_the_fft():
    # the closed form against the FFT's Mellin values on the same heights
    # and weight, over the whole ladder of grid sizes
    for sigma in (0.012, 0.02, 0.05, 0.12, 0.15, 0.2, 0.3, 0.6, 1.0):
        for mu in np.arange(-7.0, 7.0 + 1e-9, 0.25):
            f = LogGaussian(1.0, float(mu), sigma)
            _, mf, _ = mellin_critical_line(f)
            r, weight, _ = explicit._archimedean_weight(mf.size)
            fft = float(trapezoid(mf.real * weight, r[1])) / math.pi
            value = W_infty(f)[0]
            assert abs(value - fft) <= 1e-13 * max(1.0, abs(value)), f


def test_W_infty_log_bump_is_pinned():
    # no closed form and no scale: the FFT and the 1/2048 principal-value
    # step, bit for bit
    got = W_infty(LogBump(1.0, 0.5, 2.0, 1.0))
    assert [x.hex() for x in got] == [
        "0x1.63a0c0b1c8a55p-3", "0x1.6f785954b7699p-40",
        "0x1.8000000000000p-52"]


def test_pv_regularised_far_off_window():
    # the window is clamped to |ln x| <= 60, so expm1 cannot overflow
    assert np.isfinite(pv_regularised(LogGaussian(1.0, 800.0, 1.0)))


@pytest.mark.parametrize("expr, value, bound, powers", [
    ("loggauss(1,-0.5,1)", "0x1.2ef4379b49c76p+1", "0x1.655a7dc238966p-54",
     1297),
    ("loggauss(1,0,1)", "0x1.babbd52f1cdefp+1", "0x1.3e4b8c4c71014p-48",
     1287),
    ("loggauss(1,0.3,0.15)", "0x1.6e10a070d8c3dp-6",
     "0x1.1bc2c46969ed1p-64", 4),
    ("loggauss(2,-1,0.02)", "0x1.0282465a67619p-18",
     "0x1.8943229b1219bp-67", 2),
    ("loggauss(1,-7,0.15)", "0x1.818f78e92cb15p-2",
     "0x1.8e8744ad21d30p-67", 665),
    ("logbump(1,0.5,2,1)", "0x0.0p+0", "0x0.0p+0", 1)])
def test_W_prime_total_cut_is_pinned(expr, value, bound, powers):
    # frozen values: taking the cut L from the visible interval moves no
    # bit of the prime side, its tail bound or the number of prime powers
    got, tail = W_prime_total(parse_function(expr))
    assert (got.hex(), tail.hex()) == (value, bound)
    assert WORK["prime_powers"] == powers


def test_W_infty_cross_check_can_fail(monkeypatch):
    monkeypatch.setattr(explicit, "archimedean_constant",
                        lambda: math.log(2 * math.pi) + EULER_GAMMA + 1e-3)
    with pytest.raises(DisagreementError):
        W_infty(LogGaussian(1.0, 0.0, 1.0))


def test_spectral_parts_pole_closed_form(reference_zeros):
    f = LogGaussian(1.0, 0.0, 1.0)
    poles, zero_sum, bound = spectral_parts(f, reference_zeros)
    expect_poles = math.sqrt(2 * math.pi) * (1.0 + math.exp(0.5))
    assert poles == pytest.approx(expect_poles, abs=1e-10)
    assert abs(zero_sum) < 1e-30      # f-hat is tiny at height >= 14
    assert bound >= 0.0


@pytest.mark.parametrize("f", [LogGaussian(1.0, 0.2, 0.15),
                               LogBump(1.0, 0.5, 2.0, 1.0)])
def test_spectral_parts_against_each_zero(f, reference_zeros):
    # the poles and zeros from one array call against one call per point
    def one(s):
        closed = f.mellin_closed(s) if isinstance(f, LogGaussian) else None
        return mellin(f, s).value if closed is None else complex(closed)

    want_poles = (one(0.0) + one(1.0)).real
    want_zeros = 2.0 * math.fsum(one(complex(0.5, g)).real
                                 for g in reference_zeros.ordinates)
    poles, zero_sum, _ = spectral_parts(f, reference_zeros)
    assert abs(poles - want_poles) <= 1e-15 * max(1.0, abs(want_poles))
    assert abs(zero_sum - want_zeros) <= 1e-15 * max(1.0, abs(want_zeros))


def test_sides_are_linear(reference_zeros):
    f, f3 = LogGaussian(1.0, 0.2, 0.8), LogGaussian(3.0, 0.2, 0.8)
    poles1, zeros1, _ = spectral_parts(f, reference_zeros)
    poles3, zeros3, _ = spectral_parts(f3, reference_zeros)
    assert poles3 - zeros3 == pytest.approx(3.0 * (poles1 - zeros1),
                                            rel=1e-12)
    p1, _ = W_prime_total(f)
    p2, _ = W_prime_total(f3)
    assert p2 == pytest.approx(3.0 * p1, rel=1e-12)


def test_explicit_formula_report(reference_zeros):
    f = LogGaussian(1.0, 0.0, 1.0)
    report = verify_explicit_formula(f, reference_zeros)
    # internal consistency of the report decomposition
    assert report.spectral_side == pytest.approx(
        report.pole_contribution - report.zero_contribution, abs=1e-15)
    assert report.prime_side == pytest.approx(
        report.W_p_total + report.W_infty, abs=1e-15)
    assert report.residual == pytest.approx(
        abs(report.spectral_side - report.prime_side), abs=1e-15)
    # the headline bound, with margin
    assert report.residual < 1e-6
    assert report.residual < report.total_budget
    assert set(report.budgets) == {
        "zero_tail_and_precision", "prime_tail", "archimedean_quadrature",
        "route_disagreement", "roundoff"}
    d = report.as_dict()
    assert d["residual"] == report.residual
    assert d["total_budget"] == report.total_budget

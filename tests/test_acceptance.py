"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the measured extremes and wall time."""

import math
import time

import numpy as np
import pytest

from weiltrace import (AuxiliaryPhi, LogGaussian, ParityFunction,
                       TruncationSpec, find_zeros, fourier, gaussian_even, gaussian_odd,
                       haar_real_cross, l_chi, character, pair_log_fourier,
                       phi_log_identity, poisson_check, primitive_characters,
                       toeplitz_trace_check, twisted_poisson_check,
                       verify_explicit_formula, xi, zero_count_estimate,
                       zspectral_check, LogGridSpec)


def _line(num: int, name: str, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name} — {detail} "
          f"({elapsed:.2f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_even_gaussians(rng, count):
    out = []
    for _ in range(count):
        terms = tuple(
            (float(rng.uniform(-2.0, 2.0)), int(rng.choice([0, 2, 4])),
             float(rng.uniform(0.5, 2.0)))
            for _ in range(rng.integers(1, 4)))
        out.append(ParityFunction(+1, terms))
    return out


@pytest.fixture(scope="module")
def zeros60():
    return find_zeros(60.0)


def test_criterion_01_poisson():
    start = time.perf_counter()
    rng = np.random.default_rng(20260826)
    funcs = [gaussian_even()] + _random_even_gaussians(rng, 10)
    worst = max(poisson_check(f, x)
                for f in funcs for x in (0.25, 0.5, 1.0, 2.0, 4.0))
    elapsed = time.perf_counter() - start
    _line(1, "Poisson summation", worst < 1e-10 and elapsed < 5.0,
          f"max residual {worst:.2e} (< 1e-10)", elapsed)


def test_criterion_02_fourier_involution():
    start = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 101)
    g = gaussian_even()
    worst_fix = float(np.max(np.abs(np.asarray(fourier(g)(grid))
                                    - np.asarray(g(grid)))))
    f_even = ParityFunction(+1, ((1.3, 2, 0.7), (0.4, 0, 2.0)))
    f_odd = ParityFunction(-1, ((0.9, 1, 1.2), (-0.2, 3, 0.6)))
    worst_inv = max(
        float(np.max(np.abs(np.asarray(fourier(fourier(f))(grid))
                            - sign * np.asarray(f(grid)))))
        for f, sign in ((f_even, +1), (f_odd, -1)))
    elapsed = time.perf_counter() - start
    worst = max(worst_fix, worst_inv)
    _line(2, "Fourier involution", worst < 1e-12 and elapsed < 1.0,
          f"max defect {worst:.2e} (< 1e-12)", elapsed)


def test_criterion_03_functional_equation():
    # the ratio xi(s) / xi(1 - s) cancels any constant factor in Gamma or
    # zeta, so absolute anchors pin both, called through special when the
    # test runs
    from weiltrace import special
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(-50.0, 50.0))
        a, b = xi(s).xi, xi(1.0 - s).xi
        worst = max(worst, abs(a - b) / abs(a))
    anchors = ((special.zeta, 2.0, math.pi ** 2 / 6),
               (special.zeta, 0.0, -0.5), (special.zeta, -1.0, -1.0 / 12),
               (special.gamma, 0.5, math.sqrt(math.pi)))
    worst_anchor = max(abs(fn(s) - want) for fn, s, want in anchors)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and worst_anchor < 1e-14 and elapsed < 5.0
    _line(3, "xi functional equation", ok,
          f"max relative residual {worst:.2e} (< 1e-9), zeta(2), zeta(0), "
          f"zeta(-1) and Gamma(1/2) off by {worst_anchor:.2e} (< 1e-14)",
          elapsed)


def test_criterion_04_mobius_inversion():
    from weiltrace.operators import apply_Z, apply_Z_inverse, z_image
    start = time.perf_counter()
    tr = TruncationSpec(tail_tol=3e-12)
    grid = np.exp(np.linspace(-0.2, 1.8, 20))
    worst = 0.0
    for f in (LogGaussian(1.0, 0.0, 1.0), LogGaussian(2.0, 0.4, 0.7)):
        zf = z_image(f, tr)
        zif = z_image(f, tr, inverse=True)
        for x in grid:
            worst = max(worst,
                        abs(apply_Z_inverse(zf, float(x), tr) - f(x)),
                        abs(apply_Z(zif, float(x), tr) - f(x)))
    elapsed = time.perf_counter() - start
    _line(4, "Moebius inversion", worst < 1e-10 and elapsed < 5.0,
          f"max residual {worst:.2e} (< 1e-10)", elapsed)


def test_criterion_05_mellin_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    f = LogGaussian(1.0, 0.0, 1.0)
    worst = max(
        zspectral_check(f, complex(rng.uniform(1.5, 4.0),
                                   rng.uniform(-20.0, 20.0)))
        for _ in range(20))
    elapsed = time.perf_counter() - start
    _line(5, "Mellin diagonalization", worst < 1e-8 and elapsed < 10.0,
          f"max residual {worst:.2e} (< 1e-8)", elapsed)


def test_criterion_06_zero_finding(zeros60, reference_zeros):
    start = time.perf_counter()
    predicted = round(zero_count_estimate(60.0))
    count_ok = len(zeros60.ordinates) == predicted
    worst_xi = max(abs(xi(complex(0.5, g)).xi) for g in zeros60.ordinates)
    worst_ref = max(abs(a - b) for a, b in
                    zip(zeros60.ordinates, reference_zeros.ordinates))
    same_len = len(zeros60.ordinates) == len(reference_zeros.ordinates)
    elapsed = time.perf_counter() - start
    ok = (count_ok and same_len and worst_xi < 1e-5 and worst_ref < 1e-6
          and elapsed < 60.0)
    _line(6, "zero finding to height 60", ok,
          f"count {len(zeros60.ordinates)}={predicted}, max |xi| "
          f"{worst_xi:.2e} (< 1e-5), max table offset {worst_ref:.2e} "
          f"(< 1e-6)", elapsed)


def test_criterion_07_explicit_formula(zeros60):
    start = time.perf_counter()
    tr = TruncationSpec(p_max=10000, e_max=60)
    funcs = (LogGaussian(1.0, 0.0, 1.0), LogGaussian(1.0, 0.5, 1.0),
             LogGaussian(1.0, -0.4, 1.0))
    worst_res, worst_margin = 0.0, 0.0
    for f in funcs:
        report = verify_explicit_formula(f, zeros60, tr)
        worst_res = max(worst_res, report.residual)
        worst_margin = max(worst_margin,
                           report.residual / report.total_budget)
    elapsed = time.perf_counter() - start
    ok = worst_res < 1e-4 and worst_margin < 1.0 and elapsed < 120.0
    _line(7, "explicit formula (headline)", ok,
          f"max residual {worst_res:.2e} (< 1e-4), worst "
          f"residual/budget {worst_margin:.2e} (< 1)", elapsed)


def test_criterion_08_toeplitz_trace():
    start = time.perf_counter()
    phi = AuxiliaryPhi(1.0)
    pairs = ((LogGaussian(1.0, 0.0, 0.7), LogGaussian(1.0, 0.3, 0.9)),
             (LogGaussian(1.0, 0.1, 0.5), LogGaussian(1.0, 0.0, 1.2)),
             (LogGaussian(1.0, 0.0, 1.0), LogGaussian(1.0, -0.2, 0.008)))
    worst = max(toeplitz_trace_check(f0, f1, phi,
                                     LogGridSpec(n_points=2048,
                                                 half_width=8.0))[0]
                for f0, f1 in pairs)
    # refinement must shrink the residual where it is above roundoff
    f0, f1 = pairs[2]
    coarse, _ = toeplitz_trace_check(f0, f1, phi,
                                     LogGridSpec(2048, 8.0))
    fine, _ = toeplitz_trace_check(f0, f1, phi,
                                   LogGridSpec(4096, 8.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and fine < coarse and elapsed < 120.0
    _line(8, "Toeplitz commutator trace", ok,
          f"max residual {worst:.2e} (< 1e-6), refinement "
          f"{coarse:.2e} -> {fine:.2e}", elapsed)


def test_criterion_09_phi_identities():
    start = time.perf_counter()
    worst_anti = max(abs(AuxiliaryPhi(w)(t) + AuxiliaryPhi(w)(1.0 / t)
                         - 1.0)
                     for w in (0.5, 1.0, 2.0)
                     for t in (0.2, 0.7, 1.0, 3.1, 9.0))
    worst_log = max(phi_log_identity(AuxiliaryPhi(w), x)
                    for w in (0.5, 1.0, 2.0)
                    for x in (0.5, 1.0, math.e))
    elapsed = time.perf_counter() - start
    ok = worst_anti <= 1e-15 and worst_log < 1e-10 and elapsed < 5.0
    _line(9, "phi transition identities", ok,
          f"antisymmetry {worst_anti:.2e} (<= 1e-15), log identity "
          f"{worst_log:.2e} (< 1e-10)", elapsed)


def test_criterion_10_fourier_log_constant():
    # Weil's archimedean distribution: <F(ln|x|), psi> =
    # -(1/2) reg integral psi(y) dy/|y| - (ln 2 pi + gamma) psi(0), each
    # side in closed form with a stated rounding bound; psi(0) != 0 makes
    # the constant count, looked up on explicit when the test runs.
    from weiltrace import explicit
    u = 2.0 ** -53
    start = time.perf_counter()
    c_inf = explicit.archimedean_constant()
    psis = (
        ParityFunction(+1, ((1.0, 2, 1.0),)),
        ParityFunction(+1, ((1.0, 4, 2.0),)),
        ParityFunction(+1, ((1.0, 2, 1.0), (-0.5, 4, 0.8),)),
        ParityFunction(+1, ((1.0, 0, 1.0), (-1.0, 0, 2.0))),  # cancels at 0
        ParityFunction(+1, ((0.7, 2, 0.6), (0.3, 2, 1.4))),
        gaussian_even(),
        ParityFunction(+1, ((1.0, 0, 0.5), (-0.3, 2, 1.2))),
        ParityFunction(+1, ((-0.8, 0, 2.0), (0.6, 4, 0.7), (0.2, 0, 1.3))),
    )
    # residual / (stated bound) of each identity, worst over psi; c_inf
    # and the residual's own sums round by at most 10 u |c_inf psi(0)|
    worst_dual = worst_const = 0.0
    for psi in psis:
        (pair, e_pair), (haar, e_haar) = (pair_log_fourier(psi),
                                          haar_real_cross(psi))
        psi0 = complex(psi.at_zero()).real
        ratio = (abs(pair + haar + c_inf * psi0)
                 / (e_pair + e_haar + 10 * u * abs(c_inf * psi0)))
        if psi0:
            worst_const = max(worst_const, ratio)
        else:
            worst_dual = max(worst_dual, ratio)
    # dilation covariance: pairing(psi(./t)) = pairing(psi) - ln t psi(0)
    worst_cov = 0.0
    for psi in (psis[0], gaussian_even(), psis[7]):
        base, e_base = pair_log_fourier(psi)
        for t in (0.5, 2.0):
            got, e_got = pair_log_fourier(psi.dilate(t))
            shift = math.log(t) * complex(psi.at_zero()).real
            worst_cov = max(worst_cov, abs(got - (base - shift)) / (
                e_got + e_base + 4 * u * (abs(shift) + abs(base - shift))))
    elapsed = time.perf_counter() - start
    ok = (worst_dual <= 1.0 and worst_const <= 1.0 and worst_cov <= 1.0
          and elapsed < 10.0)
    _line(10, "Fourier-of-log pairing", ok,
          f"residual / stated bound: duality {worst_dual:.2f}, constant "
          f"ln 2 pi + gamma {worst_const:.2f}, covariance {worst_cov:.2f} "
          f"(<= 1)", elapsed)


def test_criterion_11_dirichlet_layer():
    start = time.perf_counter()
    worst_res, worst_kappa = 0.0, 0.0
    for d in (3, 4, 5, 7):
        for chi in primitive_characters(d):
            f = gaussian_even() if chi.parity == 1 else gaussian_odd()
            for x in (0.5, 1.0, 2.0):
                res, kappa = twisted_poisson_check(chi, f, x)
                worst_res = max(worst_res, res)
                worst_kappa = max(worst_kappa, abs(abs(kappa) - 1.0))
    catalan_err = abs(l_chi(character(4, 1), 2.0) - 0.915965594177219015)
    elapsed = time.perf_counter() - start
    ok = (worst_res < 1e-7 and worst_kappa < 1e-12
          and catalan_err < 1e-10 and elapsed < 30.0)
    _line(11, "Dirichlet twisted layer", ok,
          f"twisted residual {worst_res:.2e} (< 1e-7), |kappa|-1 "
          f"{worst_kappa:.2e} (< 1e-12), L(2) vs Catalan "
          f"{catalan_err:.2e} (< 1e-10)", elapsed)

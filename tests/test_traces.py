import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (AuxiliaryPhi, LogGaussian, LogGridSpec, LogSpline,
                       WindowError, cinf_step, commutator_trace,
                       phi_log_identity, toeplitz_trace_check, trace_rhs)
from weiltrace.stages import WORK
from weiltrace.traces import _lag_weights

# criterion 8's first pair
F0 = LogGaussian(1.0, 0.0, 0.7)
F1 = LogGaussian(1.0, 0.3, 0.9)


def test_cinf_step_partition():
    t = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(cinf_step(t) + cinf_step(1.0 - t), 1.0,
                               atol=1e-15)
    assert cinf_step(0.0) == 0.0 and cinf_step(1.0) == 1.0


def test_phi_antisymmetry_machine():
    phi = AuxiliaryPhi(1.0)
    for t in (0.1, 0.5, 1.0, 3.0, 10.0):
        assert abs(phi(t) + phi(1.0 / t) - 1.0) <= 1e-15


@given(w=st.floats(0.3, 3.0), u=st.floats(-10, 10))
@settings(max_examples=50, deadline=None)
def test_phi_of_log_consistent(w, u):
    phi = AuxiliaryPhi(w)
    assert phi.of_log(u) == pytest.approx(phi(math.exp(u)), abs=1e-14)


def test_phi_log_identity_width_independent():
    for w in (0.5, 1.0, 2.0):
        phi = AuxiliaryPhi(w)
        for x in (0.5, 1.0, math.e):
            assert phi_log_identity(phi, x) < 1e-10


def test_commutator_trace_matches_dense_kernel():
    # the kernel straight from its definition,
    # K(x_i, x_j) = sum_k w_k f0(x_i/x_k) f1(x_k/x_j) (phi_k - phi_j),
    # traced against the weights
    grid = LogGridSpec(n_points=256, half_width=8.0)
    phi = AuxiliaryPhi(1.0)
    x = np.exp(grid.u_grid()[0])
    w = grid.weights()
    p = phi(x)
    ratio = x[:, None] / x[None, :]
    left = F0(ratio) * w[None, :]
    right = F1(ratio) * (p[:, None] - p[None, :])
    dense = float(np.sum(w * np.diag(left @ right)))
    assert commutator_trace(F0, F1, phi, grid) == pytest.approx(dense,
                                                                abs=1e-14)


@pytest.mark.parametrize("n", [16, 17, 2048])
def test_lag_weights_match_correlate(n):
    grid = LogGridSpec(n_points=n, half_width=8.0)
    u, h = grid.u_grid()
    w = grid.weights()
    v = w * AuxiliaryPhi(1.0).of_log(u)
    want = np.correlate(w, v, "full")
    got = _lag_weights(v, h)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_commutator_trace_phi_width_independent():
    grid = LogGridSpec(n_points=2048, half_width=8.0)
    traces = [commutator_trace(F0, F1, AuxiliaryPhi(w), grid)
              for w in (0.5, 1.0, 2.0)]
    assert max(traces) - min(traces) < 1e-13


def test_trace_check_notices_wrong_sign():
    # trace_rhs(f1, f0) = -tau(f0 * d f1): a check against it must fail
    # by about 2 |tau|, far above the 1e-6 tolerance
    grid = LogGridSpec(n_points=2048, half_width=8.0)
    tau = trace_rhs(F0, F1)
    residual = abs(commutator_trace(F0, F1, AuxiliaryPhi(1.0), grid)
                   - trace_rhs(F1, F0))
    assert residual == pytest.approx(2.0 * abs(tau), rel=1e-9)
    assert residual > 1e5 * 1e-6


def test_toeplitz_trace_smooth_pair():
    phi = AuxiliaryPhi(1.0)
    res, scale = toeplitz_trace_check(
        F0, F1, phi, LogGridSpec(n_points=1024, half_width=8.0))
    assert res < 1e-8
    # both peaks are near 1: F1's centre is off the lag grid
    assert 0.999 < scale <= 1.0


def test_trace_rhs_oracle():
    # tau(f0 * d f1) = integral f0(x) f1(1/x) ln(1/x) d*x; for log-
    # Gaussians this is an explicit Gaussian moment:
    # with u = ln x: integral e^{-u^2/2} e^{-(u+m)^2/(2 s^2)} (-u) du
    f0 = LogGaussian(1.0, 0.0, 1.0)
    f1 = LogGaussian(1.0, 0.2, 0.8)
    got = trace_rhs(f0, f1)
    u = np.linspace(-15, 15, 400001)
    expect = np.trapezoid(
        f0(np.exp(u)) * f1(np.exp(-u)) * (-u), u)
    assert got == pytest.approx(float(expect), abs=1e-10)


_SWEEP_WIDTHS = (0.008, 0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 3.0)


def _gaussian_moment(f0, f1):
    # u = ln x: a0 a1 exp(-(u - m0)^2 / 2 v0 - (u + m1)^2 / 2 v1) (-u) is
    # a Gaussian of centre c and width w times -u, so the integral is -c
    # times its mass
    a0, m0, s0 = f0.amplitude, f0.center, f0.width
    a1, m1, s1 = f1.amplitude, f1.center, f1.width
    v0, v1 = s0 * s0, s1 * s1
    c = (m0 * v1 - m1 * v0) / (v0 + v1)
    w = math.sqrt(v0 * v1 / (v0 + v1))
    return -c * a0 * a1 * math.sqrt(2.0 * math.pi) * w * math.exp(
        -(m0 + m1) ** 2 / (2.0 * (v0 + v1)))


@pytest.mark.parametrize("f0, f1", [
    # the slice is relative to each peak: an absolute 1e-20 would leave
    # the first f0 out and cut the second f1 short
    (LogGaussian(1e-20, 0.1, 0.7), LogGaussian(1e20, 0.3, 0.9)),
    (LogGaussian(1e20, -0.2, 1.1), LogGaussian(1e-20, 0.0, 0.6)),
    # f0(x) f1(1/x) lies past |ln x| = 18
    (LogGaussian(1.0, 17.0, 1.0), LogGaussian(1.0, -17.0, 1.0)),
    (LogGaussian(1.0, -30.0, 1.0), LogGaussian(1.0, 30.0, 1.0)),
    # criterion 8's narrow pair
    (LogGaussian(1.0, 0.0, 1.0), LogGaussian(1.0, -0.2, 0.008)),
    # every pair of widths: the step follows the narrower function
    *[(LogGaussian(1.0, 0.1, s0), LogGaussian(1.0, -0.25, s1))
      for s0 in _SWEEP_WIDTHS for s1 in _SWEEP_WIDTHS],
])
def test_trace_rhs_gaussian_moment(f0, f1):
    tau = _gaussian_moment(f0, f1)
    assert abs(trace_rhs(f0, f1) - tau) <= 1e-12 * max(1.0, abs(tau))


@pytest.mark.parametrize("f0, f1", [
    (LogSpline(1.0, 0.5, 2.0, 8), LogSpline(1.0, 0.7, 1.5, 8)),
    (LogSpline(2.0, 0.8, 3.0, 5), LogSpline(1.0, 0.4, 1.6, 12)),
    (LogSpline(1.0, 0.2, 1.5, 5), LogSpline(1.0, 0.9, 4.0, 6)),
    # the step follows the narrower function: the spline's knot width
    # beside a Gaussian
    (LogGaussian(1.0, 0.2, 0.5), LogSpline(1.0, 0.5, 2.0, 8)),
    (LogSpline(1.0, 0.5, 2.0, 8), LogGaussian(1.0, 0.3, 0.05)),
])
def test_trace_rhs_log_spline(f0, f1):
    # a 200,001-point trapezoid over the product's support, whose error
    # falls like its step^5 on these C^3 (and smoother) integrands
    lo0, hi0 = f0.visible(1e-20, relative=True)
    lo1, hi1 = f1.visible(1e-20, relative=True)
    u = np.linspace(max(lo0, -hi1), min(hi0, -lo1), 200001)
    want = np.trapezoid(f0.of_log(u) * f1.of_log(-u) * (-u), u)
    assert abs(trace_rhs(f0, f1) - want) <= 1e-15


def test_trace_rhs_disjoint_supports():
    # f1(1/x) lives on 1/3 < x < 1/2, f0 on 2 < x < 3: nothing is sampled
    f = LogSpline(1.0, 2.0, 3.0)
    assert trace_rhs(f, f) == 0.0
    assert WORK["trace_rhs_points"] == 0


@pytest.mark.parametrize("f0, f1", [
    # visible on 45.4 <= ln x <= 64.6, past the |ln x| <= 60 edge
    (LogGaussian(1.0, 55.0, 1.0), LogGaussian(1.0, -55.0, 1.0)),
    # 1e200 * 1e200 overflows
    (LogGaussian(1e200, 0.0, 1.0), LogGaussian(1e200, 0.3, 0.9)),
])
@pytest.mark.filterwarnings("error")
def test_trace_rhs_window_error(f0, f1):
    with pytest.raises(WindowError):
        trace_rhs(f0, f1)


def test_toeplitz_trace_far_from_x_1():
    # the parent's |ln x| <= 18 grid cut tau in half: residual 2.55
    f0, f1 = LogGaussian(1.0, 17.0, 1.0), LogGaussian(1.0, -17.0, 1.0)
    grid = LogGridSpec(n_points=16384, half_width=40.0)
    assert toeplitz_trace_check(f0, f1, AuxiliaryPhi(1.0), grid)[0] < 1e-10


@pytest.mark.parametrize("width, half_width", [(12.0, 8.0), (2.0, 1.5)])
def test_commutator_trace_rejects_phi_wider_than_window(width, half_width):
    # phi is not 0 and 1 at the window's ends
    grid = LogGridSpec(n_points=1024, half_width=half_width)
    with pytest.raises(WindowError, match="phi"):
        commutator_trace(LogGaussian(1.0, 0.0, 0.2),
                         LogGaussian(1.0, 0.1, 0.2), AuxiliaryPhi(width),
                         grid)


@pytest.mark.parametrize("f0, f1", [
    # f0(x) f1(1/x) is 0: f0 lives on 2 < x < 3 and f1(1/x) on 1/3 < x < 1/2
    (LogSpline(1.0, 2.0, 3.0), LogSpline(1.0, 2.0, 3.0)),
    # each function is visible on the lag grid, their products underflow
    (LogGaussian(1e-200, 0.0, 0.7), LogGaussian(1e-200, 0.3, 0.9)),
])
def test_commutator_trace_rejects_a_zero_product(f0, f1):
    grid = LogGridSpec(n_points=1024, half_width=8.0)
    with pytest.raises(WindowError, match=r"f0\(x\) f1\(1/x\) is 0"):
        commutator_trace(f0, f1, AuxiliaryPhi(1.0), grid)


@pytest.mark.parametrize("f0, f1", [
    # f1 has no mass on the lag window [-16, 16]: both sides read 0
    (F0, LogGaussian(1.0, 700.0, 1.0)),
    (LogSpline(1.0, 1e10, 1e11), F1),
    # f0's tail at the window edge is 14% of its own peak, although
    # only 1e-21 of f1's
    (LogGaussian(1e-20, 14.0, 1.0), F1),
])
def test_commutator_trace_checks_each_function_on_window(f0, f1):
    grid = LogGridSpec(n_points=1024, half_width=8.0)
    with pytest.raises(WindowError):
        commutator_trace(f0, f1, AuxiliaryPhi(1.0), grid)

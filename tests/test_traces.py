import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (AuxiliaryPhi, LogBump, LogGaussian, LogGridSpec,
                       WindowError, cinf_step, commutator_trace,
                       phi_log_identity, toeplitz_trace_check, trace_rhs)
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
    res = toeplitz_trace_check(F0, F1, phi,
                               LogGridSpec(n_points=1024, half_width=8.0))
    assert res < 1e-8


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


@pytest.mark.parametrize("f0, f1", [
    # f1 has no mass on the lag window [-16, 16]: both sides read 0
    (F0, LogGaussian(1.0, 700.0, 1.0)),
    (LogBump(1.0, 1e10, 1e11), F1),
    # f0's tail at the window edge is 14% of its own peak, although
    # only 1e-21 of f1's
    (LogGaussian(1e-20, 14.0, 1.0), F1),
])
def test_commutator_trace_checks_each_function_on_window(f0, f1):
    grid = LogGridSpec(n_points=1024, half_width=8.0)
    with pytest.raises(WindowError):
        commutator_trace(f0, f1, AuxiliaryPhi(1.0), grid)

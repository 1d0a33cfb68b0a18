"""Operator-trace identities on the multiplicative half-line.

Two identities are checked numerically on a logarithmic grid:

  * the commutator trace
        tr( conv(f0) [M_phi, conv(f1)] ) = tau(f0 * d(f1)),
    where conv(f) is multiplicative convolution with f, M_phi is
    multiplication by a smooth switch phi, d is the derivation
    (d f)(x) = f(x) ln x, * is multiplicative convolution, and
    tau(g) = g(1); the left side is discretised on a log grid and its
    weighted diagonal is summed over lags, so no kernel matrix is formed;
    the right side is a trapezoid at the narrower function's log_step,
    sampled only where both f0(x) and f1(1/x) reach 1e-20 of their peaks;

  * the switch identity  integral (phi(z) - phi(x z)) d*z = ln(1/x),
    which is what makes the trace independent of the particular phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowError
from .families import log_step
from .grids import cinf_step, trapezoid
from .stages import WORK, stage

# trace_rhs: the |u| its sampled interval may not leave (the principal
# value's edge); the fraction of each function's peak below which it is
# left out.
_RHS_EDGE = 60.0
_RHS_EPS = 1e-20


@dataclass(frozen=True)
class AuxiliaryPhi:
    """Smooth switch phi on (0, inf): 0 below e^{-w}, 1 above e^{w},
    with the exact partition property phi(t) + phi(1/t) = 1.

    All derivatives vanish at the plateau edges, so integrands built
    from phi stay spectrally friendly for trapezoid quadrature.
    """
    width: float = 1.0

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise ValueError("width must be positive and finite")

    def __call__(self, t):
        return self.of_log(np.log(t))

    def of_log(self, u):
        """phi evaluated at t = e^u."""
        u = np.asarray(u, dtype=float)
        return cinf_step((u / self.width + 1.0) * 0.5)


def phi_log_identity(phi: AuxiliaryPhi, x: float) -> float:
    """Residual of integral (phi(z) - phi(x z)) d*z = ln(1/x).

    The integrand is supported where either switch is in transition,
    so a 20001-point log grid covering both transition zones suffices.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x!r}")
    pad = 4.0 * phi.width + abs(math.log(x)) + 2.0
    u, h = LogGridSpec(20001, pad).u_grid()
    vals = phi.of_log(u) - phi.of_log(u + math.log(x))
    integral = float(trapezoid(vals, h))
    return abs(integral - math.log(1.0 / x))


@dataclass(frozen=True)
class LogGridSpec:
    """Uniform grid in u = ln x over [-U, U] with n points, carrying
    the d*x trapezoid weights."""
    n_points: int = 2048
    half_width: float = 8.0

    def __post_init__(self):
        if self.n_points < 16 or not 0 < self.half_width < math.inf:
            raise ValueError("bad grid spec: need n_points >= 16 and "
                             "0 < half_width < inf")

    def u_grid(self) -> tuple[np.ndarray, float]:
        """(grid, exact step), as QuadratureSpec.u_grid."""
        return np.linspace(-self.half_width, self.half_width,
                           self.n_points, retstep=True)

    def weights(self) -> np.ndarray:
        h = 2.0 * self.half_width / (self.n_points - 1)
        w = np.full(self.n_points, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _lag_values(f, u: np.ndarray, h: float) -> np.ndarray:
    """f evaluated on the lag grid e^{u_i - u_j} of the grid u with step
    h, as the vector over lags m = i - j in [-(n-1), n-1]."""
    return f.of_log(np.arange(-(u.size - 1), u.size) * h)


def commutator_trace(f0, f1, phi: AuxiliaryPhi, grid: LogGridSpec) -> float:
    """tr(conv(f0) [M_phi, conv(f1)]) on the log grid; _trace_and_scale
    says how, and when it raises WindowError."""
    return _trace_and_scale(f0, f1, phi, grid)[0]


def _trace_and_scale(f0, f1, phi: AuxiliaryPhi, grid: LogGridSpec,
                     ) -> tuple[float, float]:
    """(tr(conv(f0) [M_phi, conv(f1)]) on the log grid, min(1, peak |f0|
    times peak |f1| on the lag grid)).

    The kernel K(x_i, x_j) = sum_k w_k f0(x_i/x_k) f1(x_k/x_j)
    (phi_k - phi_j) is traced against the weights w without forming it:

        sum_{i,k} w_i w_k (phi_k - phi_i) v0[i-k] v1[k-i]
            = sum_m (g[m] - g[-m]) a[m],

    with g[m] = v0[m] v1[-m] over the 2n-1 lags and a[m] =
    sum_k w_{k+m} w_k phi_k.  Each of f0 and f1 must have mass on the
    doubled window and its effective support must fit inside it, phi
    must be 0 and 1 at the window's ends, g must not be 0 at every lag
    (both sides would be 0 whatever f0 and f1 are) and the sum must not
    overflow, else WindowError.
    """
    u, h = grid.u_grid()
    v0 = _lag_values(f0, u, h)
    v1 = _lag_values(f1, u, h)
    peaks = []
    for name, v in (("f0", v0), ("f1", v1)):
        peak = float(np.max(np.abs(v)))
        peaks.append(peak)
        if peak == 0.0:
            raise WindowError(
                f"trace window [-{2 * grid.half_width:g}, "
                f"{2 * grid.half_width:g}] holds no mass of {name}: every "
                f"lag sample is 0")
        # One nonzero lag sample makes g - g[::-1] vanish whatever the
        # other function is, so the check could not fail.
        if np.count_nonzero(v) < 2:
            raise WindowError(
                f"{name} is a point mass on the lag grid (step {h:.3g}): "
                f"one lag sample is nonzero")
        edge = max(abs(v[0]), abs(v[-1]))
        if edge > 1e-13 * peak:
            raise WindowError(
                f"kernel support of {name} leaves the window: edge/peak = "
                f"{edge / peak:.3e}; enlarge half_width")
    switch = phi.of_log(u)
    if switch[0] != 0.0 or switch[-1] != 1.0:
        raise WindowError(
            f"phi is {switch[0]:.3g} and {switch[-1]:.3g} at the window's "
            f"ends, not 0 and 1: its transition is wider than the window "
            f"[-{grid.half_width:g}, {grid.half_width:g}]")
    with np.errstate(over="ignore", invalid="ignore"):
        g = v0 * v1[::-1]
        trace = float(np.dot(g - g[::-1], _lag_weights(
            grid.weights() * switch, h)))
    if not g.any():
        raise WindowError(
            f"f0(x) f1(1/x) is 0 at every lag sample (peaks {peaks[0]:.3g} "
            f"and {peaks[1]:.3g}): both sides would be 0 whatever f0 and "
            f"f1 are")
    return (_finite(trace, "the commutator trace"),
            min(1.0, peaks[0] * peaks[1]))


def _lag_weights(v: np.ndarray, h: float) -> np.ndarray:
    """a[m] = sum_k w_{k+m} v_k for the lags m in [-(n-1), n-1] and the
    trapezoid weights w (h inside, h/2 at both ends), in O(n): h times
    the suffix sum of v from k = -m (m < 0) or its prefix sum to
    k = n-1-m (m >= 0), less half the end term at w_0 (m <= 0) and at
    w_{n-1} (m >= 0).  Neither sum is a difference, so nothing cancels."""
    rev, pad = v[::-1], np.zeros(v.size - 1)
    sums = np.concatenate((np.cumsum(rev)[:-1], np.cumsum(v)[::-1]))
    ends = np.concatenate((rev, pad)) + np.concatenate((pad, rev))
    return h * (sums - 0.5 * ends)


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise WindowError(f"{name} overflows: {value!r}")
    return value


def trace_rhs(f0, f1) -> float:
    """tau(f0 * d f1) = integral f0(x) f1(1/x) ln(1/x) d*x by an
    independent trapezoid in u = ln x on the points u = k h, h the
    smaller of f0's and f1's log_step (1/128 for widths 0.7 and 0.9,
    1/2048 for a log-bump).  It samples only the intersection of f0's
    visible interval (where |f0| reaches 1e-20 of its peak) with the
    reflection u -> -u of f1's, widened to the grid: 0.0 when that is
    empty, WindowError when it leaves |u| <= 60 or the integral
    overflows."""
    lo0, hi0 = f0.visible(_RHS_EPS, relative=True)
    lo1, hi1 = f1.visible(_RHS_EPS, relative=True)
    lo, hi = max(lo0, -hi1), min(hi0, -lo1)
    if lo > hi:
        WORK["trace_rhs_points"] = 0
        return 0.0
    if max(hi, -lo) > _RHS_EDGE:
        raise WindowError(
            f"f0(x) f1(1/x) is visible on ln x in [{lo:.6g}, {hi:.6g}], "
            f"which leaves |ln x| <= {_RHS_EDGE:g}")
    step = min(log_step(f0), log_step(f1))
    u = step * np.arange(math.floor(lo / step), math.ceil(hi / step) + 1)
    WORK["trace_rhs_points"] = u.size
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(trapezoid(f0.of_log(u) * f1.of_log(-u) * (-u), step))
    return _finite(value, "tau(f0 * d f1)")


def toeplitz_trace_check(f0, f1, phi: AuxiliaryPhi,
                         grid: LogGridSpec) -> tuple[float, float]:
    """(residual |tr(conv(f0) [M_phi, conv(f1)]) - tau(f0 * d f1)|,
    scale = min(1, peak |f0| peak |f1| on the lag grid)).  Both sides
    are linear in f0 and in f1, so a tolerance meant for unit amplitudes
    is to be multiplied by scale: for small amplitudes an absolute one
    passes any residual."""
    WORK["trace_n"] = grid.n_points
    with stage("trace_kernel"):
        lhs, scale = _trace_and_scale(f0, f1, phi, grid)
    with stage("trace_rhs"):
        return abs(lhs - trace_rhs(f0, f1)), scale

"""Operator-trace identities on the multiplicative half-line.

Two identities are checked numerically on a logarithmic grid:

  * the commutator trace
        tr( conv(f0) [M_phi, conv(f1)] ) = tau(f0 * d(f1)),
    where conv(f) is multiplicative convolution with f, M_phi is
    multiplication by a smooth switch phi, d is the derivation
    (d f)(x) = f(x) ln x, * is multiplicative convolution, and
    tau(g) = g(1); the left side is discretised on a log grid and its
    weighted diagonal is summed over lags, so no kernel matrix is formed;

  * the switch identity  integral (phi(z) - phi(x z)) d*z = ln(1/x),
    which is what makes the trace independent of the particular phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowError
from .grids import cinf_step, trapezoid
from .stages import WORK, stage


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


def build_phi(width: float = 1.0) -> AuxiliaryPhi:
    return AuxiliaryPhi(width=width)


def phi_log_identity(phi: AuxiliaryPhi, x: float, *,
                     n_points: int = 20001) -> float:
    """Residual of integral (phi(z) - phi(x z)) d*z = ln(1/x).

    The integrand is supported where either switch is in transition,
    so a log-grid window covering both transition zones suffices.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    pad = 4.0 * phi.width + abs(math.log(x)) + 2.0
    u, h = LogGridSpec(n_points, pad).u_grid()
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
    """tr(conv(f0) [M_phi, conv(f1)]) on the log grid.

    The kernel K(x_i, x_j) = sum_k w_k f0(x_i/x_k) f1(x_k/x_j)
    (phi_k - phi_j) is traced against the weights w without forming it:

        sum_{i,k} w_i w_k (phi_k - phi_i) v0[i-k] v1[k-i]
            = sum_m (g[m] - g[-m]) a[m],

    with g[m] = v0[m] v1[-m] over the 2n-1 lags and a[m] =
    sum_k w_{k+m} w_k phi_k.  Each of f0 and f1 must have mass on the
    doubled window and its effective support must fit inside it, else
    WindowError.
    """
    u, h = grid.u_grid()
    v0 = _lag_values(f0, u, h)
    v1 = _lag_values(f1, u, h)
    for name, v in (("f0", v0), ("f1", v1)):
        peak = np.max(np.abs(v))
        if peak == 0.0:
            raise WindowError(
                f"trace window [-{2 * grid.half_width:g}, "
                f"{2 * grid.half_width:g}] holds no mass of {name}: every "
                f"lag sample is 0")
        edge = max(abs(v[0]), abs(v[-1]))
        if edge > 1e-13 * peak:
            raise WindowError(
                f"kernel support of {name} leaves the window: edge/peak = "
                f"{edge / peak:.3e}; enlarge half_width")
    g = v0 * v1[::-1]
    a = _lag_weights(grid.weights() * phi.of_log(u), h)
    return float(np.dot(g - g[::-1], a))


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


def trace_rhs(f0, f1, *, n_points: int = 30001,
              half_width: float = 18.0) -> float:
    """tau(f0 * d f1) = integral f0(x) f1(1/x) ln(1/x) d*x by an
    independent quadrature (finer and wider than the kernel grid)."""
    u, h = LogGridSpec(n_points, half_width).u_grid()
    return float(trapezoid(f0.of_log(u) * f1.of_log(-u) * (-u), h))


def toeplitz_trace_check(f0, f1, phi: AuxiliaryPhi,
                         grid: LogGridSpec | None = None) -> float:
    """Residual |tr(conv(f0) [M_phi, conv(f1)]) - tau(f0 * d f1)|."""
    grid = grid or LogGridSpec()
    WORK["trace_n"] = grid.n_points
    with stage("trace_kernel"):
        lhs = commutator_trace(f0, f1, phi, grid)
    with stage("trace_rhs"):
        return abs(lhs - trace_rhs(f0, f1))

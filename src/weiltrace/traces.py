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

The derivation calculus of the lattice operators is checked exactly on
weighted Dirac combs: conv(Z) d(conv(Z^{-1})) is a comb supported on
inverse prime powers with weights -ln p, equivalently tau applied after
convolving recovers the von Mangoldt weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowError
from .grids import cinf_step, trapezoid
from .operators import TruncationSpec, mobius_up_to, primes_up_to


@dataclass(frozen=True)
class AuxiliaryPhi:
    """Smooth switch phi on (0, inf): 0 below e^{-w}, 1 above e^{w},
    with the exact partition property phi(t) + phi(1/t) = 1.

    All derivatives vanish at the plateau edges, so integrands built
    from phi stay spectrally friendly for trapezoid quadrature.
    """
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

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
    u = np.linspace(-pad, pad, n_points)
    vals = phi.of_log(u) - phi.of_log(u + math.log(x))
    integral = float(trapezoid(vals, u[1] - u[0]))
    return abs(integral - math.log(1.0 / x))


@dataclass(frozen=True)
class LogGridSpec:
    """Uniform grid in u = ln x over [-U, U] with n points, carrying
    the d*x trapezoid weights."""
    n_points: int = 2048
    half_width: float = 8.0

    def __post_init__(self):
        if self.n_points < 16 or self.half_width <= 0:
            raise ValueError("bad grid spec")

    def u_grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width,
                           self.n_points)

    def weights(self) -> np.ndarray:
        h = 2.0 * self.half_width / (self.n_points - 1)
        w = np.full(self.n_points, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _lag_values(f, u: np.ndarray) -> np.ndarray:
    """f evaluated on the lag grid e^{u_i - u_j}, as the vector over
    lags m = i - j in [-(n-1), n-1]."""
    h = u[1] - u[0]
    lags = np.arange(-(u.size - 1), u.size) * h
    return np.asarray(f(np.exp(lags)), dtype=float)


def commutator_trace(f0, f1, phi: AuxiliaryPhi, grid: LogGridSpec) -> float:
    """tr(conv(f0) [M_phi, conv(f1)]) on the log grid.

    The kernel K(x_i, x_j) = sum_k w_k f0(x_i/x_k) f1(x_k/x_j)
    (phi_k - phi_j) is traced against the weights w without forming it:

        sum_{i,k} w_i w_k (phi_k - phi_i) v0[i-k] v1[k-i]
            = sum_m (g[m] - g[-m]) a[m],

    with g[m] = v0[m] v1[-m] over the 2n-1 lags and a[m] =
    sum_k w_{k+m} w_k phi_k.  The effective support of f0 and f1 must
    fit inside the doubled window, else WindowError.
    """
    u = grid.u_grid()
    w = grid.weights()
    v0 = _lag_values(f0, u)
    v1 = _lag_values(f1, u)
    peak = max(np.max(np.abs(v0)), np.max(np.abs(v1)))
    edge = max(abs(v0[0]), abs(v0[-1]), abs(v1[0]), abs(v1[-1]))
    if edge > 1e-13 * peak:
        raise WindowError(
            f"kernel support leaves the window: edge/peak = "
            f"{edge / peak:.3e}; enlarge half_width")
    g = v0 * v1[::-1]
    a = np.correlate(w, w * phi.of_log(u), "full")
    return float(np.dot(g - g[::-1], a))


def trace_rhs(f0, f1, *, n_points: int = 30001,
              half_width: float = 18.0) -> float:
    """tau(f0 * d f1) = integral f0(x) f1(1/x) ln(1/x) d*x by an
    independent quadrature (finer and wider than the kernel grid)."""
    u = np.linspace(-half_width, half_width, n_points)
    vals = np.asarray(f0(np.exp(u)), dtype=float) \
        * np.asarray(f1(np.exp(-u)), dtype=float) * (-u)
    return float(trapezoid(vals, u[1] - u[0]))


def toeplitz_trace_check(f0, f1, phi: AuxiliaryPhi,
                         grid: LogGridSpec | None = None) -> float:
    """Residual |tr(conv(f0) [M_phi, conv(f1)]) - tau(f0 * d f1)|."""
    trace = commutator_trace(f0, f1, phi, grid or LogGridSpec())
    return abs(trace - trace_rhs(f0, f1))


# ---------------------------------------------------------------------------
# Dirac-comb derivation calculus
# ---------------------------------------------------------------------------

def _comb_multiply(a: dict[int, float], b: dict[int, float],
                   n_max: int) -> dict[int, float]:
    """Multiplicative convolution of combs supported on {1/n}: indices
    multiply, weights convolve, truncated at n_max."""
    out: dict[int, float] = {}
    b_items = sorted(b.items())
    for na, wa in a.items():
        if wa == 0.0:
            continue
        cap = n_max // na
        for nb, wb in b_items:
            if nb > cap:
                break
            if wb == 0.0:
                continue
            n = na * nb
            out[n] = out.get(n, 0.0) + wa * wb
    return out


def _z_comb(n_max: int) -> dict[int, float]:
    return {n: 1.0 for n in range(1, n_max + 1)}


def _z_inverse_comb(n_max: int) -> dict[int, float]:
    mu = mobius_up_to(n_max)
    return {n: float(mu[n]) for n in range(1, n_max + 1) if mu[n]}


def _derive_comb(comb: dict[int, float]) -> dict[int, float]:
    """The derivation on combs: the mass at 1/n is scaled by
    ln(1/n) = -ln n."""
    return {n: -w * math.log(n) for n, w in comb.items()}


def von_mangoldt_comb(n_max: int) -> dict[int, float]:
    """conv(Z) applied to d(comb of Z^{-1}): the comb algebra route to
    the von Mangoldt weights, computed without any prime sieve."""
    return _comb_multiply(_z_comb(n_max), _derive_comb(_z_inverse_comb(n_max)),
                          n_max)


def weil_derivation_check(f, tr: TruncationSpec | None = None) -> float:
    """Residual between tau(f convolved against the comb-algebra
    weights) and the direct prime-power sum
    sum_p sum_e ln(p) f(p^e): the same finite sum assembled in two
    different index orders, so agreement is a roundoff-level check of
    the derivation calculus."""
    tr = tr or TruncationSpec()
    comb = von_mangoldt_comb(tr.n_max)
    ns = np.array(sorted(comb), dtype=float)
    ws = np.array([comb[int(n)] for n in ns])
    lhs = float(np.sum(ws * np.asarray(f(ns), dtype=float)))
    qs, lps = [], []
    for p in primes_up_to(tr.n_max):
        lp = math.log(p)
        q = p
        e = 1
        while q <= tr.n_max and e <= tr.e_max:
            qs.append(float(q))
            lps.append(lp)
            q *= p
            e += 1
    rhs = float(np.sum(np.array(lps)
                       * np.asarray(f(np.array(qs)), dtype=float)))
    return abs(lhs - rhs)


def derivation_inverse_identity(n_max: int = 500) -> float:
    """Max weight discrepancy between d(comb of Z^{-1}) and
    -Z^{-1} (d Z) Z^{-1} as truncated combs: the Leibniz rule
    d(Z^{-1}) = -Z^{-1} (d Z) Z^{-1} holds index-by-index below the
    truncation."""
    lhs = _derive_comb(_z_inverse_comb(n_max))
    zi = _z_inverse_comb(n_max)
    rhs = _comb_multiply(
        _comb_multiply(zi, _derive_comb(_z_comb(n_max)), n_max), zi, n_max)
    rhs = {n: -w for n, w in rhs.items()}
    worst = 0.0
    for n in set(lhs) | set(rhs):
        worst = max(worst, abs(lhs.get(n, 0.0) - rhs.get(n, 0.0)))
    return worst

"""Fourier and Mellin transforms for the test-function families.

The Fourier transform uses the convention
    (F f)(y) = integral f(x) exp(2 pi i x y) dx,
under which F is an involution on even functions and F^2 = -id on odd
ones.  On the Gaussian-polynomial family the transform is computed
symbolically (term by term, via the Hermite-style derivative recurrence),
so it is exact up to arithmetic rounding.

The Mellin transform uses the multiplicative-Haar normalisation
    (M f)(s) = integral_0^inf f(x) x^s dx/x;
on the critical line one FFT gives it at a whole grid of heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError, WindowError
from .families import ParityFunction, TestFunction
from .grids import QuadratureSpec, trapezoid, trapezoid_with_coarse
from .stages import WORK


def fourier(f: ParityFunction) -> ParityFunction:
    """Symbolic Fourier transform of a Gaussian-polynomial function.

    Each term c x^k exp(-a pi x^2) maps to
    (2 pi i)^{-k} (d/dy)^k [a^{-1/2} exp(-pi y^2 / a)],
    expanded back into the same family with Gaussian scale 1/a.
    """
    out = []
    for coeff, degree, alpha in f.terms:
        # Polynomial part of the k-th derivative, as {degree: coefficient}.
        poly = {0: alpha ** -0.5 + 0.0j}
        for _ in range(degree):
            nxt: dict[int, complex] = {}
            for d, c in poly.items():
                if d >= 1:
                    nxt[d - 1] = nxt.get(d - 1, 0.0) + d * c
                nxt[d + 1] = nxt.get(d + 1, 0.0) - (2.0 * math.pi / alpha) * c
            poly = nxt
        prefactor = coeff / (2j * math.pi) ** degree
        for d, c in poly.items():
            out.append((prefactor * c, d, 1.0 / alpha))
    return ParityFunction(parity=f.parity, terms=tuple(out))


@dataclass(frozen=True)
class MellinValue:
    """A Mellin-transform evaluation with an a-posteriori error estimate."""
    s: complex
    value: complex
    est_error: float


def mellin(f: TestFunction, s: complex, q: QuadratureSpec | None = None,
           ) -> MellinValue:
    """(M f)(s) by trapezoid quadrature on a logarithmic grid.

    In u = ln x the integrand f(e^u) e^{s u} is smooth with (for the
    supported families) fast decay, so the trapezoid rule is spectrally
    accurate.  The error estimate compares against the half-resolution
    grid; a window whose endpoints still carry mass raises WindowError.
    """
    s = complex(s)
    if q is None:
        q = QuadratureSpec()
    _, h, vals, edge = _window_samples(f, s, q)
    fine, coarse = trapezoid_with_coarse(vals, h)
    value = complex(fine)
    est = abs(value - complex(coarse))
    return MellinValue(s=s, value=value, est_error=est + 10.0 * edge * h)


def mellin_critical_line(f: TestFunction,
                         ) -> tuple[np.ndarray, np.ndarray, float]:
    """(r, (M f)(1/2 + i r), trunc) at r_k = 2 pi k / (m h),
    k = 0 .. n - 1, for an n-point grid of step h on the QuadratureSpec()
    window and m = 2 (n - 1), so r runs up to pi / h.

    Every value is the trapezoid sum that ``mellin`` forms at
    s = 1/2 + i r_k on the same grid; one FFT of length m gives them all.
    The step is halved, from QuadratureSpec()'s up to 64001 points
    (log-Gaussians down to sigma ~ 0.01), while |M f(1/2 + i pi / h)|
    exceeds 1e-13 of its peak.  As in ``mellin``, trunc = 10 edge h
    bounds each value's window truncation, and WindowError is raised.
    """
    q = QuadratureSpec()
    while True:
        u, h, g, edge = _window_samples(f, 0.5, q)
        g[[0, -1]] *= 0.5
        m = 2 * (u.size - 1)
        r = _critical_heights(u.size, h)
        # ifft(g)[k] * m = sum_j g_j e^{2 pi i j k / m} (= e^{i r_k j h})
        sums = np.fft.ifft(g, n=m)[:u.size] * m
        values = h * np.exp(1j * r * u[0]) * sums
        if (abs(values[-1]) <= 1e-13 * np.max(np.abs(values))
                or q.n_points >= 64001):
            WORK["fft_length"] = m
            return r, values, float(10.0 * edge * h)
        q = QuadratureSpec(n_points=2 * q.n_points - 1)


def _critical_heights(n_points: int, h: float) -> np.ndarray:
    """r_k = 2 pi k / (m h), k = 0 .. n - 1, m = 2 (n - 1): the heights
    of ``mellin_critical_line`` on an n-point grid of step h."""
    return np.arange(n_points) * (2.0 * math.pi / (2 * (n_points - 1) * h))


def _window_samples(f, s: complex, q: QuadratureSpec):
    """(u, h, f(e^u) e^{s u}, edge) on q's grid; WindowError when the
    larger endpoint sample, edge, is not negligible against the peak,
    when every sample is 0 (the mass, if any, lies outside the window),
    or when the peak, and so some sample, is not finite (e^{s u}
    overflows for huge s)."""
    u, h = q.u_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.of_log(u) * np.exp(s * u)
        scale = float(np.max(np.abs(vals)))
    if not 0.0 < scale < math.inf:
        raise WindowError(f"Mellin window [{q.u_min}, {q.u_max}] " + (
            "holds no mass: every sample is 0" if scale == 0.0
            else f"has a non-finite sample at s = {s}"))
    edge = max(abs(vals[0]), abs(vals[-1]))
    if edge > 1e-13 * scale:
        raise WindowError(
            f"Mellin window [{q.u_min}, {q.u_max}] truncates mass: "
            f"edge/peak = {edge / scale:.3e}")
    return u, h, vals, edge


def mellin_parity(f: ParityFunction, s: complex) -> MellinValue:
    """Restricted Mellin transform integral_0^inf f(x) x^s dx/x for a
    Gaussian-polynomial function.

    Convergence at x = 0 needs Re(s) + k_min > 0 where k_min is the
    lowest monomial degree present; otherwise DivergentIntegralError.
    The small-x tail below the quadrature window (u = ln x in [-60, 6],
    6001 points) is added analytically from the power-series expansion
    of the Gaussian factors.
    """
    s = complex(s)
    k_min = min(deg for _, deg, _ in f.terms)
    if s.real + k_min <= 0.05:
        raise DivergentIntegralError(
            f"Mellin integral diverges at 0: Re(s) + k_min = "
            f"{s.real + k_min:.3f} <= 0 (need > 0, with margin)")
    q = QuadratureSpec(u_min=-60.0, u_max=6.0, n_points=6001)
    u, h = q.u_grid()
    x = np.exp(u)
    vals = np.asarray(f(x), dtype=complex) * np.exp(s * u)
    fine, coarse = trapezoid_with_coarse(vals, h)
    value = complex(fine)
    est = abs(value - complex(coarse))
    # Analytic tail over (0, x0): expand exp(-a pi x^2) and integrate
    # monomials; converges fast since x0 = e^{u_min} is tiny.
    x0 = float(np.exp(q.u_min))
    tail = 0.0 + 0.0j
    for coeff, deg, alpha in f.terms:
        term = 0.0 + 0.0j
        for m in range(9):
            expo = s + deg + 2 * m
            term += (-alpha * math.pi) ** m / math.factorial(m) \
                * x0 ** expo / expo
        tail += coeff * term
    # Large-x edge must be in the Gaussian decay regime.
    scale = float(np.max(np.abs(vals))) or 1.0
    if abs(vals[-1]) > 1e-13 * scale:
        raise WindowError("mellin_parity window too small at large x")
    return MellinValue(s=s, value=value + tail, est_error=est + abs(tail) * 1e-12)


def _folded_log_grid(g, x_max: float, n_points: int = 4001):
    """(v, x, h, g(x) + g(-x)) on x = e^v, v in [-35, ln x_max], n_points
    points of step h: an integral over R folded to (0, inf), with x = 0
    (where dx/|x| and ln|x| are singular) off the grid.  For g negligible
    by |x| = x_max the integrands vanish at both ends, so plain
    trapezoid is spectrally accurate."""
    v, h = np.linspace(-35.0, math.log(x_max), n_points, retstep=True)
    x = np.exp(v)
    return v, x, h, (np.asarray(g(x), dtype=complex)
                     + np.asarray(g(-x), dtype=complex))


def haar_real_cross(psi) -> float:
    """integral_{R^x} psi(x) d^x x with Haar measure normalised so that
    it restricts to dx/x on the positive half-line for even psi; i.e.
    (1/2) integral_R psi(x) dx/|x|, over |x| <= 200.  Requires
    psi(0) = 0 for convergence.
    """
    _, _, h, folded = _folded_log_grid(psi, 200.0)
    return float(trapezoid(0.5 * folded.real, h))


def pair_log_fourier(psi, *, n_points: int = 4001) -> tuple[float, float]:
    """Duality pairing <F(ln|x|), psi> = integral ln|x| (F psi)(x) dx.

    Returns (value, est_error), where est_error is the change of the
    value when the log-weight integral uses every other of its n_points
    (odd) samples.

    psi is a Gaussian-polynomial function, whose closed-form Fourier
    transform is used (it is itself validated against quadrature in the
    test suite), so only the log-weight integral is numerical.  The
    archimedean term of the explicit formula is this pairing for
    psi(y) = f(|1 - y|); the explicit module evaluates it in closed form
    as its principal-value route.
    """
    if not isinstance(psi, ParityFunction):
        raise TypeError("psi must be a ParityFunction")
    if psi.parity == -1:
        # Pairing of an even distribution with an odd function.
        return 0.0, 0.0
    x_max = math.sqrt(48.0 * max(a for _, _, a in psi.terms) / math.pi) + 4.0
    v, x, h, folded = _folded_log_grid(fourier(psi), x_max, n_points)
    val, coarse = trapezoid_with_coarse(v * x * folded, h)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise WindowError(f"pairing has imaginary residue {val.imag:.3e}")
    return float(val.real), abs(float(val.real) - float(coarse.real))


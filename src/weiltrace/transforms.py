"""Fourier and Mellin transforms for the test-function families.

The Fourier transform uses the convention
    (F f)(y) = integral f(x) exp(2 pi i x y) dx,
under which F is an involution on even functions and F^2 = -id on odd
ones.  On the Gaussian-polynomial family the transform is computed
symbolically (term by term, via the Hermite-style derivative recurrence),
so it is exact up to arithmetic rounding.

The Mellin transform uses the multiplicative-Haar normalisation
    (M f)(s) = integral_0^inf f(x) x^s dx/x;
``mellin`` is each family's closed form with its stated rounding bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowError
from .families import ParityFunction, TestFunction
from .grids import trapezoid, trapezoid_with_coarse


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
    """A Mellin-transform value with a bound on its rounding error."""
    s: complex
    value: complex
    est_error: float


def mellin(f: TestFunction | ParityFunction, s: complex) -> MellinValue:
    """(M f)(s): f's closed form, with est_error the rounding bound f
    states for it; WindowError when the value is not finite (huge s)."""
    s = complex(s)
    value = complex(f.mellin_closed(s))
    if not cmath.isfinite(value):
        raise WindowError(f"the Mellin transform of {f!r} is not finite "
                          f"at s = {s}")
    return MellinValue(s=s, value=value, est_error=f.mellin_rounding(s))


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


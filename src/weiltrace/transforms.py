"""Fourier and Mellin transforms of the test-function families, and the
pairings of Weil's archimedean distribution with them, in closed form.

The Fourier transform (F f)(y) = integral f(x) exp(2 pi i x y) dx is an
involution on even functions and F^2 = -id on odd ones; on the
Gaussian-polynomial family it is computed term by term by the
Hermite-style derivative recurrence.  The Mellin transform uses the
multiplicative-Haar normalisation (M f)(s) = integral_0^inf f(x) x^s dx/x.
The pairings come from Gamma and digamma at integers and half-integers;
each value carries a bound on its rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import WindowError
from .families import ParityFunction, TestFunction, _U, _rounding
from .special import EULER_GAMMA


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


def _even_terms(psi) -> tuple:
    """psi's terms, none for an odd psi: both pairings below vanish."""
    if any(complex(c).imag for c, _, _ in psi.terms):
        raise ValueError(f"psi must have real coefficients, got {psi!r}")
    return psi.terms if psi.parity == 1 else ()


def haar_real_cross(psi) -> tuple[float, float]:
    """(1/2) reg integral_R psi(y) dy/|y| = (1/2) integral_R (psi(y) -
    psi(0) 1_{|y|<1}) dy/|y|, the Haar integral over R^x in its finite
    part, as (value, est_error): c y^k e^{-a pi y^2} gives (c/2)
    Gamma(k/2) (a pi)^{-k/2} for k > 0 and -(c/2)(gamma + ln a pi) for
    k = 0 (Frullani); est_error bounds the rounding (standard model)."""
    parts = []
    for c, k, a in _even_terms(psi):
        api = a * math.pi
        if k:
            v = 0.5 * c * math.factorial(k // 2 - 1) / api ** (k // 2)
            parts.append((v, _rounding(k + 4, abs(v), 2)))
        else:
            log_api = math.log(api)
            parts.append((-0.5 * c * (EULER_GAMMA + log_api), _rounding(
                3 * EULER_GAMMA + 4 * abs(log_api) + 2, 0.5 * abs(c),
                3 + abs(log_api))))
    value = math.fsum(v for v, _ in parts)
    return value, math.fsum(e for _, e in parts) + _U * abs(value)


def pair_log_fourier(psi) -> tuple[float, float]:
    """<F(ln|x|), psi> = integral ln|x| (F psi)(x) dx, as (value, est_error).

    c x^{2n} e^{-b pi x^2} in F psi gives (c/2) Gamma(m) (b pi)^{-m}
    [digamma(m) - ln b pi] at m = n + 1/2, with Gamma(m) = sqrt(pi)
    prod_{j<=n} (j - 1/2) and digamma(m) = -gamma - 2 ln 2 + sum_{j<=n}
    2/(2j - 1).  est_error bounds the rounding (standard model), fourier's
    included: each path of its recurrence from a term of degree k rounds
    at most 6k + 4 times, and the paths to one coefficient share its sign.
    """
    parts = []
    for term in _even_terms(psi):
        for c, d, b in fourier(ParityFunction(1, (term,))).terms:
            n, log_bpi = d // 2, math.log(b * math.pi)
            steps = math.fsum(2.0 / (2 * j - 1) for j in range(1, n + 1))
            gap = steps - EULER_GAMMA - 2.0 * math.log(2.0) - log_bpi
            v = (0.5 * c.real * math.prod(j - 0.5 for j in range(1, n + 1))
                 * math.sqrt(math.pi) * (b * math.pi) ** -(n + 0.5))
            # c, Gamma, (b pi)^-m and the gap round relative to the value,
            # digamma's sum and ln b pi relative to their own sizes
            parts.append((v * gap, _rounding(
                (6 * term[1] + 4 * n + 16) * abs(gap) + (n + 3) * (steps + 2)
                + 2 * abs(log_bpi) + 3, abs(v), 8 * (1 + abs(gap)))))
    value = math.fsum(v for v, _ in parts)
    return value, math.fsum(e for _, e in parts) + _U * abs(value)

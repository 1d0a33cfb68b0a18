"""Special functions: Gamma, digamma, zeta, Hurwitz zeta, the completed
zeta function, Dirichlet L-functions, and the Hardy Z-function.

All are scalar except digamma, which is elementwise on arrays because
the archimedean term integrates it along a whole line.

Everything here is self-contained binary64 arithmetic: Gamma by the
Lanczos approximation, zeta and Hurwitz zeta by Euler-Maclaurin with
explicit Bernoulli corrections, good to ~1e-13 relative accuracy on the
strip |Im s| <= 120, -5 <= Re s <= 5 (reflection outside).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ImaginaryResidueError, NonPrimitiveCharacterError,
                     PoleError)

# Lanczos coefficients, g = 7, n = 9 (double precision standard set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# B_2, B_4, ..., B_24
_BERNOULLI_EVEN = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0, 854513.0 / 138.0, -236364091.0 / 2730.0,
)

EULER_GAMMA = 0.5772156649015328606


def _is_nonpositive_integer(s, tol: float = 1e-12):
    """Whether s is within tol of 0, -1, -2, ...; elementwise on arrays."""
    return ((abs(s.imag) < tol) & (s.real <= 0.5)
            & (abs((s.real + 0.5) % 1.0 - 0.5) < tol))


def gamma(s: complex) -> complex:
    """Gamma(s) by Lanczos, with reflection for Re s < 1/2."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"Gamma pole at s = {s}")
    if s.real < 0.5:
        # Gamma(s) Gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * gamma(1.0 - s))
    z = s - 1.0
    a = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        a += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * a


def loggamma(s: complex) -> complex:
    """log Gamma(s) for Re s > 0, principal-branch Lanczos logs.

    Continuous for moderate |Im s| in the right half plane; callers that
    need a globally continuous branch (the Riemann-Siegel theta) only use
    it for small imaginary parts.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise PoleError("loggamma implemented for Re s > 0 only")
    z = s - 1.0
    a = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        a += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return (0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t
            + cmath.log(a))


def digamma(z):
    """psi(z) by recurrence into the asymptotic region, elementwise on
    arrays; a scalar argument gives a complex scalar."""
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    pole = _is_nonpositive_integer(z)
    if np.any(pole):
        raise PoleError(f"digamma pole at z = {z[pole][0]}")
    # Reflection: psi(1-z) - psi(z) = pi cot(pi z)
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    shift = np.zeros_like(w)
    small = np.abs(w) < 16.0
    while np.any(small):
        shift[small] -= 1.0 / w[small]
        w[small] += 1.0
        small = np.abs(w) < 16.0
    inv2 = 1.0 / (w * w)
    out = np.log(w) - 0.5 / w + shift
    term = inv2
    for k, b2k in enumerate(_BERNOULLI_EVEN[:8], start=1):
        out -= b2k / (2.0 * k) * term
        term = term * inv2
    out[left] -= math.pi / np.tan(math.pi * z[left])
    return complex(out[0]) if scalar else out


def zeta_tail(n_start: int, s: complex, n_bernoulli: int = 12) -> complex:
    """Euler-Maclaurin estimate of sum_{n > N} n^{-s} (N = n_start).

    Valid to ~1e-14 once N >~ |Im s| / 2; exposed so callers can pair a
    plain partial sum with an independent truncation point.
    """
    big_n = float(n_start)
    out = big_n ** (1.0 - s) / (s - 1.0) - 0.5 * big_n ** (-s)
    poch = s  # s (s+1) ... rising
    power = big_n ** (-s - 1.0)
    fact = 1.0
    for k in range(1, n_bernoulli + 1):
        fact *= (2.0 * k - 1.0) * (2.0 * k)
        out += _BERNOULLI_EVEN[k - 1] / fact * poch * power
        poch *= (s + (2.0 * k - 1.0)) * (s + 2.0 * k)
        power /= big_n * big_n
    return out


def zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin; reflection for Re s < 0."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s = 1")
    if s.real < 0.0:
        # zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
        return (2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
                * gamma(1.0 - s) * zeta(1.0 - s))
    n_terms = max(20, math.ceil(abs(s.imag)))
    partial = sum(n ** (-s) for n in range(1, n_terms + 1))
    return partial + zeta_tail(n_terms, s)


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum (n + a)^{-s}, 0 < a <= 1, by Euler-Maclaurin."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("Hurwitz zeta pole at s = 1")
    if not 0.0 < a <= 1.0:
        raise ValueError("need 0 < a <= 1")
    n_terms = max(20, math.ceil(abs(s.imag)))
    partial = sum((n + a) ** (-s) for n in range(n_terms))
    big = n_terms - 1 + a
    out = partial + big ** (1.0 - s) / (s - 1.0) - 0.5 * big ** (-s)
    poch = s
    power = big ** (-s - 1.0)
    fact = 1.0
    for k in range(1, 13):
        fact *= (2.0 * k - 1.0) * (2.0 * k)
        out += _BERNOULLI_EVEN[k - 1] / fact * poch * power
        poch *= (s + (2.0 * k - 1.0)) * (s + 2.0 * k)
        power /= big * big
    return out


@dataclass(frozen=True)
class CompletedZetaValue:
    s: complex
    xi: complex
    zeta: complex
    gamma_factor: complex


def xi(s: complex) -> CompletedZetaValue:
    """Completed zeta: xi(s) = pi^{-s/2} Gamma(s/2) zeta(s)."""
    s = complex(s)
    if abs(s) < 1e-12 or abs(s - 1.0) < 1e-12:
        raise PoleError("xi has poles at s = 0 and s = 1")
    gf = cmath.exp(-0.5 * s * math.log(math.pi)) * gamma(s / 2.0)
    zv = zeta(s)
    return CompletedZetaValue(s=s, xi=gf * zv, zeta=zv, gamma_factor=gf)


def l_chi(chi, s: complex) -> complex:
    """Dirichlet L-function via the Hurwitz decomposition
    L(s, chi) = d^{-s} sum_{a mod d} chi(a) zeta(s, a/d).

    chi is any object with .modulus and .value(n) (see operators module)
    and must be primitive and non-trivial; then L is entire and the
    apparent pole at s = 1 cancels, so s = 1 is evaluated by a small
    offset average.
    """
    s = complex(s)
    d = chi.modulus
    if hasattr(chi, "is_primitive") and not chi.is_primitive:
        raise NonPrimitiveCharacterError(
            f"character mod {d} is not primitive")
    if abs(s - 1.0) < 1e-12:
        eps = 1e-5
        return 0.5 * (l_chi(chi, s + eps) + l_chi(chi, s - eps))
    total = 0.0 + 0.0j
    for a in range(1, d + 1):
        ca = chi.value(a)
        if ca != 0:
            total += ca * hurwitz_zeta(s, a / d)
    return d ** (-s) * total


def lambda_chi(chi, s: complex) -> complex:
    """Completed Dirichlet L-function
    Lambda(s, chi) = (d/pi)^{(s+a)/2} Gamma((s+a)/2) L(s, chi),
    with a = 0 for even chi, 1 for odd chi (standard normalisation,
    external to the operator picture; |Lambda_chi(s)| equals
    |Lambda_{conj chi}(1-s)| by the functional equation)."""
    s = complex(s)
    a = 0 if chi.parity == 1 else 1
    d = chi.modulus
    return ((d / math.pi) ** ((s + a) / 2.0) * gamma((s + a) / 2.0)
            * l_chi(chi, s))


def rs_theta(t: float) -> float:
    """Riemann-Siegel theta: arg Gamma(1/4 + it/2) - (t/2) ln pi,
    continuous in t.

    Computed through the Lanczos log-Gamma: on the vertical line
    Re = 1/4 the shifted argument stays in the right half-plane and the
    rational prefactor never winds, so the principal branch is already
    the continuous one at every height used here.
    """
    if t < 0:
        return -rs_theta(-t)
    return loggamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)


def zero_count_estimate(t: float) -> float:
    """Riemann-von Mangoldt estimate N(T) ~ theta(T)/pi + 1."""
    return rs_theta(t) / math.pi + 1.0


def hardy_z(t: float, *, imag_tol: float = 1e-9) -> float:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real by construction."""
    if abs(t) > 120.0:
        raise PoleError("hardy_z implemented for |t| <= 120")
    val = cmath.exp(1j * rs_theta(t)) * zeta(0.5 + 1j * t)
    if abs(val.imag) > imag_tol * max(1.0, abs(val.real)):
        raise ImaginaryResidueError(
            f"Z({t}) has imaginary residue {val.imag:.3e}")
    return val.real

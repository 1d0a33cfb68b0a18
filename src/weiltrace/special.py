"""Special functions: Gamma, digamma, zeta, Hurwitz zeta, the completed
zeta function, Dirichlet L-functions, and the Hardy Z-function.

All but xi and L are elementwise on numpy arrays, through the same code
as for a scalar, which gives a Python complex (a float for theta, the
zero count and Z).  hardy_z_grid evaluates Z on an equally spaced grid
(the zero scan) with the partial sums of all points as one matrix
product.

Everything here is self-contained binary64 arithmetic (long double
only for the large phases of hardy_z_grid): Gamma by the
Lanczos approximation, zeta and Hurwitz zeta by Euler-Maclaurin with
explicit Bernoulli corrections, good to ~1e-13 relative accuracy on the
strip |Im s| <= 120, -5 <= Re s <= 5 (zeta and L by reflection for
Re s < 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ImaginaryResidueError, NonPrimitiveCharacterError,
                     PoleError)
from .stages import WORK

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


def _lanczos(z):
    """Lanczos sum and shifted point (a, t) for Gamma(z + 1)."""
    a = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        a += c / (z + i)
    return a, z + _LANCZOS_G + 0.5


def gamma(s):
    """Gamma(s) by Lanczos, with reflection for Re s < 1/2."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    pole = _is_nonpositive_integer(s)
    if np.any(pole):
        raise PoleError(f"Gamma pole at s = {s[pole][0]}")
    # Gamma(s) Gamma(1-s) = pi / sin(pi s)
    left = s.real < 0.5
    z = np.where(left, 1.0 - s, s) - 1.0
    a, t = _lanczos(z)
    out = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * np.exp(-t) * a
    out[left] = math.pi / (np.sin(math.pi * s[left]) * out[left])
    return complex(out[0]) if scalar else out


def loggamma(s):
    """log Gamma(s) for Re s > 0, principal-branch Lanczos logs.

    Continuous for moderate |Im s| in the right half plane; callers that
    need a globally continuous branch (the Riemann-Siegel theta) only use
    it for small imaginary parts.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(s.real <= 0.0):
        raise PoleError("loggamma implemented for Re s > 0 only")
    z = s - 1.0
    a, t = _lanczos(z)
    out = (0.5 * math.log(2.0 * math.pi) + (z + 0.5) * np.log(t) - t
           + np.log(a))
    return complex(out[0]) if scalar else out


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


def zeta_tail(n_start, s):
    """Euler-Maclaurin estimate of sum_{n > N} n^{-s} (N = n_start, also
    a non-integer: then over N + 1, N + 2, ...), elementwise in N and s.

    Valid to ~1e-14 once N >~ |Im s| / 2; exposed so callers can pair a
    plain partial sum with an independent truncation point.
    """
    scalar = np.ndim(n_start) == 0 and np.ndim(s) == 0
    big_n = np.asarray(n_start, dtype=float)
    s = np.asarray(s, dtype=complex)
    out = big_n ** (1.0 - s) / (s - 1.0) - 0.5 * big_n ** (-s)
    poch = s  # s (s+1) ... rising
    power = big_n ** (-s - 1.0)
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI_EVEN, start=1):
        fact *= (2.0 * k - 1.0) * (2.0 * k)
        out += b2k / fact * poch * power
        poch = poch * (s + (2.0 * k - 1.0)) * (s + 2.0 * k)
        power /= big_n * big_n
    return complex(out) if scalar else out


def _euler_maclaurin(s, a) -> np.ndarray:
    """sum_{n >= 0} (n + a)^{-s} over the broadcast of s and a: each
    element's first N = max(20, ceil|Im s|) terms exp(-s ln(n + a)),
    formed 256 arguments by 256 indices at a time, then zeta_tail."""
    shape = np.broadcast_shapes(np.shape(s), np.shape(a))
    s, a = (np.broadcast_to(x, shape).ravel() for x in (s, a))
    n_terms = np.maximum(20, np.ceil(np.abs(s.imag))).astype(np.int64)
    partial = np.zeros(s.shape, dtype=complex)
    order = np.argsort(n_terms, kind="stable")
    for start in range(0, s.size, 256):
        sel = order[start:start + 256]
        cap = n_terms[sel, None]
        top = int(cap.max())
        for n0 in range(0, top, 256):
            n = np.arange(n0, min(n0 + 256, top))
            terms = np.exp(-s[sel, None] * np.log(n + a[sel, None]))
            partial[sel] += np.where(n < cap, terms, 0.0).sum(axis=1)
    return (partial + zeta_tail(n_terms - 1 + a, s)).reshape(shape)


def zeta(s):
    """Riemann zeta by Euler-Maclaurin; reflection for Re s < 0."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("zeta pole at s = 1")
    # zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
    left = s.real < 0.0
    out = _euler_maclaurin(np.where(left, 1.0 - s, s), 1.0)
    sl = s[left]
    out[left] *= (2.0 ** sl * math.pi ** (sl - 1.0)
                  * np.sin(math.pi * sl / 2.0) * gamma(1.0 - sl))
    return complex(out[0]) if scalar else out


def hurwitz_zeta(s, a):
    """zeta(s, a) = sum (n + a)^{-s}, 0 < a <= 1, by Euler-Maclaurin.

    There is no reflection, so for Re s < 0 the ~1e-13 accuracy of the
    strip is not reached (l_chi uses the functional equation there)."""
    scalar = np.ndim(s) == 0 and np.ndim(a) == 0
    s, a = np.asarray(s, dtype=complex), np.asarray(a, dtype=float)
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("Hurwitz zeta pole at s = 1")
    if not np.all((0.0 < a) & (a <= 1.0)):
        raise ValueError("need 0 < a <= 1")
    out = _euler_maclaurin(s, a)
    return complex(out) if scalar else out


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
    L(s, chi) = d^{-s} sum_{a mod d} chi(a) zeta(s, a/d) for Re s >= 0,
    and for Re s < 0 by the functional equation
    L(s, chi) = W (d/pi)^{1/2-s} Gamma((1-s+a)/2) Gamma(1-(s+a)/2)
                sin(pi (s+a)/2) / pi  L(1-s, conj chi),
    with a = 0 (even chi) or 1 (odd) and root number
    W = tau(chi) / (i^a sqrt(d)); neither Gamma has a pole there.

    chi is a DirichletCharacter (see operators module) and must be
    primitive; then L is entire unless chi is trivial (d = 1, L = zeta).
    At s = 1 the poles of the Hurwitz terms cancel, as sum chi(a) = 0,
    and L(1, chi) = -(1/d) sum_{a=1}^{d} chi(a) psi(a/d) in closed form.
    """
    s = complex(s)
    d = chi.modulus
    if not chi.is_primitive:
        raise NonPrimitiveCharacterError(
            f"character mod {d} is not primitive")
    if s.real < 0.0:
        a = 0 if chi.parity == 1 else 1
        root = chi.gauss_sum() / (1j ** a * math.sqrt(d))
        return (root * (d / math.pi) ** (0.5 - s)
                * gamma((1.0 - s + a) / 2.0) * gamma(1.0 - (s + a) / 2.0)
                * cmath.sin(math.pi * (s + a) / 2.0) / math.pi
                * l_chi(chi.conjugate(), 1.0 - s))
    values = np.array([chi.value(a) for a in range(1, d + 1)], dtype=complex)
    a = np.flatnonzero(values) + 1
    if abs(s - 1.0) < 1e-12:
        if d == 1:
            raise PoleError("L(s, chi) mod 1 is zeta, with a pole at s = 1")
        return -complex(np.sum(values[a - 1] * digamma(a / d))) / d
    total = np.sum(values[a - 1] * hurwitz_zeta(s, a / d))
    return d ** (-s) * complex(total)


def rs_theta(t):
    """Riemann-Siegel theta: arg Gamma(1/4 + it/2) - (t/2) ln pi,
    continuous and odd in t.

    Computed through the Lanczos log-Gamma: on the vertical line
    Re = 1/4 the shifted argument stays in the right half-plane and the
    rational prefactor never winds, so the principal branch is already
    the continuous one at every height used here.
    """
    a = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.sign(t) * (loggamma(0.25 + 0.5j * a).imag
                        - 0.5 * a * math.log(math.pi))
    return float(out[0]) if np.ndim(t) == 0 else out


def zero_count_estimate(t):
    """Riemann-von Mangoldt estimate N(T) ~ theta(T)/pi + 1."""
    return rs_theta(t) / math.pi + 1.0


def _z_from_zeta(t, zeta_half, imag_tol: float = 1e-9):
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) from zeta_half, the zeta
    values at 1/2 + it: the real part, once every imaginary part is
    within imag_tol * max(1, |Z|), else ImaginaryResidueError."""
    val = np.exp(1j * rs_theta(t)) * zeta_half
    bad = np.abs(val.imag) > imag_tol * np.maximum(1.0, np.abs(val.real))
    if np.any(bad):
        raise ImaginaryResidueError(
            f"Z({t[bad][0]}) has imaginary residue {val.imag[bad][0]:.3e}")
    return val.real


def hardy_z(t, *, imag_tol: float = 1e-9):
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real by construction.
    One zeta call for the whole array t; a scalar t gives a float."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t) > 120.0):
        raise PoleError("hardy_z implemented for |t| <= 120")
    z = _z_from_zeta(t, zeta(0.5 + 1j * t), imag_tol)
    return float(z[0]) if scalar else z


# Points per block of hardy_z_grid: the rows of its phase table.
GRID_BLOCK = 64


def hardy_z_grid(step: float, count: int) -> np.ndarray:
    """Z at t = np.arange(count) * step, to ~1e-13 relative like
    hardy_z, with the Euler-Maclaurin partial sums of all points formed
    as one matrix product.

    With K = GRID_BLOCK and t = (b K + k) step,
    e^{-it ln n} = e^{-i b K step ln n} e^{-i k step ln n}, so the
    partial sums are P @ V with P[k, n] = e^{-i k step ln n} (K x N) and
    V[n, b] = n^{-1/2} e^{-i b K step ln n} (N x blocks), rows n > N_b
    of V zeroed: ~N (K + blocks) exponentials instead of ~N per point.
    N_b = max(20, ceil(largest |t| of block b)) is at least each of its
    points' own hardy_z term count.  This is the exact, simplest case of
    the multi-evaluation of Odlyzko & Schoenhage (Trans. AMS 309, 1988).
    The tail, theta, the |t| <= 120 cap and the imaginary-residue check
    are those of hardy_z.  Records the product's shape in WORK as
    scan_blocks and scan_terms (N).
    """
    t = np.arange(count) * step
    if np.any(np.abs(t) > 120.0):
        raise PoleError("hardy_z_grid implemented for |t| <= 120")
    blocks = -(-count // GRID_BLOCK)
    top = t[np.minimum(np.arange(1, blocks + 1) * GRID_BLOCK, count) - 1]
    n_b = np.maximum(20, np.ceil(np.abs(top))).astype(np.int64)
    n = np.arange(1, n_b.max(initial=20) + 1)
    phase = np.exp(-1j * step * np.outer(np.arange(GRID_BLOCK), np.log(n)))
    # V's phases b K step ln n reach 120 ln 120 ~ 575, where binary64
    # rounding (~5e-14) would show in Z: they are formed and reduced
    # mod 2 pi in long double (80-bit on x86-64; where it is binary64,
    # Z is still within ~1.2e-13 of hardy_z).
    ld = np.longdouble
    angle = np.outer(np.log(n.astype(ld)),
                     GRID_BLOCK * ld(step) * np.arange(blocks))
    angle %= 8 * np.arctan(ld(1))
    base = np.exp(-0.5 * np.log(n)[:, None] - 1j * angle.astype(float))
    base[n[:, None] > n_b] = 0.0
    WORK.update(scan_blocks=blocks, scan_terms=n.size)
    partial = (phase @ base).T.ravel()[:count]
    tail = zeta_tail(np.repeat(n_b, GRID_BLOCK)[:count], 0.5 + 1j * t)
    return _z_from_zeta(t, partial + tail)

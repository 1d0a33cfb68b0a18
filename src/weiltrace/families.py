"""Symbolic test-function families on the multiplicative half-line and on R.

Two families:

* ``TestFunction`` -- smooth functions on (0, inf) with rapid decay at both
  ends in log coordinates.  The family is closed, exactly, under the
  involution J f(x) = x^{-1} f(x^{-1}), the scaling (lambda_t f)(x) =
  f(x/t), multiplication by powers x^s, and constant multiples, so every
  operator identity can be checked without interpolation error.

* ``ParityFunction`` -- even or odd Schwartz functions on R of the form
  sum_j c_j x^{k_j} exp(-a_j pi x^2), closed under the Fourier transform
  (see :mod:`weiltrace.transforms`).

Log-Gaussian algebra used throughout: with u = ln x,

    x^s * LG(a, mu, sigma) = LG(a e^{s mu + s^2 sigma^2 / 2},
                                mu + s sigma^2, sigma)

so scaled powers and shifts of log-Gaussians collapse back into the
family; ``ScaledPower`` and ``Shifted`` survive as explicit nodes only
over compactly supported bumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class TestFunction:
    """Base class; concrete members are the dataclasses below."""

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr <= 0.0):
            raise DomainError("test functions live on x > 0")
        out = self._eval(x_arr)
        return float(out) if out.ndim == 0 else out

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # Decay metadata used by truncated sums to certify tails.
    def support(self):
        """(lo, hi) if compactly supported, else None."""
        return None

    def loggauss_params(self):
        """(a, mu, sigma) if |f| == |a| exp(-(ln x - mu)^2 / 2 sigma^2)."""
        return None

    def mellin_closed(self, s: complex):
        """Closed-form Mellin transform, or None if unavailable."""
        return None


@dataclass(frozen=True)
class LogGaussian(TestFunction):
    amplitude: float = 1.0
    center: float = 0.0       # mean of ln x
    width: float = 1.0        # std dev of ln x

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")

    def _eval(self, x):
        u = np.log(x)
        return self.amplitude * np.exp(
            -((u - self.center) ** 2) / (2.0 * self.width ** 2))

    def loggauss_params(self):
        return (self.amplitude, self.center, self.width)

    def mellin_closed(self, s):
        # int a exp(-(u-mu)^2/2s^2) e^{su} du
        a, mu, sg = self.amplitude, self.center, self.width
        return a * math.sqrt(2.0 * math.pi) * sg * np.exp(
            s * mu + 0.5 * (sg * s) ** 2)


@dataclass(frozen=True)
class LogBump(TestFunction):
    """a * exp(-shape / ((u - A)(B - u))) on A < u < B, zero outside."""

    amplitude: float
    lo: float
    hi: float
    shape: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi):
            raise ValueError("need 0 < lo < hi")
        if not self.shape > 0:
            raise ValueError("shape must be positive")

    def _eval(self, x):
        a_log, b_log = math.log(self.lo), math.log(self.hi)
        u = np.log(x)
        out = np.zeros_like(u)
        inside = (u > a_log) & (u < b_log)
        ui = u[inside]
        with np.errstate(over="ignore"):
            out[inside] = self.amplitude * np.exp(
                -self.shape / ((ui - a_log) * (b_log - ui)))
        return out

    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class ScaledPower(TestFunction):
    """x^exponent * base(x)."""

    base: TestFunction
    exponent: float

    def _eval(self, x):
        return x ** self.exponent * self.base._eval(x)

    def support(self):
        return self.base.support()

    def mellin_closed(self, s):
        inner = self.base.mellin_closed(s + self.exponent)
        return inner


@dataclass(frozen=True)
class Shifted(TestFunction):
    """(lambda_t base)(x) = base(x / t)."""

    base: TestFunction
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("scale t must be positive")

    def _eval(self, x):
        return self.base._eval(x / self.t)

    def support(self):
        s = self.base.support()
        return None if s is None else (s[0] * self.t, s[1] * self.t)

    def mellin_closed(self, s):
        inner = self.base.mellin_closed(s)
        return None if inner is None else self.t ** s * inner


def cmul(f: TestFunction, c: float) -> TestFunction:
    """Constant multiple c * f, pushed into leaf amplitudes."""
    if isinstance(f, LogGaussian):
        return LogGaussian(c * f.amplitude, f.center, f.width)
    if isinstance(f, LogBump):
        return LogBump(c * f.amplitude, f.lo, f.hi, f.shape)
    if isinstance(f, ScaledPower):
        return ScaledPower(cmul(f.base, c), f.exponent)
    if isinstance(f, Shifted):
        return Shifted(cmul(f.base, c), f.t)
    raise TypeError(f"unknown test function {type(f)!r}")


def power_weight(f: TestFunction, s: float) -> TestFunction:
    """x^s * f, collapsed into the family where possible."""
    if s == 0.0:
        return f
    if isinstance(f, LogGaussian):
        a, mu, sg = f.amplitude, f.center, f.width
        return LogGaussian(a * math.exp(s * mu + 0.5 * (s * sg) ** 2),
                           mu + s * sg ** 2, sg)
    if isinstance(f, ScaledPower):
        e = f.exponent + s
        return f.base if e == 0.0 else ScaledPower(f.base, e)
    if isinstance(f, Shifted):
        # x^s f(x/t) = t^s (x/t)^s f(x/t)
        return Shifted(power_weight(cmul(f.base, f.t ** s), s), f.t)
    return ScaledPower(f, s)


def scale(f: TestFunction, t: float) -> TestFunction:
    """lambda_t f: x -> f(x / t)."""
    if not t > 0:
        raise DomainError("scale t must be positive")
    if t == 1.0:
        return f
    if isinstance(f, LogGaussian):
        return LogGaussian(f.amplitude, f.center + math.log(t), f.width)
    if isinstance(f, Shifted):
        return scale(f.base, f.t * t)
    return Shifted(f, t)


def reflect(f: TestFunction) -> TestFunction:
    """x -> f(1/x), collapsed into the family."""
    if isinstance(f, LogGaussian):
        return LogGaussian(f.amplitude, -f.center, f.width)
    if isinstance(f, LogBump):
        return LogBump(f.amplitude, 1.0 / f.hi, 1.0 / f.lo, f.shape)
    if isinstance(f, ScaledPower):
        return power_weight(reflect(f.base), -f.exponent)
    if isinstance(f, Shifted):
        return scale(reflect(f.base), 1.0 / f.t)
    raise TypeError(f"unknown test function {type(f)!r}")


def apply_J(f: TestFunction) -> TestFunction:
    """J f(x) = x^{-1} f(x^{-1}); an exact involution on the family."""
    return power_weight(reflect(f), -1.0)


def tau(f: TestFunction) -> float:
    """tau(f) = f(1)."""
    return f(1.0)


# ---------------------------------------------------------------------------
# Parity functions (Gaussian-times-polynomial family on R)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityFunction:
    """sum_j c_j x^{k_j} exp(-a_j pi x^2) with all k_j of one parity.

    parity is +1 (even, all k even) or -1 (odd, all k odd).  Coefficients
    may be complex: the Fourier transform of an odd real member is
    i times an odd real member.
    """

    parity: int
    terms: tuple  # of (coeff complex, degree int, gauss_scale float)

    def __post_init__(self):
        if self.parity not in (+1, -1):
            raise ValueError("parity must be +1 or -1")
        want_odd = self.parity == -1
        for c, k, alpha in self.terms:
            if k < 0 or (k % 2 == 1) != want_odd:
                raise ValueError(f"degree {k} breaks parity {self.parity}")
            if not alpha > 0:
                raise ValueError("gaussian scale must be positive")

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.zeros(x_arr.shape, dtype=complex)
        for c, k, alpha in self.terms:
            out = out + c * x_arr ** k * np.exp(-alpha * math.pi * x_arr ** 2)
        if out.ndim == 0:
            out = complex(out)
            return out.real if abs(out.imag) == 0.0 else out
        return out

    def at_zero(self) -> complex:
        return sum(c for c, k, _ in self.terms if k == 0)

    def __add__(self, other: "ParityFunction") -> "ParityFunction":
        if self.parity != other.parity:
            raise ValueError("cannot add functions of opposite parity")
        return ParityFunction(self.parity, self.terms + other.terms)

    def __mul__(self, c) -> "ParityFunction":
        return ParityFunction(
            self.parity,
            tuple((c * cj, k, alpha) for cj, k, alpha in self.terms))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)

    def dilate(self, t: float) -> "ParityFunction":
        """lambda_t f: x -> f(x / t)."""
        if not t > 0:
            raise DomainError("dilation factor must be positive")
        return ParityFunction(
            self.parity,
            tuple((c / t ** k, k, alpha / t ** 2)
                  for c, k, alpha in self.terms))


def gaussian_even(coeff: float = 2.0, alpha: float = 1.0) -> ParityFunction:
    """coeff * exp(-alpha pi x^2); gauss2 = gaussian_even() is F-invariant."""
    return ParityFunction(+1, ((coeff, 0, alpha),))


def gaussian_odd(coeff: float = 2.0, alpha: float = 1.0) -> ParityFunction:
    """coeff * x exp(-alpha pi x^2); the odd special function at defaults."""
    return ParityFunction(-1, ((coeff, 1, alpha),))

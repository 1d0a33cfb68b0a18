"""Symbolic test-function families on the multiplicative half-line and on R.

Two families:

* ``TestFunction`` -- smooth functions on (0, inf) with rapid decay at both
  ends in log coordinates: log-Gaussians and compactly supported
  log-bumps.  The scaling (lambda_t f)(x) = f(x/t) maps each family to
  itself, and the involution J f(x) = x^{-1} f(x^{-1}) maps log-Gaussians
  to log-Gaussians, so the operator identities are checked without
  interpolation error.

* ``ParityFunction`` -- even or odd Schwartz functions on R of the form
  sum_j c_j x^{k_j} exp(-a_j pi x^2), closed under the Fourier transform
  (see :mod:`weiltrace.transforms`).

Every quadrature runs in u = ln x, where d*x = du, so a half-line
member is evaluated there directly: ``f.of_log(u)`` is f(e^u), with no
exp/log round trip, and ``f(x)`` is ``f.of_log(ln x)`` for x > 0.

With u = ln x, x^s LG(a, mu, sigma) = LG(a e^{s mu + s^2 sigma^2 / 2},
mu + s sigma^2, sigma), which gives J in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowError


class TestFunction:
    """Base class; concrete members are the dataclasses below."""

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr <= 0.0):
            raise DomainError("test functions live on x > 0")
        out = self.of_log(np.log(x_arr))
        return float(out) if out.ndim == 0 else out

    def of_log(self, u) -> np.ndarray:
        """f(e^u) for an array of u = ln x."""
        raise NotImplementedError

    def _require_finite(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"{type(self).__name__} parameters must be "
                             f"finite, got {self!r}")

    # Decay metadata used by truncated sums to certify tails.
    def support(self):
        """(lo, hi) if compactly supported, else None."""
        return None

    def loggauss_params(self):
        """(a, mu, sigma) if |f| == |a| exp(-(ln x - mu)^2 / 2 sigma^2)."""
        return None

    def log_scale(self):
        """The width in u = ln x over which f varies, or None if unknown."""
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
        self._require_finite()
        # 2 sigma^2 divides every exponent: it must not underflow to 0.
        if not (self.width > 0 and self.width ** 2 > 0):
            raise ValueError("width must be positive, with width^2 > 0")

    def of_log(self, u):
        # Below a width of about 1e-150 the exponent overflows to -inf,
        # and exp(-inf) = 0 is exact.
        with np.errstate(over="ignore"):
            return self.amplitude * np.exp(
                -((u - self.center) ** 2) / (2.0 * self.width ** 2))

    def loggauss_params(self):
        return (self.amplitude, self.center, self.width)

    def log_scale(self):
        return self.width

    def mellin_closed(self, s):
        # int a exp(-(u-mu)^2/2s^2) e^{su} du, which may overflow alone
        a, c, e = self.amplitude, math.sqrt(2.0 * math.pi) * self.width, (
            s * self.center + 0.5 * (self.width * s) ** 2)
        top = e.real.max() if isinstance(e, np.ndarray) else e.real
        if top > 709.0 or abs(a) * c * math.exp(top) == math.inf:
            raise WindowError(f"the Mellin transform of {self!r} overflows")
        return a * c * np.exp(e)


@dataclass(frozen=True)
class LogBump(TestFunction):
    """a * exp(-shape / ((u - A)(B - u))) on A < u < B, zero outside."""

    amplitude: float
    lo: float
    hi: float
    shape: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if not (0.0 < self.lo < self.hi):
            raise ValueError("need 0 < lo < hi")
        if not self.shape > 0:
            raise ValueError("shape must be positive")

    def of_log(self, u):
        a_log, b_log = math.log(self.lo), math.log(self.hi)
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        inside = (u > a_log) & (u < b_log)
        ui = u[inside]
        with np.errstate(over="ignore"):
            out[inside] = self.amplitude * np.exp(
                -self.shape / ((ui - a_log) * (b_log - ui)))
        return out

    def support(self):
        return (self.lo, self.hi)


def visible_interval(f, eps: float, *, relative: bool = False,
                     ) -> tuple[float, float]:
    """The ln x where |f| can reach eps (eps times |amplitude| if
    relative): mu -+ sigma sqrt(2 ln(|a| / eps)) for a log-Gaussian, the
    log of the support for a log-bump."""
    params = f.loggauss_params() if hasattr(f, "loggauss_params") else None
    if params is not None:
        a, mu, sig = params
        ratio = 1.0 / eps if relative else abs(a) / eps
        radius = sig * math.sqrt(2.0 * math.log(max(ratio, 1)))
        return mu - radius, mu + radius
    support = f.support() if hasattr(f, "support") else None
    if support is None:
        raise TypeError(f"no decay metadata to locate {f!r}")
    return math.log(support[0]), math.log(support[1])


def scale(f: TestFunction, t: float) -> TestFunction:
    """lambda_t f: x -> f(x / t), exact on both half-line families."""
    if not t > 0:
        raise DomainError("scale t must be positive")
    if isinstance(f, LogGaussian):
        return LogGaussian(f.amplitude, f.center + math.log(t), f.width)
    if isinstance(f, LogBump):
        return LogBump(f.amplitude, t * f.lo, t * f.hi, f.shape)
    raise TypeError(f"cannot scale {type(f)!r}")


def apply_J(f: TestFunction) -> TestFunction:
    """J f(x) = x^{-1} f(x^{-1}), an involution; in closed form on
    log-Gaussians only."""
    if not isinstance(f, LogGaussian):
        raise TypeError(f"J is implemented for LogGaussian, not {type(f)!r}")
    a, mu, sg = f.amplitude, f.center, f.width
    return LogGaussian(a * math.exp(mu + 0.5 * sg * sg), -mu - sg * sg, sg)


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

    def dilate(self, t: float) -> "ParityFunction":
        """lambda_t f: x -> f(x / t)."""
        if not t > 0:
            raise DomainError("dilation factor must be positive")
        return ParityFunction(
            self.parity,
            tuple((c / t ** k, k, alpha / t ** 2)
                  for c, k, alpha in self.terms))


def gaussian_even() -> ParityFunction:
    """2 exp(-pi x^2), the builtin gauss2; F-invariant."""
    return ParityFunction(+1, ((2.0, 0, 1.0),))


def gaussian_odd() -> ParityFunction:
    """2 x exp(-pi x^2), the builtin xgauss2; F maps it to i times itself."""
    return ParityFunction(-1, ((2.0, 1, 1.0),))

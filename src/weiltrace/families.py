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

from .errors import DomainError, TailBoundError, WindowError

# log_step: steps per unit of f's width in ln x, and the step for an f of
# unknown width (a step of 1/1024 with two Richardson steps leaves 8e-10
# in the principal value at LogGaussian(1, 0, 0.012)).
_LOG_STEPS_PER_SCALE, _MIN_LOG_STEP = 64, 1.0 / 2048
# Chebyshev's psi(x) < 1.03883 x, x > 0 (Rosser & Schoenfeld, Illinois
# J. Math. 6, 1962), which bounds the prime powers a prime sum leaves out.
_PSI_SLOPE = 1.03883


def _rung(t: float, rounding=math.ceil):
    """rounding(t), or inf for a t past every float (a subnormal x): a
    first rung that no n_max reaches, so _term_cap raises TailBoundError."""
    return rounding(t) if t < math.inf else math.inf


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

    # How f decays: each truncated sum or integral over f is certified
    # from these, and a new family states each of them.
    def visible(self, eps: float, relative: bool = False):
        """(lo, hi): the ln x where |f| can reach eps (eps |amplitude|
        if relative)."""
        raise NotImplementedError

    def lattice_start(self, x: float) -> int:
        """The first N of operators._term_cap's doubling ladder at x:
        past the peak of n -> |f(n x)|, so lattice_tail holds above it
        (math.inf when that N overflows a float)."""
        raise NotImplementedError

    def lattice_tail(self, x: float, n_from: int) -> float:
        """A bound for sum_{n >= n_from} |f(n x)|, n_from > lattice_start(x),
        non-increasing in t = n_from x and in x (so in n_from and in x)."""
        raise NotImplementedError

    def prime_tail(self, log_x: float) -> float:
        """A bound for sum_{n > X} Lambda(n) (|f(n)| + |f(1/n)| / n) over
        the prime powers n past X = e^log_x, by partial summation
        against psi(x) < 1.03883 x."""
        raise NotImplementedError

    def zero_tail(self, height: float):
        """A bound for sum_{gamma > height} 2 |M f(1/2 + i gamma)| over
        the zeros 1/2 + i gamma, or None if f states none."""
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

    def visible(self, eps, relative=False):
        # mu -+ sigma sqrt(2 ln(|a| / eps))
        ratio = 1.0 / eps if relative else abs(self.amplitude) / eps
        radius = self.width * math.sqrt(2.0 * math.log(max(ratio, 1)))
        return self.center - radius, self.center + radius

    def lattice_start(self, x):
        # e^mu overflows a float past mu = 709.78
        peak = math.exp(self.center) if self.center < 709.0 else math.inf
        lo = max(1, _rung(peak / x))
        return max(lo + 1, 16)

    def lattice_tail(self, x, n_from):
        # f(n_from x) + (1/x) int_{n_from x}^inf f, once the summand falls
        a, mu, sig = abs(self.amplitude), self.center, self.width
        t0 = n_from * x
        if math.log(t0) < mu:
            raise TailBoundError("tail bound needs the decreasing regime")
        z = (math.log(t0) - mu - sig * sig) / (math.sqrt(2.0) * sig)
        integral = (a / x) * math.sqrt(2.0 * math.pi) * sig \
            * math.exp(mu + 0.5 * sig * sig) * 0.5 * math.erfc(z)
        head = a * math.exp(-0.5 * ((math.log(t0) - mu) / sig) ** 2)
        return head + integral

    def prime_tail(self, log_x):
        # h(x) = |f(x)| and |f(1/x)| / x rise to one peak, then fall
        a, mu, sig = self.amplitude, self.center, self.width
        return (_psi_tail(a, mu, sig, 0, log_x)
                + _psi_tail(a, -mu, sig, 1, log_x))

    def zero_tail(self, height):
        # the critical-line envelope of |M f| against twice the density
        a, mu, sig = self.amplitude, self.center, self.width
        amp = abs(a) * math.sqrt(2.0 * math.pi) * sig \
            * math.exp(0.5 * mu + 0.125 * sig * sig)
        expo = -0.5 * sig * sig * height * height
        if expo < -700.0:
            return 0.0
        density = math.log(max(height, 3.0))  # > ln(T/2pi)/2pi, generous
        return 4.0 * amp * density * math.exp(expo) \
            * (1.0 / (sig * sig * height) + 1.0)

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

    def visible(self, eps, relative=False):
        return math.log(self.lo), math.log(self.hi)

    def lattice_start(self, x):
        # f(n x) = 0 for every n past the support
        return _rung(self.hi / x, math.floor)

    def lattice_tail(self, x, n_from):
        # the n >= n_from with n x < hi, each at most sup|f|
        count = max(0, math.ceil(self.hi / x) - n_from)
        return count * abs(self(math.sqrt(self.lo * self.hi)))

    def prime_tail(self, log_x):
        # sup|f| 1.03883 Y for each of x -> f(x), f(1/x) / x whose
        # support ends at Y > X
        ends = [y for y in (self.hi, 1.0 / self.lo) if math.log(y) > log_x]
        return _PSI_SLOPE * abs(self(math.sqrt(self.lo * self.hi))) \
            * sum(ends)


def _psi_tail(a: float, c: float, sig: float, k: int, log_x: float):
    """1.03883 (X' h(X') + int_{X'}^inf h), X' = max(e^log_x, peak of h),
    for h(x) = |a| x^{-k} exp(-(ln x - c)^2 / 2 sig^2); inf on overflow."""
    w, s2 = 1 - k, sig * sig
    lx = max(log_x, c - k * s2)
    with np.errstate(over="ignore"):
        return _PSI_SLOPE * abs(a) * float(
            np.exp(w * lx - (lx - c) ** 2 / (2.0 * s2))
            + np.exp(w * c + 0.5 * w * s2) * sig * math.sqrt(0.5 * math.pi)
            * math.erfc((lx - c - w * s2) / (sig * math.sqrt(2.0))))


def log_step(f) -> float:
    """A trapezoid step in u = ln x for integrands that vary like f: the
    largest power of two at most min(sigma, 1) / 64 for f's scale sigma
    in ln x (TestFunction.log_scale), and never below 1/2048, the step
    when f states no scale."""
    sigma = f.log_scale()
    if sigma is None:
        return _MIN_LOG_STEP
    width = min(sigma, 1.0) / _LOG_STEPS_PER_SCALE
    return max(math.ldexp(0.5, math.frexp(width)[1]), _MIN_LOG_STEP)


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

    def lattice_start(self, x: float) -> int:
        """As TestFunction.lattice_start: past every term's peak."""
        peak = max(math.sqrt(max(k, 1) / (2.0 * a * math.pi))
                   for _, k, a in self.terms)
        return max(16, _rung(peak / x) + 1)

    def lattice_tail(self, x: float, n_from: int) -> float:
        """As TestFunction.lattice_tail, via the envelope
        t^k e^{-a pi t^2} <= C_k e^{-a pi t^2 / 2} with
        C_k = (k / (a pi))^{k/2} e^{-k/2}."""
        total = 0.0
        t0 = n_from * x
        for coeff, k, alpha in self.terms:
            c_k = 1.0 if k == 0 else (k / (alpha * math.pi)) ** (0.5 * k) \
                * math.exp(-0.5 * k)
            half = 0.5 * alpha * math.pi
            if half * t0 * t0 > 700.0:
                continue
            env = c_k * math.exp(-half * t0 * t0)
            # head term + integral comparison (the envelope falls)
            total += abs(coeff) * (env + env / (2.0 * half * t0 * x))
        return total

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

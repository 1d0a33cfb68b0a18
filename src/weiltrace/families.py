"""Symbolic test-function families on the multiplicative half-line and on R.

Two families:

* ``TestFunction`` -- functions on (0, inf) that decay at both ends in
  log coordinates, log-Gaussians and compactly supported log-B-splines,
  each with a closed-form Mellin transform and a stated height past
  which it fades on the critical line.  The scaling (lambda_t f)(x) =
  f(x/t) maps each family to itself, and J f(x) = x^{-1} f(x^{-1}) maps
  log-Gaussians to log-Gaussians, so the operator identities are
  checked without interpolation error.

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergentIntegralError, DomainError, TailBoundError,
                     WindowError)
from .special import loggamma

# log_step: steps per unit of f's width in ln x, and the smallest step (a
# step of 1/1024 with two Richardson steps leaves 8e-10 in the principal
# value at LogGaussian(1, 0, 0.012)).
_LOG_STEPS_PER_SCALE, _MIN_LOG_STEP = 64, 1.0 / 2048
# Chebyshev's psi(x) < 1.03883 x, x > 0 (Rosser & Schoenfeld, Illinois
# J. Math. 6, 1962), which bounds the prime powers a prime sum leaves out.
_PSI_SLOPE = 1.03883
# W_inf's weight w(r) = ln pi - Re digamma(1/4 + i r/2) has |w(r)| <=
# ln r + 2.2 / r, r > 0: r (|w| - ln r) peaks at 2.10 near r = 0.73, and
# |w(r)| -> ln(r / 2 pi) as r grows.
_WEIGHT_SLACK = 2.2
# Unit roundoff and smallest subnormal of binary64.  The Mellin rounding
# bounds take u per rounding, sqrt(5) u per complex product and 1 ulp =
# 2 u per exp, log, sin, cos, sinh, cosh (Higham, Accuracy and Stability
# of Numerical Algorithms, ch. 3), and for a rounding into the subnormals
# 2^-1074 times the factors that multiply it later.
_U, _TINY = 2.0 ** -53, math.ulp(0.0)


def _rounding(rel: float, size: float, floor: float) -> float:
    """rel u size + floor 2^-1074, and 0 for the first where size is 0."""
    return float((rel * _U * size if size else 0.0) + floor * _TINY)


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

    def zero_tail(self, height: float) -> float:
        """A bound for sum_{gamma > height} 2 |M f(1/2 + i gamma)| over
        the zeros 1/2 + i gamma."""
        raise NotImplementedError

    def archimedean_tail(self, height: float) -> float:
        """A bound for (1/pi) int_{height}^inf |M f(1/2 + i r)| |w(r)| dr,
        W_inf's heights above height, with |w(r)| <= ln r + 2.2 / r."""
        raise NotImplementedError

    def visible_height(self, eps: float) -> float:
        """A height above which |M f(1/2 + i r)| < eps |M f(1/2)|."""
        raise NotImplementedError

    def log_scale(self) -> float:
        """The width in u = ln x over which f varies."""
        raise NotImplementedError

    def mellin_closed(self, s: complex):
        """(M f)(s) in closed form, the product of _mellin_factors(s),
        elementwise on an array s; WindowError when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = math.prod(self._mellin_factors(s))
        if not np.all(np.isfinite(m)):
            raise WindowError(f"the Mellin transform of {self!r} overflows")
        return m

    def _mellin_factors(self, s) -> tuple:
        """Factors whose product is (M f)(s), elementwise on an array s."""
        raise NotImplementedError

    def mellin_rounding(self, s: complex) -> float:
        """A bound on mellin_closed(s)'s rounding at a finite scalar s."""
        raise NotImplementedError


@dataclass(frozen=True)
class LogGaussian(TestFunction):
    amplitude: float = 1.0
    center: float = 0.0       # mean of ln x
    width: float = 1.0        # std dev of ln x

    def __post_init__(self):
        self._require_finite()
        # 2 sigma^2 divides every exponent: it must neither underflow to
        # 0 nor overflow.
        if not (self.width > 0 and 0 < self.width * self.width < math.inf):
            raise ValueError("width must be positive, with 0 < width^2 < inf")

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

    def archimedean_tail(self, height):
        # int_R^inf e^{-sig^2 r^2 / 2} dr <= e^{-sig^2 R^2 / 2} / (sig^2 R),
        # and ln r <= ln R + (r - R) / R
        mu, s2, r = self.center, self.width ** 2, height
        expo = 0.5 * mu + 0.125 * s2 - 0.5 * s2 * r * r
        amp = abs(self.amplitude) * math.sqrt(2.0 * math.pi) * self.width \
            * math.exp(max(expo, -745.0))
        return amp / (s2 * r * math.pi) \
            * (max(math.log(r), 0.0) + 1.0 + _WEIGHT_SLACK / r)

    def visible_height(self, eps):
        # |M f(1/2 + i r)| = |M f(1/2)| e^{-sig^2 r^2 / 2}, exactly
        return math.sqrt(2.0 * math.log(1.0 / eps)) / self.width

    def log_scale(self):
        return self.width

    def _mellin_factors(self, s):
        # int a exp(-(u-mu)^2/2s^2) e^{su} du = a sqrt(2 pi) sigma e^E,
        # E = s mu + (sigma s)^2 / 2
        with np.errstate(all="ignore"):
            return (self.amplitude * (math.sqrt(2.0 * math.pi) * self.width),
                    np.exp(s * self.center + 0.5 * np.square(self.width * s)))

    def mellin_rounding(self, s):
        # E is off by (2 |s mu| + (3 + sqrt 5) |sigma s|^2 / 2) u, and so is
        # e^E relatively; a sqrt(2 pi) sigma, exp, cos, sin and the product
        # add 9.2 u; a c, exp(Re E), its product with cos and the last one
        # may round into the subnormals.
        ac, ee = map(abs, self._mellin_factors(s))
        ws = abs(self.width * s)
        return _rounding(10.0 + 2.0 * abs(s * self.center) + 2.65 * ws * ws,
                         ac * ee, ee + 2.0 * ac + 2.0)


@dataclass(frozen=True)
class LogSpline(TestFunction):
    """a B_K((u - c) / h) in u = ln x: the centred cardinal B-spline of
    order K (degree K - 1, C^{K-2}, unit integral) on K knot intervals
    of width h = ln(hi / lo) / K around c = ln(lo hi) / 2, zero outside
    [ln lo, ln hi].  So M f(s) = a h e^{sc} (sinh(sh/2) / (sh/2))^K, and
    |sinh z| <= cosh(Re z) gives its critical-line envelope
        |M f(1/2 + it)| <= |a| h e^{c/2} (2 cosh(h/4) / (h |s|))^K."""

    amplitude: float
    lo: float
    hi: float
    order: int = 8

    def __post_init__(self):
        self._require_finite()
        if not (0.0 < self.lo < self.hi and self.order == int(self.order)
                and 3 <= self.order <= 12):
            raise ValueError(f"need 0 < lo < hi and an integer order from "
                             f"3 to 12, got {self!r}")
        object.__setattr__(self, "order", int(self.order))
        if not self.log_scale() > 0.0:
            raise ValueError("need ln lo < ln hi")

    def _centre(self) -> float:
        return 0.5 * (math.log(self.lo) + math.log(self.hi))

    def _envelope(self, height: float) -> float:
        """The envelope's bound on |M f(1/2 + it)| for t >= height."""
        h = self.log_scale()
        return abs(self.amplitude) * h * math.exp(0.5 * self._centre()) \
            * (2.0 * math.cosh(0.25 * h) / (h * height)) ** self.order

    def of_log(self, u):
        # de Boor: b[i] = (r - 1)! B_r(tau + i) on the unit knots, x = m + tau
        # knots in from the nearer end, sums nonnegative terms (5.8e-16 of
        # the peak at K <= 12; truncated powers cancel to 6.6e-15)
        k, u = self.order, np.asarray(u, dtype=float)
        x = np.atleast_1d(0.5 * k - np.abs((u - self._centre())
                                           / self.log_scale()))
        m = np.clip(np.floor(x), 0, k - 1).astype(int)
        tau, b = x - m, [np.ones_like(x)]
        for r in range(2, k + 1):
            b = [0.0, *b, 0.0]
            b = [(tau + i) * b[i + 1] + (r - tau - i) * b[i]
                 for i in range(r)]
        out = np.where(x > 0.0, np.choose(m, b), 0.0)
        return (self.amplitude / math.factorial(k - 1) * out).reshape(u.shape)

    def _peak(self) -> float:
        return abs(float(self.of_log(self._centre())))

    def visible(self, eps, relative=False):
        return math.log(self.lo), math.log(self.hi)

    def lattice_start(self, x):
        # f(n x) = 0 for every n past the support
        return _rung(self.hi / x, math.floor)

    def lattice_tail(self, x, n_from):
        # the n >= n_from with n x < hi, each at most sup|f|
        return max(0, math.ceil(self.hi / x) - n_from) * self._peak()

    def prime_tail(self, log_x):
        # sup|f| 1.03883 Y for each of x -> f(x), f(1/x) / x whose
        # support ends at Y > X
        ends = [y for y in (self.hi, 1.0 / self.lo) if math.log(y) > log_x]
        return _PSI_SLOPE * self._peak() * sum(ends)

    def zero_tail(self, height):
        # E(r) = E(T) (T / r)^K over the zeros above T >= 14 (N(14) = 0),
        # by parts against N(r) = (r / 2 pi) ln(r / 2 pi e) + 7/8 + S + O,
        # |S + O| <= B(r) = 0.112 ln r + 0.278 ln ln r + 2.52 (Trudgian,
        # J. Number Theory 134, 2014):
        # int E ln(r / 2 pi) / 2 pi + 2 E(T) B(T) + int E B'
        k, t = self.order, max(height, 14.0)
        e_t = self._envelope(t)
        i0 = e_t * t / (k - 1)                      # int_T^inf E dr
        i1 = i0 * (math.log(t) + 1.0 / (k - 1))     # int_T^inf E ln r dr
        b_t = 0.112 * math.log(t) + 0.278 * math.log(math.log(t)) + 2.52
        return 2.0 * ((i1 - math.log(2.0 * math.pi) * i0) / (2.0 * math.pi)
                      + 2.0 * e_t * b_t
                      + (0.112 + 0.278 / math.log(t)) * i0 / t)

    def archimedean_tail(self, height):
        # (1/pi) int_R^inf E(R) (R / r)^K (ln r + 2.2 / r) dr
        k, r = self.order, height
        return self._envelope(r) / math.pi * (
            r * (math.log(r) + 1.0 / (k - 1)) / (k - 1) + _WEIGHT_SLACK / k)

    def visible_height(self, eps):
        # _envelope(|s|) / |M f(1/2)| = (coth(h/4) / 2 |s|)^K, |s| >= r
        return 0.5 / math.tanh(0.25 * self.log_scale()) \
            * eps ** (-1.0 / self.order)

    def log_scale(self):
        return (math.log(self.hi) - math.log(self.lo)) / self.order

    def _mellin_factors(self, s):
        # a h, e^{sc} and (sinh(z) / z)^K, z = sh/2, with sinh(z) / z =
        # sinc(i z / pi), which np.sinc takes as 1 at z = 0
        h = self.log_scale()
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.amplitude * h, np.exp(s * self._centre()),
                    np.sinc(s * (0.5j * h / math.pi)) ** self.order)

    def mellin_rounding(self, s):
        # In units of u, lam = |ln lo| + |ln hi|: h is off by 2 lam / K h
        # + 2, c by lam + |c|, so e^{sc} by |s| (lam + 2 |c|) + 5; z by 3.7
        # more than h, so sinh(z) / z by that times 1 + |z coth z| (large
        # near sinh's zeros); sin, the quotient and the power add 16.3 to
        # each of the K factors, the last products 4.3.
        k, h, c = self.order, self.log_scale(), self._centre()
        lam = abs(math.log(self.lo)) + abs(math.log(self.hi))
        z = 0.5 * h * complex(s)
        zcothz = abs(z / cmath.tanh(z)) if z else 1.0
        ah, esc, sk = map(abs, self._mellin_factors(s))
        return _rounding(
            (2.0 * lam / (k * h) + 6.0) * (1.0 + k * (1.0 + zcothz))
            + 17.0 * k + 10.0 + abs(s) * (lam + 2.0 * abs(c)),
            ah * esc * sk, 2.0 + sk * (2.0 + 2.0 * ah + esc) + 8.0 * ah * esc)


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
    in ln x (TestFunction.log_scale), and never below 1/2048."""
    width = min(f.log_scale(), 1.0) / _LOG_STEPS_PER_SCALE
    return max(math.ldexp(0.5, math.frexp(width)[1]), _MIN_LOG_STEP)


def scale(f: TestFunction, t: float) -> TestFunction:
    """lambda_t f: x -> f(x / t), exact on both half-line families."""
    if not t > 0:
        raise DomainError("scale t must be positive")
    if isinstance(f, LogGaussian):
        return LogGaussian(f.amplitude, f.center + math.log(t), f.width)
    if isinstance(f, LogSpline):
        return LogSpline(f.amplitude, t * f.lo, t * f.hi, f.order)
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
        with np.errstate(over="ignore"):
            for c, k, alpha in self.terms:
                g = np.exp(-alpha * math.pi * x_arr ** 2)
                # x^k overflows only where g is 0: the term is 0, not NaN
                xk = x_arr ** k if k < 2 else np.where(g > 0, x_arr ** k, 0.0)
                out = out + c * xk * g
        if out.ndim == 0:
            out = complex(out)
            return out.real if abs(out.imag) == 0.0 else out
        return out

    def at_zero(self) -> complex:
        return sum(c for c, k, _ in self.terms if k == 0)

    def _mellin_terms(self, s: complex) -> list:
        """M(c x^k e^{-a pi x^2})(s) = c Gamma((s+k)/2) (a pi)^{-(s+k)/2}
        / 2 per term, as one exp of ln Gamma, which underflows to 0 at large
        |Im s| (Gamma alone is 0 times inf); DivergentIntegralError unless
        Re(s) + k_min > 0 (the lowest degree), where it converges at 0."""
        k_min = min(deg for _, deg, _ in self.terms)
        if s.real + k_min <= 0.05:
            raise DivergentIntegralError(
                f"Mellin integral diverges at 0: Re(s) + k_min = "
                f"{s.real + k_min:.3f} <= 0 (need > 0, with margin)")
        with np.errstate(all="ignore"):
            return [0.5 * c * np.exp(loggamma(0.5 * (s + k))
                                     - 0.5 * (s + k) * math.log(a * math.pi))
                    for c, k, a in self.terms]

    def mellin_closed(self, s: complex) -> complex:
        with np.errstate(all="ignore"):
            return complex(sum(self._mellin_terms(complex(s))))

    def mellin_rounding(self, s: complex) -> float:
        # special's stated 1e-13 accuracy for Gamma, not a proven bound
        return 1e-13 * float(sum(map(abs, self._mellin_terms(complex(s)))))

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

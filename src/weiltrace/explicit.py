"""The explicit formula: spectral side, prime terms, archimedean term.

The identity checked here is
    sum_z ord(z) (M f)(z) = sum_p W_p(f) + W_inf(f),
where z runs over the poles (order +1 at 0 and 1) and critical-line
zeros (order -1 each) of the completed zeta function, the local term
W_p(f) = ln(p) sum_e [f(p^e) + p^{-e} f(p^{-e})] collects the powers of
the prime p, and W_inf is the archimedean local term.  The prime side
sums, in one call of f, the prime powers in f's visible interval (the
ln x where |f| can exceed 1e-20, which also cuts the principal-value
route below) and bounds the rest by Chebyshev's psi(x) < 1.03883 x.

W_inf is computed by two genuinely different routes:
  * Weil's digamma form (primary),
        W_inf(f) = (1/pi) integral_0^inf Re (M f)(1/2 + i r)
                   (ln pi - Re digamma(1/4 + i r/2)) dr,
    with the Mellin transform on the critical line taken from one FFT
    of the log-grid samples (A. Weil, 1952; E. Bombieri, 2000);
  * the duality pairing -<F(ln|x|), psi> with psi(y) = f(|1-y|), where
    F(ln|x|) = -(1/2)|y|^{-1}_reg - (gamma + ln 2 pi) delta is written in
    closed form: the symmetric-cut principal value of
    integral f(x) (|1-x|^{-1} + (1+x)^{-1}) dx plus c_inf f(1), with
    c_inf = ln(2 pi) + gamma (secondary; folded by x -> 1/x onto one
    integral over ln x >= 0).
Their disagreement is monitored and fed into the error budget.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BudgetExceededError, DisagreementError
from .families import TestFunction, visible_interval
from .grids import QuadratureSpec, trapezoid, trapezoid_with_coarse
from .operators import TruncationSpec, primes_up_to
from .special import EULER_GAMMA, digamma
from .stages import WORK, stage
from .transforms import _critical_heights, mellin, mellin_critical_line
from .zeros import ZeroTable

# Principal-value step in u = ln x and |ln x| edge; the largest relative
# route disagreement.  A step of 1/1024 with two Richardson steps leaves
# 8e-10 at LogGaussian(1, 0, 0.012).
_PV_STEP = 1.0 / 2048
_PV_EDGE = 60.0
_CROSS_CHECK_TOL = 1e-5
# ln(1e308): W_prime_total's largest prime power.
_LOG_MAX_POWER = 308.0 * math.log(10.0)
# The prime side leaves out powers where |f| < _PRIME_EPS and bounds them by
# psi(x) < 1.03883 x, x > 0 (Rosser & Schoenfeld, Illinois J. Math. 6, 1962).
_PRIME_EPS, _PSI_SLOPE = 1e-20, 1.03883


def _mellin_value(f, s: complex) -> complex:
    closed = f.mellin_closed(s) if isinstance(f, TestFunction) else None
    return mellin(f, s).value if closed is None else complex(closed)


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


def _prime_cut(f, tr: TruncationSpec) -> tuple[float, float]:
    """(L, bound): the prime side keeps the powers n with ln n <= L, and
    bound covers every power it leaves out.

    L, the larger |end| of f's visible interval (families.visible_interval)
    and at most ln(1e308) so that n is finite, leaves out n and 1/n where
    |f| < 1e-20.  Each omitted n
    exceeds X = min(e^L, p_max, 2^(e_max + 1)).  For h(x) = |f(x)| and
    |f(1/x)| / x, which rise to one peak and then fall, partial summation
    against psi(x) < 1.03883 x gives sum_{n > X} Lambda(n) h(n) <=
    1.03883 (X' h(X') + int_{X'}^inf h) with X' = max(X, peak of h); for
    a log-bump (peak at the middle of its support in ln x) it is at most
    sup|f| 1.03883 Y for each h whose support ends at Y > X."""
    u_lo, u_hi = visible_interval(f, _PRIME_EPS)
    log_cut = min(max(u_hi, -u_lo), _LOG_MAX_POWER)
    log_x = min(log_cut, math.log(tr.p_max), (tr.e_max + 1) * math.log(2.0))
    params = f.loggauss_params() if hasattr(f, "loggauss_params") else None
    if params is not None:
        a, mu, sig = params
        return log_cut, (_psi_tail(a, mu, sig, 0, log_x)
                         + _psi_tail(a, -mu, sig, 1, log_x))
    lo, hi = f.support()
    ends = [y for y in (hi, 1.0 / lo) if math.log(y) > log_x]
    return log_cut, _PSI_SLOPE * abs(f(math.sqrt(lo * hi))) * sum(ends)


def W_prime_total(f, tr: TruncationSpec | None = None,
                  ) -> tuple[float, float]:
    """(sum over p <= p_max, e <= e_max, ln p^e <= L of ln(p) [f(p^e) +
    p^{-e} f(p^{-e})], bound for the other prime powers), L and the bound
    from _prime_cut; the kept (p, e) pairs go to f in one flat array."""
    tr = tr or TruncationSpec()
    log_cut, tail = _prime_cut(f, tr)
    primes = primes_up_to(tr.p_max)
    # A relative margin keeps the primes at the edge of e^L for the caps
    # below to decide; exp(ln(1e308)) is finite.
    kept = bisect_right(primes, math.exp(min(log_cut, _LOG_MAX_POWER))
                        * (1.0 + 1e-9))
    p = np.asarray(primes[:kept], dtype=float)
    lp = np.log(p)
    caps = np.minimum(np.floor(log_cut / lp), tr.e_max).astype(int)
    idx = np.repeat(np.arange(p.size), caps)
    n = p[idx] ** (np.arange(idx.size) + 1
                   - np.repeat(np.cumsum(caps) - caps, caps))
    WORK.update(primes=len(primes), prime_powers=n.size)
    return float(np.sum(lp[idx] * (f(n) + f(1.0 / n) / n))), tail


def pv_regularised(f) -> float:
    """The symmetric-cut principal value
        lim_{eps -> 0} [ integral_{|1-x| > eps} f~(x) / |1-x| dx
                         + 2 f(1) ln(eps) ],
    where f~ is the even extension of f.  Its part over x < 0 is
    integral_0^inf f(x) / (1 + x) dx; folding x -> 1/x onto x >= 1 and
    setting u = ln x gives
        integral_0^U 2 (G(u) - G(0) e^{-2u}) / (1 - e^{-2u}) du
        + G(0) ln((1 - e^{-2U}) / 2),
    G(u) = f(e^u) + e^{-u} f(e^{-u}), the last term being the subtracted
    part over u > U in closed form.  The integrand is 3 G(0) / 2 at
    u = 0, since G'(0) = -G(0) / 2.  U, the larger |end| of f's visible
    interval clamped to 60 and rounded up to the grid, leaves out only
    samples below 1e-20.  The trapezoid on the 1-, 2-, 4- and 8-spaced subgrids
    of u = k / 2048 with three Richardson steps removes the h^2, h^4 and
    h^6 terms at u = 0."""
    lo, hi = np.clip(visible_interval(f, _PRIME_EPS), -_PV_EDGE, _PV_EDGE)
    u = _PV_STEP * np.arange(
        8 * max(1, math.ceil(max(hi, -lo) / (8 * _PV_STEP))) + 1)
    WORK["pv_points"] = u.size
    decay = np.exp(-u)
    g = f.of_log(u) + decay * f.of_log(-u)
    vals = np.full(u.size, 1.5 * g[0])
    vals[1:] = 2.0 * (g[1:] - g[0] * decay[1:] ** 2) / -np.expm1(-2.0 * u[1:])
    t = [float(trapezoid(vals[::k], k * _PV_STEP)) for k in (1, 2, 4, 8)]
    for k in (4, 16, 64):
        t = [(k * fine - coarse) / (k - 1) for fine, coarse in zip(t, t[1:])]
    return t[0] + float(g[0]) * math.log(-0.5 * math.expm1(-2.0 * u[-1]))


def archimedean_constant() -> float:
    """The constant c_inf = ln(2 pi) + gamma of the secondary route
    W_inf(f) = (1/2) pv_regularised(f) + c_inf f(1)."""
    return math.log(2.0 * math.pi) + EULER_GAMMA


@functools.lru_cache(maxsize=None)
def _archimedean_weight(n_points: int,
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """(r, w, integral of |w| dr) on the heights r of
    ``mellin_critical_line`` for an n-point QuadratureSpec() grid, with
    w(r) = ln pi - Re digamma(1/4 + i r/2).

    w depends only on the grid, so it is built once per size; the
    doubling ladder of ``mellin_critical_line`` has five sizes (4001 ..
    64001), which bounds the cache.  r and w are read-only."""
    _, h = QuadratureSpec(n_points=n_points).u_grid()
    r = _critical_heights(n_points, h)
    weight = math.log(math.pi) - digamma(0.25 + 0.5j * r).real
    r.flags.writeable = weight.flags.writeable = False
    return r, weight, float(trapezoid(np.abs(weight), r[1]))


def W_infty(f) -> tuple[float, float, float]:
    """Archimedean term by Weil's digamma form, cross-checked against
    the principal-value route.

    Returns (value, quadrature_error_estimate, route_disagreement) as
    floats.  The estimate is the change of the r-integral over every
    other sample, plus |integrand(r_max)| r_max / pi for the heights
    above the last FFT height r_max, plus the Mellin values' truncation
    bound integrated against |weight|.  Raises DisagreementError when
    the routes differ by more than _CROSS_CHECK_TOL (scaled by |value|).
    """
    _, mf, trunc = mellin_critical_line(f)
    r, weight, weight_l1 = _archimedean_weight(mf.size)
    integrand = mf.real * weight
    fine, coarse = trapezoid_with_coarse(integrand, r[1])
    value = float(fine) / math.pi
    est = (abs(float(fine) - float(coarse))
           + abs(float(integrand[-1])) * float(r[-1])
           + trunc * weight_l1) / math.pi
    secondary = 0.5 * pv_regularised(f) + archimedean_constant() * f(1.0)
    disagreement = abs(value - secondary)
    if disagreement > _CROSS_CHECK_TOL * max(1.0, abs(value)):
        raise DisagreementError(
            f"archimedean routes disagree: digamma form {value!r} vs "
            f"principal-value {secondary!r}")
    return value, est, disagreement


def spectral_parts(f, zt: ZeroTable) -> tuple[float, float, float]:
    """(pole_contribution, zero_contribution, certified_bound) of the
    spectral side: poles of the completed zeta at 0 and 1 enter with
    order +1, table zeros 1/2 +- i gamma with order -1 each.  The bound
    covers the zeros above the table height plus the sensitivity of the
    zero sum to the table's ordinate precision."""
    poles = _mellin_value(f, 0.0) + _mellin_value(f, 1.0)
    zero_sum = 0.0 + 0.0j
    sens = 0.0
    WORK["zeros_summed"] = len(zt.ordinates)
    for g in zt.ordinates:
        mv = _mellin_value(f, complex(0.5, g))
        zero_sum += 2.0 * mv.real
        sens += 2.0 * abs(mv) * (1.0 + g) * zt.precision
    bound = _zero_tail_bound(f, zt.height_bound) + sens
    for part in (poles, zero_sum):
        if abs(part.imag) > 1e-10 * max(1.0, abs(part.real)):
            raise DisagreementError(
                f"spectral side has imaginary residue {part.imag:.3e}")
    return float(poles.real), float(zero_sum.real), bound


def _zero_tail_bound(f, height: float) -> float:
    """Bound for the neglected zeros above the table height, using the
    critical-line envelope of |M f| and twice the asymptotic density."""
    params = f.loggauss_params() if hasattr(f, "loggauss_params") else None
    if params is None:
        # Fall back: sample |M f(1/2 + it)| and require it negligible.
        tail = abs(_mellin_value(f, complex(0.5, height)))
        return 1e3 * tail
    a, mu, sig = params
    amp = abs(a) * math.sqrt(2.0 * math.pi) * sig \
        * math.exp(0.5 * mu + 0.125 * sig * sig)
    expo = -0.5 * sig * sig * height * height
    if expo < -700.0:
        return 0.0
    density = math.log(max(height, 3.0))  # > ln(T/2pi)/2pi, generous
    return 4.0 * amp * density * math.exp(expo) \
        * (1.0 / (sig * sig * height) + 1.0)


@dataclass(frozen=True)
class ExplicitFormulaReport:
    """Both sides of the explicit formula and the certified error
    budget of every ingredient."""
    spectral_side: float
    pole_contribution: float
    zero_contribution: float
    prime_side: float
    W_p_total: float
    W_infty: float
    residual: float
    budgets: dict = field(default_factory=dict)
    c_inf: float = 0.0

    @property
    def total_budget(self) -> float:
        return sum(self.budgets.values())

    def as_dict(self) -> dict:
        return {**asdict(self), "total_budget": self.total_budget}


def verify_explicit_formula(f, zt: ZeroTable,
                            tr: TruncationSpec | None = None, *,
                            budget_check: bool = True,
                            ) -> ExplicitFormulaReport:
    """Evaluate both sides and certify |spectral - geometric| against
    the accumulated error budget. BudgetExceededError when the residual
    is larger than the budget can explain."""
    tr = tr or TruncationSpec()
    # W_infty goes first: its Mellin-window check rejects an f with no
    # mass in the window before the spectral side's closed-form Mellin
    # transform overflows on it.
    with stage("archimedean"):
        arch_val, arch_est, arch_dis = W_infty(f)
    with stage("spectral"):
        poles, zero_sum, spec_bound = spectral_parts(f, zt)
    with stage("primes"):
        prime_val, prime_bound = W_prime_total(f, tr)
    spec_val = poles - zero_sum
    residual = abs(spec_val - prime_val - arch_val)
    budgets = {
        "zero_tail_and_precision": spec_bound,
        "prime_tail": prime_bound,
        "archimedean_quadrature": 4.0 * arch_est + 1e-9,
        "route_disagreement": arch_dis,
        "roundoff": 1e-11 * (abs(spec_val) + abs(prime_val)
                             + abs(arch_val) + 1.0),
    }
    report = ExplicitFormulaReport(
        spectral_side=spec_val, pole_contribution=poles,
        zero_contribution=zero_sum, prime_side=prime_val + arch_val,
        W_p_total=prime_val, W_infty=arch_val, residual=residual,
        budgets=budgets, c_inf=archimedean_constant())
    if budget_check and residual > report.total_budget:
        raise BudgetExceededError(
            f"residual {residual:.3e} exceeds certified budget "
            f"{report.total_budget:.3e}")
    return report

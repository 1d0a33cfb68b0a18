"""The explicit formula: spectral side, prime terms, archimedean term.

The identity checked here is
    sum_z ord(z) (M f)(z) = sum_p W_p(f) + W_inf(f),
where z runs over the poles (order +1 at 0 and 1) and critical-line
zeros (order -1 each) of the completed zeta function, the local term
W_p(f) = ln(p) sum_e [f(p^e) + p^{-e} f(p^{-e})] collects the powers of
the prime p, and W_inf is the archimedean local term.  The prime side
is summed over all primes at once, one numpy pass per exponent e.

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
    c_inf = ln(2 pi) + gamma (secondary).
Their disagreement is monitored and fed into the error budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BudgetExceededError, DisagreementError
from .families import TestFunction
from .grids import trapezoid, trapezoid_with_coarse
from .operators import TruncationSpec, primes_up_to
from .special import EULER_GAMMA, digamma
from .stages import WORK, stage
from .transforms import mellin, mellin_critical_line
from .zeros import ZeroTable

# Grid sizes of the principal-value route (odd: each carries one
# Richardson step) and the largest relative disagreement of the routes.
# The outer half-grid step 0.005 resolves log-Gaussians down to sigma ~
# 0.012; on a coarser one the Richardson step amplifies aliasing error.
_PV_INNER_POINTS = 8193
_PV_OUTER_POINTS = 24001
_CROSS_CHECK_TOL = 1e-5
# ln(1e308): W_prime_total's largest prime power.
_LOG_MAX_POWER = 308.0 * math.log(10.0)


def _mellin_value(f, s: complex) -> complex:
    closed = f.mellin_closed(s) if isinstance(f, TestFunction) else None
    return mellin(f, s).value if closed is None else complex(closed)


def _prime_tail_bound(f, p_from: float, *, n_grid: int = 2001) -> float:
    """Upper bound for sum over primes p > p_from of
    ln(p) [f(p) + f(1/p)/p] (higher powers are dominated separately),
    via comparison with the integral over all reals above p_from.

    Valid once g(t) = ln(t) (|f(t)| + |f(1/t)|/t) is decreasing past
    p_from, which holds for the rapidly decaying families here.
    """
    u, h = np.linspace(math.log(p_from), math.log(p_from) + 60.0, n_grid,
                       retstep=True)
    t = np.exp(u)
    g = np.log(t) * (np.abs(f(t)) + np.abs(f(1.0 / t)) / t)
    # sum_{p > P} g(p) <= g(P) + int_P^inf g(t) dt  (decreasing g);
    # the e >= 2 powers of such p are dominated by the same bound.
    integral = float(trapezoid(g * t, h))
    head = float(np.max(g[:1]))
    return 2.0 * (head + integral)


def W_prime_total(f, tr: TruncationSpec | None = None,
                  ) -> tuple[float, float]:
    """(sum over p <= p_max of ln(p) sum_e [f(p^e) + p^{-e} f(p^{-e})],
    certified tail bound), in one numpy pass per exponent e <= e_max.

    Each pass keeps the primes with p^e <= 1e308 (below the float
    maximum with room for rounding), so p^e stays finite and p^{-e}
    positive; the primes are sorted, so the kept ones are a prefix, and
    the passes stop when it is empty.
    """
    tr = tr or TruncationSpec()
    p = np.asarray(primes_up_to(tr.p_max), dtype=float)
    lp = np.log(p)
    total = np.zeros_like(p)
    powers = 0
    for e in range(1, tr.e_max + 1):
        n = int(np.searchsorted(lp, _LOG_MAX_POWER / e, side="right"))
        if n == 0:
            break
        pe = p[:n] ** e
        total[:n] += f(pe) + f(1.0 / pe) / pe
        powers += n
    WORK["primes"] = p.size
    WORK["prime_powers"] = powers
    return float(np.sum(lp * total)), _prime_tail_bound(f, float(tr.p_max))


def _richardson(vals: np.ndarray, h: float) -> float:
    """Trapezoid with one Richardson step: its O(h^2) endpoint error,
    which an integrand not decaying at the ends leaves, becomes O(h^4)."""
    fine, coarse = trapezoid_with_coarse(vals, h)
    return float(fine) + (float(fine) - float(coarse)) / 3.0


def pv_regularised(f) -> float:
    """The symmetric-cut principal value
        lim_{eps -> 0} [ integral_{|1-x| > eps} f~(x) / |1-x| dx
                         + 2 f(1) ln(eps) ],
    where f~ is the even extension of f; computed in the subtracted
    form (no explicit eps) as an inner integral over |1-x| <= 1 and an
    outer one over x = 1 + e^u, u >= 0, each with one Richardson step,
    plus the even extension's part over x <= 0, which is exactly
    integral_0^inf f(x) / (1 + x) dx, taken in v = ln x so that mass near
    x = 0 is resolved (the integrand vanishes at both ends of v)."""
    t, h = np.linspace(0.0, 1.0, _PV_INNER_POINTS, retstep=True)
    vals = np.empty_like(t)
    vals[0] = 0.0
    tm = t[1:]
    vals[1:] = (f(np.maximum(1.0 - tm, 1e-300)) + f(1.0 + tm)
                - 2.0 * f(1.0)) / tm
    u, h_out = np.linspace(0.0, 60.0, _PV_OUTER_POINTS, retstep=True)
    v, h_ext = np.linspace(-60.0, 60.0, _PV_OUTER_POINTS, retstep=True)
    x = np.exp(v)
    reflected = float(trapezoid(f(x) * x / (1.0 + x), h_ext))
    WORK["pv_points"] = [t.size, u.size, v.size]
    return _richardson(vals, h) + _richardson(f(1.0 + np.exp(u)), h_out) \
        + reflected


def archimedean_constant() -> float:
    """The constant c_inf = ln(2 pi) + gamma of the secondary route
    W_inf(f) = (1/2) pv_regularised(f) + c_inf f(1)."""
    return math.log(2.0 * math.pi) + EULER_GAMMA


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
    r, mf, trunc = mellin_critical_line(f)
    weight = math.log(math.pi) - digamma(0.25 + 0.5j * r).real
    integrand = mf.real * weight
    fine, coarse = trapezoid_with_coarse(integrand, r[1])
    value = float(fine) / math.pi
    est = (abs(float(fine) - float(coarse))
           + abs(float(integrand[-1])) * float(r[-1])
           + trunc * float(trapezoid(np.abs(weight), r[1]))) / math.pi
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
    with stage("spectral"):
        poles, zero_sum, spec_bound = spectral_parts(f, zt)
    with stage("primes"):
        prime_val, prime_bound = W_prime_total(f, tr)
    with stage("archimedean"):
        arch_val, arch_est, arch_dis = W_infty(f)
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

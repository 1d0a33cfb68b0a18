"""The explicit formula: spectral side, prime terms, archimedean term.

The identity checked here is
    sum_z ord(z) (M f)(z) = sum_p W_p(f) + W_inf(f),
where z runs over the poles (order +1 at 0 and 1) and critical-line
zeros (order -1 each) of the completed zeta function, the local term
W_p(f) = ln(p) sum_e [f(p^e) + p^{-e} f(p^{-e})] collects the powers of
the prime p, and W_inf is the archimedean local term.  The prime side
sums, in one call of f, the prime powers in f's visible interval (the
ln x where |f| can exceed 1e-20, which also cuts the principal-value
route below) and bounds the rest by f's prime_tail.

W_inf is computed by two genuinely different routes:
  * Weil's digamma form (primary),
        W_inf(f) = (1/pi) integral_0^inf Re (M f)(1/2 + i r)
                   (ln pi - Re digamma(1/4 + i r/2)) dr,
    with f's closed-form Mellin transform at r = k pi / 80 up to
    f.visible_height(1e-18), a height stated by f's family, and f's
    archimedean_tail above (A. Weil, 1952; E. Bombieri, 2000);
  * the duality pairing -<F(ln|x|), psi> with psi(y) = f(|1-y|), where
    F(ln|x|) = -(1/2)|y|^{-1}_reg - (gamma + ln 2 pi) delta is written in
    closed form: the symmetric-cut principal value of
    integral f(x) (|1-x|^{-1} + (1+x)^{-1}) dx plus c_inf f(1), with
    c_inf = ln(2 pi) + gamma (secondary; folded by x -> 1/x onto one
    integral over ln x >= 0, with a step set by f's width in ln x).
Their disagreement is monitored and fed into the error budget.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BudgetExceededError, DisagreementError, WindowError
from .families import TestFunction, log_step
from .grids import trapezoid, trapezoid_with_coarse
from .operators import TruncationSpec, primes_up_to
from .special import EULER_GAMMA, digamma
from .stages import WORK, stage
from .zeros import ZeroTable

# The principal value's |ln x| edge; the largest route disagreement.
_PV_EDGE = 60.0
_CROSS_CHECK_TOL = 1e-5
# W_inf's heights r_k = k pi / 80: the weight's transform decays like
# e^{-|u|/2}, so the first alias, at |u| = 160, is below e^{-80}
# (Trefethen & Weideman, SIAM Review 56, 2014); at most 64001 of them.
_HEIGHT_STEP, _MELLIN_CUT, _MAX_HEIGHTS = math.pi / 80.0, 1e-18, 64001
# ln(1e308): W_prime_total's largest prime power.
_LOG_MAX_POWER = 308.0 * math.log(10.0)
# The prime side leaves out powers where |f| < _PRIME_EPS; f's prime_tail
# bounds them.
_PRIME_EPS = 1e-20


def _prime_cut(f, tr: TruncationSpec) -> tuple[float, float]:
    """(L, bound): the prime side keeps the powers n with ln n <= L, and
    bound covers every power it leaves out.

    L, the larger |end| of f.visible(1e-20) and at most ln(1e308) so
    that n is finite, leaves out n and 1/n where |f| < 1e-20.  Each
    omitted n exceeds X = min(e^L, p_max, 2^(e_max + 1)), and
    f.prime_tail(ln X) bounds them (TestFunction.prime_tail)."""
    if not isinstance(f, TestFunction):
        raise TypeError(f"{f!r} states no decay to cut the prime side at")
    u_lo, u_hi = f.visible(_PRIME_EPS)
    log_cut = min(max(u_hi, -u_lo), _LOG_MAX_POWER)
    log_x = min(log_cut, math.log(tr.p_max), (tr.e_max + 1) * math.log(2.0))
    return log_cut, f.prime_tail(log_x)


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
    samples below 1e-20.  When f's visible interval lies on one side of
    ln x = 0 and |G(0)| < 1e-20, |G| < 2e-20 on [0, U_lo) too, U_lo
    being the smaller |end|, and the grid starts at the last grid point
    at or below U_lo.  The grid is u = k h, n points with n - 1 a
    multiple of 8, and h from log_step (1/64 for a log-Gaussian of width
    1, 1/512 for a log-spline of order 8 on [1/2, 2]); the trapezoid on
    its 1-, 2-, 4- and 8-spaced subgrids with three Richardson steps
    removes the h^2, h^4 and h^6 terms at u = 0.  WindowError when every
    sample of G is 0: f has no mass on |ln x| <= 60."""
    lo, hi = np.clip(f.visible(_PRIME_EPS), -_PV_EDGE, _PV_EDGE)
    step = log_step(f)
    g0 = 2.0 * float(f.of_log(0.0))
    first = (math.floor(max(lo, -hi, 0.0) / step)
             if abs(g0) < _PRIME_EPS else 0)
    u = step * (first + np.arange(8 * max(1, math.ceil(
        (max(hi, -lo) / step - first) / 8)) + 1))
    WORK["pv_points"] = u.size
    decay = np.exp(-u)
    g = f.of_log(u) + decay * f.of_log(-u)
    if not np.any(g):
        raise WindowError(f"the principal value's grid [{u[0]}, {u[-1]}] "
                          f"in ln x holds no mass: every sample is 0")
    vals = np.full(u.size, 1.5 * g0)
    i = int(first == 0)
    vals[i:] = 2.0 * (g[i:] - g0 * decay[i:] ** 2) / -np.expm1(-2.0 * u[i:])
    t = [float(trapezoid(vals[::k], k * step)) for k in (1, 2, 4, 8)]
    for k in (4, 16, 64):
        t = [(k * fine - coarse) / (k - 1) for fine, coarse in zip(t, t[1:])]
    return t[0] + g0 * math.log(-0.5 * math.expm1(-2.0 * u[-1]))


def archimedean_constant() -> float:
    """The constant c_inf = ln(2 pi) + gamma of the secondary route
    W_inf(f) = (1/2) pv_regularised(f) + c_inf f(1)."""
    return math.log(2.0 * math.pi) + EULER_GAMMA


@functools.lru_cache(maxsize=None)
def _archimedean_weight(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, w) at r_k = k pi / 80, k < n, w(r) = ln pi - Re digamma(1/4 +
    i r/2); built once for each of the five sizes 4000 2^j + 1, read-only."""
    r = np.arange(n_points) * _HEIGHT_STEP
    weight = math.log(math.pi) - digamma(0.25 + 0.5j * r).real
    r.flags.writeable = weight.flags.writeable = False
    return r, weight


def _critical_line(f):
    """(r, w, (M f)(1/2 + i r)) on the heights r_k = k pi / 80 up to one
    or two past the last below f.visible_height(1e-18): an odd count, at
    most 64001, and no sample of f."""
    last = int(min(f.visible_height(_MELLIN_CUT) / _HEIGHT_STEP,
                   _MAX_HEIGHTS))
    keep = min(last + 3 - last % 2, _MAX_HEIGHTS)
    n = (4000 << ((keep - 2) // 4000).bit_length()) + 1   # >= keep
    r, weight = (a[:keep] for a in _archimedean_weight(n))
    return r, weight, f.mellin_closed(0.5 + 1j * r)


def W_infty(f) -> tuple[float, float, float]:
    """Archimedean term by Weil's digamma form, cross-checked against
    the principal-value route.

    Returns (value, quadrature_error_estimate, route_disagreement) as
    floats, on _critical_line's heights.  The estimate is the change of
    the r-integral over every other sample plus f.archimedean_tail(r_max)
    for the heights above the last one, r_max.  Raises DisagreementError
    when the routes differ by more than _CROSS_CHECK_TOL (scaled by
    |value|)."""
    r, weight, mf = _critical_line(f)
    WORK["mellin_heights"] = r.size
    fine, coarse = trapezoid_with_coarse(mf.real * weight, _HEIGHT_STEP)
    value = float(fine) / math.pi
    est = (abs(float(fine) - float(coarse)) / math.pi
           + f.archimedean_tail(float(r[-1])))
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
    order +1, table zeros 1/2 +- i gamma with order -1 each, all in one
    call of f's closed-form Mellin transform.  The bound covers the
    zeros above the table height (f.zero_tail) plus the zero sum's
    sensitivity to the ordinate precision."""
    gamma = np.asarray(zt.ordinates, dtype=float)
    mv = f.mellin_closed(np.concatenate(([0.0, 1.0], 0.5 + 1j * gamma)))
    WORK["zeros_summed"] = gamma.size
    poles = complex(mv[0] + mv[1])
    zero_sum = 2.0 * float(np.sum(mv[2:].real))
    sens = 2.0 * zt.precision * float(np.sum(np.abs(mv[2:]) * (1.0 + gamma)))
    bound = f.zero_tail(zt.height_bound) + sens
    if abs(poles.imag) > 1e-10 * max(1.0, abs(poles.real)):
        raise DisagreementError(
            f"spectral side has imaginary residue {poles.imag:.3e}")
    return poles.real, zero_sum, bound


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
    # W_infty goes first: its principal value rejects an f with no mass
    # on |ln x| <= 60 before the spectral side's closed-form Mellin
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

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiltrace import (LogGaussian, LogSpline, NonPrimitiveCharacterError,
                       ParityMismatchError, TruncationSpec, apply_L_chi,
                       apply_Z, apply_Z_inverse, character, characters,
                       gaussian_even, gaussian_odd, mobius_up_to, poisson_check, primes_up_to,
                       primitive_characters, scale, twisted_poisson_check,
                       zeta, zspectral_check)
from weiltrace import operators
from weiltrace.errors import TailBoundError
from weiltrace.operators import z_image


def test_primes_up_to():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes_up_to(100)) == 25
    assert len(primes_up_to(10000)) == 1229


def test_mobius_up_to():
    mu = mobius_up_to(20)
    expect = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
              -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
    assert list(mu[1:21]) == expect


def test_mobius_up_to_matches_trial_factorisation():
    # The sieve uses the primes up to sqrt(n) only; a squarefree
    # cofactor left above sqrt(n) is one more prime factor.
    def mu(k):
        sign, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if k > 1 else sign

    for n in (1, 2, 3, 4, 24, 25, 26, 48, 49, 50, 3000):
        assert mobius_up_to(n).tolist()[1:] == [mu(k)
                                                for k in range(1, n + 1)]


def test_mobius_up_to_matches_dirichlet_inverse_of_one():
    # sum_{d | n} mu(d) = [n = 1], solved for mu(n) in increasing n.
    n = 100_000
    want = np.zeros(n + 1, dtype=np.int64)
    want[1] = 1
    for d in range(1, n // 2 + 1):
        want[2 * d::d] -= want[d]
    got = mobius_up_to(n)
    assert got.dtype == np.int8
    assert np.array_equal(got[1:], want[1:])


def test_apply_Z_against_direct_sum():
    f = LogGaussian(1.0, 0.0, 1.0)
    for x in (0.5, 1.0, 2.0):
        n = np.arange(1, 200001, dtype=float)
        direct = float(np.sum(f(n * x)))
        assert apply_Z(f, x) == pytest.approx(direct, abs=1e-12)


def test_apply_Z_scaling_equivariance():
    # Z commutes with dilation: Z(f(./t))(x) = (Zf)(x/t)
    f = LogGaussian(1.0, 0.0, 0.8)
    for t, x in ((2.0, 1.0), (0.5, 3.0), (1.7, 0.4)):
        lhs = apply_Z(scale(f, t), x)
        rhs = apply_Z(f, x / t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mobius_inversion_both_ways():
    f = LogGaussian(1.0, 0.0, 1.0)
    tr = TruncationSpec(tail_tol=1e-13)
    for x in (0.7, 1.0, 1.9):
        zf = z_image(f, tr)
        assert apply_Z_inverse(zf, x, tr) == pytest.approx(f(x), abs=1e-10)
        zif = z_image(f, tr, inverse=True)
        assert apply_Z(zif, x, tr) == pytest.approx(f(x), abs=1e-10)


@pytest.mark.parametrize("f", (LogGaussian(1.0, 0.0, 1.0),
                               LogGaussian(2.0, 0.4, 0.7)),
                         ids=("loggauss101", "loggauss2"))
def test_mobius_inversion_is_exact_up_to_rounding(f):
    # z_image's common cutoff makes both round trips cancel term by term,
    # so only rounding is left.  A cutoff on a lattice point kept or
    # dropped f((N + 1) x) depending on how floor() rounded, which left
    # 2.2e-13 at x = 5.11134 and 4.6e-13 at worst on this grid.
    tr = TruncationSpec(tail_tol=3e-12)
    zf, zif = z_image(f, tr), z_image(f, tr, inverse=True)
    for x in np.exp(np.linspace(-0.2, 1.8, 401)):
        x = float(x)
        assert abs(apply_Z_inverse(zf, x, tr) - f(x)) < 1e-13
        assert abs(apply_Z(zif, x, tr) - f(x)) < 1e-13


def test_apply_Z_compact_support_past_n_max_raises():
    # The support (0.5, 2) at x = 1e-5 needs ~2e5 terms: capping at
    # n_max would return 7760.90 of a sum of 17502.96, which is
    # M f(1) / x up to the sum's x^8-small Euler-Maclaurin error.
    f = LogSpline(1.0, 0.5, 2.0, 8)
    with pytest.raises(TailBoundError):
        apply_Z(f, 1e-5)
    full = apply_Z(f, 1e-5, TruncationSpec(n_max=200_000))
    assert full.real == pytest.approx(17502.957, abs=1e-3)
    assert full.real == pytest.approx(f.mellin_closed(1.0).real / 1e-5,
                                      rel=1e-14)


@pytest.mark.parametrize("f, x", [
    (LogGaussian(1.0, 0.0, 1.0), 1e-310),
    (LogSpline(1.0, 0.5, 2.0, 8), 1e-310),
    (gaussian_even(), 1e-310), (gaussian_odd(), 5e-324),
    # e^800 overflows a float before x divides it
    (LogGaussian(1.0, 800.0, 1.0), 1.0),
])
def test_apply_Z_first_rung_past_every_float_raises(f, x):
    # the first rung peak / x overflows: it was int(ceil(inf)), an
    # OverflowError; no n_max reaches it, so the tail cannot certify
    with pytest.raises(TailBoundError):
        apply_Z(f, x)


def test_apply_Z_needs_the_stated_lattice_tail(monkeypatch):
    # negative control: a log-Gaussian that states no tail stops the
    # ladder at its first rung, and the sum misses more than tail_tol
    f, tr = LogGaussian(1.0, 0.0, 1.0), TruncationSpec()
    full = apply_Z(f, 0.5, tr)
    monkeypatch.setattr(LogGaussian, "lattice_tail", lambda *args: 0.0)
    assert abs(apply_Z(f, 0.5, tr) - full) > tr.tail_tol


def _generic_cap_by_scalar_probes(g, x, tr):
    """_term_cap's generic branch as one call of g per probe point."""
    n = 16
    while n <= tr.n_max:
        total, m, prev = 0.0, n, math.inf
        for _ in range(60):
            v = abs(g(np.array([m * x]))[0])
            if v > prev:
                break
            total += m * v
            if m * v < 1e-30:
                if total < tr.tail_tol:
                    return n
                break
            prev = v
            m *= 2
        n *= 2
    return None


def test_generic_term_cap_matches_scalar_probes():
    # Plain callables state no decay, so _term_cap probes them
    # on one dyadic ladder; mu = 3 puts the peak past the first probes.
    tr = TruncationSpec(tail_tol=3e-12)
    for f in (LogGaussian(1.0, 0.0, 1.0), LogGaussian(1.0, 3.0, 0.5)):
        def g(t):
            return f(t)
        for x in (0.01, 0.3, 0.9, 4.0):
            want = _generic_cap_by_scalar_probes(g, x, tr)
            if want is None:
                with pytest.raises(TailBoundError):
                    operators._term_cap(g, x, tr)
            else:
                assert operators._term_cap(g, x, tr) == want


Z_IMAGE_FUNCTIONS = (LogGaussian(2.0, 0.4, 0.7), LogSpline(1.0, 0.5, 2.0, 8),
                     gaussian_even())


@pytest.mark.parametrize("f", Z_IMAGE_FUNCTIONS,
                         ids=("loggauss", "logspline", "gauss2"))
def test_z_image_values_are_certified_at_every_argument(f):
    tr = TruncationSpec(tail_tol=1e-12)
    rng = np.random.default_rng(7)
    y = np.exp(rng.permutation(np.linspace(math.log(0.05), math.log(50.0),
                                           60)))
    image = z_image(f, tr)
    values = image(y)
    for t, v in zip(y, values):
        assert abs(v - apply_Z(f, float(t), tr)) <= 2 * tr.tail_tol
    # A value does not depend on which other arguments share the call
    # beyond the certified tolerance.
    for others in (y[::2], y[y >= 1.0], y[:1]):
        for t, v in zip(others, image(others)):
            assert abs(v - values[y == t][0]) <= 2 * tr.tail_tol


def test_mobius_inversion_notices_a_wrong_mobius_value(monkeypatch):
    true_mobius = operators.mobius_up_to

    def broken(n):
        mu = true_mobius(n).copy()
        mu[2] = 1
        return mu

    monkeypatch.setattr(operators, "mobius_up_to", broken)
    f = LogGaussian(1.0, 0.0, 1.0)
    tr = TruncationSpec(tail_tol=1e-13)
    for x in (0.7, 1.0, 1.9):
        assert abs(apply_Z_inverse(z_image(f, tr), x, tr) - f(x)) > 1e-3
        assert abs(apply_Z(z_image(f, tr, inverse=True), x, tr)
                   - f(x)) > 1e-3


def test_character_group_sizes():
    for d, n in ((3, 2), (4, 2), (5, 4), (7, 6), (8, 4), (12, 4)):
        assert len(characters(d)) == n


# The order of characters(d), which --index reads: row i is character i,
# whose value at n is exp(2 pi i k / phi(d)) for the n-th digit k, and 0
# at a '.' (gcd(n, d) > 1).  7 and 15 have cyclic and non-cyclic odd unit
# groups, 8 and 12 the non-cyclic 2-parts.
_CHARACTER_ORDER = {
    7: (".000000", ".021453", ".042240", ".003033", ".024420", ".045213"),
    8: (".0.0.0.0", ".0.2.2.0", ".0.0.2.2", ".0.2.0.2"),
    12: (".0...0.0...0", ".0...2.0...2", ".0...0.2...2", ".0...2.2...0"),
    15: (".00.0..00..0.00", ".02.4..26..0.64", ".04.0..44..0.40",
         ".06.4..62..0.24", ".04.0..04..4.04", ".06.4..22..4.60",
         ".00.0..40..4.44", ".02.4..66..4.20"),
}


@pytest.mark.parametrize("d", sorted(_CHARACTER_ORDER))
def test_character_order_is_pinned(d):
    rows = _CHARACTER_ORDER[d]
    chis = characters(d)
    assert [chi.index for chi in chis] == list(range(len(rows)))
    phi = len(rows)
    for chi, row in zip(chis, rows):
        want = [0.0 if k == "." else cmath.exp(2j * math.pi * int(k) / phi)
                for k in row]
        # the values form e^{2 pi i a} with a up to 2, not reduced mod 1,
        # so they sit up to 2.3e-15 from the reduced roots of unity
        assert np.max(np.abs(np.array(chi.values) - want)) < 1e-14


def test_characters_are_memoised():
    first = characters(12)
    again = characters(12)
    assert isinstance(first, tuple)
    assert again is first
    assert all(a is b for a, b in zip(again, first))
    assert [chi.values for chi in again] == [
        chi.values for chi in characters.__wrapped__(12)]
    assert character(12, 3) is first[3]


def test_character_orthogonality():
    for d in (5, 7, 12):
        for chi in characters(d):
            total = sum(chi.value(a) for a in range(1, d + 1))
            if chi.is_principal:
                assert total == pytest.approx(
                    sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1))
            else:
                assert abs(total) < 1e-12


def test_character_multiplicativity():
    chi = character(7, 2)
    for a in range(1, 7):
        for b in range(1, 7):
            assert chi.value(a * b) == pytest.approx(
                chi.value(a) * chi.value(b), abs=1e-13)


def test_conjugate_names_the_conjugate_character():
    # the conjugate's index is that of the exponent tuple (-e_i mod ord_i);
    # its values are the conjugated ones, so they sit within the tables'
    # angle rounding (up to 5.6e-14 for d <= 60) of that row
    assert character(5, 1).conjugate().index == 3
    for d in range(1, 61):
        chis = characters(d)
        for chi in chis:
            conj = chi.conjugate()
            assert conj.values == tuple(v.conjugate() for v in chi.values)
            assert np.max(np.abs(np.array(chis[conj.index].values)
                                 - conj.values)) < 1e-13
            assert conj.conjugate().index == chi.index


def test_gauss_sum_modulus():
    for d in (3, 4, 5, 7):
        for chi in primitive_characters(d):
            assert abs(chi.gauss_sum()) == pytest.approx(
                math.sqrt(d), abs=1e-12)


def test_gauss_sum_mod4_oracle():
    # g(chi_4) = sum chi(a) e^{2 pi i a / 4} = i - (-i) = 2i
    chi = character(4, 1)
    assert chi.gauss_sum() == pytest.approx(2j, abs=1e-13)


def test_character_parity():
    assert character(4, 1).parity == -1    # chi(-1) = chi(3) = -1
    assert character(5, 2).parity == +1    # the quadratic character mod 5


def test_principal_not_primitive():
    chi0 = character(5, 0)
    assert chi0.is_principal and not chi0.is_primitive


# ---------------------------------------------------------------------------
# summation identities
# ---------------------------------------------------------------------------

def test_poisson_gauss2():
    g = gaussian_even()
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert poisson_check(g, x) < 1e-12


def test_zspectral():
    f = LogGaussian(1.0, 0.0, 1.0)
    for s in (2.0, complex(1.5, 10.0), complex(3.0, -20.0)):
        assert zspectral_check(f, s) < 1e-9


def test_zspectral_residual_is_relative():
    # |M f(4 - 0.1i)| = 7.4e3 for this f: the unscaled residual was
    # 5.1e-12, the rounding of zeta(s) times |M f(s)|.
    f = LogGaussian(1.0, 0.0, 1.0)
    assert zspectral_check(f, complex(4.0, -0.1)) < 1e-14
    # M f(2) = 6.5e22, from the closed form: the u-window of [-40, 40]
    # truncated this f's mass
    assert zspectral_check(LogGaussian(1.0, 0.0, 5.0), 2.0) < 1e-14


@pytest.mark.parametrize("f", [LogGaussian(1e-10, 0.0, 1.0),
                               LogGaussian(1.0, 0.3, 1e-160)])
def test_zspectral_residual_does_not_shrink_with_f(f):
    # relative to zeta(s), so a tiny M f(s) leaves the residual at the
    # size of zeta's error: zeta x (1 + 1e-3) fails this (test_mutants)
    assert zspectral_check(f, 2.0) < 1e-8


def test_apply_L_chi_parity_mismatch():
    chi = character(4, 1)           # odd character
    with pytest.raises(ParityMismatchError):
        apply_L_chi(chi, gaussian_even(), 1.0)


def test_twisted_poisson_all_moduli():
    for d in (3, 4, 5, 7):
        for chi in primitive_characters(d):
            f = gaussian_even() if chi.parity == 1 else gaussian_odd()
            for x in (0.5, 1.0, 2.0):
                res, kappa = twisted_poisson_check(chi, f, x)
                assert res < 1e-9
                assert abs(abs(kappa) - 1.0) < 1e-12


def test_twisted_poisson_requires_primitive():
    with pytest.raises(NonPrimitiveCharacterError):
        twisted_poisson_check(character(4, 0), gaussian_even(), 1.0)

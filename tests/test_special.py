import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weiltrace.special
from weiltrace import (EULER_GAMMA, ImaginaryResidueError, PoleError,
                       NonPrimitiveCharacterError, character, digamma, gamma,
                       primitive_characters,
                       hardy_z, hurwitz_zeta, l_chi, loggamma,
                       rs_theta, xi, zero_count_estimate, zeta, zeta_tail)
from weiltrace.special import GRID_BLOCK, hardy_z_scan

# Frozen 18-digit oracle values (independent multiprecision evaluation).
ZETA_ORACLE = {
    2.0: 1.64493406684822644,
    1.5: 2.61237534868548834,
    -3.5: 0.00444101133547943196,
    complex(0.5, 14): complex(0.0222411426099935892, -0.103258123266450058),
    complex(3, 20): complex(0.988261484704105693, -0.132044790271080862),
}

GAMMA_ORACLE = {
    complex(0.5, 3): complex(0.0214456705524306461, 0.00686536483726167791),
}


def test_gamma_oracle():
    for s, want in GAMMA_ORACLE.items():
        assert gamma(s) == pytest.approx(want, rel=1e-13)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_loggamma_oracle():
    assert loggamma(complex(2.5, 7)) == pytest.approx(
        complex(-6.15982326154129587, 9.48652241257389559), rel=1e-13)


def test_gamma_reflection():
    s = complex(-2.3, 1.7)
    assert gamma(s) * gamma(1 - s) == pytest.approx(
        math.pi / cmath.sin(math.pi * s), rel=1e-11)


def test_digamma_oracle():
    assert digamma(0.25) == pytest.approx(-4.22745353337626541, rel=1e-13)
    assert digamma(3.7) == pytest.approx(1.16715353936151144, rel=1e-13)


def test_digamma_array_is_elementwise():
    z = np.array([0.25, 3.7, complex(0.25, 0.5), complex(0.25, 78.5),
                  complex(-2.5, 0.1), complex(20.0, -3.0), -0.7])
    values = digamma(z)
    assert values.shape == z.shape
    for zi, vi in zip(z, values):
        scalar = digamma(complex(zi))
        assert isinstance(scalar, complex)
        assert abs(vi - scalar) <= 1e-15 * abs(scalar)
    assert values[0] == pytest.approx(-4.22745353337626541, rel=1e-13)
    assert values[1] == pytest.approx(1.16715353936151144, rel=1e-13)
    with pytest.raises(PoleError):
        digamma(np.array([1.0, -2.0]))


def test_euler_gamma():
    assert EULER_GAMMA == pytest.approx(0.5772156649015328606, abs=1e-16)


def test_zeta_oracle():
    for s, want in ZETA_ORACLE.items():
        assert zeta(s) == pytest.approx(want, rel=1e-12)


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta(1.0)


def test_zeta_trivial_zeros():
    for s in (-2.0, -4.0, -6.0):
        assert abs(zeta(s)) < 1e-13


def test_zeta_tail_consistency():
    s = complex(2.0, 5.0)
    partial = sum(n ** (-s) for n in range(1, 51))
    assert partial + zeta_tail(50, s) == pytest.approx(zeta(s), rel=1e-13)


def test_hurwitz_oracle():
    assert hurwitz_zeta(2.5, 1.0 / 3.0) == pytest.approx(
        16.333044162898848, rel=1e-12)
    assert hurwitz_zeta(complex(0.5, 5), 0.7) == pytest.approx(
        complex(-0.636904725142008848, 1.02844677810841472), rel=1e-11)
    assert hurwitz_zeta(3.0, 1.0) == pytest.approx(zeta(3.0), rel=1e-13)


def test_xi_oracle():
    v = xi(2.0)
    assert v.xi == pytest.approx(0.523598775598298873, rel=1e-13)
    assert v.zeta == pytest.approx(ZETA_ORACLE[2.0], rel=1e-13)
    assert xi(complex(0.3, 8)).xi == pytest.approx(
        complex(-0.00318932829553921359, 0.000430041324936958777),
        rel=1e-11)


def test_xi_poles():
    for s in (0.0, 1.0):
        with pytest.raises(PoleError):
            xi(s)


@given(re=st.floats(0.15, 0.85), im=st.floats(-40, 40))
@settings(max_examples=40, deadline=None)
def test_xi_functional_equation(re, im):
    s = complex(re, im)
    a, b = xi(s).xi, xi(1 - s).xi
    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-30)


def test_l_chi_catalan():
    chi = character(4, 1)
    assert l_chi(chi, 2.0) == pytest.approx(0.915965594177219015, abs=1e-12)


def test_l_chi_mod3_at_one():
    chi = character(3, 1)
    assert l_chi(chi, 1.0) == pytest.approx(
        math.pi / (3 * math.sqrt(3)), abs=1e-14)
    # Leibniz: 1 - 1/3 + 1/5 - ... = pi/4
    assert l_chi(character(4, 1), 1.0) == pytest.approx(math.pi / 4,
                                                        abs=1e-14)
    # mod 1, L is zeta: a pole, not the finite part the closed form gives
    with pytest.raises(PoleError):
        l_chi(character(1, 0), 1.0)


def test_l_chi_alternating_oracle():
    # chi mod 4 at s = 3: sum (-1)^k / (2k+1)^3 = pi^3/32
    chi = character(4, 1)
    assert l_chi(chi, 3.0) == pytest.approx(math.pi ** 3 / 32, rel=1e-12)


def test_l_chi_left_half_plane_matches_mpmath():
    # Re s < 0 goes through the functional equation; the Hurwitz sum
    # alone is off by 3.7e-5 at s = -5 + 0.1i for chi = character(5, 3).
    mpmath = pytest.importorskip("mpmath")
    chars = [chi for d in (3, 4, 5, 7) for chi in primitive_characters(d)]
    assert len(chars) == 10
    for chi in chars + [character(1, 0)]:
        table = [mpmath.mpc(v.real, v.imag) for v in chi.values]
        for s in (complex(-5.0, 0.1), complex(-3.3, 7.0),
                  complex(-1.5, -12.0), complex(-0.5, 0.0),
                  complex(-0.2, 25.0)):
            with mpmath.workdps(20):
                want = complex(mpmath.dirichlet(
                    mpmath.mpc(s.real, s.imag), table))
            assert abs(l_chi(chi, s) - want) <= 1e-12 * abs(want)


# Frozen from mpmath 1.3.0 (dps 40, mpmath.dirichlet on each value table):
# (d, index, s, L(s, chi)) for every primitive character mod 3, 4, 5 and 7
# at three seeded s each, 0 <= Re s <= 2 and |Im s| <= 40.
L_CHI_ORACLE = [
    (3, 1, (0.6574+38.6571j), (1.301206681645181+0.4111746900821454j)),
    (3, 1, (1.9185+33.466j), (1.030869189582359-0.32986471066226014j)),
    (3, 1, (1.5798+30.0053j), (1.1055753497254797+0.22840427836561203j)),
    (4, 1, (0.0008+10.1591j), (-1.5200671406179742-0.11524645648348987j)),
    (4, 1, (0.4953+18.4356j), (-0.0987699859728009+0.32604772025654244j)),
    (4, 1, (0.8648+4.8071j), (0.9323473247612426-0.4984637400444728j)),
    (5, 1, (1.0856+6.093j), (0.44163947715396273-0.18086194300370478j)),
    (5, 1, (1.6547+38.5238j), (1.72316872308321+0.10962632535555165j)),
    (5, 1, (0.6911+24.4881j), (0.25776733875069663+0.002885247208287073j)),
    (5, 2, (1.7785-8.6343j), (0.919934577711034+0.10777305903148089j)),
    (5, 2, (0.2469-0.209j), (0.11943852553395458-0.09779334207905856j)),
    (5, 2, (1.5293+1.9357j), (0.9007536767157462+0.4338118120782999j)),
    (5, 3, (0.3689+16.4376j), (0.7135267020402283-1.931986270915869j)),
    (5, 3, (0.6491+30.8992j), (1.4308925957569494-0.10372950074270046j)),
    (5, 3, (0.337+7.5106j), (3.161411398418126-1.8388575387026962j)),
    (7, 1, (0.7709+38.7957j), (2.2359607418553695+0.1433062626657159j)),
    (7, 1, (0.2772+30.409j), (7.788015905749071-4.595459192020668j)),
    (7, 1, (0.8353-10.2492j), (0.5978182775631525-0.2482773153033144j)),
    (7, 2, (0.4163-0.4326j), (0.24787981055772448-0.32396712074924405j)),
    (7, 2, (1.8587+39.9461j), (0.7846512304404738+0.31290361769324215j)),
    (7, 2, (1.8792+8.9001j), (0.8162900342227368-0.2603239480277305j)),
    (7, 3, (0.4722+0.5785j), (1.2105797237652882+0.08212053510365491j)),
    (7, 3, (1.2995-16.323j), (0.8707045277021992-0.22732124455098368j)),
    (7, 3, (1.9738-33.2387j), (0.8643742103215178-0.0818988071309971j)),
    (7, 4, (0.4697-23.7425j), (0.23652140451733342-2.6603421688349784j)),
    (7, 4, (0.3351-34.9048j), (-0.20352783271098207-1.0956309784646778j)),
    (7, 4, (0.4792-10.0933j), (0.6333744143300589+0.5817871419574121j)),
    (7, 5, (1.8786+3.5959j), (0.8929980167710182+0.4097774195248439j)),
    (7, 5, (1.2496-12.1518j), (2.1540394065372297+0.1342664021790001j)),
    (7, 5, (0.3403+5.0959j), (3.4218791339757955+1.090171876647854j)),
]


def test_l_chi_against_frozen_mpmath():
    # binary64 phases and Hurwitz tails left up to 1.8e-14 here
    assert len({(d, index) for d, index, _, _ in L_CHI_ORACLE}) == 10
    for d, index, s, want in L_CHI_ORACLE:
        got = l_chi(character(d, index), s)
        assert abs(got - want) <= 3e-15 * max(1.0, abs(want)), (d, index, s)


def test_l_chi_requires_primitive():
    principal = character(4, 0)
    with pytest.raises(NonPrimitiveCharacterError):
        l_chi(principal, 2.0)


def test_lambda_chi_functional_equation():
    # Lambda(s, chi) = (d/pi)^{(s+a)/2} Gamma((s+a)/2) L(s, chi), a = 0
    # (even chi) or 1 (odd), has |Lambda(s, chi)| = |Lambda(1-s, conj chi)|;
    # the points lie in the strip 0 < Re s < 1.
    def completed(chi, s):
        a = 0 if chi.parity == 1 else 1
        return ((chi.modulus / math.pi) ** ((s + a) / 2.0)
                * gamma((s + a) / 2.0) * l_chi(chi, s))

    for d, idx in ((3, 1), (4, 1), (5, 1), (5, 2), (7, 1)):
        chi = character(d, idx)
        for s in (complex(0.3, 2.0), complex(0.7, -5.0)):
            lhs = abs(completed(chi, s))
            rhs = abs(completed(chi.conjugate(), 1 - s))
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1e-30)


def test_rs_theta_oracle():
    assert rs_theta(20.0) == pytest.approx(1.18689480844448404, abs=1e-11)


def test_rs_theta_against_mpmath_on_both_routes():
    # log-Gamma below |t| = 10, the Stirling series from there on; the
    # log-Gamma route alone was 2.4e-13 off near t = 120
    mpmath = pytest.importorskip("mpmath")
    t = np.linspace(-120.0, 120.0, 241) + 0.013
    want = np.array([float(mpmath.siegeltheta(x)) for x in t])
    assert np.all(np.abs(rs_theta(t) - want) <= 5e-14)


def test_hardy_z_oracle():
    assert hardy_z(18.0) == pytest.approx(2.33679968991695191, rel=1e-11)
    assert hardy_z(30.0) == pytest.approx(0.596028519239884955, rel=1e-11)


# Frozen from mpmath 1.3.0 (siegelz, dps 40): t = 113.95, 114 and ten
# seeded t in [100, 120].
HARDY_Z_ORACLE = {
    113.95: 0.9032972283857138,
    114.0: 0.7904808326587786,
    101.7015: -1.1186511091220086,
    102.8044: -1.8895422481975088,
    102.9514: -1.6735912409765643,
    104.1985: 0.8129455933232309,
    107.1068: -0.17833777451371124,
    110.8053: 0.44961989040623523,
    112.9869: 1.7214561116207092,
    113.7998: 1.2122109958287601,
    114.5621: -0.5992141860712971,
    115.8435: -1.02978148362066,
}


def test_hardy_z_against_frozen_mpmath():
    # binary64 phases left 1.03e-13 * max(1, |Z|) at t = 114
    t = np.array(list(HARDY_Z_ORACLE))
    want = np.array(list(HARDY_Z_ORACLE.values()))
    for got in (hardy_z(t), [hardy_z(x) for x in t]):
        assert np.all(np.abs(np.asarray(got) - want)
                      <= 3e-14 * np.maximum(1.0, np.abs(want)))


def test_hardy_z_real_rotation():
    # |Z(t)| = |zeta(1/2 + it)|
    for t in (10.0, 25.0, 47.5):
        assert abs(hardy_z(t)) == pytest.approx(
            abs(zeta(complex(0.5, t))), rel=1e-11)


def test_zero_count_estimate():
    # 13 zeros below height 60; the estimate must round to that count
    assert round(zero_count_estimate(60.0)) == 13


# Points on and off the critical line, with reflection (Re s < 0 for
# zeta, Re s < 1/2 for Gamma) and term counts from 20 to 120.
POINTS = np.array([2.0, complex(0.5, 14), complex(3, 20), -3.5,
                   complex(-2.3, 1.7), complex(0.25, -47.5),
                   complex(1.5, 119.2), complex(-4.5, -33.3), 0.3])
HEIGHTS = np.array([0.0, 7.3, -18.0, 30.0, 47.5, 99.9, -119.99, 120.0])


def _same(array, scalars, rel=1e-14):
    """Array values against per-element scalar calls.  The array form
    adds each partial sum in a wider block, so the last bits may
    differ; rel is relative to max(1, |value|)."""
    assert array.shape == (len(scalars),)
    for a, b in zip(array, scalars):
        assert abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("func, args, kind", [
    (gamma, POINTS, complex),
    (loggamma, np.abs(POINTS.real) + 1j * POINTS.imag, complex),
    (zeta, POINTS, complex),
    (rs_theta, HEIGHTS, float),
    (zero_count_estimate, HEIGHTS, float),
    (hardy_z, HEIGHTS, float),
])
def test_array_is_elementwise(func, args, kind):
    scalars = [func(a.item()) for a in args]
    assert all(type(v) is kind for v in scalars)
    _same(func(args), scalars)


def test_zeta_tail_and_hurwitz_are_elementwise_in_both_arguments():
    n = np.array([20, 50, 77, 120])
    s = POINTS[:4]
    scalars = [zeta_tail(int(k), complex(z)) for k, z in zip(n, s)]
    assert all(type(v) is complex for v in scalars)
    _same(zeta_tail(n, s), scalars)
    a = np.array([0.2, 0.5, 1.0, 1.0 / 3.0])
    scalars = [hurwitz_zeta(complex(z), float(b)) for z, b in zip(s, a)]
    assert all(type(v) is complex for v in scalars)
    _same(hurwitz_zeta(s, a), scalars)
    _same(hurwitz_zeta(2.5, a), [hurwitz_zeta(2.5, float(b)) for b in a])


def test_array_poles_and_ranges_raise():
    with pytest.raises(PoleError):
        zeta(np.array([2.0, 1.0]))
    with pytest.raises(PoleError):
        gamma(np.array([0.5, -3.0]))
    with pytest.raises(PoleError):
        hardy_z(np.array([10.0, 120.5]))
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, np.array([0.5, 0.0]))


def test_hardy_z_imaginary_residue_is_noticed(monkeypatch):
    # Negative control: theta + 1e-3 leaves e^{i theta} zeta(1/2 + it)
    # an imaginary part of about 1e-3 |Z|, far above rounding.
    monkeypatch.setattr(weiltrace.special, "rs_theta",
                        lambda t: rs_theta(t) + 1e-3)
    with pytest.raises(ImaginaryResidueError):
        hardy_z(np.array([18.0, 30.0]))


@pytest.mark.parametrize("count", [1, GRID_BLOCK - 1, GRID_BLOCK,
                                   GRID_BLOCK + 1, 2400])
def test_hardy_z_grid_matches_hardy_z(count):
    # the grid is 2.4e-14 * max(1, |Z|) from mpmath (its P has binary64
    # phases), hardy_z 9.4e-16: held to 1e-13 against mpmath below.
    want = hardy_z(np.arange(count) * 0.05)
    got = hardy_z_scan(0.05, count)[0]
    assert got.shape == (count,)
    assert np.all(np.abs(got - want) <= 5e-14 * np.maximum(1.0, np.abs(want)))


def test_hardy_z_scan_near_the_grid_against_mpmath():
    # Z between scan points, from the scan's terms shifted by a Taylor
    # series in the offset, as the zero refinement uses it.
    mpmath = pytest.importorskip("mpmath")
    values, near = hardy_z_scan(0.05, 2400)
    start = np.arange(0, 2400, 37)
    t = (start + np.linspace(0.0, 1.0, start.size)) * 0.05
    got = near(start)(t, np.arange(start.size))
    want = np.array([float(mpmath.siegelz(x)) for x in t])
    assert np.all(np.abs(got - want) <= 2e-14 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(values, hardy_z_scan(0.05, 2400)[0])


def test_hardy_z_grid_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    got = hardy_z_scan(0.05, 2400)[0][::10]
    want = np.array([float(mpmath.siegelz(t))
                     for t in np.arange(2400)[::10] * 0.05])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_hardy_z_grid_height_cap():
    assert hardy_z_scan(0.05, 2401)[0][-1] == pytest.approx(
        hardy_z(120.0), abs=1e-12)
    with pytest.raises(PoleError):
        hardy_z_scan(0.05, 2402)

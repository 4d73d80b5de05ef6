"""Special-function tests against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from radial_gabor.bessel import (
    BesselOrder,
    bessel_j,
    lanczos_gamma,
    sph_bessel,
    sph_bessel_values,
)

mpmath.mp.dps = 40


def mp_j(nu, x):
    return float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x)))


def mp_b(d, t):
    # B_d(t) = 0F1(; d/2; -(pi t)^2)
    return float(mpmath.hyp0f1(mpmath.mpf(d) / 2, -((mpmath.pi * mpmath.mpf(t)) ** 2)))


def envelope(x):
    return math.sqrt(2.0 / (math.pi * max(x, 1e-3)))


class TestBesselJ:
    def test_value_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(BesselOrder(1), 0.0) == 0.0  # nu = 1/2

    def test_half_integer_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x) vanishes at x = pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-15

    def test_first_zero_of_j0(self):
        # oracle: bisection on the high-precision series for J_0
        lo, hi = mpmath.mpf(2), mpmath.mpf(3)
        for _ in range(80):
            mid = (lo + hi) / 2
            if mpmath.besselj(0, mid) > 0:
                lo = mid
            else:
                hi = mid
        zero = float((lo + hi) / 2)
        assert zero == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j(0, zero)) < 1e-10

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            BesselOrder(-1)
        with pytest.raises(ValueError):
            BesselOrder.from_value(0.3)

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 8, 13, 21, 30])
    def test_integer_orders_accuracy(self, nu):
        rng = np.random.default_rng(nu)
        xs = list(rng.uniform(0.0, 60.0, 25)) + [12.0, 19.5, 20.0, 20.5, 100.0, 1000.0]
        for x in xs:
            ref = mp_j(nu, x)
            err = abs(bessel_j(nu, x) - ref)
            assert err <= 1e-12 * max(abs(ref), envelope(x))

    @pytest.mark.parametrize("twice", [1, 3, 5, 7, 11, 21, 41])
    def test_half_integer_orders_accuracy(self, twice):
        rng = np.random.default_rng(twice)
        nu = twice / 2.0
        xs = list(rng.uniform(0.05, 60.0, 25)) + [0.2, nu * 0.5, nu, 2 * nu + 1, 1000.0]
        for x in xs:
            ref = mp_j(nu, x)
            err = abs(bessel_j(BesselOrder(twice), x) - ref)
            assert err <= 1e-12 * max(abs(ref), envelope(x))

    def test_half_integer_recurrence(self):
        # J_{nu+1}(x) = (2 nu / x) J_nu(x) - J_{nu-1}(x)
        rng = np.random.default_rng(5)
        checked = 0
        for x in rng.uniform(0.5, 50.0, 60):
            for twice in (3, 5, 7, 9, 11):
                jm = bessel_j(BesselOrder(twice - 2), x)
                jc = bessel_j(BesselOrder(twice), x)
                jp = bessel_j(BesselOrder(twice + 2), x)
                if min(abs(jm), abs(jc), abs(jp)) > 1e-8:
                    assert abs(jp - ((twice / x) * jc - jm)) < 1e-10
                    checked += 1
        assert checked > 50


class TestSphBessel:
    def test_d1_is_cosine(self):
        assert sph_bessel(1, 0.5) == pytest.approx(-1.0, abs=1e-15)
        for t in (0.0, 0.3, 2.7):
            assert sph_bessel(1, t) == pytest.approx(math.cos(2 * math.pi * t), abs=1e-14)

    def test_d3_closed_form(self):
        assert sph_bessel(3, 0.25) == pytest.approx(2.0 / math.pi, rel=1e-12)
        for t in (0.1, 1.4, 9.0):
            assert sph_bessel(3, t) == pytest.approx(
                math.sin(2 * math.pi * t) / (2 * math.pi * t), abs=1e-13
            )

    def test_value_at_zero(self):
        for d in range(1, 9):
            assert sph_bessel(d, 0.0) == 1.0

    def test_d2_is_j0(self):
        for t in (0.05, 0.9, 7.3, 40.0):
            assert sph_bessel(2, t) == pytest.approx(mp_j(0, 2 * math.pi * t), abs=1e-13)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bounded_by_one(self, d):
        rng = np.random.default_rng(d)
        for t in rng.uniform(0.0, 80.0, 200):
            assert abs(sph_bessel(d, float(t))) <= 1.0 + 1e-12

    def test_d2_matches_trapezoid_average(self):
        # direct evaluation of the circle average of cos(2 pi t cos(angle))
        angles = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        for t in (0.1, 1.0, 7.7, 23.0, 50.0):
            avg = float(np.mean(np.cos(2.0 * math.pi * t * np.cos(angles))))
            assert abs(sph_bessel(2, t) - avg) < 1e-9

    def test_small_argument_series_branch(self):
        for d in (2, 3, 5, 8):
            alpha = (d - 2) / 2.0
            z = (math.pi * 1e-7) ** 2
            expected = 1.0 - z / (alpha + 1.0)
            assert sph_bessel(d, 1e-7) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_vectorized_matches_scalar(self, d):
        rng = np.random.default_rng(100 + d)
        t = np.concatenate([rng.uniform(0.0, 70.0, 300), [0.0, 1e-8, 1e-6, 13.99, 14.01]])
        vec = sph_bessel_values(d, t)
        ref = np.array([sph_bessel(d, float(ti)) for ti in t])
        assert np.max(np.abs(vec - ref)) < 2e-10

    @pytest.mark.parametrize("d", range(1, 13))
    def test_vectorized_matches_mpmath(self, d):
        # sph_bessel shares the vector path's formula, so only mpmath is an
        # independent oracle for it
        rng = np.random.default_rng(200 + d)
        t = np.concatenate([rng.uniform(0.0, 70.0, 200), [0.0, 1e-8, 1e-6, 13.99, 14.01]])
        vec = sph_bessel_values(d, t)
        ref = np.array([mp_b(d, float(ti)) for ti in t])
        assert np.max(np.abs(vec - ref)) <= 1e-13


class TestLanczosGamma:
    def test_accuracy_on_range(self):
        for a in np.linspace(0.0, 30.0, 601):
            x = float(a) + 1.0
            assert lanczos_gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_half_integers(self):
        assert lanczos_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert lanczos_gamma(2.5) == pytest.approx(1.5 * 0.5 * math.sqrt(math.pi), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lanczos_gamma(0.0)

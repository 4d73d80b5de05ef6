"""Special-function tests against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from radial_gabor.bessel import sph_bessel_values

mpmath.mp.dps = 40


def mp_j(nu, x):
    return float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x)))


def mp_b(d, t):
    # B_d(t) = 0F1(; d/2; -(pi t)^2)
    return float(mpmath.hyp0f1(mpmath.mpf(d) / 2, -((mpmath.pi * mpmath.mpf(t)) ** 2)))


def scalar_b(d, t):
    # per-point Bessel form Gamma(a+1) (pi t)^(-a) J_a(2 pi t), a = (d-2)/2
    if t == 0.0:
        return 1.0
    a = (d - 2) / 2.0
    return math.gamma(a + 1.0) * (math.pi * t) ** (-a) * float(special.jv(a, 2.0 * math.pi * t))


class TestSphBessel:
    def test_d1_is_cosine(self):
        assert sph_bessel_values(1, 0.5) == pytest.approx(-1.0, abs=1e-15)
        t = np.array([0.0, 0.3, 2.7])
        assert sph_bessel_values(1, t) == pytest.approx(np.cos(2 * math.pi * t), abs=1e-14)

    def test_d3_closed_form(self):
        assert sph_bessel_values(3, 0.25) == pytest.approx(2.0 / math.pi, rel=1e-12)
        t = np.array([0.1, 1.4, 9.0])
        assert sph_bessel_values(3, t) == pytest.approx(
            np.sin(2 * math.pi * t) / (2 * math.pi * t), abs=1e-13
        )

    def test_value_at_zero(self):
        for d in range(1, 9):
            assert sph_bessel_values(d, 0.0) == 1.0

    def test_d2_is_j0(self):
        t = np.array([0.05, 0.9, 7.3, 40.0])
        ref = [mp_j(0, 2 * math.pi * ti) for ti in t]
        assert sph_bessel_values(2, t) == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bounded_by_one(self, d):
        rng = np.random.default_rng(d)
        t = rng.uniform(0.0, 80.0, 200)
        assert np.all(np.abs(sph_bessel_values(d, t)) <= 1.0 + 1e-12)

    def test_d2_matches_trapezoid_average(self):
        # direct evaluation of the circle average of cos(2 pi t cos(angle))
        angles = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        for t in (0.1, 1.0, 7.7, 23.0, 50.0):
            avg = float(np.mean(np.cos(2.0 * math.pi * t * np.cos(angles))))
            assert abs(sph_bessel_values(2, t) - avg) < 1e-9

    def test_small_argument_series_branch(self):
        for d in (2, 3, 5, 8):
            alpha = (d - 2) / 2.0
            z = (math.pi * 1e-7) ** 2
            expected = 1.0 - z / (alpha + 1.0)
            assert sph_bessel_values(d, 1e-7) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_vectorized_matches_scalar(self, d):
        rng = np.random.default_rng(100 + d)
        t = np.concatenate([rng.uniform(0.0, 70.0, 300), [0.0, 1e-8, 1e-6, 13.99, 14.01]])
        vec = sph_bessel_values(d, t)
        ref = np.array([scalar_b(d, float(ti)) for ti in t])
        assert np.max(np.abs(vec - ref)) < 2e-10

    @pytest.mark.parametrize("d", range(1, 13))
    def test_vectorized_matches_mpmath(self, d):
        # mpmath is the independent oracle, for the closed forms at d <= 3
        # and the hyp0f1 path above
        rng = np.random.default_rng(200 + d)
        t = np.concatenate([rng.uniform(0.0, 70.0, 200), [0.0, 1e-8, 1e-6, 13.99, 14.01]])
        vec = sph_bessel_values(d, t)
        ref = np.array([mp_b(d, float(ti)) for ti in t])
        assert np.max(np.abs(vec - ref)) <= 1e-13

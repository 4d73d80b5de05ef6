"""Rotation-averaged shift and radial STFT tests, including the direct
2-d quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.special import gamma, ive

from radial_gabor import stft
from radial_gabor.profiles import (
    GaussianSpec,
    inner,
    make_profile,
    norm,
    normalized_gaussian_window,
)
from radial_gabor.stft import (
    OrbitPoint,
    _gaussian_shift_values,
    phi_node_count,
    radial_stft,
    rot_avg_shift,
    stft_direct_2d,
    stft_rotation_average_2d,
)


def rotation(psi):
    return np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])


def orbit_of(x, omega):
    r = float(np.linalg.norm(x))
    s = float(np.linalg.norm(omega))
    c = float(np.dot(x, omega) / (r * s)) if r > 0 and s > 0 else 1.0
    return OrbitPoint(r, s, c)


class TestOrbitPoint:
    def test_degenerate_angle_normalized(self):
        assert OrbitPoint(0.0, 1.0, -0.3).c == 1.0
        assert OrbitPoint(1.0, 0.0, 0.2).c == 1.0
        assert OrbitPoint(1.0, 1.0, -0.3).c == -0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            OrbitPoint(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            OrbitPoint(1.0, 1.0, 1.5)

    @pytest.mark.parametrize(
        "r,s,c,parameter",
        [(math.nan, 1.0, 1.0, "r"), (1.0, math.inf, 1.0, "s"), (1.0, 1.0, math.nan, "c")],
        ids=["r-nan", "s-inf", "c-nan"],
    )
    def test_non_finite_rejected(self, r, s, c, parameter):
        with pytest.raises(ValueError, match=f"parameter {parameter}"):
            OrbitPoint(r, s, c)


class TestRotAvgShift:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_at_origin(self, d):
        g = normalized_gaussian_window(d)
        out = rot_avg_shift(g, OrbitPoint(0.0, 0.0, 1.0))
        assert np.max(np.abs(out.values - g.values)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_frequency_output_is_real(self, d):
        g = normalized_gaussian_window(d)
        out = rot_avg_shift(g, OrbitPoint(2.0, 0.0, 1.0))
        assert np.max(np.abs(out.values.imag)) < 1e-10

    def test_matches_brute_force_rotation_average_d2(self):
        # direct average of modulated translates over the rotation group,
        # via trapezoid sampling; independent of the reduced integral
        g = normalized_gaussian_window(2)
        r, s, c = 1.0, 1.0, 0.0
        out = rot_avg_shift(g, OrbitPoint(r, s, c))
        alpha = math.acos(c)
        x = np.array([r, 0.0])
        w = s * np.array([math.cos(alpha), math.sin(alpha)])
        theta = g.radii
        acc = np.zeros_like(theta, dtype=complex)
        n_rot = 4096
        for psi in np.arange(n_rot) * (2.0 * math.pi / n_rot):
            rot = rotation(psi)
            rx, rw = rot @ x, rot @ w
            dist = np.sqrt((theta - rx[0]) ** 2 + rx[1] ** 2)
            acc += np.exp(2.0j * math.pi * rw[0] * theta) * g.evaluate(dist)
        acc /= n_rot
        assert np.max(np.abs(out.values - acc)) < 1e-6

    def test_contraction(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            g = normalized_gaussian_window(d)
            base = norm(g)
            for _ in range(6):
                p = OrbitPoint(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(-1, 1))
                assert norm(rot_avg_shift(g, p)) <= base * (1.0 + 1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        base = normalized_gaussian_window(2)
        v1 = rng.standard_normal(base.radii.size) + 1j * rng.standard_normal(base.radii.size)
        v2 = rng.standard_normal(base.radii.size) + 1j * rng.standard_normal(base.radii.size)
        f = base.with_values(v1)
        g = base.with_values(v2)
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        combo = base.with_values(a * v1 + b * v2)
        p = OrbitPoint(1.3, 0.8, 0.5)
        lhs = rot_avg_shift(combo, p).values
        rhs = a * rot_avg_shift(f, p).values + b * rot_avg_shift(g, p).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_quadrature_rule_enforced(self):
        g = normalized_gaussian_window(2)
        minimum = max(64, math.ceil(8.0 * (1.0 + g.theta_max * 3.0 + g.theta_max * 3.0)))
        assert phi_node_count(g.theta_max, 3.0, 3.0) >= minimum

    def test_node_doubling_converged(self):
        g = normalized_gaussian_window(2)
        p = OrbitPoint(2.0, 3.0, -0.4)
        need = phi_node_count(g.theta_max, p.r, p.s)
        a = stft._averaged_shift_values(g, p, need)
        b = stft._averaged_shift_values(g, p, 2 * need)
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.array_equal(a, rot_avg_shift(g, p).values)

    def test_spline_path_matches_analytic_path(self):
        analytic = normalized_gaussian_window(2)
        sampled = analytic.with_values(analytic.values)  # drops the evaluator
        p = OrbitPoint(1.0, 1.5, 0.3)
        a = rot_avg_shift(analytic, p).values
        b = rot_avg_shift(sampled, p).values
        assert np.max(np.abs(a - b)) < 1e-9


    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gaussian_closed_form_finite_at_large_shift(self, d):
        # |Omega g (theta)| <= A exp(-alpha (theta - r)^2), the bound that keeps
        # the scaled evaluation from overflowing
        g = GaussianSpec(math.pi, 2.0 ** (d / 4.0))
        radii = np.linspace(0.0, 60.0, 1201)
        envelope = g.amp * np.exp(-g.alpha * (radii - 40.0) ** 2)
        for c in (-1.0, 0.0, 0.3, 1.0):
            # the values at c and at the mirror -c
            for values in _gaussian_shift_values(g, radii, d, OrbitPoint(40.0, 40.0, c)):
                assert np.all(np.isfinite(values))
                assert np.all(np.abs(values) <= envelope * (1.0 + 1e-12) + 1e-300)

    @pytest.fixture
    def no_phi_grid(self, monkeypatch):
        # the counts below would need gigabytes: fail instead of allocating
        def allocated(*args):
            raise AssertionError("the phi grid was allocated")

        monkeypatch.setattr(stft, "_gl_rule", allocated)
        monkeypatch.setattr(stft, "_shifted_window_samples", allocated)

    @pytest.mark.parametrize("r", [1e200, 1e6])
    def test_unallocatable_node_count_rejected(self, r, no_phi_grid):
        window = make_profile(2, 8.0, 16, GaussianSpec(math.pi))
        with pytest.raises(ValueError, match="parameter r"):
            phi_node_count(window.theta_max, r, 1.0)
        with pytest.raises(ValueError, match="parameter r"):
            rot_avg_shift(window, OrbitPoint(r, 1.0, 0.5))
        with pytest.raises(ValueError, match="parameter s"):
            radial_stft(window, window, OrbitPoint(1.0, r, 0.5))


def complex_closed_form(g, radii, d, p):
    """g.amp e^(-alpha theta^2 - alpha r^2) 0F1(; d/2; theta^2 w) through the
    complex ive, as the benchmark's atom oracle evaluates it."""
    a = (d - 2) / 2.0
    w = g.alpha**2 * p.r * p.r - math.pi**2 * p.s * p.s + 2j * g.alpha * math.pi * p.r * p.s * p.c
    z = radii * np.sqrt(complex(w))
    small = np.abs(z) < 1e-150
    zs = np.where(small, 1.0, z)
    hyp = gamma(a + 1.0) * zs ** (-a) * ive(a, 2.0 * zs) * np.exp(2.0 * zs.real)
    hyp = np.where(small, 1.0, hyp)
    return g.amp * np.exp(-g.alpha * radii**2 - g.alpha * p.r * p.r) * hyp


class TestGaussianRealAxis:
    """Orbit points with r s c = 0, where w is real: the ell = 0 atom of a
    ring (c = 0) and the rings with r = 0 or s = 0."""

    CASES = {
        "w>0": (GaussianSpec(math.pi), 8.0, OrbitPoint(2.0, 1.0, 0.0)),
        "w<0": (GaussianSpec(math.pi), 8.0, OrbitPoint(1.0, 2.0, 0.0)),
        "w=0": (GaussianSpec(math.pi), 8.0, OrbitPoint(1.5, 1.5, 0.0)),  # alpha r = pi s, w = 0.0 exactly
        "r=0": (GaussianSpec(1.3, 0.7), 8.0, OrbitPoint(0.0, 1.5)),
        "s=0": (GaussianSpec(1.3, 0.7), 8.0, OrbitPoint(2.5, 0.0)),
        # 2 theta sqrt(-w) reaches 402 at theta = 16.  (A w > 0 case that
        # large has exponents near 100 that cancel; the reference's separate
        # exp factors then carry 1e-14 relative error of their own.)
        "large": (GaussianSpec(0.05), 16.0, OrbitPoint(0.0, 4.0)),
    }

    @pytest.fixture(params=list(CASES))
    def case(self, request):
        return self.CASES[request.param]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_complex_closed_form(self, case, d):
        g, theta_max, p = case
        radii = make_profile(d, theta_max, 1024, g).radii
        plus, minus = _gaussian_shift_values(g, radii, d, p)
        ref = complex_closed_form(g, radii, d, p)
        assert np.array_equal(plus, minus)  # the point is its own mirror
        tol = 5e-15 if d == 2 else 1e-13
        assert np.max(np.abs(plus - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_quadrature(self, case, d):
        g, theta_max, p = case
        window = make_profile(d, theta_max, 1024, g)
        closed = _gaussian_shift_values(g, window.radii, d, p)[0]
        quad = rot_avg_shift(window, p).values
        assert np.max(np.abs(closed - quad)) <= 1e-12 * norm(window)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_no_complex_bessel_call(self, case, d, monkeypatch):
        def real_only(nu, x):
            assert not np.iscomplexobj(x), "complex ive call"
            return ive(nu, x)

        monkeypatch.setattr(stft, "ive", real_only)
        g, theta_max, p = case
        radii = make_profile(d, theta_max, 1024, g).radii
        assert np.all(np.isfinite(_gaussian_shift_values(g, radii, d, p)[0]))


class TestRadialStft:
    def test_origin_reduces_to_inner_product(self):
        f = normalized_gaussian_window(2)
        g = make_profile(2, 8.0, 1024, GaussianSpec(2.0, 1.1))
        assert radial_stft(f, g, OrbitPoint(0, 0, 1)) == pytest.approx(
            inner(f, g), abs=1e-9
        )

    def test_self_coefficient_is_squared_norm(self):
        g = make_profile(2, 8.0, 1024, GaussianSpec(1.7, 0.9))
        assert radial_stft(g, g, OrbitPoint(0, 0, 1)) == pytest.approx(
            norm(g) ** 2, abs=1e-9
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_closed_form(self, d):
        g = normalized_gaussian_window(d)
        rng = np.random.default_rng(d)
        for _ in range(8):
            p = OrbitPoint(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(-1, 1))
            expected = math.exp(-math.pi * (p.r**2 + p.s**2) / 2.0)
            assert abs(radial_stft(g, g, p)) == pytest.approx(expected, abs=1e-6)

    def test_c_independence_for_gaussian(self):
        g = normalized_gaussian_window(2)
        mags = [
            abs(radial_stft(g, g, OrbitPoint(1.5, 2.0, c)))
            for c in (-1.0, -0.5, 0.0, 0.5, 1.0)
        ]
        assert max(mags) - min(mags) < 1e-6

    def test_matches_so2_averaged_direct_stft(self):
        f_eval = GaussianSpec(2.0 * math.pi)
        g_eval = GaussianSpec(math.pi, 2.0 ** 0.5)
        f = make_profile(2, 8.0, 1024, f_eval)
        g = make_profile(2, 8.0, 1024, g_eval)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, 2)
            w = rng.uniform(-2.0, 2.0, 2)
            mine = abs(radial_stft(f, g, orbit_of(x, w)))
            oracle = abs(stft_rotation_average_2d(f_eval, g_eval, x, w, n_psi=128))
            assert mine == pytest.approx(oracle, abs=1e-5)


class TestStftDirect2d:
    def test_unit_norm_at_origin(self):
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        assert stft_direct_2d(g, g, [0, 0], [0, 0]) == pytest.approx(1.0, abs=1e-7)

    def test_gaussian_magnitude_on_sphere(self):
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        x = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        assert abs(stft_direct_2d(g, g, x, w)) == pytest.approx(math.exp(-math.pi), abs=1e-6)

    def test_zero_window(self):
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        zero = lambda t: np.zeros_like(t)
        assert stft_direct_2d(g, zero, [1, 0], [0, 1]) == 0.0

    def test_gaussian_closed_form_complex(self):
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        rng = np.random.default_rng(9)
        for _ in range(6):
            x = rng.uniform(-2, 2, 2)
            w = rng.uniform(-2, 2, 2)
            expected = np.exp(-1j * math.pi * np.dot(x, w)) * math.exp(
                -math.pi * (np.dot(x, x) + np.dot(w, w)) / 2.0
            )
            assert stft_direct_2d(g, g, x, w) == pytest.approx(expected, abs=1e-7)

    def test_rotation_invariance_of_magnitude(self):
        f = GaussianSpec(1.5, 0.8)
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        x = np.array([1.2, 0.4])
        w = np.array([-0.6, 1.0])
        base = abs(stft_direct_2d(f, g, x, w))
        for psi in (0.3, 1.1, 2.5, 4.0):
            rot = rotation(psi)
            assert abs(stft_direct_2d(f, g, rot @ x, rot @ w)) == pytest.approx(
                base, abs=1e-7
            )

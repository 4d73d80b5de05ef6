"""Radial profile grid, inner product and CSV interchange tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from radial_gabor.profiles import (
    GaussianSpec,
    GridMismatchError,
    RadialProfile,
    _write_csv,
    inner,
    make_grid,
    make_profile,
    norm,
    normalized_gaussian_window,
    profile_from_csv,
    profile_to_csv,
    sphere_area,
)
from radial_gabor.stft import phi_node_count


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)

    def test_gamma_identity(self):
        for d in range(1, 12):
            assert sphere_area(d) == pytest.approx(
                2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0), rel=1e-12
            )


class TestMakeProfile:
    def test_disc_area(self):
        p = make_profile(2, 1.0, 64, lambda t: np.ones_like(t))
        assert inner(p, p).real == pytest.approx(math.pi, abs=1e-8)

    def test_zero_evaluator(self):
        p = make_profile(3, 2.0, 32, lambda t: np.zeros_like(t))
        assert np.all(p.values == 0.0)

    def test_gaussian_squared_norm(self):
        p = make_profile(2, 6.0, 512, GaussianSpec(math.pi))
        assert inner(p, p).real == pytest.approx(0.5, abs=1e-8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_profile(2, -1.0, 64, lambda t: t)
        with pytest.raises(ValueError):
            make_profile(2, 1.0, 8, lambda t: t)

    def test_normalized_window(self):
        for d in (2, 3, 4):
            assert norm(normalized_gaussian_window(d)) == pytest.approx(1.0, abs=1e-10)


class TestGaussianSpec:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            GaussianSpec(alpha)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, complex(1.0, math.inf)])
    def test_rejects_non_finite_amp(self, amp):
        with pytest.raises(ValueError):
            GaussianSpec(1.0, amp)


class TestInnerNorm:
    def test_inner_with_zero(self):
        f = make_profile(2, 4.0, 64, GaussianSpec(1.0))
        z = f.with_values(np.zeros_like(f.values))
        assert inner(f, z) == 0.0

    def test_cross_gaussian_against_adaptive_quadrature(self):
        d = 3
        f = make_profile(d, 8.0, 1024, GaussianSpec(math.pi))
        g = make_profile(d, 8.0, 1024, lambda t: t * np.exp(-math.pi * t**2))
        expected, err = quad(
            lambda t: t * math.exp(-2.0 * math.pi * t**2) * t ** (d - 1), 0.0, np.inf
        )
        expected *= sphere_area(d)
        assert err < 1e-9
        assert inner(f, g).real == pytest.approx(expected, abs=1e-8)
        # closed form 1/(2 pi) for this pair
        assert expected == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        base = make_profile(2, 5.0, 64, GaussianSpec(1.0))
        f = base.with_values(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        g = base.with_values(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-12)

    def test_linearity_in_first_argument(self):
        rng = np.random.default_rng(1)
        base = make_profile(2, 5.0, 64, GaussianSpec(1.0))
        for _ in range(20):
            vals = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
            a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            f, g, h = (base.with_values(v) for v in vals)
            combo = base.with_values(a * vals[0] + b * vals[1])
            lhs = inner(combo, h)
            rhs = a * inner(f, h) + b * inner(g, h)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(2)
        base = make_profile(2, 5.0, 128, GaussianSpec(1.0))
        for _ in range(50):
            f = base.with_values(rng.standard_normal(128) + 1j * rng.standard_normal(128))
            g = base.with_values(rng.standard_normal(128) + 1j * rng.standard_normal(128))
            assert abs(inner(f, g)) <= norm(f) * norm(g) + 1e-10

    def test_grid_mismatch_rejected(self):
        f = make_profile(2, 5.0, 64, GaussianSpec(1.0))
        g = make_profile(2, 5.0, 128, GaussianSpec(1.0))
        h = make_profile(3, 5.0, 64, GaussianSpec(1.0))
        with pytest.raises(GridMismatchError):
            inner(f, g)
        with pytest.raises(GridMismatchError):
            inner(f, h)

    def test_quadrature_doubling_converged(self):
        prev = None
        for n in (512, 1024, 2048):
            p = make_profile(2, 6.0, n, GaussianSpec(math.pi))
            value = norm(p)
            if prev is not None:
                assert abs(value - prev) < 1e-9
            prev = value


class TestProfileValidation:
    def test_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="dim"):
            RadialProfile(1, 1.0, np.zeros(16))

    def test_radii_and_weights_follow_the_grid(self):
        p = make_profile(3, 6.0, 64, GaussianSpec(1.0))
        q = RadialProfile(3, 6.0, p.values)
        radii, base = make_grid(6.0, 64)
        assert np.array_equal(q.radii, radii) and np.array_equal(p.radii, radii)
        assert np.array_equal(q.weights, base * radii**2) and np.array_equal(p.weights, q.weights)
        assert np.array_equal(p.with_values(2 * p.values).weights, p.weights)

    def test_derived_profiles_share_the_grid_arrays(self):
        # with_values and every profile on the same grid reuse one read-only
        # pair of arrays, bitwise equal to a freshly built grid
        p = make_profile(3, 6.5, 64, GaussianSpec(1.0))
        radii, base = make_grid(6.5, 64)
        derived = (
            p.with_values(2 * p.values),
            RadialProfile(3, 6.5, p.values),
            p.with_values(p.values).with_values(p.values),
        )
        for q in derived:
            assert q.radii is p.radii and q.weights is p.weights
        assert np.array_equal(p.radii, radii) and np.array_equal(p.weights, base * radii**2)
        assert not p.radii.flags.writeable and not p.weights.flags.writeable
        with pytest.raises(ValueError):
            p.radii[0] = 1.0

    def test_make_profile_builds_the_grid_once(self, monkeypatch):
        import radial_gabor.profiles as profiles

        calls = []

        def counting(theta_max, n_points):
            calls.append((theta_max, n_points))
            return make_grid(theta_max, n_points)

        monkeypatch.setattr(profiles, "make_grid", counting)
        profiles._profile_grid.cache_clear()
        p = make_profile(2, 7.25, 128, GaussianSpec(1.0))
        assert calls == [(7.25, 128)]
        p.with_values(p.values)
        assert len(calls) == 1

    def test_values_must_be_finite(self):
        values = np.zeros(16, dtype=complex)
        values[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RadialProfile(2, 1.0, values)

    def test_grid_size_must_fill_panels(self):
        # five values fill no 8-node panel; a 2-d array is no profile
        for values in (np.ones(5), np.ones((2, 8))):
            with pytest.raises(ValueError, match="8-node panels"):
                RadialProfile(2, 2.0, values)

    @pytest.mark.parametrize("theta_max", [math.nan, math.inf, -1.0, 0.0])
    def test_theta_max_must_be_finite_and_positive(self, theta_max):
        with pytest.raises(ValueError, match="theta_max"):
            RadialProfile(2, theta_max, np.ones(16))
        with pytest.raises(ValueError, match="theta_max"):
            make_grid(theta_max, 64)

    def test_theta_max_is_the_requested_value(self):
        # the grid's last radius reads back as 6.000000000000001 here
        p = make_profile(2, 6.0, 64, GaussianSpec(1.0))
        assert p.theta_max == 6.0
        assert phi_node_count(p.theta_max, 3.0, 1.5) == 224


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        p = make_profile(2, 6.0, 256, GaussianSpec(1.3, 0.7))
        path = tmp_path / "profile.csv"
        profile_to_csv(p, path)
        header = path.read_text().splitlines()[0]
        assert header == "theta,re,im"
        q = profile_from_csv(path, 2)
        assert np.allclose(q.radii, p.radii, atol=1e-12)
        assert np.allclose(q.values, p.values, atol=1e-12)
        assert np.allclose(q.weights, p.weights, atol=1e-12)
        assert q.theta_max == p.theta_max
        assert inner(p, q) == pytest.approx(inner(p, p), rel=1e-14)

    @pytest.mark.parametrize("theta_max", [5.0, 6.0, 7.3, 8.0, 10.0, 12.0])
    @pytest.mark.parametrize("n", [64, 256, 1000, 1024, 2048])
    def test_reads_back_onto_its_own_grid(self, tmp_path, theta_max, n):
        p = make_profile(3, theta_max, n, GaussianSpec(0.5))
        profile_to_csv(p, tmp_path / "profile.csv")
        q = profile_from_csv(tmp_path / "profile.csv", 3)
        assert q.theta_max == p.theta_max
        assert np.array_equal(q.radii, p.radii)
        inner(p, q)  # same grid, so no GridMismatchError

    def test_rejects_reversed_radii(self, tmp_path):
        p = make_profile(2, 6.0, 64, GaussianSpec(1.0))
        reversed_profile = tmp_path / "reversed.csv"
        _write_csv(reversed_profile, "theta,re,im", [p.radii[::-1], p.values.real, p.values.imag])
        with pytest.raises(ValueError, match="Gauss-Legendre"):
            profile_from_csv(reversed_profile, 2)

    def test_rejects_non_grid_radii(self, tmp_path):
        p = make_profile(2, 6.0, 64, GaussianSpec(1.0))
        moved = p.radii.copy()
        moved[7] += 1e-6
        for radii in (np.linspace(0.1, 6.0, 64), moved):
            path = tmp_path / "moved.csv"
            _write_csv(path, "theta,re,im", [radii, p.values.real, p.values.imag])
            with pytest.raises(ValueError, match="Gauss-Legendre"):
                profile_from_csv(path, 2)

    def test_rejects_partial_panel(self, tmp_path):
        path = tmp_path / "short.csv"
        _write_csv(path, "theta,re,im", [np.linspace(0.1, 2.0, 5), np.ones(5), np.zeros(5)])
        with pytest.raises(ValueError, match="panel size"):
            profile_from_csv(path, 2)

    def test_rejects_foreign_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["theta,re,im"] + [f"{0.1 * i},{1.0},{0.0}" for i in range(32)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            profile_from_csv(path, 2)

    @pytest.mark.parametrize("row,fields", [("0.2,1.0", 2), ("0.2,1.0,0.0,9", 4)])
    def test_rejects_row_without_three_fields(self, tmp_path, row, fields):
        # the bad row is the fourth line of the file, after the header
        path = tmp_path / "fields.csv"
        path.write_text(f"theta,re,im\n0.0,1.0,0.0\n0.1,1.0,0.0\n{row}\n0.3,1.0,0.0\n")
        with pytest.raises(ValueError, match=f"line 4: expected 3 comma-separated fields .*got {fields}"):
            profile_from_csv(path, 2)
        path.write_text(f"\n\ntheta,re,im\n{row}\n")  # leading blank lines count
        with pytest.raises(ValueError, match="line 4: "):
            profile_from_csv(path, 2)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("0.1,1.0,0.0\n")
        with pytest.raises(ValueError):
            profile_from_csv(path, 2)

    def test_writer_row_format(self, tmp_path):
        # integers print as integers, floats with 17 significant digits,
        # numpy and Python scalars alike; no rows leaves the header alone
        path = tmp_path / "rows.csv"
        _write_csv(path, "n,x,y", [np.array([0, 12]), np.array([0.1, -2.5e-300]), [math.nan, 1 / 3]])
        rows = ["n,x,y", "0,0.10000000000000001,nan", "12,-2.5e-300,0.33333333333333331"]
        assert path.read_text() == "\n".join(rows) + "\n"
        _write_csv(path, "n,x", [[], []])
        assert path.read_text() == "n,x\n"


class TestSplineDtype:
    """Profiles without an analytic evaluator go through a cubic spline,
    which must be real exactly when every sample is."""

    theta = np.linspace(0.0, 6.5, 397)  # off-grid, and past theta_max = 6

    @staticmethod
    def samples():
        p = make_profile(2, 6.0, 256, lambda t: (1.0 + t**2) ** -4 * np.cos(t))
        return p, p.values.real.copy()

    def test_real_samples_evaluate_real(self):
        p, real = self.samples()
        out = p.with_values(real).evaluate(self.theta)
        assert not np.iscomplexobj(out)
        # the spline is linear in the samples, so the real part of a
        # complex-sample spline is the real-sample spline
        complex_out = p.with_values(real + 1j * np.sin(p.radii)).evaluate(self.theta)
        assert np.max(np.abs(out - complex_out.real)) <= 1e-15
        assert np.all(out[self.theta > 6.0] == 0.0)

    def test_any_imaginary_sample_stays_complex(self):
        p, real = self.samples()
        values = real.astype(complex)
        values[100] += 1e-30j
        out = p.with_values(values).evaluate(self.theta)
        assert np.iscomplexobj(out)
        assert np.any(out.imag != 0.0)

    def test_csv_round_trip_of_real_window_evaluates_real(self, tmp_path):
        p, _ = self.samples()
        path = tmp_path / "window.csv"
        profile_to_csv(p, path)
        q = profile_from_csv(path, 2)
        out = q.evaluate(self.theta)
        assert not np.iscomplexobj(out)
        assert np.max(np.abs(out - p.evaluate(self.theta).real)) < 1e-4


class TestSplineImport:
    """scipy.interpolate is loaded by the first spline evaluation, not by
    the import: Gaussian-window pipelines never need it."""

    SCRIPT = """
import sys
import numpy as np
import radial_gabor as rg

window = rg.normalized_gaussian_window(2, 8.0, 256)
fr = rg.build_frame(window, rg.LatticeSpec(0.5, 0.5, 2, 3))
target = rg.make_profile(2, 8.0, 256, rg.GaussianSpec(2.0))
assert rg.reconstruct(target, fr, tol=1e-4).converged
print("scipy.interpolate" in sys.modules)
rg.profile_to_csv(window, sys.argv[1])
loaded = rg.profile_from_csv(sys.argv[1], 2)
theta = np.linspace(0.0, 3.0, 13)
print(np.max(np.abs(loaded.evaluate(theta) - window.evaluate(theta))))
print("scipy.interpolate" in sys.modules)
"""

    def test_gaussian_pipeline_leaves_interpolate_unloaded(self, tmp_path):
        import radial_gabor

        src = str(Path(radial_gabor.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "window.csv")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out[0] == "False"
        assert float(out[1]) < 1e-5  # the CSV window still evaluates, by a spline on 256 points
        assert out[2] == "True"

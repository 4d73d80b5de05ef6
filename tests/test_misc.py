"""Worker configuration and assorted surface checks."""

import math

import numpy as np
import pytest
from scipy import special

from radial_gabor.bessel import sph_bessel_values
from radial_gabor.frames import build_frame, worker_count
from radial_gabor.lattice import LatticeSpec
from radial_gabor.profiles import normalized_gaussian_window


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RADIAL_GABOR_THREADS", "3")
        assert worker_count() == 3

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("RADIAL_GABOR_THREADS", "0")
        with pytest.raises(ValueError):
            worker_count()

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("RADIAL_GABOR_THREADS", raising=False)
        assert worker_count() >= 1

    def test_single_worker_build_matches_parallel(self, monkeypatch):
        window = normalized_gaussian_window(2)
        spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=5)
        monkeypatch.setenv("RADIAL_GABOR_THREADS", "1")
        serial = build_frame(window, spec).atom_matrix
        monkeypatch.setenv("RADIAL_GABOR_THREADS", "2")
        threaded = build_frame(window, spec).atom_matrix
        assert np.array_equal(serial, threaded)


class TestHighDimensionFallback:
    @pytest.mark.parametrize("d", [11, 12])
    def test_vectorized_falls_back_to_scalar(self, d):
        # hyp0f1 on the array against the per-point Bessel form
        # Gamma(a+1) (pi t)^(-a) J_a(2 pi t), a = (d-2)/2, with B_d(0) = 1
        t = np.array([0.0, 0.3, 2.7, 14.5])
        vec = sph_bessel_values(d, t)
        a = (d - 2) / 2.0
        ref = np.array([1.0] + [
            math.gamma(a + 1.0) * (math.pi * ti) ** (-a) * float(special.jv(a, 2.0 * math.pi * ti))
            for ti in t[1:]
        ])
        assert np.max(np.abs(vec - ref)) < 1e-12


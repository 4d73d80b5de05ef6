"""Lattice counts, measure weights, index sets and the d = 2 covering
verifier."""

import math
import warnings

import numpy as np
import pytest

from radial_gabor.embeddings import fit_decay_slope, rearrange
from radial_gabor.lattice import (
    LatticeIndex,
    LatticeSpec,
    angle_count,
    covered_2d,
    index_count,
    lattice_table,
    lattice_to_csv,
)


class TestAngleCount:
    def test_boundary_rows_are_zero(self):
        assert angle_count(0, 5) == 0
        assert angle_count(7, 0) == 0
        assert angle_count(0, 0) == 0

    def test_first_interior_value(self):
        # closed form: roots sqrt(3.9375) = 1.98431..., arctan(3.96863/2.25)
        # = 1.05544, (pi/4)/1.05544 = 0.74414, ceiling 1
        assert angle_count(1, 1) == 1

    def test_asymptotic_ratio_at_200(self):
        ratio = angle_count(200, 200) / ((math.pi / (4.0 * math.sqrt(3.0))) * 100.0)
        assert 0.9 <= ratio <= 1.1

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            j, k = (int(v) for v in rng.integers(0, 512, 2))
            assert angle_count(j, k) == angle_count(k, j)

    def test_interior_counts_positive(self):
        for j in range(1, 30):
            for k in range(1, 30):
                assert angle_count(j, k) >= 1


def _mu_rows(d, jk_max):
    """The table's mu column keyed by (j, k, ell)."""
    tab = lattice_table(LatticeSpec(a=1.0, b=1.0, d=d, jk_max=jk_max))
    return dict(zip(zip(tab.j.tolist(), tab.k.tolist(), tab.ell.tolist()), tab.mu.tolist()))


class TestMeasureWeight:
    def test_corner_value_any_dimension(self):
        # N(1, 1) = 1 so ell = +-1 is the boundary case
        for d in (2, 3, 4, 7):
            mu = _mu_rows(d, 2)
            assert mu[(1, 1, 1)] == 3.0
            assert mu[(1, 1, -1)] == 3.0

    def test_interior_d2_is_ring_sum(self):
        mu = _mu_rows(2, 12)
        assert mu[(2, 3, 0)] == 5.0
        assert mu[(7, 5, 1)] == 12.0

    def test_interior_d3_example(self):
        assert angle_count(2, 3) >= 1
        assert _mu_rows(3, 5)[(2, 3, 0)] == 30.0

    def test_boundary_rows_use_ring_formula(self):
        assert _mu_rows(3, 4)[(0, 4, 0)] == 4.0**2 + 1.0
        assert _mu_rows(2, 5)[(5, 0, 0)] == 5.0 + 1.0

    def test_positivity_and_symmetry(self):
        for d in (2, 3, 4):
            mu = _mu_rows(d, 14)
            for (j, k, ell), value in mu.items():
                if j < 8 and k < 8:
                    assert value > 0.0
                    assert value == mu[(k, j, ell)]


class TestLatticeBuild:
    def test_minimal_truncation(self):
        tab = lattice_table(LatticeSpec(a=0.5, b=0.25, d=2, jk_max=1))
        assert list(zip(tab.j.tolist(), tab.k.tolist(), tab.ell.tolist())) == [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
        ]
        assert list(zip(tab.r.tolist(), tab.s.tolist(), tab.c.tolist())) == [
            (0.0, 0.0, 1.0),
            (0.0, 0.25, 1.0),
            (0.5, 0.0, 1.0),
        ]

    def test_second_truncation_count(self):
        tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=2, jk_max=2))
        assert len(tab) == 8
        assert np.sum((tab.j == 1) & (tab.k == 1)) == 3

    def test_count_matches_index_count(self):
        for j_max in (1, 3, 6, 11):
            spec = LatticeSpec(a=0.3, b=0.7, d=3, jk_max=j_max)
            assert len(lattice_table(spec)) == index_count(j_max)

    def test_lexicographic_order(self):
        tab = lattice_table(LatticeSpec(a=1.0, b=1.0, d=2, jk_max=6))
        keys = list(zip(tab.j.tolist(), tab.k.tolist(), tab.ell.tolist()))
        assert keys == sorted(keys)

    def test_angles_increase_with_ell(self):
        tab = lattice_table(LatticeSpec(a=1.0, b=1.0, d=2, jk_max=12))
        for j, k in ((2, 3), (5, 5), (4, 8)):
            mask = (tab.j == j) & (tab.k == k)
            cs = tab.c[mask]
            assert np.all(np.diff(cs) > 0.0)
            assert cs[0] == -1.0 and cs[-1] == 1.0

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            LatticeIndex(0, 5, 1)
        with pytest.raises(ValueError):
            LatticeIndex(1, 1, 2)

    @pytest.mark.parametrize(
        "a,b,parameter",
        [(math.nan, 0.5, "a"), (math.inf, 0.5, "a"), (0.5, math.inf, "b")],
        ids=["a-nan", "a-inf", "b-inf"],
    )
    def test_non_finite_step_rejected(self, a, b, parameter):
        with pytest.raises(ValueError, match=f"parameter {parameter}"):
            LatticeSpec(a=a, b=b, d=2, jk_max=3)

    @pytest.mark.parametrize("d,jk_max", [(300, 40), (200, 12)])
    def test_overflowing_weights_rejected(self, d, jk_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"parameter d: .*d = {d}"):
                lattice_table(LatticeSpec(a=0.5, b=0.5, d=d, jk_max=jk_max))

    def test_high_dimension_weights_finite(self):
        # the largest weight at d = 160, J = 8 is (4 + 4) (4 * 4)^158 at
        # j = k = 4, ell = 0, inside float64
        tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=160, jk_max=8))
        assert np.all(np.isfinite(tab.mu))
        assert tab.mu.max() == pytest.approx(8.0 * 16.0**158, rel=1e-12)

    def test_csv_export(self, tmp_path):
        spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=3)
        path = tmp_path / "lattice.csv"
        lattice_to_csv(lattice_table(spec), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,k,ell,r,s,c,mu"
        assert len(lines) - 1 == index_count(3)


class TestIndexCount:
    def test_small_values(self):
        assert index_count(0) == 1
        assert index_count(1) == 3
        assert index_count(2) == 8

    def test_cubic_growth_ratio_stabilizes(self):
        # #I_n / n^3 settles near 2 (pi / (4 sqrt(3))) / 18 + lower order
        r256 = index_count(256) / 256**3
        r512 = index_count(512) / 512**3
        assert abs(r512 - r256) / r512 < 0.06


class TestMuRearrangementDecay:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_inverse_measure_decay_slope(self, d):
        tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=d, jk_max=256))
        seq = rearrange(1.0 / tab.mu)
        n_max = seq.size
        ns = [2**e for e in range(4, int(math.log2(n_max // 2)) + 1)]
        slope, _ = fit_decay_slope(ns, seq[np.array(ns) - 1])
        assert slope <= -(d - 1) / 3.0 + 0.1
        if d == 2:
            assert slope <= -1.0 / 3.0 + 0.05


class TestCovering:
    SPEC = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=20)

    def test_origin_covered(self):
        assert covered_2d(np.zeros(2), np.zeros(2), self.SPEC)

    def test_lattice_points_covered(self):
        for j in range(0, 6):
            x = np.array([0.5 * j, 0.0])
            assert covered_2d(x, np.zeros(2), self.SPEC)
        tab = lattice_table(self.SPEC)
        idx = np.flatnonzero((tab.j == 3) & (tab.k == 4))
        for i in idx:
            half = math.pi * tab.ell[i] / (2.0 * max(tab.n_angles[i], 1))
            x = np.array([tab.r[i], 0.0])
            w = tab.s[i] * np.array([math.sin(half), math.cos(half)])
            assert covered_2d(x, w, self.SPEC)

    def test_wider_radius_reaches_further(self):
        # 2.5 steps past the outermost ring j = 20 (k = 0): only a cell
        # wider than 2.5 steps, found through a ring more than one row away,
        # reaches it
        x = np.array([0.5 * 22.5, 0.0])
        assert not covered_2d(x, np.zeros(2), self.SPEC)
        assert not covered_2d(x, np.zeros(2), self.SPEC, radius=(1.2, 0.5))
        assert covered_2d(x, np.zeros(2), self.SPEC, radius=(1.3, 0.5))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            covered_2d(np.zeros(2), np.zeros(2), self.SPEC, radius=(0.0, 0.5))

    def test_rejects_point_with_extra_coordinates(self):
        # |x| would include the third entry while the angle uses the first two
        with pytest.raises(ValueError, match="parameter x"):
            covered_2d([1.0, 0.0, 5.0], [0.0, 0.0], LatticeSpec(a=0.5, b=0.5, d=2, jk_max=30))
        with pytest.raises(ValueError, match="parameter omega"):
            covered_2d([0.0, 0.0], [[0.0, 0.0]], self.SPEC)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=30)
        with pytest.raises(ValueError, match="parameter x"):
            covered_2d([bad, 0.0], [0.0, 0.0], spec)
        with pytest.raises(ValueError, match="parameter omega"):
            covered_2d([0.0, 0.0], [0.0, bad], spec)

    @pytest.mark.parametrize("radius", [(math.inf, 1.0), (1.0, math.nan), (1.0,), (1.0, -1.0)])
    def test_rejects_radius_that_is_not_two_finite_positive_numbers(self, radius):
        with pytest.raises(ValueError, match="parameter radius"):
            covered_2d([0.0, 0.0], [0.0, 0.0], LatticeSpec(a=0.5, b=0.5, d=2, jk_max=30), radius=radius)

    @pytest.mark.parametrize("x", [[1e300, 0.0], [1e200, 1e200], [16.5, 0.0]])
    def test_point_beyond_reach_is_not_covered(self, x):
        # j + k <= 30 reaches |x| = 15.5 with a = 0.5; 1e200 overflows the norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not covered_2d(x, [0.0, 0.0], LatticeSpec(a=0.5, b=0.5, d=2, jk_max=30))

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            covered_2d(np.zeros(2), np.zeros(2), LatticeSpec(a=0.5, b=0.5, d=3, jk_max=4))

    def test_agrees_with_dense_brute_force(self):
        # 16384-angle brute force over both isometry classes
        spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=12)
        tab = lattice_table(spec)
        half = np.pi * tab.ell / (2.0 * np.maximum(tab.n_angles, 1))
        c_alpha = np.where(tab.n_angles == 0, 1.0, np.sin(half))
        s_alpha = np.where(tab.n_angles == 0, 0.0, np.cos(half))
        xi = np.stack([tab.r, np.zeros_like(tab.r)], axis=1)
        wi = np.stack([tab.s * c_alpha, tab.s * s_alpha], axis=1)

        def brute(x, w):
            psis = np.linspace(0.0, 2.0 * math.pi, 16384, endpoint=False)
            cos_p, sin_p = np.cos(psis), np.sin(psis)
            for flip in (1.0, -1.0):
                xf = np.array([x[0], flip * x[1]])
                wf = np.array([w[0], flip * w[1]])
                rx = np.stack([cos_p * xf[0] + sin_p * xf[1], -sin_p * xf[0] + cos_p * xf[1]], axis=1)
                rw = np.stack([cos_p * wf[0] + sin_p * wf[1], -sin_p * wf[0] + cos_p * wf[1]], axis=1)
                for i in range(len(tab)):
                    dx = np.linalg.norm(rx - xi[i], axis=1)
                    dw = np.linalg.norm(rw - wi[i], axis=1)
                    if np.any((dx <= spec.a + 1e-12) & (dw <= spec.b + 1e-12)):
                        return True
            return False

        rng = np.random.default_rng(17)
        pts = rng.uniform(-2.0, 2.0, size=(100, 4))
        disagreements = 0
        for p in pts:
            mine = covered_2d(p[:2], p[2:], spec)
            ref = brute(p[:2], p[2:])
            # the sampled brute force can miss razor-thin intersections that
            # the exact arc test finds; only that direction is allowed
            if mine != ref:
                assert mine and not ref
                disagreements += 1
        assert disagreements <= 1

    @pytest.mark.parametrize("phi_x", [0.0, 1.0, -2.5, 3.1])
    @pytest.mark.parametrize("gap, expected", [(1e-11, False), (-1e-11, True)])
    def test_decides_a_miss_of_1e_11_radians(self, phi_x, gap, expected):
        # |x| = |omega| = 3 reaches only ring pair (6, 6), N = 2; cells of
        # radius 0.2 fit x on an arc of rotations of half-width
        # arccos(1 - 0.04/18) around phi_x, and omega on one as wide around
        # phi_w - pi/4 for the atom ell = 1.  Arcs that miss by 1e-11 rad
        # leave the point uncovered; arcs that overlap by 1e-11 rad cover it.
        spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=12)
        phi_w = phi_x + math.pi / 4.0 + 2.0 * math.acos(1.0 - 0.04 / 18.0) + gap
        x = 3.0 * np.array([math.cos(phi_x), math.sin(phi_x)])
        w = 3.0 * np.array([math.cos(phi_w), math.sin(phi_w)])
        assert covered_2d(x, w, spec, radius=(0.2, 0.2)) is expected
        # the reflection (x, omega) -> (conj x, conj omega) preserves the cells
        flip = np.array([1.0, -1.0])
        assert covered_2d(flip * x, flip * w, spec, radius=(0.2, 0.2)) is expected

    def test_covered_fraction_on_random_sample(self):
        # the strict-radius cells provably leave gaps (see the acceptance
        # suite); the verifier must still accept the covered majority
        spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=20)
        rng = np.random.default_rng(23)
        pts = rng.uniform(-3.0, 3.0, size=(200, 4))
        frac = np.mean([covered_2d(p[:2], p[2:], spec) for p in pts])
        assert frac >= 0.85

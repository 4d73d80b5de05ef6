"""Frame construction, analysis/synthesis, CG reconstruction and empirical
frame bounds."""

import math

import numpy as np
import pytest

from radial_gabor.frames import (
    CoeffSeq,
    analyze,
    build_frame,
    coeffs_to_csv,
    frame_bounds,
    frame_operator,
    reconstruct,
    synthesize,
)
from radial_gabor.lattice import LatticeIndex, LatticeSpec, lattice_table
from radial_gabor.profiles import (
    GaussianSpec,
    inner,
    make_profile,
    norm,
    normalized_gaussian_window,
)
from radial_gabor.frames import _l2_error
from radial_gabor.stft import (
    OrbitPoint,
    _averaged_shift_values,
    _gaussian_shift_values,
    phi_node_count,
    radial_stft,
    rot_avg_shift,
)


@pytest.fixture(scope="module")
def frame8():
    window = normalized_gaussian_window(2)
    return build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=8), normalized=True)


@pytest.fixture(scope="module")
def frame12():
    window = normalized_gaussian_window(2)
    return build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=12), normalized=True)


class TestBuildFrame:
    def test_minimal_frame_contains_window(self):
        window = normalized_gaussian_window(2)
        fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=1), normalized=False)
        assert len(fr) == 3
        assert np.max(np.abs(fr.atom_matrix[0] - window.values)) < 1e-12

    def test_normalized_scaling(self, frame8):
        window = frame8.window
        unnorm = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=3), normalized=False)
        renorm = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=3), normalized=True)
        scale = np.sqrt(unnorm.table.mu)
        assert np.max(np.abs(renorm.atom_matrix - scale[:, None] * unnorm.atom_matrix)) < 1e-12

    def test_matches_reference_shift_path(self, frame8):
        tab = frame8.table
        rng = np.random.default_rng(0)
        for i in rng.integers(0, len(frame8), 6):
            p = OrbitPoint(float(tab.r[i]), float(tab.s[i]), float(tab.c[i]))
            ref = rot_avg_shift(frame8.window, p).values
            phase = np.exp(1j * math.pi * p.r * p.s * p.c)
            expected = math.sqrt(tab.mu[i]) * phase * ref
            assert np.max(np.abs(frame8.atom_matrix[i] - expected)) < 1e-12

    def test_rejects_zero_window(self):
        window = normalized_gaussian_window(2)
        zero = window.with_values(np.zeros_like(window.values))
        with pytest.raises(ValueError):
            build_frame(zero, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite_atoms_naming_d(self):
        # the Gaussian kernel overflows on some atoms at d = 160, J = 8
        window = normalized_gaussian_window(160)
        with pytest.raises(ValueError, match="d = 160"):
            build_frame(window, LatticeSpec(a=0.5, b=0.5, d=160, jk_max=8))

    def test_complex_window_conjugate_pairs_still_exact(self):
        # a complex window: its -ell atom is not the conjugate of the +ell one;
        # spot-check one ring against direct integration at -c
        window = normalized_gaussian_window(2)
        cw = window.with_values(window.values * np.exp(0.3j))
        fr = build_frame(cw, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=3), normalized=True)
        tab = fr.table
        i = int(np.flatnonzero((tab.j == 1) & (tab.k == 1) & (tab.ell == -1))[0])
        p = OrbitPoint(float(tab.r[i]), float(tab.s[i]), float(tab.c[i]))
        phase = np.exp(1j * math.pi * p.r * p.s * p.c)
        expected = math.sqrt(tab.mu[i]) * phase * rot_avg_shift(cw, p).values
        assert np.max(np.abs(fr.atom_matrix[i] - expected)) < 1e-12


    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gaussian_closed_form_matches_quadrature(self, d):
        self._check_closed_form_against_quadrature(d, GaussianSpec(1.3, 0.7))

    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_closed_form_complex_amplitude(self, d):
        # a complex amplitude: the -ell atoms are amp conj(u), not conj(amp u)
        self._check_closed_form_against_quadrature(d, GaussianSpec(1.3, 0.7 * np.exp(0.4j)))

    @staticmethod
    def _check_closed_form_against_quadrature(d, g):
        # the same Gaussian as a plain function takes the phi-quadrature path
        spec = LatticeSpec(a=0.5, b=0.5, d=d, jk_max=5)
        closed = build_frame(make_profile(d, 8.0, 1024, g), spec, normalized=True)
        quad = build_frame(make_profile(d, 8.0, 1024, lambda t: g(t)), spec, normalized=True)
        tab = closed.table
        assert tab.r[0] == 0.0 and tab.s[0] == 0.0  # the origin atom is row 0
        assert np.max(np.abs(closed.atom_matrix[0] - closed.window.values)) < 1e-15
        bound = 1e-12 * np.sqrt(tab.mu) * norm(closed.window)
        assert np.all(np.max(np.abs(closed.atom_matrix - quad.atom_matrix), axis=1) <= bound)

    def test_non_gaussian_real_window_conjugate_rows(self):
        # a real window without closed form: the quadrature ring path, whose
        # -ell atoms are the conjugates of the +ell ones
        window = make_profile(2, 8.0, 1024, lambda t: (1.0 + t**2) ** -4 * np.cos(t))
        fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=5), normalized=True)
        tab = fr.table
        rows = []
        for j, k in ((1, 1), (2, 3), (4, 1)):
            ring = (tab.j == j) & (tab.k == k)
            ell = int(tab.ell[ring].max())
            rows += [int(np.flatnonzero(ring & (tab.ell == e))[0]) for e in (ell, -ell)]
        for i in rows:
            p = OrbitPoint(float(tab.r[i]), float(tab.s[i]), float(tab.c[i]))
            phase = np.exp(1j * math.pi * p.r * p.s * p.c)
            expected = math.sqrt(tab.mu[i]) * phase * rot_avg_shift(window, p).values
            assert np.max(np.abs(fr.atom_matrix[i] - expected)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_complex_window_pairs_match_direct_integration(self, d):
        # (1+theta^2)^-4 e^(i theta) is genuinely complex, so its -ell atoms
        # are not the conjugates of the +ell ones; rot_avg_shift integrates
        # at -c directly and so checks the one-pass pair kernel
        window = make_profile(d, 8.0, 1024, lambda t: (1.0 + t**2) ** -4 * np.exp(1j * t))
        fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=d, jk_max=5), normalized=True)
        tab = fr.table
        for j, k in ((1, 1), (2, 3), (4, 1)):
            ring = np.flatnonzero((tab.j == j) & (tab.k == k))
            for i in ring:
                p = OrbitPoint(float(tab.r[i]), float(tab.s[i]), float(tab.c[i]))
                phase = np.exp(1j * math.pi * p.r * p.s * p.c)
                expected = math.sqrt(tab.mu[i]) * phase * rot_avg_shift(window, p).values
                assert np.max(np.abs(fr.atom_matrix[i] - expected)) < 1e-12
            n, mid = int(tab.n_angles[ring[0]]), int(ring[0] + tab.n_angles[ring[0]])
            assert n >= 1
            for ell in range(1, n + 1):
                plus, minus = fr.atom_matrix[mid + ell], fr.atom_matrix[mid - ell]
                scale = math.sqrt(tab.mu[mid + ell]) * norm(window)
                assert np.max(np.abs(minus - np.conj(plus))) > 1e-3 * scale


def _rebuilt_atoms(fr):
    """Atom rows straight from the pair kernels, each -ell row from the
    mirror values with the conjugate half-phase."""
    w, t = fr.window, fr.table
    g = w.analytic if isinstance(w.analytic, GaussianSpec) else None
    out = np.empty((len(fr), w.radii.size), dtype=complex)
    for i in np.flatnonzero(t.ell >= 0):
        p = OrbitPoint(float(t.r[i]), float(t.s[i]), float(t.c[i]))
        if g is None:
            plus, minus = _averaged_shift_values(w, p, phi_node_count(w.theta_max, p.r, p.s))
        else:
            plus, minus = _gaussian_shift_values(g, w.radii, w.dim, p)
        phase = complex(math.cos(math.pi * p.r * p.s * p.c), math.sin(math.pi * p.r * p.s * p.c))
        scale = math.sqrt(t.mu[i]) if fr.normalized else 1.0
        out[i] = (scale * phase) * plus
        if t.ell[i] > 0:
            out[i - 2 * t.ell[i]] = (scale * phase.conjugate()) * minus
    return out


class TestRealForm:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("path", ["closed", "quadrature"])
    def test_real_window_stores_real_pairs(self, d, path):
        g = GaussianSpec(math.pi, 2.0 ** (d / 4.0))
        window = make_profile(d, 8.0, 1024, g if path == "closed" else (lambda t: g(t)))
        fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=d, jk_max=4 if path == "closed" else 3))
        atoms, ref = fr.atom_matrix, _rebuilt_atoms(fr)
        assert fr.pair_matrix.dtype == np.float64 and fr.pair_matrix.shape == ref.shape
        assert atoms.dtype == complex and not atoms.flags.writeable
        origin_rings = fr.table.r == 0.0
        if path == "closed":
            assert np.array_equal(atoms, ref)
        else:
            # the quadrature leaves an imaginary residue of a few ulps on the
            # r = 0 rings, where the exact average is real; the real form drops it
            assert np.array_equal(atoms[~origin_rings], ref[~origin_rings])
            assert np.array_equal(atoms.real, ref.real) and not atoms[origin_rings].imag.any()
            residue = np.max(np.abs(ref[origin_rings].imag), axis=1)
            assert np.all(residue <= 1e-15 * np.max(np.abs(ref[origin_rings]), axis=1))
        rows = np.random.default_rng(d).permutation(len(fr))[: len(fr) - 3]
        assert np.array_equal(fr._atom_rows(rows), atoms[rows])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("window", ["complex-amplitude", "complex-spline"])
    def test_complex_window_keeps_complex_pairs(self, d, window):
        if window == "complex-amplitude":
            w = make_profile(d, 8.0, 1024, GaussianSpec(1.3, 0.7 * np.exp(0.4j)))
        else:
            w = make_profile(d, 8.0, 1024, lambda t: (1.0 + t**2) ** -4 * np.exp(1j * t))
        fr = build_frame(w, LatticeSpec(a=0.5, b=0.5, d=d, jk_max=5))
        assert fr.pair_matrix.dtype == complex
        ref = _rebuilt_atoms(fr)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(fr.atom_matrix - ref) <= 4e-16 * scale)
        base = make_profile(d, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        for f in (base, base.with_values(base.values * (1.0 + 0.5j))):
            res = reconstruct(f, fr, tol=1e-4, max_iter=2000)
            assert res.converged and res.relative_error <= 1e-4
            direct = _l2_error(fr, res.coefficients.values, f) / norm(f)
            assert direct == pytest.approx(res.relative_error, rel=1e-9)

    def test_complex_target_on_real_frame(self, frame8):
        re = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        im = make_profile(2, 8.0, 1024, GaussianSpec(1.0, 0.3))
        f = re.with_values(re.values + 1j * im.values)
        res = reconstruct(f, frame8, tol=1e-4, max_iter=2000)
        assert res.converged and res.relative_error <= 1e-4
        assert res.error_history[-1] == pytest.approx(res.relative_error, rel=1e-9)
        direct = _l2_error(frame8, res.coefficients.values, f) / norm(f)
        assert direct == pytest.approx(res.relative_error, rel=1e-9)

    @pytest.mark.parametrize("noise", [1e-16, 1e-170])
    def test_rounding_noise_imaginary_part(self, frame8, noise):
        # a target whose imaginary part is rounding noise is judged on its
        # whole error, so it stops where its real part does; near tol 1e-8 the
        # crossing moves by an iteration with the rounding of complex steps
        re = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        jitter = np.random.default_rng(0).standard_normal(re.values.size)
        f = re.with_values(re.values + 1j * noise * jitter)
        res, ref = (reconstruct(g, frame8, tol=1e-4, max_iter=2000) for g in (f, re))
        assert res.converged and res.iterations == ref.iterations
        np.testing.assert_allclose(res.coefficients.values, ref.coefficients.values, rtol=0.0, atol=1e-12)
        res, ref = (reconstruct(g, frame8, tol=1e-8, max_iter=2000) for g in (f, re))
        assert res.converged and res.iterations < 2 * ref.iterations

    @pytest.mark.parametrize("target", [GaussianSpec(2.0 * math.pi), GaussianSpec(0.7, 1.9)])
    def test_real_target_gives_conjugate_coefficient_pairs(self, frame8, target):
        gamma = reconstruct(make_profile(2, 8.0, 1024, target), frame8, tol=1e-8).coefficients.values
        ell = frame8.table.ell
        plus = np.flatnonzero(ell > 0)
        assert np.array_equal(gamma[plus - 2 * ell[plus]], np.conj(gamma[plus]))
        assert not gamma[ell == 0].imag.any()


class TestAnalyzeSynthesize:
    def test_analyze_zero(self, frame8):
        zero = frame8.window.with_values(np.zeros_like(frame8.window.values))
        coeffs = analyze(zero, frame8)
        assert all(v == 0.0 for v in coeffs.entries.values())

    def test_analyze_matches_radial_stft(self, frame8):
        f = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        coeffs = analyze(f, frame8)
        tab = frame8.table
        for i in (0, 5, 17, 40):
            idx = LatticeIndex(int(tab.j[i]), int(tab.k[i]), int(tab.ell[i]))
            p = OrbitPoint(float(tab.r[i]), float(tab.s[i]), float(tab.c[i]))
            expected = math.sqrt(tab.mu[i]) * radial_stft(f, frame8.window, p)
            assert coeffs.entries[idx] == pytest.approx(expected, abs=1e-10)

    def test_analyze_atom_gives_squared_norm(self, frame8):
        i0 = 7
        atom = frame8.window.with_values(frame8.atom_matrix[i0])
        coeffs = analyze(atom, frame8)
        tab = frame8.table
        idx = LatticeIndex(int(tab.j[i0]), int(tab.k[i0]), int(tab.ell[i0]))
        assert coeffs.entries[idx] == pytest.approx(norm(atom) ** 2, rel=1e-10)

    def test_window_coefficient_at_origin(self, frame8):
        coeffs = analyze(frame8.window, frame8)
        assert coeffs.entries[LatticeIndex(0, 0, 0)] == pytest.approx(1.0, abs=1e-9)

    def test_synthesize_unit_coefficient(self, frame8):
        unit = CoeffSeq(table=frame8.table, rows=[0], values=[1.0])  # row 0 is (0, 0, 0)
        out = synthesize(unit, frame8)
        assert np.max(np.abs(out.values - frame8.window.values)) < 1e-12

    def test_synthesize_unknown_key_rejected(self, frame8):
        # coefficients indexed by a lattice the frame does not carry
        other = lattice_table(LatticeSpec(a=0.5, b=0.5, d=2, jk_max=20))
        bad = CoeffSeq(table=other, rows=[len(other) - 1], values=[1.0])
        with pytest.raises(ValueError, match="different lattice"):
            synthesize(bad, frame8)

    def test_synthesis_of_analysis_is_frame_operator(self, frame8):
        f = make_profile(2, 8.0, 1024, GaussianSpec(1.3))
        via_coeffs = synthesize(analyze(f, frame8), frame8)
        direct = frame_operator(f, frame8)
        assert np.max(np.abs(via_coeffs.values - direct.values)) < 1e-12

    def test_synthesize_linearity(self, frame8):
        rng = np.random.default_rng(1)
        n = len(frame8)
        rows = np.arange(n)
        c1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = 0.3 - 1.1j, 0.8 + 0.2j
        s1 = synthesize(CoeffSeq(table=frame8.table, rows=rows, values=c1), frame8).values
        s2 = synthesize(CoeffSeq(table=frame8.table, rows=rows, values=c2), frame8).values
        s12 = synthesize(CoeffSeq(table=frame8.table, rows=rows, values=a * c1 + b * c2), frame8).values
        assert np.max(np.abs(s12 - (a * s1 + b * s2))) < 1e-10


class TestFrameOperator:
    def test_positive(self, frame8):
        rng = np.random.default_rng(2)
        base = frame8.window
        for _ in range(10):
            f = base.with_values(
                rng.standard_normal(base.radii.size) + 1j * rng.standard_normal(base.radii.size)
            )
            assert inner(frame_operator(f, frame8), f).real >= -1e-10

    def test_self_adjoint(self, frame8):
        rng = np.random.default_rng(3)
        base = frame8.window
        for _ in range(5):
            f = base.with_values(
                rng.standard_normal(base.radii.size) + 1j * rng.standard_normal(base.radii.size)
            )
            h = base.with_values(
                rng.standard_normal(base.radii.size) + 1j * rng.standard_normal(base.radii.size)
            )
            lhs = inner(frame_operator(f, frame8), h)
            rhs = np.conj(inner(frame_operator(h, frame8), f))
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_rayleigh_quotient_of_window_within_bounds(self, frame12):
        lo, hi = frame_bounds(frame12, test_dim=6)
        g = frame12.window
        rq = inner(frame_operator(g, frame12), g).real / norm(g) ** 2
        assert lo - 1e-9 <= rq <= hi + 1e-9


class TestReconstruct:
    def test_zero_input(self, frame8):
        zero = frame8.window.with_values(np.zeros_like(frame8.window.values))
        res = reconstruct(zero, frame8, tol=1e-6)
        assert res.relative_error == 0.0
        assert res.iterations == 0
        assert res.converged

    def test_span_consistency(self, frame8):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(len(frame8)) + 1j * rng.standard_normal(len(frame8))
        f = frame8.window.with_values(frame8._synthesize_values(coeffs))
        res = reconstruct(f, frame8, tol=1e-6, max_iter=3000)
        assert res.relative_error <= 10.0 * 1e-6

    def test_dilated_gaussian(self, frame12):
        f = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        res = reconstruct(f, frame12, tol=1e-6, max_iter=1500)
        assert res.relative_error < 1e-3
        assert np.all(np.diff(res.error_history) <= 1e-12)

    def test_error_history_monotone_on_random_target(self, frame8):
        rng = np.random.default_rng(4)
        f = frame8.window.with_values(
            rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        )
        res = reconstruct(f, frame8, tol=1e-8, max_iter=200)
        assert np.all(np.diff(res.error_history) <= 1e-12)

    def test_converged_implies_error_within_tol(self):
        # the running T gamma drifts from the iterate's own synthesis by
        # rounding; with tol set to each running-history value in turn, a
        # converged result must still report relative_error <= tol
        fr = build_frame(normalized_gaussian_window(2), LatticeSpec(a=0.5, b=0.5, d=2, jk_max=6))
        f = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        history = reconstruct(f, fr, tol=1e-300, max_iter=60).error_history
        assert history.size == 60
        for tol in history.tolist():
            res = reconstruct(f, fr, tol=tol, max_iter=2000)
            assert not res.converged or res.relative_error <= tol, (tol, res.relative_error)

    def test_invalid_tolerance(self, frame8):
        with pytest.raises(ValueError):
            reconstruct(frame8.window, frame8, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, frame8, tol):
        with pytest.raises(ValueError, match="parameter tol"):
            reconstruct(frame8.window, frame8, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_rejected(self, frame8, max_iter):
        with pytest.raises(ValueError, match="parameter max_iter"):
            reconstruct(frame8.window, frame8, max_iter=max_iter)

    @pytest.mark.parametrize("d,window,target", [(2, "normalized", "gauss2"), (3, "gauss", "gauss2")])
    def test_error_history_matches_direct_recomputation(self, d, window, target):
        # the loop tracks T gamma by updates; the k-th entry must agree with
        # the L2 error of the k-th iterate recomputed from its coefficients,
        # and so stop at the same iteration as a direct-error criterion
        from radial_gabor.cli import _window_profile
        from radial_gabor.frames import _l2_error

        tol = 1e-4
        fr = build_frame(_window_profile(window, d, 8.0, 1024), LatticeSpec(a=0.5, b=0.5, d=d, jk_max=8))
        f = _window_profile(target, d, 8.0, 1024)
        res = reconstruct(f, fr, tol=tol, max_iter=2000)
        direct = np.array([
            _l2_error(fr, reconstruct(f, fr, tol=tol, max_iter=k).coefficients.values, f) / norm(f)
            for k in range(1, res.iterations + 1)
        ])
        np.testing.assert_allclose(res.error_history, direct, rtol=1e-12, atol=0.0)
        assert res.converged
        assert int(np.argmax(direct <= tol)) + 1 == res.iterations

    @pytest.mark.parametrize("J", [2, 3])
    def test_unconverged_returns_best_iterate(self, J):
        # CG on these small frames stalls above tol = 1e-8 and then drifts
        # away from its best iterate; the result must be that best iterate
        from radial_gabor.cli import _window_profile

        fr = build_frame(_window_profile("normalized", 2, 8.0, 1024), LatticeSpec(a=0.5, b=0.5, d=2, jk_max=J))
        res = reconstruct(_window_profile("gauss2", 2, 8.0, 1024), fr, tol=1e-8, max_iter=2000)
        assert not res.converged
        assert res.relative_error <= 1.0
        assert res.relative_error <= np.min(res.error_history) * (1.0 + 1e-9)


class TestFrameBounds:
    def test_reference_configuration(self, frame12):
        lo, hi = frame_bounds(frame12, test_dim=6)
        assert hi >= lo > 0.0
        assert hi / lo < 10.0

    def test_non_orthonormal_test_basis_rejected(self, frame12):
        # the default grid holds 88 Laguerre-Gauss functions at d = 2; at 100
        # their Gram on the grid is off the identity by 1e-2
        with pytest.raises(ValueError, match="parameter test_dim: .* test_dim = 100 .*raise theta_max"):
            frame_bounds(frame12, 100)

    @pytest.mark.parametrize("test_dim", [30, 80])
    def test_bounds_up_to_the_grid_capacity(self, frame12, test_dim):
        # the J = 12 lattice reaches r = s = 6, so A collapses towards 0 by
        # 80 while B stays at its value on the first few functions
        lo, hi = frame_bounds(frame12, test_dim)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert 0.0 <= lo <= hi
        assert hi == pytest.approx(frame_bounds(frame12, 6)[1], rel=1e-4)

    def test_basis_past_280_functions_on_a_wide_grid(self):
        # L_m^(0)(2 pi theta^2) alone overflows float64 near m = 280 on
        # theta_max 16; the normalised recurrence holds the basis to 353 there
        window = normalized_gaussian_window(2, theta_max=16.0, n_points=4096)
        fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=14))
        lo, hi = frame_bounds(fr, 320)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert 0.0 <= lo <= hi
        with pytest.raises(ValueError, match="parameter test_dim: .* test_dim = 400 "):
            frame_bounds(fr, 400)

    def test_single_direction_collapses(self, frame12):
        lo, hi = frame_bounds(frame12, test_dim=1)
        g = frame12.window
        rq = inner(frame_operator(g, frame12), g).real / norm(g) ** 2
        assert lo == pytest.approx(hi, rel=1e-10)
        assert lo == pytest.approx(rq, rel=1e-9)

    def test_matches_dense_eigensolver(self, frame12):
        lo, hi = frame_bounds(frame12, test_dim=5)
        from radial_gabor.frames import _test_subspace
        from radial_gabor.profiles import sphere_area

        basis = _test_subspace(frame12, 5)
        images = np.array(
            [frame12._synthesize_values(analyze(frame12.window.with_values(e), frame12).values) for e in basis]
        )
        area = sphere_area(2)
        m = area * (np.conj(basis) @ (frame12.window.weights[:, None] * images.T))
        eig = np.linalg.eigvalsh(0.5 * (m + np.conj(m.T)))
        assert lo == pytest.approx(eig[0], rel=1e-8)
        assert hi == pytest.approx(eig[-1], rel=1e-8)

    def test_bounds_match_public_rayleigh_quotients(self, frame12):
        # independent of the eigensolver: Rayleigh quotients <S f, f>/||f||^2
        # through the public API, on seeded random combinations of the test
        # basis, the basis vectors, and the iterates of a power iteration on
        # the compressed operator (shifted for the lower end)
        from radial_gabor.frames import _test_subspace

        lo, hi = frame_bounds(frame12, test_dim=5)
        basis = [frame12.window.with_values(e) for e in _test_subspace(frame12, 5)]

        def combine(c):
            return frame12.window.with_values(sum(ci * b.values for ci, b in zip(c, basis)))

        def rayleigh(f):
            return inner(frame_operator(f, frame12), f).real / norm(f) ** 2

        rng = np.random.default_rng(17)
        starts = rng.standard_normal((202, 5)) + 1j * rng.standard_normal((202, 5))
        quotients = [rayleigh(combine(c)) for c in starts[:200]]
        quotients += [rayleigh(b) for b in basis]
        for start, shift in ((starts[200], 0.0), (starts[201], max(quotients))):
            c = start
            for _ in range(150):
                f = combine(c)
                g = frame_operator(f, frame12)
                c = np.array([inner(g, b) - shift * inner(f, b) for b in basis])
                c /= np.linalg.norm(c)
                quotients.append(rayleigh(combine(c)))
        quotients = np.array(quotients)
        assert np.all(quotients >= lo - 1e-9)
        assert np.all(quotients <= hi + 1e-9)
        assert quotients.min() == pytest.approx(lo, rel=1e-3)
        assert quotients.max() == pytest.approx(hi, rel=1e-3)

    def test_truncation_stability(self):
        window = normalized_gaussian_window(2)
        lo1, hi1 = frame_bounds(
            build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=8)), test_dim=4
        )
        lo2, hi2 = frame_bounds(
            build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=16)), test_dim=4
        )
        assert abs(lo2 - lo1) / lo2 < 0.05
        assert abs(hi2 - hi1) / hi2 < 0.05

    def test_invalid_test_dim(self, frame8):
        with pytest.raises(ValueError):
            frame_bounds(frame8, test_dim=0)
        with pytest.raises(ValueError):
            frame_bounds(frame8, test_dim=len(frame8) + 1)


def _qr_bounds(fr, test_dim):
    """Frame bounds by the earlier construction: the monomials
    theta^(2m) exp(-pi theta^2) orthonormalised by one QR, and the Gram
    conj(C) C^T of their atom coefficients, one basis vector at a time.
    Returns the bounds of the plain eigensolve, the bounds in the basis's own
    grid Gram M (which removes the QR's rounding from the reference) and the
    distance of M from the identity."""
    from scipy.linalg import eigh

    from radial_gabor.profiles import sphere_area

    theta = fr.window.radii
    raw = theta[None, :] ** (2 * np.arange(test_dim)[:, None]) * np.exp(-math.pi * theta**2)
    sw = np.sqrt(sphere_area(fr.window.dim) * fr.window.weights)
    r = np.linalg.qr((raw * sw).T, mode="r")
    basis = np.linalg.solve(r.T, raw)
    coeffs = np.array([analyze(fr.window.with_values(e), fr).values for e in basis])
    gram = np.conj(coeffs) @ coeffs.T
    metric = (basis * sw**2) @ basis.T
    plain = np.linalg.eigvalsh(gram)[[0, -1]]
    exact = eigh(gram, metric, eigvals_only=True)[[0, -1]]
    return plain, exact, np.max(np.abs(metric - np.eye(test_dim)))


class TestLaguerreGaussBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_on_default_grid(self, d):
        from radial_gabor.frames import _test_subspace
        from radial_gabor.profiles import sphere_area

        fr = build_frame(normalized_gaussian_window(d), LatticeSpec(a=0.5, b=0.5, d=d, jk_max=1))
        basis = _test_subspace(fr, 80)
        w = sphere_area(d) * fr.window.weights
        assert np.max(np.abs((basis * w) @ basis.T - np.eye(80))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fourier_eigenfunctions(self, d):
        # F phi_m = (-1)^m phi_m through the grid Hankel transform
        # f^(rho) = |S^(d-1)| sum_i w_i f(theta_i) B_d(theta_i rho)
        from radial_gabor.bessel import sph_bessel_values
        from radial_gabor.frames import _test_subspace
        from radial_gabor.profiles import sphere_area

        fr = build_frame(normalized_gaussian_window(d), LatticeSpec(a=0.5, b=0.5, d=d, jk_max=1))
        theta, w = fr.window.radii, sphere_area(d) * fr.window.weights
        basis = _test_subspace(fr, 60)
        hankel = (basis * w) @ sph_bessel_values(d, np.outer(theta, theta))
        signs = (-1.0) ** np.arange(60)
        assert np.max(np.abs(hankel - signs[:, None] * basis)) <= 1e-12

    @pytest.mark.parametrize("case", ["frame12", "d3", "complex-amplitude"])
    def test_bounds_match_monomial_qr_reference(self, frame12, case):
        if case == "frame12":
            fr = frame12
        elif case == "d3":
            fr = build_frame(normalized_gaussian_window(3), LatticeSpec(a=0.5, b=0.5, d=3, jk_max=8))
        else:
            window = make_profile(2, 8.0, 1024, GaussianSpec(math.pi, 0.7 * np.exp(0.4j)))
            fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=8))
            assert fr.pair_matrix.dtype == complex
        for test_dim in range(1, 11):
            bounds = np.array(frame_bounds(fr, test_dim))
            plain, exact, basis_error = _qr_bounds(fr, test_dim)
            np.testing.assert_allclose(bounds, exact, rtol=1e-13, atol=0.0)
            # the plain reference carries the QR basis's own rounding (1.6e-12
            # off the identity at d = 3, test_dim = 10)
            np.testing.assert_allclose(bounds, plain, rtol=1e-13 + 2.0 * basis_error, atol=0.0)


class TestFrameNormEquivalences:
    def test_parseval_sandwich_on_subspace(self, frame12):
        from radial_gabor.frames import _test_subspace

        lo, hi = frame_bounds(frame12, test_dim=5)
        basis = _test_subspace(frame12, 5)
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            values = c @ basis
            f = frame12.window.with_values(values)
            total = float(np.sum(np.abs(analyze(f, frame12).values) ** 2))
            nf2 = norm(f) ** 2
            assert lo * nf2 - 1e-9 <= total <= hi * nf2 + 1e-9

    def test_weighted_coefficient_norm_equivalence(self, frame12):
        # sum |lambda_i|^2 mu_i over the plain atoms equals the normalized
        # analysis energy, with ratio spread bounded by the measured B/A
        from radial_gabor.frames import _test_subspace

        lo, hi = frame_bounds(frame12, test_dim=5)
        basis = _test_subspace(frame12, 5)
        unnorm = build_frame(
            frame12.window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=12), normalized=False
        )
        mu = unnorm.table.mu
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(40):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            f = frame12.window.with_values(c @ basis)
            lam = analyze(f, unnorm).values
            ratios.append(float(np.sum(np.abs(lam) ** 2 * mu)) / norm(f) ** 2)
        assert max(ratios) / min(ratios) <= hi / lo * (1.0 + 1e-9)


class TestCoeffCsv:
    def test_export_schema(self, frame8, tmp_path):
        f = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        coeffs = analyze(f, frame8)
        path = tmp_path / "coeffs.csv"
        coeffs_to_csv(coeffs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,k,ell,re,im"
        assert len(lines) - 1 == len(frame8)

    @pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "unsorted-subset"])
    def test_csv_rows_follow_lattice_order(self, frame8, tmp_path, subset):
        f = make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))
        values = reconstruct(f, frame8, tol=1e-6).coefficients.values
        tab = frame8.table
        rows = np.random.default_rng(5).permutation(len(frame8))[:17] if subset else np.arange(len(frame8))
        seq = CoeffSeq(table=tab, rows=rows, values=values[rows])
        assert len(seq) == len(seq.entries) == rows.size
        for i in rows:
            idx = LatticeIndex(int(tab.j[i]), int(tab.k[i]), int(tab.ell[i]))
            assert seq.entries[idx] == values[i]
        coeffs_to_csv(seq, tmp_path / "coeffs.csv")
        lines = (tmp_path / "coeffs.csv").read_text().splitlines()
        expected = [
            f"{tab.j[i]},{tab.k[i]},{tab.ell[i]},{values[i].real:.17g},{values[i].imag:.17g}"
            for i in np.sort(rows)
        ]
        assert lines == ["j,k,ell,re,im"] + expected


class TestCoeffSeqValidation:
    @pytest.mark.parametrize(
        "rows, values",
        [
            ([0, 1, 2], [5.0]),  # lengths differ
            ([[0, 1]], [[1.0, 2.0]]),  # not 1-d
            ([0, 1], np.ones((2, 1))),  # values not 1-d
            ([-1], [1.0]),  # before the first row
            ([0, 10**6], [1.0, 2.0]),  # past the last row
            ([0.0, 1.0], [1.0, 2.0]),  # not row indices
            ([0, 0], [1.0, 2.0]),  # one row twice
        ],
        ids=["length", "rows-2d", "values-2d", "negative", "past-end", "float-rows", "repeated"],
    )
    def test_malformed_input_rejected(self, frame8, rows, values):
        with pytest.raises(ValueError):
            CoeffSeq(table=frame8.table, rows=rows, values=values)

    def test_empty_sequence(self, frame8):
        empty = CoeffSeq(table=frame8.table, rows=[], values=[])
        assert len(empty) == 0 and empty.entries == {}
        assert not synthesize(empty, frame8).values.any()

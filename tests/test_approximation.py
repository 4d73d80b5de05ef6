"""Linear and n-term approximation experiments, plus the standard Gabor
baseline."""

import math

import numpy as np
import pytest

from radial_gabor.approximation import (
    gabor_baseline_2d,
    linear_approx,
    nterm_approx,
    nterm_greedy,
    standard_gabor_coefficients,
)
from radial_gabor.embeddings import EmbeddingQuery, rearrange, sigma_tail
from radial_gabor.frames import NonConvergence, analyze, build_frame, reconstruct
from radial_gabor.lattice import LatticeSpec
from radial_gabor.profiles import GaussianSpec, make_profile, norm, normalized_gaussian_window
from radial_gabor.stft import stft_direct_2d

TOL = 1e-8
MAX_ITER = 2000
# the CLI default target (gauss2) and the approx-queries pool exponents
BASELINE_ALPHAS = [2.0 * math.pi, 1.5, 2.4, 4.0, 6.5]
BASELINE_IDS = ["gauss2", "1.5", "2.4", "4.0", "6.5"]


@pytest.fixture(scope="module")
def frame10():
    window = normalized_gaussian_window(2)
    return build_frame(window, LatticeSpec(a=0.5, b=0.5, d=2, jk_max=10), normalized=True)


@pytest.fixture(scope="module")
def target():
    return make_profile(2, 8.0, 1024, GaussianSpec(2.0 * math.pi))


@pytest.fixture(scope="module")
def sparse_frame():
    # a = b = 1.0 keeps the truncated atoms linearly independent, so dual
    # coefficients of span functions are supported on the span itself
    window = normalized_gaussian_window(2)
    return build_frame(window, LatticeSpec(a=1.0, b=1.0, d=2, jk_max=6), normalized=True)


QUERY = EmbeddingQuery(1, 2, 0, 0, 2)


class TestLinearApprox:
    def test_zero_terms_gives_full_norm(self, frame10, target):
        rep = linear_approx(target, frame10, QUERY, [0], tol=TOL, max_iter=MAX_ITER)
        assert rep.errors[0] == pytest.approx(norm(target), rel=1e-12)

    def test_full_expansion_reaches_tolerance(self, frame10, target):
        n = len(frame10)
        rep = linear_approx(target, frame10, QUERY, [n], tol=1e-6, max_iter=MAX_ITER)
        assert rep.errors[0] <= 1e-6 * norm(target) * 1.5

    def test_errors_non_increasing(self, frame10, target):
        ns = [0, 1, 2, 4, 8, 16, 32, 64, 128]
        rep = linear_approx(target, frame10, QUERY, ns, tol=TOL, max_iter=MAX_ITER)
        diffs = np.diff(rep.errors)
        assert np.all(diffs <= 1e-12 + 10 * TOL)

    def test_decay_rate_beats_reference(self, frame10, target):
        ns = [2**e for e in range(0, 8)]
        rep = linear_approx(target, frame10, QUERY, ns, tol=TOL, max_iter=MAX_ITER)
        assert rep.reference_slope == pytest.approx(-1.0 / 6.0)
        assert rep.fitted_slope <= -1.0 / 6.0 + 0.1

    def test_dimension_mismatch_rejected(self, frame10, target):
        message = "parameter d: the query has d = 3, the frame d = 2"
        with pytest.raises(ValueError, match=message):
            linear_approx(target, frame10, EmbeddingQuery(1, 2, 0, 0, 3), [1])
        with pytest.raises(ValueError, match=message):
            nterm_approx(target, frame10, EmbeddingQuery(1, 2, 0, 0, 3), [1])

    @pytest.mark.parametrize("bad", [-1, "len+1"])
    def test_out_of_range_n_rejected_before_solve(self, frame10, target, monkeypatch, bad):
        from radial_gabor import approximation

        def no_solve(*args, **kwargs):
            raise AssertionError("the dual was solved before n was checked")

        monkeypatch.setattr(approximation, "reconstruct", no_solve)
        n = len(frame10) + 1 if bad == "len+1" else bad
        with pytest.raises(ValueError):
            linear_approx(target, frame10, QUERY, [0, 4, n], tol=TOL, max_iter=MAX_ITER)
        with pytest.raises(ValueError):
            nterm_greedy(target, frame10, n, 2, 0, tol=TOL, max_iter=MAX_ITER)
        with pytest.raises(ValueError):
            nterm_approx(target, frame10, QUERY, [0, 4, n], tol=TOL, max_iter=MAX_ITER)

    @pytest.mark.parametrize("approx", [linear_approx, nterm_approx], ids=["linear", "nterm"])
    def test_non_integer_n_rejected_before_solve(self, frame10, target, monkeypatch, approx):
        from radial_gabor import approximation

        def no_solve(*args, **kwargs):
            raise AssertionError("the dual was solved before n was checked")

        monkeypatch.setattr(approximation, "reconstruct", no_solve)
        for n_list in ([2.5, 7.9], [2, np.float64(4.0)]):
            with pytest.raises(ValueError, match="parameter n: must be an integer"):
                approx(target, frame10, QUERY, n_list, tol=TOL, max_iter=MAX_ITER)

    @pytest.mark.parametrize("approx", [linear_approx, nterm_approx], ids=["linear", "nterm"])
    def test_numpy_integer_n_accepted(self, frame10, target, approx):
        rep = approx(target, frame10, QUERY, np.array([4, 0]), tol=TOL, max_iter=MAX_ITER)
        assert rep.n_values == (0, 4) and all(type(n) is int for n in rep.n_values)

    def test_weighted_norm_route(self, frame10, target):
        q = EmbeddingQuery(1, 4, 0, -0.5, 2)
        rep = linear_approx(target, frame10, q, [0, 4, 16, 64], tol=TOL, max_iter=MAX_ITER)
        assert all(e >= 0 for e in rep.errors)
        assert np.all(np.diff(rep.errors) <= 1e-12)


class TestNtermGreedy:
    def test_full_selection(self, frame10, target):
        _, err = nterm_greedy(target, frame10, len(frame10), 2, 0, tol=1e-6, max_iter=MAX_ITER)
        assert err <= 1e-6 * norm(target) * 1.5

    def test_single_atom_target(self, sparse_frame):
        tol = 1e-6
        atom = sparse_frame.window.with_values(sparse_frame.atom_matrix[10])
        tab = sparse_frame.table
        idx = (int(tab.j[10]), int(tab.k[10]), int(tab.ell[10]))
        seq, err = nterm_greedy(atom, sparse_frame, 1, 2, 0, tol=tol, max_iter=6000, refit=True)
        assert len(seq) == 1
        picked = next(iter(seq.entries))
        assert (picked.j, picked.k, picked.ell) == idx
        assert err <= 10.0 * tol * norm(atom)

    def test_single_atom_refit_on_redundant_frame(self, frame10):
        # in the redundant regime the truncated dual expansion cannot
        # reproduce an atom, but the selection finds it and the
        # free-coefficient bound closes the gap
        atom = frame10.window.with_values(frame10.atom_matrix[12])
        tab = frame10.table
        idx = (int(tab.j[12]), int(tab.k[12]), int(tab.ell[12]))
        seq, err = nterm_greedy(atom, frame10, 1, 2, 0, tol=TOL, max_iter=MAX_ITER, refit=True)
        picked = next(iter(seq.entries))
        assert (picked.j, picked.k, picked.ell) == idx
        assert err <= 10.0 * TOL * norm(atom) + 1e-10

    def test_span_recovery(self, sparse_frame):
        tol = 1e-6
        rng = np.random.default_rng(8)
        picks = rng.choice(len(sparse_frame), size=5, replace=False)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        values = coeffs @ sparse_frame.atom_matrix[picks]
        f = sparse_frame.window.with_values(values)
        seq, err = nterm_greedy(f, sparse_frame, 5, 2, 0, tol=tol, max_iter=6000, refit=True)
        want = sorted(
            (int(sparse_frame.table.j[i]), int(sparse_frame.table.k[i]), int(sparse_frame.table.ell[i]))
            for i in picks
        )
        got = sorted((p.j, p.k, p.ell) for p in seq.entries)
        assert got == want
        assert err <= 10.0 * tol * norm(f)

    @pytest.mark.parametrize(
        "n,q_exp,t_exp,parameter",
        [
            (4, 0.0, 0.0, "q_exp"),
            (4, math.nan, 0.0, "q_exp"),
            (4, 0.5, 0.0, "q_exp"),
            (4, 2.0, math.nan, "t_exp"),
            (2.5, 2.0, 0.0, "n"),
        ],
        ids=["q-zero", "q-nan", "q-half", "t-nan", "n-float"],
    )
    def test_rejected_before_solve(self, frame10, target, monkeypatch, n, q_exp, t_exp, parameter):
        from radial_gabor import approximation

        def no_solve(*args, **kwargs):
            raise AssertionError("the dual was solved before the parameters were checked")

        monkeypatch.setattr(approximation, "reconstruct", no_solve)
        with pytest.raises(ValueError, match=f"parameter {parameter}:"):
            nterm_greedy(target, frame10, n, q_exp, t_exp, tol=TOL, max_iter=MAX_ITER)

    def test_oversized_selection_rejected(self, frame10, target):
        with pytest.raises(ValueError):
            nterm_greedy(target, frame10, len(frame10) + 1, 2, 0)

    def test_dominates_linear_in_sequence_norm(self, frame10, target):
        # in the weighted coefficient norm the greedy tail is minimal over
        # all selections of the same size, so domination is exact
        q = EmbeddingQuery(1, 4, 0, 0, 2)
        ns = [4, 8, 16, 32, 64]
        rep = linear_approx(target, frame10, q, ns, tol=TOL, max_iter=MAX_ITER)
        for n, lin_err in zip(ns, rep.errors):
            _, g_err = nterm_greedy(target, frame10, n, 4, 0, tol=TOL, max_iter=MAX_ITER)
            assert g_err <= lin_err + 1e-14

    def test_close_to_linear_in_l2(self, frame10, target):
        # the L2 route is an equivalent-norm surrogate of the sequence
        # norm; near-domination with a small multiplicative slack
        ns = [8, 16, 32, 64, 128]
        rep = linear_approx(target, frame10, QUERY, ns, tol=TOL, max_iter=MAX_ITER)
        for n, lin_err in zip(ns, rep.errors):
            _, g_err = nterm_greedy(target, frame10, n, 2, 0, tol=TOL, max_iter=MAX_ITER)
            assert g_err <= 1.05 * lin_err + 10 * TOL

    def test_weighted_tail_satisfies_lower_bound_inequality(self, frame10, target):
        # the rearranged weighted coefficient sequence feeds the tail bound
        from radial_gabor.approximation import _ranked_dual

        _, weighted, _ = _ranked_dual(target, frame10, 2, 0, TOL, MAX_ITER)
        b = rearrange(weighted)
        b = b[b > 0]
        p, q = 1, 2
        alpha = 1 / p - 1 / q
        lhs = 2.0 ** (-1.0 / p) * float(np.sum(b**p))
        rhs = sum((n**alpha * sigma_tail(b, n, q)) ** p / n for n in range(1, b.size + 1))
        assert lhs <= rhs + 1e-12

    def test_rate_exponent_bounded(self, frame10, target):
        vals = []
        for n in (8, 16, 32, 64, 128):
            _, err = nterm_greedy(target, frame10, n, 2, 0, tol=TOL, max_iter=MAX_ITER)
            vals.append(math.sqrt(n) * err)
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert all(r < 1.5 for r in ratios)


class TestNtermApprox:
    @pytest.mark.parametrize(
        "query", [QUERY, EmbeddingQuery(1, 4, 0, 0.5, 2)], ids=["l2", "weighted"]
    )
    def test_matches_nterm_greedy_with_one_solve(self, frame10, target, monkeypatch, query):
        from radial_gabor import approximation

        ns = [8, 0, 1, 4, 64, len(frame10)]
        greedy = [
            nterm_greedy(target, frame10, n, query.q, query.t, tol=TOL, max_iter=MAX_ITER)[1]
            for n in sorted(ns)
        ]
        calls, solve = [], approximation.reconstruct

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(approximation, "reconstruct", counted)
        rep = nterm_approx(target, frame10, query, ns, tol=TOL, max_iter=MAX_ITER)
        assert len(calls) == 1
        assert rep.n_values == tuple(sorted(ns))
        assert rep.errors == tuple(greedy)  # bitwise, not approximately
        assert rep.fitted_slope < 0.0

    @pytest.mark.parametrize(
        "p,q,want",
        [(1, 2, -0.5), (1, 4, -0.75), (2, math.inf, -0.5), (1, math.inf, -1.0), (4, 2, 0.25)],
    )
    def test_reference_slope_is_nonlinear_rate(self, sparse_frame, target, p, q, want):
        # -(1/p - 1/q): the n-term lemma's rate, not the linear -(d-1)/3 (1/p - 1/q);
        # p > q runs (its rate is positive) rather than raising
        rep = nterm_approx(target, sparse_frame, EmbeddingQuery(p, q, 0, 0, 2), [0, 4], tol=1e-6)
        assert rep.reference_slope == want


class TestNonConvergence:
    """Errors from a dual solve that stopped above tol measure the solver,
    so every entry point raises instead of reporting them."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, fr: linear_approx(f, fr, QUERY, [0, 8], tol=TOL, max_iter=3),
            lambda f, fr: nterm_approx(f, fr, QUERY, [0, 8], tol=TOL, max_iter=3),
            lambda f, fr: nterm_greedy(f, fr, 8, 2, 0, tol=TOL, max_iter=3),
            lambda f, fr: nterm_greedy(f, fr, 8, 2, 0, tol=TOL, max_iter=3, refit=True),
        ],
        ids=["linear", "nterm", "greedy", "greedy-refit"],
    )
    def test_unconverged_dual_raises(self, call, frame10, target):
        reached = reconstruct(target, frame10, tol=TOL, max_iter=3).relative_error
        with pytest.raises(NonConvergence, match=f"{reached:.3e}"):
            call(target, frame10)


class TestStandardGaborCoefficients:
    def test_matches_direct_oracle(self):
        f = GaussianSpec(2.0 * math.pi)
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        coeffs, xs, ws = standard_gabor_coefficients(f, g, 0.5, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(4):
            j1, j2 = rng.integers(0, xs.size, 2)
            k1, k2 = rng.integers(0, ws.size, 2)
            direct = stft_direct_2d(f, g, [xs[j1], xs[j2]], [ws[k1], ws[k2]])
            assert coeffs[j1, j2, k1, k2] == pytest.approx(direct, abs=1e-9)

    def test_coefficient_count_comparison(self, frame10, target):
        f = GaussianSpec(2.0 * math.pi)
        g = GaussianSpec(math.pi, 2.0 ** 0.5)
        coeffs, _, _ = standard_gabor_coefficients(f, g, 0.5, 0.5)
        n_standard = np.count_nonzero(np.abs(coeffs) > 1e-6)
        radial = analyze(target, frame10)
        n_radial = np.count_nonzero(np.abs(list(radial.entries.values())) > 1e-6)
        assert n_radial < n_standard
        # the standard lattice needs roughly an order of magnitude more
        assert n_standard / n_radial > 10


class TestGaborBaseline:
    F = GaussianSpec(2.0 * math.pi)
    G = GaussianSpec(math.pi, 2.0 ** 0.5)

    def test_zero_terms_is_full_norm(self):
        rep = gabor_baseline_2d(self.F, self.G, 0.5, 0.5, [0])
        expected = math.sqrt(self.F.amp**2 * math.pi / (2.0 * self.F.alpha))
        assert rep.errors[0] == pytest.approx(expected, rel=1e-12)

    def test_errors_non_increasing(self):
        rep = gabor_baseline_2d(self.F, self.G, 0.5, 0.5, [0, 1, 2, 4, 8, 16, 32, 64])
        assert np.all(np.diff(rep.errors) <= 1e-10)

    @pytest.mark.parametrize("alpha", BASELINE_ALPHAS, ids=BASELINE_IDS)
    def test_selection_matches_full_tensor_rule(self, alpha):
        # the rule on the public tensor: ascending -log|coeff|, values within
        # 1e-9 of their predecessor tied and taken in C order
        from radial_gabor.approximation import _baseline_atoms

        f = GaussianSpec(alpha)
        coeffs, xs, ws = standard_gabor_coefficients(f, self.G, 0.5, 0.5)
        with np.errstate(divide="ignore"):
            e = -np.log(np.abs(coeffs)).ravel()
        order = np.argsort(e, kind="stable")
        group = np.concatenate(([0], np.cumsum(np.diff(e[order]) > 1e-9)))
        full = order[np.lexsort((order, group))][:128]
        # radial Gaussians tie many magnitudes, across different (j, k) too
        assert np.unique(np.round(e[full], 6)).size < 32
        offset = np.array([xs.size // 2, xs.size // 2, ws.size // 2, ws.size // 2])
        expected = np.stack(np.unravel_index(full, coeffs.shape), axis=1) - offset
        for n in range(129):
            assert np.array_equal(_baseline_atoms(f, self.G, 0.5, 0.5, n), expected[:n])

    @pytest.mark.parametrize("alpha", BASELINE_ALPHAS, ids=BASELINE_IDS)
    def test_amplitude_scales_errors(self, alpha):
        ns = range(65)
        one = np.array(gabor_baseline_2d(GaussianSpec(alpha), self.G, 0.5, 0.5, ns).errors)
        three = np.array(gabor_baseline_2d(GaussianSpec(alpha, 3.0), self.G, 0.5, 0.5, ns).errors)
        f_norm = math.sqrt(math.pi / (2.0 * alpha))
        assert np.max(np.abs(three / 3.0 - one)) <= 1e-8 * f_norm

    @pytest.mark.parametrize("alpha", BASELINE_ALPHAS, ids=BASELINE_IDS)
    def test_tiny_alpha_change_leaves_errors(self, alpha):
        ns = range(65)
        base = np.array(gabor_baseline_2d(GaussianSpec(alpha), self.G, 0.5, 0.5, ns).errors)
        moved = np.array(gabor_baseline_2d(GaussianSpec(alpha * (1.0 + 1e-12)), self.G, 0.5, 0.5, ns).errors)
        f_norm = math.sqrt(math.pi / (2.0 * alpha))
        assert np.max(np.abs(moved - base)) <= 1e-8 * f_norm

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="parameter n: must be nonnegative, got -1"):
            gabor_baseline_2d(self.F, self.G, 0.5, 0.5, [-1, 4])

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError, match="parameter n: must be an integer"):
            gabor_baseline_2d(self.F, self.G, 0.5, 0.5, [2.5, 7.9])
        rep = gabor_baseline_2d(self.F, self.G, 0.5, 0.5, np.array([4, 0]))
        assert rep.n_values == (0, 4)

    def test_errors_eventually_small(self):
        rep = gabor_baseline_2d(self.F, self.G, 0.5, 0.5, [128])
        assert rep.errors[0] < 1e-4

"""Embedding classification, sequence machinery and exponent formulas."""

import math
from fractions import Fraction

import numpy as np
import pytest

from radial_gabor.embeddings import (
    EmbeddingQuery,
    EmbeddingStatus,
    approx_number_exponent,
    carl_exponent,
    classify_embedding,
    entropy_exponent,
    fit_decay_slope,
    h_sequence,
    rearrange,
    sigma_tail,
)
from radial_gabor.lattice import LatticeSpec, lattice_table

INF = math.inf


class TestClassifyEmbedding:
    def test_borderline_sobolev_case(self):
        v = classify_embedding(EmbeddingQuery(1, 2, 0, 0.5, 2))
        assert v.status is EmbeddingStatus.CONTINUOUS
        assert v.alpha == 0.5 and v.threshold == 0.5

    def test_compact_into_l2(self):
        for d in (2, 3, 4, 6):
            v = classify_embedding(EmbeddingQuery(1, 2, 0, 0, d))
            assert v.status is EmbeddingStatus.COMPACT

    def test_equal_exponents_heavier_weight_fails(self):
        v = classify_embedding(EmbeddingQuery(2, 2, 0, 1, 5))
        assert v.status is EmbeddingStatus.NOT_EMBEDDED

    def test_equal_exponents_equal_weight_not_compact(self):
        for p in (1, 2, 3.5, INF):
            v = classify_embedding(EmbeddingQuery(p, p, 0.7, 0.7, 3))
            assert v.status is EmbeddingStatus.CONTINUOUS

    def test_infinite_q(self):
        v = classify_embedding(EmbeddingQuery(1, INF, 0, 0.5, 2))
        assert v.alpha == 1.0 and v.threshold == 1.0
        assert v.status is EmbeddingStatus.COMPACT

    def test_p_above_q_rejected(self):
        exponents = [(3, 2), (2.0, 1.0), (Fraction(3), Fraction(3, 2)), (INF, 2), (INF, Fraction(1))]
        for p, q in exponents:
            for d in (2, 3, 5):
                for s, t in ((0, 0), (0, -50), (3.5, 1), (-INF, 0), (0, INF)):
                    v = classify_embedding(EmbeddingQuery(p, q, s, t, d))
                    assert v.status is EmbeddingStatus.NOT_EMBEDDED
                    assert v.threshold == -INF
        assert classify_embedding(EmbeddingQuery(Fraction(3), Fraction(3, 2), 0, 0, 2)).alpha == Fraction(-1, 3)
        assert classify_embedding(EmbeddingQuery(INF, 2, 0, 0, 2)).alpha == -0.5

    def test_p_above_q_partial_sums_diverge(self):
        # p = 2 > q = 1 maps l^2 -> l^1 boundedly iff sum h^2 < inf; even at
        # t - s = -20 the k = 0 rings make the partial sums grow like J^d
        for d, growth in ((2, 3.0), (3, 7.0)):
            sums = []
            for jk_max in (16, 32):
                tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=d, jk_max=jk_max))
                h = (1.0 + 0.5 * tab.k) ** -20.0 * tab.mu ** 0.5
                sums.append(np.sum(h**2))
            assert sums[1] / sums[0] > growth

    @pytest.mark.parametrize(
        "s,t,parameter",
        [(math.nan, 0, "parameter s"), (0, math.nan, "parameter t"),
         (INF, INF, "parameters s, t"), (-INF, -INF, "parameters s, t")],
        ids=["s-nan", "t-nan", "both-inf", "both-minus-inf"],
    )
    def test_undefined_weight_difference_rejected(self, s, t, parameter):
        with pytest.raises(ValueError, match=parameter):
            EmbeddingQuery(1, 2, s, t, 2)

    def test_monotone_in_target_weight(self):
        order = {
            EmbeddingStatus.COMPACT: 2,
            EmbeddingStatus.CONTINUOUS: 1,
            EmbeddingStatus.NOT_EMBEDDED: 0,
        }
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = float(rng.uniform(1, 4))
            q = p + float(rng.uniform(0, 3))
            s = float(rng.uniform(-2, 2))
            d = int(rng.integers(2, 6))
            ranks = [
                order[classify_embedding(EmbeddingQuery(p, q, s, s + dt, d)).status]
                for dt in np.linspace(-1.5, 1.5, 11)
            ]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))


class TestHSequence:
    def test_constant_when_trivial(self):
        tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=2, jk_max=6))
        h = h_sequence(tab, EmbeddingQuery(2, 2, 0.3, 0.3, 2))
        assert np.all(h == 1.0)

    def test_interior_values_d2(self):
        tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=2, jk_max=8))
        h = h_sequence(tab, EmbeddingQuery(1, 2, 0.4, 0.4, 2))
        mask = (tab.j >= 1) & (tab.k >= 1) & (tab.ell == 0)
        expected = (tab.j[mask] + tab.k[mask]).astype(float) ** -0.5
        assert np.allclose(h[mask], expected, rtol=1e-12)

    def test_boundedness_tracks_verdict(self):
        # finite-truncation surrogate: bounded h for continuous queries,
        # decaying rearrangement for compact ones
        tab = lattice_table(LatticeSpec(a=0.5, b=0.5, d=2, jk_max=128))
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = float(rng.uniform(1, 3))
            q = p + float(rng.uniform(0.2, 2))
            s = float(rng.uniform(-1, 1))
            d = int(rng.integers(2, 5))
            alpha = 1 / p - 1 / q
            t = s + float(rng.uniform(-1.2, 1.0)) * alpha * (d - 1)
            verdict = classify_embedding(EmbeddingQuery(p, q, s, t, d))
            tab_d = lattice_table(LatticeSpec(a=0.5, b=0.5, d=d, jk_max=128))
            h = h_sequence(tab_d, EmbeddingQuery(p, q, s, t, d))
            seq = rearrange(h)
            ns = [2**e for e in range(4, 16)]
            slope, _ = fit_decay_slope(ns, seq[np.array(ns) - 1])
            if verdict.status is EmbeddingStatus.COMPACT:
                assert slope < 0.0
            if verdict.status is EmbeddingStatus.NOT_EMBEDDED:
                assert seq[0] > 1.0 + 1e-9


class TestRearrange:
    def test_simple(self):
        assert rearrange([1, 3, 2]).tolist() == [3, 2, 1]

    def test_constant_fixed_point(self):
        assert rearrange([2.0, 2.0, 2.0]).tolist() == [2.0, 2.0, 2.0]

    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 1, 200)
        first = rearrange(v)
        assert np.array_equal(rearrange(first), first)
        assert np.array_equal(rearrange(rng.permutation(v)), first)
        assert sorted(first.tolist()) == sorted(v.tolist())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rearrange([0.5, -0.1])


class TestExponents:
    def test_carl_formula(self):
        assert carl_exponent(Fraction(2), Fraction(2), Fraction(5)) == Fraction(1, 5)
        assert carl_exponent(1, INF, 1) == 2
        assert carl_exponent(Fraction(1), Fraction(2), Fraction(6)) == Fraction(2, 3)

    def test_carl_gap_identity_exact(self):
        # 1/s - 1/r = 1/p - 1/q on rationals
        cases = [
            (Fraction(1), Fraction(2), Fraction(7, 3)),
            (Fraction(3, 2), Fraction(4), Fraction(2)),
            (Fraction(2), Fraction(5), Fraction(11, 4)),
        ]
        for p, q, r in cases:
            assert carl_exponent(p, q, r) - 1 / r == 1 / p - 1 / q

    def test_entropy_exponent_measure_decay_composition(self):
        assert entropy_exponent(Fraction(1), Fraction(2), Fraction(3)) == Fraction(2, 3)
        for d in (2, 3, 4, 5):
            assert entropy_exponent(Fraction(1), Fraction(2), Fraction(3, d - 1)) == Fraction(
                d + 2, 6
            )

    def test_entropy_exponent_infinite_q(self):
        assert entropy_exponent(Fraction(1), INF, Fraction(1)) == 2

    def test_entropy_exponent_degenerate(self):
        assert entropy_exponent(Fraction(2), Fraction(2), Fraction(7)) == 0

    def test_approx_number_exponent(self):
        assert approx_number_exponent(Fraction(1), Fraction(2), 2) == Fraction(1, 6)
        assert approx_number_exponent(Fraction(1), Fraction(2), 4) == Fraction(1, 2)

    def test_approx_number_limit_to_zero(self):
        for eps in (1e-2, 1e-4, 1e-8):
            assert approx_number_exponent(2.0, 2.0 + eps, 3) < eps

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            entropy_exponent(2, 1, 1)
        with pytest.raises(ValueError):
            carl_exponent(1, 2, 0)
        with pytest.raises(ValueError):
            approx_number_exponent(0.5, 2, 2)


class TestSigmaTail:
    def test_spike(self):
        assert sigma_tail([1.0, 0.0, 0.0], 1, 2) == 1.0
        assert sigma_tail([1.0, 0.0, 0.0], 2, 2) == 0.0

    def test_sup_tail(self):
        assert sigma_tail([3.0, 2.0, 1.0], 2, INF) == 2.0

    def test_beyond_length(self):
        assert sigma_tail([1.0], 2, 2) == 0.0

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            sigma_tail([1.0, 2.0], 1, 2)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, INF), (2, 4)])
    def test_lower_bound_inequality(self, p, q):
        # 2^(-1/p) ||b||_p <= (sum_n (n^alpha sigma_{n,q}(b))^p / n)^(1/p)
        rng = np.random.default_rng(int(p * 10 + (0 if q == INF else q)))
        alpha = 1 / p - (0.0 if q == INF else 1 / q)
        for _ in range(100):
            b = rearrange(rng.uniform(0.0, 1.0, int(rng.integers(1, 50))))
            lhs = 2.0 ** (-1.0 / p) * float(np.sum(b**p)) ** (1.0 / p)
            rhs = (
                sum(
                    (n**alpha * sigma_tail(b, n, q)) ** p / n
                    for n in range(1, b.size + 1)
                )
                ** (1.0 / p)
            )
            assert lhs <= rhs + 1e-12


class TestFitDecaySlope:
    def test_exact_power_law(self):
        ns = [2**e for e in range(4, 10)]
        vals = [7.0 * n ** (-1.5) for n in ns]
        slope, residual = fit_decay_slope(ns, vals)
        assert slope == pytest.approx(-1.5, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_input(self):
        slope, residual = fit_decay_slope([1], [0.5])
        assert math.isnan(slope)

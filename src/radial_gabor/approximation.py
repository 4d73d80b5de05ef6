"""Linear and n-term approximation experiments with radial frames, plus a
standard separable Gabor baseline in d = 2.

Linear approximation expands f in canonical-dual coefficients and keeps
the atoms whose weight-ratio sequence h is largest (the nested subspaces
realize the non-increasing rearrangement of h).  Greedy n-term
approximation keeps the n largest dual coefficients after weighting by
(1 + b k)^t mu^(1/q - 1), the natural sequence norm of the target space.
Errors are measured directly in L2 when the target is (q, t) = (2, 0) and
as weighted coefficient tail norms otherwise; the weighted-norm route is
an equivalent-norm surrogate with frame-dependent constants.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .embeddings import (EmbeddingQuery, _inv, _validate_exponent, approx_number_exponent,
                         fit_decay_slope, h_sequence)
from .frames import CoeffSeq, FrameSystem, NonConvergence, _l2_error, reconstruct
from .profiles import GaussianSpec, RadialProfile, norm, sphere_area

__all__ = [
    "ApproxReport",
    "linear_approx",
    "nterm_approx",
    "nterm_greedy",
    "standard_gabor_coefficients",
    "gabor_baseline_2d",
]


@dataclass(frozen=True)
class ApproxReport:
    n_values: tuple[int, ...]
    errors: tuple[float, ...]
    fitted_slope: float
    reference_slope: float


def _check_n(n: int, fr: FrameSystem) -> None:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"parameter n: must be an integer, got {n!r}") from None
    if n < 0 or n > len(fr):
        raise ValueError(f"parameter n: must lie in [0, {len(fr)}] (the atom count), got {n}")


def _ranked_dual(f, fr, q_exp, t_exp, tol, max_iter, scores=None):
    """One dual solve, ranked: (gamma, weighted, order).

    gamma are the dual coefficients on the cached atoms, weighted the
    coefficients lam of the unnormalized atom family as |lam| w, with the
    sequence-space weights w = (1 + b k)^t mu^(1/q - 1) of the target norm,
    and order the table rows by descending score (``scores``, else
    weighted), ties in row order, which is (j, k, ell) order.  Raises
    ``NonConvergence`` when the solve stops above tol.
    """
    res = reconstruct(f, fr, tol=tol, max_iter=max_iter)
    if not res.converged:
        raise NonConvergence(f"dual solve stalled at relative error {res.relative_error:.3e}")
    gamma = res.coefficients.values
    lam = gamma * np.sqrt(fr.table.mu) if fr.normalized else gamma
    w = (1.0 + fr.spec.b * fr.table.k.astype(float)) ** t_exp * fr.table.mu ** (_inv(q_exp) - 1.0)
    weighted = np.abs(lam) * w
    order = np.argsort(-(weighted if scores is None else scores), kind="stable")
    return gamma, weighted, order


def _truncation_error(f, fr, gamma, weighted, order, n: int, q_exp, t_exp, kept_values=None) -> float:
    """Target-norm error of the expansion kept on rows ``order[:n]``: for
    (q, t) = (2, 0) the L2 error of its synthesis, with ``kept_values`` in
    place of the dual coefficients gamma when given; otherwise the q-norm
    of the dropped weighted coefficients |lam| w."""
    if q_exp == 2 and t_exp == 0:
        gk = np.zeros_like(gamma)
        gk[order[:n]] = gamma[order[:n]] if kept_values is None else kept_values
        return _l2_error(fr, gk, f)
    vals = weighted[order[n:]]
    if vals.size == 0:
        return 0.0
    if q_exp == math.inf:
        return float(vals.max())
    return float(np.sum(vals ** q_exp) ** (1.0 / q_exp))


def _fitted_slope(n_values, errors, floor: float) -> float:
    """Log-log slope of the errors above ``floor`` at n > 0."""
    keep = [(n, e) for n, e in zip(n_values, errors) if n > 0 and e > floor]
    return fit_decay_slope([n for n, _ in keep], [e for _, e in keep])[0]


def _ranked_report(f, fr, query: EmbeddingQuery, n_list, tol, max_iter, reference, scores=None):
    """Errors of the dual expansion truncated to the n best-scored atoms,
    for each n in n_list, from one dual solve.  Without ``scores`` the
    atoms rank by their weighted dual coefficients |lam| w, the n-term
    rule.  Errors at or below 20 tol ||f|| measure the solver, not the
    approximation, and stay out of the slope fit."""
    if query.d != fr.spec.d:
        raise ValueError(f"parameter d: the query has d = {query.d}, the frame d = {fr.spec.d}")
    n_values = sorted(int(n) for n in n_list)
    for n in n_values:
        _check_n(n, fr)
    gamma, weighted, order = _ranked_dual(f, fr, query.q, query.t, tol, max_iter, scores)
    errors = [_truncation_error(f, fr, gamma, weighted, order, n, query.q, query.t) for n in n_values]
    slope = _fitted_slope(n_values, errors, 20.0 * tol * norm(f))
    return ApproxReport(tuple(n_values), tuple(errors), slope, reference)


def linear_approx(
    f: RadialProfile,
    fr: FrameSystem,
    query: EmbeddingQuery,
    n_list,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> ApproxReport:
    """Error of the dual expansion truncated to the first n atoms in the
    order of the non-increasing rearrangement of h, for each n in n_list.

    The target norm is L2 for (q, t) = (2, 0), a weighted coefficient norm
    otherwise; the fitted log-log slope is reported next to the reference
    rate -(d-1)/3 (1/p - 1/q).
    """
    h = h_sequence(fr.table, query)
    reference = -float(approx_number_exponent(query.p, query.q, query.d))
    return _ranked_report(f, fr, query, n_list, tol, max_iter, reference, scores=h)


def nterm_approx(
    f: RadialProfile,
    fr: FrameSystem,
    query: EmbeddingQuery,
    n_list,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> ApproxReport:
    """``nterm_greedy`` (without refit) for each n in n_list from one dual
    solve, in the target norm of (query.q, query.t).

    The reference rate is -(1/p - 1/q), 1/inf = 0, the n-term rate of the
    non-linear approximation lemma; it is positive, not an error, for
    p > q.
    """
    reference = -float(_inv(query.p) - _inv(query.q))
    return _ranked_report(f, fr, query, n_list, tol, max_iter, reference)


def nterm_greedy(
    f: RadialProfile,
    fr: FrameSystem,
    n: int,
    q_exp: float,
    t_exp: float,
    tol: float = 1e-8,
    max_iter: int = 2000,
    refit: bool = False,
) -> tuple[CoeffSeq, float]:
    """Keep the n dual coefficients that are largest after target-norm
    weighting, zero the rest, and report the target-norm error of the
    truncated expansion (an upper bound for the best n-term error).

    With ``refit`` the kept coefficients are re-solved by least squares on
    the selected atoms, which is the sharpest upper bound the selection
    admits (the best n-term error allows free coefficients); the truncated
    canonical-dual expansion cannot reproduce even a single atom exactly
    when the truncated system is redundant, because minimal-norm dual
    coefficients spread over dependent atoms.
    """
    _check_n(n, fr)
    _validate_exponent(q_exp, "q_exp")
    if math.isnan(t_exp):
        raise ValueError("parameter t_exp: must be a number, got nan")
    gamma, weighted, order = _ranked_dual(f, fr, q_exp, t_exp, tol, max_iter)
    kept = order[:n]
    values = gamma[kept]
    if refit and n > 0:
        area = sphere_area(fr.window.dim)
        sw = np.sqrt(area * fr.window.weights)
        basis = fr._atom_rows(kept) * sw[None, :]
        values, *_ = np.linalg.lstsq(basis.T, f.values * sw, rcond=None)
    err = _truncation_error(f, fr, gamma, weighted, order, n, q_exp, t_exp, values)
    return CoeffSeq(table=fr.table, rows=kept, values=values), err


# ----------------------------------------------------------------------
# standard separable Gabor baseline in d = 2: coefficients and Gram entries
# are products of closed-form integrals of the 1-d factors
# f1 = A e^(-alpha t^2) and g1 = B e^(-beta t^2), gamma = alpha + beta
# ----------------------------------------------------------------------

# exponents E within this distance count as equal coefficient magnitudes
_TIE_TOL = 1e-9


def _gaussian_1d_factor(g: GaussianSpec) -> GaussianSpec:
    if g.amp <= 0.0:
        raise ValueError("baseline Gaussians need positive amplitude")
    return GaussianSpec(g.alpha, math.sqrt(g.amp))


def _factor_stft(f1: GaussianSpec, g1: GaussianSpec, x, w) -> np.ndarray:
    """V(x, w) = int f1(t) g1(t - x) e^(-2 pi i t w) dt, broadcast over x, w."""
    gam = f1.alpha + g1.alpha
    expo = (f1.alpha * g1.alpha / gam) * x**2 + (math.pi**2 / gam) * w**2
    phase = 2.0 * math.pi * (g1.alpha / gam) * x * w
    return f1.amp * g1.amp * math.sqrt(math.pi / gam) * np.exp(-expo - 1j * phase)


def _factor_gram(g1: GaussianSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """gram[p, q] = int conj(phi_p) phi_q dt for phi = g1(t - x) e^(2 pi i w t)."""
    beta = g1.alpha
    dx, dw = x[:, None] - x[None, :], w[None, :] - w[:, None]
    expo = (beta / 2.0) * dx**2 + (math.pi**2 / (2.0 * beta)) * dw**2
    phase = math.pi * dw * (x[:, None] + x[None, :])
    return g1.amp**2 * math.sqrt(math.pi / (2.0 * beta)) * np.exp(-expo + 1j * phase)


def _truncation(f: GaussianSpec, g: GaussianSpec, a: float, b: float) -> tuple[int, int]:
    """(j_max, k_max) of the lattice truncated to |a j_i|, |b k_i| <= box,
    with box six times the widest time or frequency scale of f and g."""
    scales = [math.sqrt(math.pi / h.alpha) for h in (f, g)]
    box = 6.0 * max(scales + [1.0 / s for s in scales])
    return int(math.floor(box / a)), int(math.floor(box / b))


def standard_gabor_coefficients(
    f: GaussianSpec, g: GaussianSpec, a: float, b: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """STFT coefficients of f against the separable lattice (a j, b k),
    j, k in Z^2, truncated as in ``_truncation``.

    Returns (coeffs[j1, j2, k1, k2], x_steps, w_steps).  Both inputs are
    radial Gaussians, so the 2-d STFT is the product of two closed-form
    1-d transforms.
    """
    j_max, k_max = _truncation(f, g, a, b)
    xs = a * np.arange(-j_max, j_max + 1)
    ws = b * np.arange(-k_max, k_max + 1)
    v1 = _factor_stft(_gaussian_1d_factor(f), _gaussian_1d_factor(g), xs[:, None], ws[None, :])
    return np.einsum("ac,bd->abcd", v1, v1), xs, ws


def _baseline_atoms(f: GaussianSpec, g: GaussianSpec, a: float, b: float, n: int) -> np.ndarray:
    """Lattice indices (j1, j2, k1, k2), one row per atom, of the n largest
    coefficients of ``standard_gabor_coefficients`` in descending order.

    |coeff| is proportional to e^(-E) with E = P (j1^2 + j2^2) + Q (k1^2 + k2^2),
    P = alpha beta a^2 / gamma and Q = pi^2 b^2 / gamma, so atoms go by
    ascending E; E values within _TIE_TOL of their predecessor are ties,
    taken in the C order of the tensor.  Every selected atom has both 1-d
    factors e = P j^2 + Q k^2 within _TIE_TOL of the n-th smallest e, so only
    pairs of those factors are scored.
    """
    gam = f.alpha + g.alpha
    p, q = f.alpha * g.alpha * a * a / gam, math.pi**2 * b * b / gam
    j_max, k_max = _truncation(f, g, a, b)
    nj, nk = 2 * j_max + 1, 2 * k_max + 1
    if n > (nj * nk) ** 2:
        raise ValueError("n exceeds the truncated lattice size")
    if n == 0:
        return np.zeros((0, 4), dtype=int)
    e1 = p * np.arange(-j_max, j_max + 1)[:, None] ** 2 + q * np.arange(-k_max, k_max + 1)[None, :] ** 2
    m = min(n, e1.size)
    cut = np.partition(e1, m - 1, axis=None)[m - 1] + _TIE_TOL
    cj, ck = np.nonzero(e1 <= cut)
    energy = (e1[cj, ck][:, None] + e1[cj, ck][None, :]).ravel()
    # C-order position in the (j1, j2, k1, k2) tensor of each factor pair
    flat = (((cj[:, None] * nj + cj[None, :]) * nk + ck[:, None]) * nk + ck[None, :]).ravel()
    order = np.argsort(energy, kind="stable")
    tie_group = np.concatenate(([0], np.cumsum(np.diff(energy[order]) > _TIE_TOL)))
    top = order[np.lexsort((flat[order], tie_group))][:n]
    u, v = np.divmod(top, cj.size)
    return np.stack([cj[u] - j_max, cj[v] - j_max, ck[u] - k_max, ck[v] - k_max], axis=1)


def gabor_baseline_2d(f: GaussianSpec, g: GaussianSpec, a: float, b: float, n_list) -> ApproxReport:
    """Greedy n-term approximation of f with the standard separable Gabor
    system: select atoms by coefficient magnitude (``_baseline_atoms``), then
    measure the L2(R^2) error of the orthogonal projection onto the selected
    atoms (the best coefficients for that selection).

    The Gram matrix is the product of the two 1-d factor Grams and the
    right-hand side is the atoms' own coefficients.  The error
    sqrt(||f||^2 - proj) bottoms out near 1e-8 ||f|| from rounding.
    """
    n_values = sorted(int(n) for n in n_list)
    if n_values and n_values[0] < 0:
        raise ValueError("n must be nonnegative")
    sel = _baseline_atoms(f, g, a, b, n_values[-1] if n_values else 0)
    f1, g1 = _gaussian_1d_factor(f), _gaussian_1d_factor(g)
    xa, xb, wa, wb = a * sel[:, 0], a * sel[:, 1], b * sel[:, 2], b * sel[:, 3]
    gram = _factor_gram(g1, xa, wa) * _factor_gram(g1, xb, wb)
    rhs = _factor_stft(f1, g1, xa, wa) * _factor_stft(f1, g1, xb, wb)
    f_norm_sq = (f.amp ** 2) * math.pi / (2.0 * f.alpha)

    errors = []
    for n in n_values:
        proj_sq = 0.0
        if n > 0:
            sol, *_ = np.linalg.lstsq(gram[:n, :n], rhs[:n], rcond=None)
            proj_sq = float(np.real(np.vdot(rhs[:n], sol)))
        errors.append(math.sqrt(max(0.0, f_norm_sq - proj_sq)))

    slope = _fitted_slope(n_values, errors, 1e-10)
    return ApproxReport(tuple(n_values), tuple(errors), slope, math.nan)

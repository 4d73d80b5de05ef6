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
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingQuery, approx_number_exponent, fit_decay_slope, h_sequence
from .frames import CoeffSeq, FrameSystem, ReconstructionResult, _l2_error, reconstruct
from .profiles import GaussianSpec, RadialProfile, norm, sphere_area
from .stft import _gl_on

__all__ = [
    "ApproxReport",
    "linear_approx",
    "nterm_greedy",
    "standard_gabor_coefficients",
    "gabor_baseline_2d",
    "count_above",
]


@dataclass(frozen=True)
class ApproxReport:
    n_values: tuple[int, ...]
    errors: tuple[float, ...]
    fitted_slope: float
    reference_slope: float


def _dual_setup(
    f: RadialProfile, fr: FrameSystem, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, ReconstructionResult]:
    """Dual coefficients on the cached atoms (in table-row order) plus the
    matching coefficients for the unnormalized atom family."""
    res = reconstruct(f, fr, tol=tol, max_iter=max_iter)
    gamma = res.coefficients.values
    lam = gamma * np.sqrt(fr.table.mu) if fr.normalized else gamma.copy()
    return gamma, lam, res


def _check_n(n: int, fr: FrameSystem) -> None:
    if n < 0 or n > len(fr):
        raise ValueError("n must lie in [0, number of atoms]")


def _target_weights(fr: FrameSystem, q_exp: float, t_exp: float) -> np.ndarray:
    """Sequence-space weights (1 + b k)^t mu^(1/q - 1) of the target norm."""
    inv_q = 0.0 if q_exp == math.inf else 1.0 / q_exp
    k = fr.table.k.astype(float)
    return (1.0 + fr.spec.b * k) ** t_exp * fr.table.mu ** (inv_q - 1.0)


def _coefficient_tail(lam: np.ndarray, weights: np.ndarray, dropped: np.ndarray, q_exp: float) -> float:
    vals = np.abs(lam[dropped]) * weights[dropped]
    if vals.size == 0:
        return 0.0
    if q_exp == math.inf:
        return float(vals.max())
    return float(np.sum(vals ** q_exp) ** (1.0 / q_exp))


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
    if query.d != fr.spec.d:
        raise ValueError("query dimension does not match the frame")
    n_values = sorted(int(n) for n in n_list)
    for n in n_values:
        _check_n(n, fr)
    gamma, lam, _ = _dual_setup(f, fr, tol, max_iter)
    h = h_sequence(fr.table, query, fr.spec.b)
    order = np.lexsort((fr.table.ell, fr.table.k, fr.table.j, -h))
    weights = _target_weights(fr, query.q, query.t)
    direct_l2 = query.q == 2 and query.t == 0

    errors = []
    for n in n_values:
        kept = order[:n]
        if direct_l2:
            gk = np.zeros_like(gamma)
            gk[kept] = gamma[kept]
            errors.append(_l2_error(fr, gk, f))
        else:
            dropped = order[n:]
            errors.append(_coefficient_tail(lam, weights, dropped, query.q))

    floor = 20.0 * tol * norm(f)
    fit_ns = [n for n, e in zip(n_values, errors) if n > 0 and e > floor]
    fit_es = [e for n, e in zip(n_values, errors) if n > 0 and e > floor]
    slope, _ = fit_decay_slope(fit_ns, fit_es)
    reference = -float(approx_number_exponent(query.p, query.q, query.d))
    return ApproxReport(tuple(n_values), tuple(errors), slope, reference)


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
    gamma, lam, _ = _dual_setup(f, fr, tol, max_iter)
    return _nterm_from_dual(f, fr, gamma, lam, n, q_exp, t_exp, refit)


def _nterm_from_dual(
    f: RadialProfile,
    fr: FrameSystem,
    gamma: np.ndarray,
    lam: np.ndarray,
    n: int,
    q_exp: float,
    t_exp: float,
    refit: bool = False,
) -> tuple[CoeffSeq, float]:
    """``nterm_greedy`` on dual coefficients already solved for f, so that
    one solve serves every n."""
    _check_n(n, fr)
    weights = _target_weights(fr, q_exp, t_exp)
    scores = np.abs(lam) * weights
    order = np.lexsort((fr.table.ell, fr.table.k, fr.table.j, -scores))
    kept = order[:n]
    gk = np.zeros_like(gamma)
    gk[kept] = gamma[kept]
    if refit and n > 0:
        area = sphere_area(fr.window.dim)
        sw = np.sqrt(area * fr.window.weights)
        basis = fr.atom_matrix[kept] * sw[None, :]
        sol, *_ = np.linalg.lstsq(basis.T, f.values * sw, rcond=None)
        gk[kept] = sol
    seq = CoeffSeq(table=fr.table, rows=kept, values=gk[kept])
    if q_exp == 2 and t_exp == 0:
        err = _l2_error(fr, gk, f)
    else:
        err = _coefficient_tail(lam, weights, order[n:], q_exp)
    return seq, err


# ----------------------------------------------------------------------
# standard separable Gabor baseline in d = 2
# ----------------------------------------------------------------------

def _gaussian_1d_factor(g: GaussianSpec) -> GaussianSpec:
    if g.amp <= 0.0:
        raise ValueError("baseline Gaussians need positive amplitude")
    return GaussianSpec(g.alpha, math.sqrt(g.amp))


def standard_gabor_coefficients(
    f: GaussianSpec,
    g: GaussianSpec,
    a: float,
    b: float,
    box: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """STFT coefficients of f against the separable lattice (a j, b k),
    j, k in Z^2, truncated to |a j_i|, |b k_i| <= box.

    Returns (coeffs[j1, j2, k1, k2], x_steps, w_steps).  Both inputs are
    radial Gaussians, so the 2-d STFT factorizes into identical 1-d
    transforms evaluated by Gauss-Legendre quadrature; the tensor product
    is exact for the tensor rule.
    """
    if box is None:
        scale = max(_gauss_scale(f), 1.0 / _gauss_scale(f), _gauss_scale(g), 1.0 / _gauss_scale(g))
        box = 6.0 * scale
    j_max = int(math.floor(box / a))
    k_max = int(math.floor(box / b))
    xs = a * np.arange(-j_max, j_max + 1)
    ws = b * np.arange(-k_max, k_max + 1)

    f1 = _gaussian_1d_factor(f)
    g1 = _gaussian_1d_factor(g)
    half = math.sqrt(41.0 / min(f1.alpha, g1.alpha)) + box
    nodes = max(256, 32 * math.ceil((half * (float(ws.max()) + 1.0)) / 4.0))
    t, wt = _gl_on(-half, half, nodes)
    # v1[x, w] = int f1(t) conj(g1(t - x)) e^(-2 pi i t w) dt
    ft = f1(np.abs(t))
    gt = np.conj(np.asarray(g1(np.abs(t[None, :] - xs[:, None]))))
    phases = np.exp(-2.0j * math.pi * np.outer(t, ws)) * wt[:, None]
    v1 = (ft[None, :] * gt) @ phases
    coeffs = np.einsum("ac,bd->abcd", v1, v1)
    return coeffs, xs, ws


def _gauss_scale(g: GaussianSpec) -> float:
    return math.sqrt(math.pi / g.alpha)


def gabor_baseline_2d(
    f: GaussianSpec,
    g: GaussianSpec,
    a: float,
    b: float,
    n_list,
    box: float | None = None,
) -> ApproxReport:
    """Greedy n-term approximation of f with the standard separable Gabor
    system: select atoms by coefficient magnitude, then measure the L2(R^2)
    error of the orthogonal projection onto the selected atoms (the best
    coefficients for that selection, matching the free-coefficient error).

    All inner products come from the same tensor-product quadrature as the
    coefficients; for the separable atoms the 2-d rule factorizes exactly
    into products of 1-d factor inner products, which keeps the Gram
    assembly linear in the grid size.
    """
    coeffs, xs, ws = standard_gabor_coefficients(f, g, a, b, box)
    flat = np.abs(coeffs).ravel()

    n_values = sorted(int(n) for n in n_list)
    if n_values and n_values[-1] > flat.size:
        raise ValueError("n exceeds the truncated lattice size")
    max_n = n_values[-1] if n_values else 0

    sel = np.stack(np.unravel_index(_top_n(flat, max_n), coeffs.shape), axis=1)

    f1 = _gaussian_1d_factor(f)
    g1 = _gaussian_1d_factor(g)
    f_norm_sq = (f.amp ** 2) * math.pi / (2.0 * f.alpha)

    if max_n > 0:
        # distinct 1-d factors (x, w) among the selected atoms, both axes
        pairs = np.unique(
            np.concatenate([sel[:, [0, 2]], sel[:, [1, 3]]], axis=0), axis=0
        )
        pair_id = {tuple(p): i for i, p in enumerate(pairs)}
        half = math.sqrt(41.0 / min(f1.alpha, g1.alpha)) + float(np.abs(xs).max())
        freq = 2.0 * float(np.abs(ws).max()) + 1.0
        nodes = max(384, 32 * math.ceil(half * freq / 4.0))
        t, wt = _gl_on(-half, half, nodes)
        factors = np.empty((len(pairs), nodes), dtype=complex)
        for i, (jx, kw) in enumerate(pairs):
            factors[i] = g1(np.abs(t - xs[jx])) * np.exp(2.0j * math.pi * ws[kw] * t)
        gram1 = np.conj(factors * wt) @ factors.T
        f_vals = np.asarray(f1(np.abs(t)), dtype=complex)
        rhs1 = np.conj(factors * wt) @ f_vals

        id_a = np.array([pair_id[(j1, k1)] for j1, _, k1, _ in sel])
        id_b = np.array([pair_id[(j2, k2)] for _, j2, _, k2 in sel])

    errors = []
    for n in n_values:
        if n == 0:
            errors.append(math.sqrt(f_norm_sq))
            continue
        ia, ib = id_a[:n], id_b[:n]
        gram = gram1[np.ix_(ia, ia)] * gram1[np.ix_(ib, ib)]
        rhs = rhs1[ia] * rhs1[ib]
        sol, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        proj_sq = float(np.real(np.vdot(rhs, sol)))
        errors.append(math.sqrt(max(0.0, f_norm_sq - proj_sq)))

    fit_ns = [n for n, e in zip(n_values, errors) if n > 0 and e > 1e-10]
    fit_es = [e for n, e in zip(n_values, errors) if n > 0 and e > 1e-10]
    slope, _ = fit_decay_slope(fit_ns, fit_es)
    return ApproxReport(tuple(n_values), tuple(errors), slope, math.nan)


def _top_n(values: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest values, equal to
    ``np.argsort(-values, kind="stable")[:n]`` (ties in index order)
    without sorting the whole array."""
    if n == 0:
        return np.zeros(0, dtype=int)
    kth = np.partition(values, values.size - n)[values.size - n]
    cand = np.flatnonzero(values >= kth)
    return cand[np.argsort(-values[cand], kind="stable")][:n]


def count_above(values, eps: float) -> int:
    """Number of coefficients with magnitude above eps."""
    return int(np.sum(np.abs(np.asarray(values)).ravel() > eps))

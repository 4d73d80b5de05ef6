"""Radial Gabor frame systems on truncated phase-space lattices.

A frame system caches the images of one radial window under the
rotation-averaged time-frequency shift at every lattice point, with the
half-phase exp(i pi r s c) attached and, optionally, the sqrt(mu)
normalization that turns the family into a Hilbert frame.  Analysis,
synthesis and the frame operator are dense linear algebra against the
cached profile matrix.

``reconstruct`` computes canonical-dual coefficients by plain
(unpreconditioned) conjugate-gradient iteration on the Gram (normal)
system from a zero start, whose limit is the minimal-norm coefficient
vector.  CG minimizes the Gram-energy norm of the coefficient error, which
equals the L2 distance between the running reconstruction and the best
one, so in exact arithmetic the reported reconstruction error is monotone
in the iteration count.  In floating point, CG on an ill-conditioned Gram
system can lose that monotonicity and even diverge, so ``reconstruct``
returns the iterate with the lowest error it saw.  Callers that need a
converged solve raise ``NonConvergence`` when ``converged`` is False.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import LatticeIndex, LatticeSpec, LatticeTable, lattice_table
from .profiles import GaussianSpec, RadialProfile, _check_compatible, _write_csv, norm, sphere_area
from .stft import (
    OrbitPoint,
    _averaged_shift_values,
    _gaussian_shift_values,
    _shifted_window_samples,
    phi_node_count,
)

__all__ = [
    "CoeffSeq",
    "FrameSystem",
    "ReconstructionResult",
    "NonConvergence",
    "worker_count",
    "build_frame",
    "analyze",
    "synthesize",
    "frame_operator",
    "reconstruct",
    "frame_bounds",
    "coeffs_to_csv",
]


def worker_count() -> int:
    """Worker cap for atom-parallel stages; RADIAL_GABOR_THREADS overrides."""
    env = os.environ.get("RADIAL_GABOR_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError("RADIAL_GABOR_THREADS must be a positive integer")
        return n
    return min(8, os.cpu_count() or 1)


class CoeffSeq:
    """Coefficient sequence on lattice atoms: ``values[i]`` belongs to row
    ``rows[i]`` of ``table``.  ``entries``, the same sequence keyed by
    ``LatticeIndex``, is built on first access."""

    def __init__(self, table: LatticeTable, rows: np.ndarray, values: np.ndarray) -> None:
        rows = np.asarray(rows)
        values = np.asarray(values, dtype=complex)
        if rows.ndim != 1 or values.ndim != 1 or rows.size != values.size:
            raise ValueError("rows and values must be 1-d arrays of equal length")
        if rows.size:
            ordered = np.sort(rows)
            if rows.dtype.kind not in "iu" or ordered[0] < 0 or ordered[-1] >= len(table):
                raise ValueError(f"rows must index the {len(table)} rows of the lattice table")
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("rows must not repeat")
        self.table = table
        self.rows = rows.astype(int, copy=False)
        self.values = values
        self._entries: dict[LatticeIndex, complex] | None = None

    def __len__(self) -> int:
        return self.rows.size

    @property
    def entries(self) -> dict[LatticeIndex, complex]:
        if self._entries is None:
            t, rows = self.table, self.rows
            keys = map(LatticeIndex, t.j[rows].tolist(), t.k[rows].tolist(), t.ell[rows].tolist())
            self._entries = dict(zip(keys, self.values.tolist()))
        return self._entries


@dataclass(frozen=True)
class FrameSystem:
    window: RadialProfile
    spec: LatticeSpec
    table: LatticeTable
    atom_matrix: np.ndarray  # (n_atoms, n_grid) cached atom profiles
    normalized: bool

    def __len__(self) -> int:
        return self.atom_matrix.shape[0]

    def _analyze_values(self, values: np.ndarray) -> np.ndarray:
        # conj(A) x = conj(A conj(x)) without a conjugated copy of A
        area = sphere_area(self.window.dim)
        return area * np.conj(self.atom_matrix @ np.conj(self.window.weights * values))

    def _synthesize_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self.atom_matrix.T @ coeffs


def build_frame(window: RadialProfile, spec: LatticeSpec, normalized: bool = True) -> FrameSystem:
    """Cache all atom profiles for the truncated lattice.

    When the window's analytic evaluator is a ``GaussianSpec``, every atom
    comes from the closed-form rotation average (a confluent
    hypergeometric 0F1, see ``radial_gabor.stft``); every other window is
    integrated by phi-quadrature, and atoms on one (j, k) ring share the
    shifted window samples.  The atoms at +ell and -ell of a ring have
    cosines c and -c and come from one kernel evaluation, for every window
    (``_averaged_shift_values``, ``_gaussian_shift_values``); the -ell row
    carries the conjugate half-phase.  Rings are independent and run on a
    small thread pool; results are deterministic because every profile is
    stored by index.  A ValueError naming d rejects atoms whose values are
    not finite (the kernels overflow in high dimensions).
    """
    if norm(window) == 0.0:
        raise ValueError("frame window must be nonzero")
    if window.dim != spec.d:
        raise ValueError("window dimension does not match the lattice spec")
    table = lattice_table(spec)
    n_atoms = len(table)
    matrix = np.empty((n_atoms, window.radii.size), dtype=complex)

    # rows are in (j, k, ell) order, so a ring starts wherever (j, k) changes
    new_ring = (np.diff(table.j) != 0) | (np.diff(table.k) != 0)
    ring_starts = [0, *(np.flatnonzero(new_ring) + 1).tolist(), n_atoms]

    gaussian = window.analytic if isinstance(window.analytic, GaussianSpec) else None

    def fill_ring(ring_idx: int) -> None:
        start, stop = ring_starts[ring_idx], ring_starts[ring_idx + 1]
        r = float(table.r[start])
        s = float(table.s[start])
        if gaussian is None:
            nodes = phi_node_count(window.theta_max, r, s)
            ring = _shifted_window_samples(window, r, nodes)
        mid = start + int(table.n_angles[start])  # ell = -n..n in order
        for ell in range(stop - mid):
            i = mid + ell
            point = OrbitPoint(r, s, float(table.c[i]))
            if gaussian is None:
                plus, minus = _averaged_shift_values(window, point, nodes, ring=ring)
            else:
                plus, minus = _gaussian_shift_values(gaussian, window.radii, window.dim, point)
            phase = complex(
                math.cos(math.pi * point.r * point.s * point.c),
                math.sin(math.pi * point.r * point.s * point.c),
            )
            scale = math.sqrt(table.mu[i]) if normalized else 1.0
            matrix[i] = (scale * phase) * plus
            if ell > 0:
                matrix[mid - ell] = (scale * phase.conjugate()) * minus

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        list(pool.map(fill_ring, range(len(ring_starts) - 1)))
    bad = np.count_nonzero(~np.isfinite(matrix.view(float)).all(axis=1))
    if bad:
        raise ValueError(f"{bad} of {n_atoms} atoms have non-finite values at d = {spec.d}")
    return FrameSystem(window=window, spec=spec, table=table, atom_matrix=matrix, normalized=normalized)


def analyze(f: RadialProfile, fr: FrameSystem) -> CoeffSeq:
    """Frame coefficients <f, atom_i> for every cached atom."""
    _check_compatible(f, fr.window)
    return _all_rows(fr, fr._analyze_values(f.values))


def synthesize(coeffs: CoeffSeq, fr: FrameSystem) -> RadialProfile:
    """Linear combination of cached atom profiles; the coefficients must
    live on the frame's lattice."""
    if coeffs.table.spec != fr.spec:
        raise ValueError("coefficients live on a different lattice than the frame")
    vec = np.zeros(len(fr), dtype=complex)
    vec[coeffs.rows] = coeffs.values
    return fr.window.with_values(fr._synthesize_values(vec))


def _all_rows(fr: FrameSystem, values: np.ndarray) -> CoeffSeq:
    return CoeffSeq(table=fr.table, rows=np.arange(len(fr)), values=values)


def frame_operator(f: RadialProfile, fr: FrameSystem) -> RadialProfile:
    """S f = sum_i <f, atom_i> atom_i; self-adjoint and positive
    semidefinite on the truncated system."""
    _check_compatible(f, fr.window)
    return fr.window.with_values(fr._synthesize_values(fr._analyze_values(f.values)))


class NonConvergence(RuntimeError):
    """A reconstruction that stopped above its tolerance."""


@dataclass(frozen=True)
class ReconstructionResult:
    profile: RadialProfile
    relative_error: float
    converged: bool
    iterations: int
    coefficients: CoeffSeq
    error_history: np.ndarray


def reconstruct(
    f: RadialProfile,
    fr: FrameSystem,
    tol: float = 1e-6,
    max_iter: int = 400,
) -> ReconstructionResult:
    """Canonical-dual reconstruction sum_i <f, S^-1 atom_i> atom_i via
    conjugate gradients on the Gram system.

    Plain (unpreconditioned) CG from a zero start converges to the
    minimal-norm coefficient vector, which is exactly the canonical dual;
    diagonal rescaling by atom norms changes that limit and inflates
    coefficients on numerically degenerate atoms by many orders of
    magnitude, so it is deliberately not used.  CG minimizes the
    Gram-energy error, which equals the L2 distance between the running
    and the best reconstruction, so in exact arithmetic the recorded error
    history is non-increasing; rounding can break that on ill-conditioned
    frames.

    ``error_history[k-1]`` is the relative L2 error of the k-th iterate,
    from the running synthesis T gamma, or from the iterate's own synthesis
    where the loop computes that (once the running error reaches tol).
    Iteration stops once the returned iterate's relative L2 error is at
    most tol (so ``converged`` implies ``relative_error <= tol``), or at
    max_iter with ``converged`` False.  An unconverged result carries the
    iterate with the lowest recorded error, the zero start included (error
    1), and that iterate's own relative error; persistent failure indicates
    steps (a, b) outside the empirical frame regime.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"parameter tol: must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"parameter max_iter: must be at least 1, got {max_iter}")
    _check_compatible(f, fr.window)
    f_norm = norm(f)
    if f_norm == 0.0:
        zero = fr.window.with_values(np.zeros_like(f.values))
        return ReconstructionResult(zero, 0.0, True, 0, _all_rows(fr, np.zeros(len(fr))), np.zeros(0))

    b = fr._analyze_values(f.values)
    gamma = np.zeros_like(b)
    synth_gamma = np.zeros(f.values.shape, dtype=complex)  # T gamma, kept up to date
    r = b.copy()
    p = r.copy()
    rr = np.vdot(r, r).real
    history = []
    best_err, best_gamma = 1.0, gamma  # the zero start
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        synth_p = fr._synthesize_values(p)
        gp = fr._analyze_values(synth_p)
        denom = np.vdot(p, gp).real
        if denom <= 0.0:
            break
        alpha = rr / denom
        gamma = gamma + alpha * p
        synth_gamma = synth_gamma + alpha * synth_p
        r = r - alpha * gp
        err = _l2_norm(fr, synth_gamma - f.values) / f_norm
        if err <= tol:
            # the running T gamma drifts by rounding; stop on the iterate's own error
            recon_values = fr._synthesize_values(gamma)
            err = _l2_norm(fr, recon_values - f.values) / f_norm
            converged = err <= tol
        history.append(err)
        if err < best_err:
            best_err, best_gamma = err, gamma
        if converged:
            break
        rr_next = np.vdot(r, r).real
        if rr_next <= 0.0:
            break
        p = r + (rr_next / rr) * p
        rr = rr_next

    if not converged:
        gamma = best_gamma
        recon_values = fr._synthesize_values(gamma)
    recon = fr.window.with_values(recon_values)
    rel_err = _l2_norm(fr, recon_values - f.values) / f_norm
    return ReconstructionResult(recon, rel_err, converged, iterations, _all_rows(fr, gamma), np.asarray(history))


def _l2_norm(fr: FrameSystem, values: np.ndarray) -> float:
    area = sphere_area(fr.window.dim)
    return math.sqrt(max(0.0, (area * np.sum(fr.window.weights * np.abs(values) ** 2)).real))


def _l2_error(fr: FrameSystem, gamma: np.ndarray, f: RadialProfile) -> float:
    """L2 distance between the synthesis of ``gamma`` and f."""
    return _l2_norm(fr, fr._synthesize_values(gamma) - f.values)


# ----------------------------------------------------------------------
# empirical frame bounds on a polynomial-times-Gaussian test subspace
# ----------------------------------------------------------------------

def _test_subspace(fr: FrameSystem, test_dim: int) -> np.ndarray:
    """Orthonormal basis (rows) of span{theta^(2m) exp(-pi theta^2)}.

    One QR factorization of the basis weighted by sqrt(area * w): with
    sqrt(area * w) V^T = Q R, the rows of R^-T V are orthonormal in L2 up
    to the rounding that the monomials' conditioning amplifies, so their
    Gram on the grid is checked against the identity."""
    theta = fr.window.radii
    raw = theta[None, :] ** (2 * np.arange(test_dim)[:, None]) * np.exp(-math.pi * theta**2)
    sw = np.sqrt(sphere_area(fr.window.dim) * fr.window.weights)
    r = np.linalg.qr((raw * sw).T, mode="r")
    basis = np.linalg.solve(r.T, raw)
    error = np.max(np.abs((basis * sw**2) @ basis.T - np.eye(test_dim)))
    if not error <= 1e-8:
        raise ValueError(
            f"parameter test_dim: the test basis is not orthonormal at test_dim = {test_dim} "
            f"(Gram error {error:.1e}); reduce test_dim"
        )
    return basis


def frame_bounds(fr: FrameSystem, test_dim: int = 6) -> tuple[float, float]:
    """Range (A, B) of the Rayleigh quotient <S f, f> / ||f||^2 over the
    test subspace: the extreme eigenvalues of the Gram conj(C) C^T, whose
    (i, j) entry is <S e_j, e_i> when row i of C holds the frame
    coefficients of test basis vector e_i.  These are inner estimates that
    depend on the subspace: A is an upper estimate of the frame's lower
    bound and B a lower estimate of its upper bound."""
    if test_dim < 1 or test_dim > len(fr):
        raise ValueError("test_dim must be in [1, number of atoms]")
    coeffs = np.array([fr._analyze_values(e) for e in _test_subspace(fr, test_dim)])
    lo, hi = np.linalg.eigvalsh(np.conj(coeffs) @ coeffs.T)[[0, -1]]
    return float(lo), float(hi)


def coeffs_to_csv(coeffs: CoeffSeq, path: str | Path) -> None:
    """Write coefficients as CSV with columns j,k,ell,re,im in
    lexicographic index order."""
    t = coeffs.table
    order = np.argsort(coeffs.rows)  # table rows are in lexicographic index order
    rows, values = coeffs.rows[order], coeffs.values[order]
    _write_csv(path, "j,k,ell,re,im", [t.j[rows], t.k[rows], t.ell[rows], values.real, values.imag])

"""Radial Gabor frame systems on truncated phase-space lattices.

A frame system caches the images of one radial window under the
rotation-averaged time-frequency shift at every lattice point, with the
half-phase exp(i pi r s c) attached and, optionally, the sqrt(mu)
normalization that turns the family into a Hilbert frame.  Analysis,
synthesis and the frame operator are dense linear algebra against the
cached profile matrix.

The cache stores each ring's atoms a_ell and a_-ell in pair form, as the
rows R[ell] = (a_ell + a_-ell)/2 and R[-ell] = (a_ell - a_-ell)/(2i) of a
matrix R; ell = 0 rows hold the atom itself.  For a real window a_-ell is
the exact conjugate of a_ell, so the pair rows are Re a_ell and Im a_ell,
R is real with half the bytes of the complex atom matrix, and real
targets are analysed, synthesized and solved for in real arithmetic.
Complex windows keep a complex R through the same transform.  The atoms
a_(+-ell) = R[ell] +- i R[-ell] are derived from R where a caller asks for
them (``FrameSystem.atom_matrix``).

``reconstruct`` computes canonical-dual coefficients by conjugate-gradient
iteration on the Gram (normal) system from a zero start, whose limit is the
minimal-norm coefficient vector.  It iterates on the pair coefficients
beta, whose synthesis is R^T beta and which map back to atom coefficients
as gamma_(+-ell) = (beta_ell -+ i beta_-ell)/2.  That map is sqrt(1/2)
times a unitary on every pair, so ||gamma||^2 is the pair metric
sum_pairs (|beta_ell|^2 + |beta_-ell|^2)/2 + sum |beta_0|^2, and CG in
that metric takes, in exact arithmetic, the same iterates as plain CG on
gamma to the same minimal-norm limit.  CG minimizes the Gram-energy norm
of the coefficient error, which equals the L2 distance between the running
reconstruction and the best one, so in exact arithmetic the reported
reconstruction error is monotone in the iteration count.  In floating
point, CG on an ill-conditioned Gram system can lose that monotonicity and
even diverge, so ``reconstruct`` returns the iterate with the lowest error
it saw.  Callers that need a converged solve raise ``NonConvergence`` when
``converged`` is False.
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
from .stft import OrbitPoint, _expanded_shift_values, _gaussian_shift_values

# build_frame calls neither: the benchmark tracer (bench/tracing.py) looks
# these two up on this module by name, as it does lattice_table
from .stft import _averaged_shift_values, _shifted_window_samples  # noqa: F401

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
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"RADIAL_GABOR_THREADS must be a positive integer, got {env!r}")
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


# radii per block of build_frame's expansion: one block's coefficients for
# every r and s stay small next to the pair matrix
_THETA_BLOCK = 128

# rows per block when atoms are derived from the pair rows: a derived matrix
# then needs about 128 KiB of temporaries at 1,024 grid points, not a
# second copy of the pair matrix
_ROW_BLOCK = 16


def _matmul(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """matrix @ vec without casting a real matrix to complex: numpy would
    copy it into a complex array first (580 us against 85 us at 303 x
    1024), so a complex vec is multiplied as its real and imaginary
    columns, and one whose imaginary part is zero as its real part."""
    if matrix.dtype.kind == "f" and vec.dtype.kind == "c":
        if not vec.imag.any():
            return matrix @ vec.real
        columns = np.ascontiguousarray(vec).view(float).reshape(-1, 2)
        return (matrix @ columns).view(complex)[:, 0]
    return matrix @ vec


@dataclass(frozen=True)
class FrameSystem:
    """The atoms of one window on a truncated lattice, in pair form (see
    the module docstring): ``pair_matrix`` is real for a real window and
    ``atom_matrix`` derives the complex atoms from it."""

    window: RadialProfile
    spec: LatticeSpec
    table: LatticeTable
    pair_matrix: np.ndarray  # (n_atoms, n_grid): R[ell], R[-ell] per atom pair, a_0 on ell = 0
    normalized: bool

    def __len__(self) -> int:
        return self.pair_matrix.shape[0]

    @property
    def atom_matrix(self) -> np.ndarray:
        """(n_atoms, n_grid) complex atom profiles, a read-only array
        derived from ``pair_matrix`` on every access: each access rebuilds
        the whole matrix (about 2 ms at 571 x 1,024) and allocates twice
        the bytes of a real ``pair_matrix``, so read it once, not per row;
        ``_atom_rows`` derives a subset."""
        return self._atom_rows(np.arange(len(self)))

    def _atom_rows(self, rows: np.ndarray) -> np.ndarray:
        """Atoms a_(+-ell) = R[ell] +- i R[-ell] at table ``rows``; for a
        real R these are R[ell] and R[-ell] as real and imaginary parts."""
        rows = np.asarray(rows)
        ell = self.table.ell[rows]
        mid = rows - ell  # the ring's ell = 0 row
        even_rows, odd_rows = mid + np.abs(ell), mid - np.abs(ell)
        sign = np.sign(ell)[:, None]
        pm = self.pair_matrix
        out = np.empty((rows.size, pm.shape[1]), dtype=complex)
        for lo in range(0, rows.size, _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            if pm.dtype.kind == "f":
                out.real[blk] = pm[even_rows[blk]]
                out.imag[blk] = pm[odd_rows[blk]]
                out.imag[blk] *= sign[blk]
            else:
                out[blk] = pm[even_rows[blk]] + 1j * (sign[blk] * pm[odd_rows[blk]])
        out.flags.writeable = False
        return out

    def _pair_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Table rows of R[ell] and of R[-ell] for every pair, ell > 0."""
        plus = np.flatnonzero(self.table.ell > 0)
        return plus, plus - 2 * self.table.ell[plus]

    def _inverse_metric(self) -> np.ndarray:
        """Inverse of the pair metric: 2 on pair rows, 1 on ell = 0 rows."""
        return np.where(self.table.ell == 0, 1.0, 2.0)

    def _to_atoms(self, x: np.ndarray, scale: float) -> np.ndarray:
        """scale (x_ell -+ i x_-ell) at +-ell on every pair, x_0 on ell = 0:
        pair-row analysis to atom analysis with scale 1, pair coefficients
        beta to atom coefficients gamma with scale 1/2."""
        plus, minus = self._pair_rows()
        out = x.astype(complex)
        even, odd = x[plus], x[minus]
        out[plus] = scale * (even - 1j * odd)
        out[minus] = scale * (even + 1j * odd)
        return out

    def _to_pairs(self, gamma: np.ndarray) -> np.ndarray:
        """Pair coefficients of atom coefficients, the inverse of
        ``_to_atoms(., 0.5)``: beta_ell = gamma_ell + gamma_-ell and
        beta_-ell = i (gamma_ell - gamma_-ell)."""
        plus, minus = self._pair_rows()
        beta = gamma.astype(complex)
        beta[plus] = gamma[plus] + gamma[minus]
        beta[minus] = 1j * (gamma[plus] - gamma[minus])
        return beta

    def _analyze_pairs(self, values: np.ndarray) -> np.ndarray:
        """<f, R_k> for every pair row R_k; real for a real R and real f."""
        weighted = self.window.weights * values
        # conj(R) x = conj(R conj(x)) without a conjugated copy of R
        return sphere_area(self.window.dim) * np.conj(_matmul(self.pair_matrix, np.conj(weighted)))

    def _synthesize_pairs(self, beta: np.ndarray) -> np.ndarray:
        return _matmul(self.pair_matrix.T, beta)

    def _synthesize_values(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] a_i, through the pair rows."""
        return self._synthesize_pairs(self._to_pairs(coeffs))


def build_frame(window: RadialProfile, spec: LatticeSpec, normalized: bool = True) -> FrameSystem:
    """Cache all atom profiles for the truncated lattice, in pair form.

    When the window's analytic evaluator is a ``GaussianSpec``, every atom
    comes from the closed-form rotation average (a confluent
    hypergeometric 0F1, see ``radial_gabor.stft``), one (j, k) ring per
    task: the atoms at +ell and -ell have cosines c and -c and come from
    one evaluation (``_gaussian_shift_values``), the -ell atom with the
    conjugate half-phase.  The pair is stored as the rows
    R[ell] = (a_ell + a_-ell)/2 and R[-ell] = (a_ell - a_-ell)/(2i), the
    ell = 0 atom as it is.

    Every other window takes the Funk-Hecke expansion
    (``_expanded_shift_values``): window coefficients once per distinct r,
    plane-wave coefficients once per distinct s, and per ring the values
    E + iO at c and E - iO at -c.  With psi = pi r s c and scale = sqrt(mu),
    R[ell] = scale (cos(psi) E - sin(psi) O), R[-ell] = scale (sin(psi) E +
    cos(psi) O), and the ell = 0 row is scale E (O is exactly 0 there).  The
    radii run in blocks of ``_THETA_BLOCK``, one pool task each.  A
    ValueError naming jk_max refuses an expansion that cannot be allocated.

    A window whose evaluator returns real values gives a_-ell = conj(a_ell)
    exactly, and ell = 0 atoms are real, so R is real: R[ell] = Re a_ell
    and R[-ell] = Im a_ell.  Any other window gives a complex R.

    Rings (Gaussian) or radius blocks (every other window) are independent
    and run on a small thread pool; results are deterministic because every
    row or block is stored by index.  A ValueError naming d rejects atoms
    whose values are not finite (the kernels overflow in high dimensions).
    """
    if norm(window) == 0.0:
        raise ValueError("frame window must be nonzero")
    if window.dim != spec.d:
        raise ValueError("window dimension does not match the lattice spec")
    table = lattice_table(spec)
    n_atoms = len(table)
    real = not np.iscomplexobj(window.evaluate(window.radii[:1]))

    # rows are in (j, k, ell) order, so a ring starts wherever (j, k) changes
    new_ring = (np.diff(table.j) != 0) | (np.diff(table.k) != 0)
    ring_starts = [0, *(np.flatnonzero(new_ring) + 1).tolist(), n_atoms]
    # each ring as (start, the ell = 0 row, stop): ell = -n..n in order
    rings = [(start, start + int(table.n_angles[start]), stop) for start, stop in zip(ring_starts, ring_starts[1:])]

    gaussian = window.analytic if isinstance(window.analytic, GaussianSpec) else None
    if gaussian is None:
        values = _expanded_shift_values(
            window, [(float(table.r[mid]), float(table.s[mid]), table.c[mid:stop]) for _, mid, stop in rings])
        half_phase = math.pi * table.r * table.s * table.c
        scale = np.sqrt(table.mu) if normalized else 1.0
        cos_psi, sin_psi = scale * np.cos(half_phase), scale * np.sin(half_phase)
    matrix = np.empty((n_atoms, window.radii.size), dtype=float if real else complex)

    def fill_ring(ring: tuple[int, int, int]) -> None:
        start, mid, stop = ring
        r = float(table.r[start])
        s = float(table.s[start])
        for ell in range(stop - mid):
            i = mid + ell
            point = OrbitPoint(r, s, float(table.c[i]))
            plus, minus = _gaussian_shift_values(gaussian, window.radii, window.dim, point)
            phase = complex(
                math.cos(math.pi * point.r * point.s * point.c),
                math.sin(math.pi * point.r * point.s * point.c),
            )
            scale = math.sqrt(table.mu[i]) if normalized else 1.0
            atom = (scale * phase) * plus
            if ell == 0:
                matrix[i] = atom.real if real else atom
            elif real:
                matrix[i], matrix[mid - ell] = atom.real, atom.imag
            else:
                mirror = (scale * phase.conjugate()) * minus
                matrix[i], matrix[mid - ell] = 0.5 * (atom + mirror), -0.5j * (atom - mirror)

    def fill_block(lo: int) -> None:
        blk = slice(lo, lo + _THETA_BLOCK)
        for (start, mid, stop), (even, odd) in zip(rings, values(blk)):
            cp, sp = cos_psi[mid:stop], sin_psi[mid:stop]
            matrix[mid:stop, blk] = (cp * even - sp * odd).T
            matrix[start:mid, blk] = (sp * even + cp * odd)[:, :0:-1].T  # ell = -n..-1

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        if gaussian is None:
            list(pool.map(fill_block, range(0, window.radii.size, _THETA_BLOCK)))
        else:
            list(pool.map(fill_ring, rings))
    bad = np.count_nonzero(~np.isfinite(matrix.view(float)).all(axis=1))
    if bad:
        raise ValueError(f"{bad} of {n_atoms} atoms have non-finite values at d = {spec.d}")
    return FrameSystem(window=window, spec=spec, table=table, pair_matrix=matrix, normalized=normalized)


def analyze(f: RadialProfile, fr: FrameSystem) -> CoeffSeq:
    """Frame coefficients <f, atom_i> for every cached atom."""
    _check_compatible(f, fr.window)
    return _all_rows(fr, fr._to_atoms(fr._analyze_pairs(f.values), 1.0))


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
    pairs = fr._inverse_metric() * fr._analyze_pairs(f.values)
    return fr.window.with_values(fr._synthesize_pairs(pairs))


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

    CG from a zero start converges to the minimal-norm coefficient vector,
    which is exactly the canonical dual.  It runs on the pair coefficients
    in the pair metric (see the module docstring), which is an isometry
    onto the atom coefficients and so keeps that limit; diagonal rescaling
    by atom norms would change it and inflate coefficients on numerically
    degenerate atoms by many orders of magnitude, so it is deliberately not
    used.  CG minimizes the Gram-energy error, which equals the L2 distance
    between the running and the best reconstruction, so in exact arithmetic
    the recorded error history is non-increasing; rounding can break that
    on ill-conditioned frames.

    On a real-window frame a real target is solved in real arithmetic; a
    complex target runs the same CG on complex vectors, whose real and
    imaginary parts meet the real pair matrix in one product (``_matmul``).

    ``error_history[k-1]`` is the relative L2 error of the k-th iterate,
    from the running synthesis T gamma, or from the iterate's own synthesis
    where the loop computes that (once the running error reaches tol).
    Iteration stops once the iterate's own relative L2 error is at most tol,
    or at max_iter.  ``converged`` means the returned ``relative_error`` is
    at most tol.  An unconverged solve returns the iterate with the lowest
    recorded error, the zero start included (error 1), and that iterate's
    own relative error; persistent failure indicates steps (a, b) outside
    the empirical frame regime.
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

    values = f.values if f.values.imag.any() else f.values.real
    beta, recon_values, rel_err, history, iterations = _dual_cg(fr, values, f_norm, tol, max_iter)
    recon = fr.window.with_values(recon_values)
    coefficients = _all_rows(fr, fr._to_atoms(beta, 0.5))
    return ReconstructionResult(recon, rel_err, rel_err <= tol, iterations, coefficients, np.asarray(history))


def _dual_cg(fr: FrameSystem, values: np.ndarray, f_norm: float, tol: float, max_iter: int):
    """Zero-start CG for the pair coefficients beta of ``values`` (real for
    real values on a real-window frame).  The inverse pair metric acts as
    the preconditioner, which makes these the iterates of plain CG on the
    atom coefficients.  Errors are L2 norms relative to ``f_norm``.

    Returns (beta, R^T beta, its relative error, error history, iteration
    count) for the first iterate whose own error is at most tol, else for
    the best recorded iterate.
    """
    inv_metric = fr._inverse_metric()
    r = fr._analyze_pairs(values)  # the residual as pair-row inner products
    z = inv_metric * r  # ... and as pair coefficients
    beta = np.zeros_like(z)
    synth_beta = np.zeros(values.shape, dtype=np.result_type(fr.pair_matrix, values))  # kept up to date
    p = z
    rz = np.vdot(r, z).real
    history = []
    best_err, best_beta = 1.0, beta  # the zero start
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        synth_p = fr._synthesize_pairs(p)
        gp = fr._analyze_pairs(synth_p)
        denom = np.vdot(p, gp).real
        if denom <= 0.0:
            break
        alpha = rz / denom
        beta = beta + alpha * p
        synth_beta = synth_beta + alpha * synth_p
        r = r - alpha * gp
        err = _l2_norm(fr, synth_beta - values) / f_norm
        if err <= tol:
            # the running synthesis drifts by rounding; stop on the iterate's own error
            own = fr._synthesize_pairs(beta)
            err = _l2_norm(fr, own - values) / f_norm
            converged = err <= tol
        history.append(err)
        if err < best_err:
            best_err, best_beta = err, beta
        if converged:
            return beta, own, err, history, iterations
        z = inv_metric * r
        rz_next = np.vdot(r, z).real
        if rz_next <= 0.0:
            break
        p = z + (rz_next / rz) * p
        rz = rz_next
    own = fr._synthesize_pairs(best_beta)
    return best_beta, own, _l2_norm(fr, own - values) / f_norm, history, iterations


def _l2_norm(fr: FrameSystem, values: np.ndarray) -> float:
    area = sphere_area(fr.window.dim)
    return math.sqrt(max(0.0, area * np.vdot(values, fr.window.weights * values).real))


def _l2_error(fr: FrameSystem, gamma: np.ndarray, f: RadialProfile) -> float:
    """L2 distance between the synthesis of atom coefficients ``gamma``
    and f."""
    return _l2_norm(fr, fr._synthesize_values(gamma) - f.values)


# ----------------------------------------------------------------------
# empirical frame bounds on a Laguerre-Gauss test subspace
# ----------------------------------------------------------------------

def _test_subspace(fr: FrameSystem, test_dim: int) -> np.ndarray:
    """Rows phi_m, m < test_dim, on the window's grid: the Laguerre-Gauss
    basis c_m L_m^(nu)(x) exp(-x/2), x = 2 pi theta^2, of span{theta^(2m)
    exp(-pi theta^2)}, nu = d/2 - 1, orthonormal in L2 with c_m =
    sqrt(4 pi (2 pi)^nu / |S^(d-1)|) sqrt(m! / Gamma(m + nu + 1)).  The rows
    come from the normalised three-term recurrence phi_(m+1) = ((2m + 1 +
    nu - x) phi_m - sqrt(m (m + nu)) phi_(m-1)) / sqrt((m + 1)(m + nu + 1)),
    which stays finite where L_m alone overflows (m ~ 280 at theta_max 16).
    A grid holds the basis up to a capacity that theta_max sets (87-88 at 8,
    209 at 12 on 2,048 points); a Gram off the identity by more than 1e-8 is
    rejected."""
    theta, d = fr.window.radii, fr.window.dim
    nu, area = d / 2 - 1, sphere_area(d)
    x = 2 * math.pi * theta**2
    basis = np.empty((test_dim, theta.size))
    basis[0] = math.exp(0.5 * (math.log(4 * math.pi * (2 * math.pi) ** nu / area) - math.lgamma(nu + 1))) * np.exp(-x / 2)
    for m in range(test_dim - 1):
        prev = math.sqrt(m * (m + nu)) * basis[m - 1] if m else 0.0
        basis[m + 1] = ((2 * m + 1 + nu - x) * basis[m] - prev) / math.sqrt((m + 1) * (m + nu + 1))
    error = np.max(np.abs((basis * (area * fr.window.weights)) @ basis.T - np.eye(test_dim)))
    if not error <= 1e-8:
        raise ValueError(f"parameter test_dim: the test basis is not orthonormal on the grid at test_dim = "
                         f"{test_dim} (Gram error {error:.1e}); reduce test_dim or raise theta_max")
    return basis


def frame_bounds(fr: FrameSystem, test_dim: int = 6) -> tuple[float, float]:
    """Range (A, B) of the Rayleigh quotient <S f, f> / ||f||^2 on the first
    ``test_dim`` Laguerre-Gauss functions (``_test_subspace``): the extreme
    eigenvalues of the Gram P^H D^-1 P of their pair-row analysis P, with the
    inverse pair metric D^-1 of ``frame_operator``, as squared singular values
    of D^-1/2 P, so A >= 0 in floating point too.  These are inner estimates:
    A is an upper estimate of the frame's lower bound and B a lower estimate
    of its upper bound."""
    if not 1 <= test_dim <= len(fr):
        raise ValueError(f"parameter test_dim: must be in [1, {len(fr)}] (the atom count), got {test_dim}")
    basis = _test_subspace(fr, test_dim)
    pairs = sphere_area(fr.window.dim) * np.conj(fr.pair_matrix @ (fr.window.weights * basis).T)
    sigma = np.linalg.svd(np.sqrt(fr._inverse_metric())[:, None] * pairs, compute_uv=False)
    return float(sigma[-1] ** 2), float(sigma[0] ** 2)


def coeffs_to_csv(coeffs: CoeffSeq, path: str | Path) -> None:
    """Write coefficients as CSV with columns j,k,ell,re,im in
    lexicographic index order."""
    t = coeffs.table
    order = np.argsort(coeffs.rows)  # table rows are in lexicographic index order
    rows, values = coeffs.rows[order], coeffs.values[order]
    _write_csv(path, "j,k,ell,re,im", [t.j[rows], t.k[rows], t.ell[rows], values.real, values.imag])

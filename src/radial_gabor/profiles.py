"""Radial functions on a shared quadrature grid and the L2 inner product
of their rotation-invariant extensions to R^d.

A ``RadialProfile`` stores complex samples of the radial part f0 on a
composite Gauss-Legendre grid over [0, theta_max] together with quadrature
weights that already contain the theta^(d-1) surface factor, so that

    <f, g> = |S^(d-1)| * sum_n w_n f0(theta_n) conj(g0(theta_n)).

Profiles constructed from an analytic evaluator keep it for off-grid
evaluation; otherwise a not-a-knot cubic spline is used, with zero beyond
theta_max.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GridMismatchError",
    "GaussianSpec",
    "RadialProfile",
    "sphere_area",
    "make_grid",
    "make_profile",
    "inner",
    "norm",
    "normalized_gaussian_window",
    "profile_to_csv",
    "profile_from_csv",
]

PANEL_NODES = 8

# 8-point Gauss-Legendre rule on [-1, 1]
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(PANEL_NODES)


class GridMismatchError(ValueError):
    """Raised when two profiles do not share dimension and radius grid."""


def sphere_area(d: int) -> float:
    """Surface area |S^(d-1)| of the unit sphere in R^d."""
    if d < 1:
        raise ValueError("sphere_area requires d >= 1")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class GaussianSpec:
    """Analytic radial Gaussian theta -> amp * exp(-alpha * theta^2)."""

    alpha: float
    amp: float = 1.0

    def __post_init__(self) -> None:
        # alpha <= 0 is constant or growing: not in L2, and it breaks the
        # no-overflow bound of the closed-form shift
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("GaussianSpec alpha must be finite and positive")
        if not cmath.isfinite(self.amp):
            raise ValueError("GaussianSpec amp must be finite")

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return self.amp * np.exp(-self.alpha * np.asarray(theta, dtype=float) ** 2)


def make_grid(theta_max: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre grid on [0, theta_max] with 8-node panels.

    Returns (radii, base_weights); base_weights do not yet include the
    theta^(d-1) factor.  n_points is rounded up to a multiple of 8.
    """
    if theta_max <= 0.0:
        raise ValueError("theta_max must be positive")
    if n_points < 16:
        raise ValueError("n_points must be >= 16")
    panels = -(-n_points // PANEL_NODES)
    h = theta_max / panels
    offsets = (np.arange(panels) * h)[:, None]
    radii = (offsets + 0.5 * h * (_GL8_X + 1.0)[None, :]).ravel()
    weights = np.tile(0.5 * h * _GL8_W, panels)
    return radii, weights


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a radial function on a fixed quadrature grid.

    ``radii`` must be a composite grid ``make_grid(theta_max, n)``, whose
    ``theta_max`` the profile carries; ``weights`` implement integration
    against theta^(d-1) d theta on [0, theta_max]; ``analytic`` optionally
    tags a closed-form evaluator used for off-grid evaluation.
    """

    dim: int
    radii: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    analytic: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _spline: list = field(default_factory=list, repr=False, compare=False)
    theta_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("RadialProfile requires dim >= 2")
        radii = np.asarray(self.radii, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise ValueError("radii must be a 1-d grid")
        if radii[0] < 0.0 or np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be nonnegative and strictly increasing")
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != radii.shape or np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative and match the grid")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != radii.shape:
            raise ValueError("values must match the grid")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("values must be finite")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "theta_max", _grid_theta_max(radii))

    def with_values(self, values: np.ndarray) -> "RadialProfile":
        return RadialProfile(self.dim, self.radii, values, self.weights)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary radii: analytic form when present, else a
        not-a-knot cubic spline, and zero beyond theta_max.

        The dtype follows the evaluator, and the spline is real when every
        sample is (real windows stay real, which halves the work of the
        quadrature kernels)."""
        theta = np.asarray(theta, dtype=float)
        if self.analytic is not None:
            return np.asarray(self.analytic(theta))
        if not self._spline:
            # imported here: scipy.interpolate is heavy and only sampled
            # profiles without an analytic form need it
            from scipy.interpolate import CubicSpline

            samples = self.values.real if not self.values.imag.any() else self.values
            self._spline.append(CubicSpline(self.radii, samples, bc_type="not-a-knot"))
        out = self._spline[0](theta)
        return np.where(theta <= self.theta_max, out, 0.0)


@functools.lru_cache(maxsize=16)
def _unit_grid(n_points: int) -> np.ndarray:
    """Read-only radii of make_grid(1.0, n_points), the grid check's reference."""
    radii = make_grid(1.0, n_points)[0]
    radii.setflags(write=False)
    return radii


def _grid_theta_max(radii: np.ndarray) -> float:
    """theta_max of a composite grid, checked: the size n must be a positive
    multiple of PANEL_NODES and ``radii`` must equal make_grid(theta_max, n)."""
    n = radii.size
    if n == 0 or n % PANEL_NODES != 0:
        raise ValueError("grid size is not a positive multiple of the panel size")
    panels = n // PANEL_NODES
    theta_max = float(radii[-1] / ((panels - 1.0 + 0.5 * (_GL8_X[-1] + 1.0)) / panels))
    if not np.abs(radii - theta_max * _unit_grid(n)).max() <= 1e-9 * theta_max:
        raise ValueError("radii are not a composite Gauss-Legendre grid")
    return theta_max


def make_profile(
    d: int,
    theta_max: float,
    n_points: int,
    evaluator: Callable[[np.ndarray], np.ndarray],
) -> RadialProfile:
    """Sample ``evaluator`` on the composite Gauss-Legendre grid and attach
    weights for integration against theta^(d-1)."""
    radii, base = make_grid(theta_max, n_points)
    weights = base * radii ** (d - 1)
    values = np.asarray(evaluator(radii), dtype=complex)
    return RadialProfile(d, radii, values, weights, analytic=evaluator)


def _check_compatible(f: RadialProfile, g: RadialProfile) -> None:
    if f.dim != g.dim:
        raise GridMismatchError("profiles have different dimensions")
    if f.radii.shape != g.radii.shape or not np.array_equal(f.radii, g.radii):
        raise GridMismatchError("profiles live on different grids")


def inner(f: RadialProfile, g: RadialProfile) -> complex:
    """L2(R^d) inner product of the radial extensions of f and g."""
    _check_compatible(f, g)
    return complex(sphere_area(f.dim) * np.sum(f.weights * f.values * np.conj(g.values)))


def norm(f: RadialProfile) -> float:
    """L2(R^d) norm; the imaginary residue of <f, f> must be roundoff."""
    ip = inner(f, f)
    if abs(ip.imag) > 1e-12 * max(1.0, abs(ip.real)):
        raise ValueError("inner(f, f) has a non-roundoff imaginary part")
    return math.sqrt(max(ip.real, 0.0))


def normalized_gaussian_window(d: int, theta_max: float = 8.0, n_points: int = 1024) -> RadialProfile:
    """The L2-normalized Gaussian 2^(d/4) exp(-pi theta^2) on the default grid."""
    return make_profile(d, theta_max, n_points, GaussianSpec(math.pi, 2.0 ** (d / 4.0)))


# ----------------------------------------------------------------------
# CSV interchange: columns theta, re, im with a header row
# ----------------------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: a temp file in the same
    directory, renamed over ``path`` only once it is complete.  The temp
    file is created with mode 0o666 less the umask, as ``open`` would."""
    tmp = path.with_name(f"{path.name}{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str | Path, header: str, columns) -> None:
    """Write equal-length columns under ``header`` atomically, one row per
    entry: integer columns as integers, every other value with 17
    significant digits.  Columns become Python scalars first: formatting
    those is about twice as fast as formatting numpy scalars."""
    arrays = [np.asarray(c) for c in columns]
    row = ",".join("%d" if a.dtype.kind in "iu" else "%.17g" for a in arrays)
    lines = [header] + [row % vals for vals in zip(*(a.tolist() for a in arrays))]
    _write_text(Path(path), "\n".join(lines) + "\n")


def profile_to_csv(profile: RadialProfile, path: str | Path) -> None:
    _write_csv(path, "theta,re,im", [profile.radii, profile.values.real, profile.values.imag])


def profile_from_csv(path: str | Path, d: int) -> RadialProfile:
    """Load a profile exported by ``profile_to_csv``.

    The radius column must be a composite Gauss-Legendre grid, otherwise
    the quadrature weights cannot be reconstructed.
    """
    raw = Path(path).read_text().strip().splitlines()
    if not raw or raw[0].strip() != "theta,re,im":
        raise ValueError("expected header row 'theta,re,im'")
    rows = [line.split(",") for line in raw[1:]]
    radii = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    rebuilt, base = make_grid(_grid_theta_max(radii), radii.size)
    return RadialProfile(d, rebuilt, values, base * rebuilt ** (d - 1))

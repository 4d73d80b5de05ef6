"""Radial functions on a shared quadrature grid and the L2 inner product
of their rotation-invariant extensions to R^d.

A ``RadialProfile`` is (dim, theta_max, values): complex samples of the
radial part f0 on a composite Gauss-Legendre grid over [0, theta_max].
Its radii and quadrature weights follow from that grid, and the weights
already contain the theta^(d-1) surface factor, so that

    <f, g> = |S^(d-1)| * sum_n w_n f0(theta_n) conj(g0(theta_n)).

Profiles constructed from an analytic evaluator keep it for off-grid
evaluation; otherwise a not-a-knot cubic spline is used, with zero beyond
theta_max.
"""

from __future__ import annotations

import cmath
import math
import os
import secrets
from dataclasses import dataclass, field
from functools import lru_cache
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
    if not (math.isfinite(theta_max) and theta_max > 0.0):
        raise ValueError("theta_max must be finite and positive")
    if n_points < 16:
        raise ValueError("n_points must be >= 16")
    panels = -(-n_points // PANEL_NODES)
    h = theta_max / panels
    offsets = (np.arange(panels) * h)[:, None]
    radii = (offsets + 0.5 * h * (_GL8_X + 1.0)[None, :]).ravel()
    weights = np.tile(0.5 * h * _GL8_W, panels)
    return radii, weights


@lru_cache(maxsize=32)
def _profile_grid(theta_max: float, n_points: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and theta^(dim-1)-weighted quadrature weights of
    ``make_grid(theta_max, n_points)`` as read-only arrays, which every
    profile on that grid shares."""
    radii, base = make_grid(theta_max, n_points)
    weights = base * radii ** (dim - 1)
    radii.flags.writeable = weights.flags.writeable = False
    return radii, weights


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a radial function on the composite grid
    ``make_grid(theta_max, values.size)``.

    ``radii`` and ``weights`` follow from the grid; the weights implement
    integration against theta^(d-1) d theta on [0, theta_max].  They are
    read-only arrays shared by every profile on the same grid, so a
    profile derived by ``with_values`` reuses them.
    ``analytic`` optionally tags a closed-form evaluator used for off-grid
    evaluation.
    """

    dim: int
    theta_max: float
    values: np.ndarray
    analytic: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _spline: list = field(default_factory=list, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("RadialProfile requires dim >= 2")
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.size == 0 or values.size % PANEL_NODES != 0:
            raise ValueError("values must be 1-d and fill whole 8-node panels")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("values must be finite")
        radii, weights = _profile_grid(float(self.theta_max), values.size, self.dim)
        object.__setattr__(self, "theta_max", float(self.theta_max))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "weights", weights)

    def with_values(self, values: np.ndarray) -> "RadialProfile":
        return RadialProfile(self.dim, self.theta_max, values)

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


def _grid_theta_max(radii: np.ndarray) -> float:
    """The theta_max for which make_grid(theta_max, radii.size) rebuilds
    ``radii`` bit for bit: the value read back from the last radius or one
    within 4 ulps of it, nearest first."""
    n = radii.size
    if n == 0 or n % PANEL_NODES != 0:
        raise ValueError("grid size is not a positive multiple of the panel size")
    panels = n // PANEL_NODES
    read_back = float(radii[-1] / ((panels - 1.0 + 0.5 * (_GL8_X[-1] + 1.0)) / panels))
    near = [read_back, read_back]
    for _ in range(4):
        near += [np.nextafter(near[-2], 0.0), np.nextafter(near[-1], math.inf)]
    for theta_max in near:
        if 0.0 < read_back < math.inf and np.array_equal(make_grid(theta_max, n)[0], radii):
            return float(theta_max)
    raise ValueError("radii are not a composite Gauss-Legendre grid")


def make_profile(
    d: int,
    theta_max: float,
    n_points: int,
    evaluator: Callable[[np.ndarray], np.ndarray],
) -> RadialProfile:
    """Sample ``evaluator`` on the composite Gauss-Legendre grid."""
    radii = _profile_grid(float(theta_max), n_points, d)[0]
    return RadialProfile(d, theta_max, evaluator(radii), analytic=evaluator)


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

    The radius column must be a composite Gauss-Legendre grid; the profile
    lives on the grid that rebuilds it bit for bit.
    """
    text = Path(path).read_text()
    raw = text.strip().splitlines()
    if not raw or raw[0].strip() != "theta,re,im":
        raise ValueError("expected header row 'theta,re,im'")
    rows = [line.split(",") for line in raw[1:]]
    bad = next((i for i, r in enumerate(rows) if len(r) != 3), None)
    if bad is not None:
        line = text[: len(text) - len(text.lstrip())].count("\n") + bad + 2  # 1-based, header first
        raise ValueError(f"line {line}: expected 3 comma-separated fields theta,re,im, got {len(rows[bad])}")
    radii = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    return RadialProfile(d, _grid_theta_max(radii), values)

"""The explicit well-spread point set in phase space.

For steps a, b > 0 the points live on rings of radii a*j in space and b*k
in frequency; each ring pair (j, k) carries 2 N(j, k) + 1 relative angles
with cosines sin(pi*l / (2 N(j, k))), l = -N..N, plus measure weights mu
that estimate the Lebesgue volume of the orbit neighborhoods.  Everything
downstream is rotation invariant, so points are stored as orbit
coordinates (r, s, c), one row per atom of a ``LatticeTable``; explicit
R^2 vectors are materialized only by the d = 2 covering verifier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .profiles import _write_csv

__all__ = [
    "LatticeIndex",
    "LatticeSpec",
    "LatticeTable",
    "angle_count",
    "lattice_table",
    "index_count",
    "covered_2d",
    "lattice_to_csv",
]

_CEIL_GUARD = 1e-9  # protects the ceiling against off-by-one at exact integers


@dataclass(frozen=True)
class LatticeIndex:
    j: int
    k: int
    ell: int

    def __post_init__(self) -> None:
        if self.j < 0 or self.k < 0:
            raise ValueError("ring indices must be nonnegative")
        n = angle_count(self.j, self.k)
        if abs(self.ell) > n:
            raise ValueError(f"|ell| must not exceed {n} for ring ({self.j}, {self.k})")


@dataclass(frozen=True)
class LatticeSpec:
    """Steps a (space) and b (frequency), dimension d and the truncation
    jk_max keeping rings with j + k <= jk_max."""

    a: float
    b: float
    d: int = 2
    jk_max: int = 8

    def __post_init__(self) -> None:
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            name, step = ("a", self.a) if not 0.0 < self.a < math.inf else ("b", self.b)
            raise ValueError(f"parameter {name}: lattice step must be positive and finite, got {step}")
        if self.d < 2:
            raise ValueError(f"parameter d: dimension must be at least 2, got {self.d}")
        if self.jk_max < 1:
            raise ValueError(f"parameter jk_max: truncation must be at least 1, got {self.jk_max}")


def _angle_count_array(j: np.ndarray, k: np.ndarray) -> np.ndarray:
    jf = j.astype(float)
    kf = k.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        root_j = np.sqrt(3.0 + 3.0 / (2.0 * jf) - (3.0 / (4.0 * jf)) ** 2)
        root_k = np.sqrt(3.0 + 3.0 / (2.0 * kf) - (3.0 / (4.0 * kf)) ** 2)
        num = kf * root_j + jf * root_k
        den = jf * kf + 0.5 * (jf + kf) - 0.375 * (jf / kf + kf / jf) + 1.0
        val = np.ceil((math.pi / 4.0) / np.arctan(num / den) - _CEIL_GUARD)
    out = np.where((j == 0) | (k == 0), 0.0, val)
    return out.astype(int)


@functools.lru_cache(maxsize=4096)
def angle_count(j: int, k: int) -> int:
    """Number N(j, k) of angular subdivisions on ring pair (j, k); zero on
    the boundary rows j = 0 or k = 0.  Memoised: every ``LatticeIndex``
    and every ring pair the covering verifier visits asks for it."""
    if j < 0 or k < 0:
        raise ValueError("ring indices must be nonnegative")
    return int(_angle_count_array(np.array([j]), np.array([k]))[0])


def _ring_pairs(jk_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Ring pairs (j, k) with j + k <= jk_max in lexicographic order."""
    pair_j, pair_k = np.meshgrid(np.arange(jk_max + 1), np.arange(jk_max + 1), indexing="ij")
    keep = (pair_j + pair_k) <= jk_max
    return pair_j[keep], pair_k[keep]


def _half_angle(ell: np.ndarray, n: np.ndarray) -> np.ndarray:
    """pi ell / (2 N), and 0 on the rings with N = 0."""
    return math.pi * ell / (2.0 * np.maximum(n, 1))


def _mu(j: np.ndarray, k: np.ndarray, ell: np.ndarray, n: np.ndarray, d: int) -> np.ndarray:
    """Measure weights: j^(d-1) + k^(d-1) + 1 on the boundary angles
    |ell| = N(j, k), else (j + k) (j k cos(pi ell / 2N))^(d-2)."""
    jf, kf = j.astype(float), k.astype(float)
    return np.where(
        np.abs(ell) == n,
        jf ** (d - 1) + kf ** (d - 1) + 1.0,
        (jf + kf) * (jf * kf * np.cos(_half_angle(ell, n))) ** (d - 2),
    )


@dataclass(frozen=True)
class LatticeTable:
    """The lattice atoms as columns, one row per atom in lexicographic
    (j, k, ell) order; coefficient sequences are aligned with these rows."""

    spec: LatticeSpec
    j: np.ndarray
    k: np.ndarray
    ell: np.ndarray
    n_angles: np.ndarray
    r: np.ndarray
    s: np.ndarray
    c: np.ndarray
    mu: np.ndarray

    def __len__(self) -> int:
        return self.j.size


def lattice_table(spec: LatticeSpec) -> LatticeTable:
    """All lattice atoms with j + k <= jk_max in lexicographic (j, k, ell)
    order, built with vectorized arithmetic.  Weights mu that overflow
    float64 (high d) raise a ValueError naming d."""
    pair_j, pair_k = _ring_pairs(spec.jk_max)
    n_pair = _angle_count_array(pair_j, pair_k)
    counts = 2 * n_pair + 1

    j = np.repeat(pair_j, counts)
    k = np.repeat(pair_k, counts)
    n = np.repeat(n_pair, counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    ell = np.arange(counts.sum()) - np.repeat(offsets + n_pair, counts)
    with np.errstate(over="ignore"):
        mu = _mu(j, k, ell, n, spec.d)
    if not np.isfinite(mu).all():
        raise ValueError(
            f"parameter d: the lattice weights mu overflow float64 at d = {spec.d}, "
            f"jk_max = {spec.jk_max}; lower d or jk_max"
        )
    return LatticeTable(
        spec=spec,
        j=j,
        k=k,
        ell=ell,
        n_angles=n,
        r=spec.a * j.astype(float),
        s=spec.b * k.astype(float),
        c=np.where(n == 0, 1.0, np.sin(_half_angle(ell, n))),
        mu=mu,
    )


def index_count(n: int) -> int:
    """Number of lattice indices with j + k <= n; grows like n^3."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return int(np.sum(2 * _angle_count_array(*_ring_pairs(n)) + 1))


# ----------------------------------------------------------------------
# covering verifier for d = 2
# ----------------------------------------------------------------------

_COARSE_PSI = 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _plane_point(name: str, value, what: str = "a finite point of R^2") -> np.ndarray:
    """``value`` as a float array of shape (2,) with finite entries."""
    try:
        point = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        point = None
    if point is None or point.shape != (2,) or not np.isfinite(point).all():
        raise ValueError(f"parameter {name}: must be {what}, got {value!r}")
    return point


def _candidate_rows(value: float, step: float, cap: int, reach: float = 1.0) -> range:
    lo = max(0, math.ceil(value / step - reach - 1e-12))
    hi = min(cap, math.floor(value / step + reach + 1e-12))
    return range(lo, hi + 1)


def _pair_max_ratio(psi, r, phi_x, s, phi_w, aj, bk, beta, a, b):
    dx2 = r * r + aj * aj - 2.0 * aj * r * np.cos(phi_x - psi)
    dw2 = s * s + bk * bk - 2.0 * bk * s * np.cos(phi_w - beta - psi)
    return np.maximum(dx2 / (a * a), dw2 / (b * b))


def covered_2d(
    x: np.ndarray,
    omega: np.ndarray,
    spec: LatticeSpec,
    *,
    radius: tuple[float, float] | None = None,
) -> bool:
    """Whether (x, omega) lies in some lattice atom's orbit neighborhood,
    the product of discs of radii ``radius = (ra, rb)`` in space and
    frequency (default the steps (a, b)).

    The neighborhoods depend on the pair only through (|x|, |omega|,
    x.omega), so membership is tested against the plane isometries that
    preserve those invariants: rotations and the reflection that flips the
    sign of the relative angle (the lattice itself only carries
    nonnegative relative angles).  Each isometry class is decided on a
    coarse 1024-sample rotation grid with golden-section refinement of the
    worst-coordinate ratio; candidate atoms are pre-filtered by ring
    distance, and the nearest ring pair's coarse samples are tried first.
    Truncation must satisfy |x|/a + |omega|/b + ra/a + rb/b <= jk_max for
    a negative answer to be reliable.  ``x`` and ``omega`` must be finite
    points of R^2 and ``radius`` two finite positive numbers; otherwise a
    ValueError names the parameter.
    """
    if spec.d != 2:
        raise ValueError("covering verification is implemented for d = 2 only")
    a, b = spec.a, spec.b
    x, omega = _plane_point("x", x), _plane_point("omega", omega)
    what = "two finite positive cell radii"
    ra, rb = (a, b) if radius is None else _plane_point("radius", radius, what).tolist()
    if not (ra > 0.0 and rb > 0.0):
        raise ValueError(f"parameter radius: must be {what}, got {[ra, rb]}")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, beyond every ring
        r = float(np.linalg.norm(x))
        s = float(np.linalg.norm(omega))
    # no ring pair within reach: the rows that come near |x| and |omega|
    # start past the truncation j + k <= jk_max
    if max(0.0, (r - ra) / a) + max(0.0, (s - rb) / b) > spec.jk_max + 1:
        return False
    phi_x = math.atan2(x[1], x[0]) if r > 0.0 else 0.0
    phi_w = math.atan2(omega[1], omega[0]) if s > 0.0 else 0.0

    nearest = (round(r / a), round(s / b))
    near = slice(0, 0)
    candidates: list[tuple[float, float, float]] = []  # (aj, bk, beta)
    for j in _candidate_rows(r, a, spec.jk_max, ra / a):
        for k in _candidate_rows(s, b, spec.jk_max - j, rb / b):
            n = angle_count(j, k)
            if (j, k) == nearest:
                near = slice(len(candidates), len(candidates) + 2 * n + 1)
            for ell in range(-n, n + 1):
                if n == 0:
                    beta = 0.0
                else:
                    half = math.pi * ell / (2.0 * n)
                    beta = math.atan2(math.cos(half), math.sin(half))
                candidates.append((a * j, b * k, beta))
    if not candidates:
        return False

    aj = np.array([c[0] for c in candidates])
    bk = np.array([c[1] for c in candidates])
    beta = np.array([c[2] for c in candidates])
    psi = np.linspace(0.0, 2.0 * math.pi, _COARSE_PSI, endpoint=False)
    classes = ((phi_x, phi_w), (-phi_x, -phi_w))

    def coarse(px, pw, rows):
        return _pair_max_ratio(
            psi[None, :], r, px, s, pw, aj[rows, None], bk[rows, None], beta[rows, None], ra, rb
        )

    # the nearest pair's coarse samples are rows of the full pass below, so
    # a hit among them is the answer that pass would give, found sooner
    near_ratios = [coarse(px, pw, near) for px, pw in classes]
    if any(nr.size and nr.min() <= 1.0 for nr in near_ratios):
        return True
    rest = np.ones(aj.size, dtype=bool)
    rest[near] = False

    for (px, pw), nr in zip(classes, near_ratios):
        ratios = np.empty((aj.size, psi.size))
        ratios[near] = nr
        ratios[rest] = coarse(px, pw, rest)
        if ratios.min() <= 1.0:
            return True
        span = 2.0 * math.pi / _COARSE_PSI
        order = np.argsort(ratios.min(axis=1))
        for idx in order[:8]:
            if ratios[idx].min() > 2.0:
                break
            center = psi[int(np.argmin(ratios[idx]))]
            lo, hi = center - 1.5 * span, center + 1.5 * span

            def f(p, _i=idx, _px=px, _pw=pw):
                return _pair_max_ratio(p, r, _px, s, _pw, aj[_i], bk[_i], beta[_i], ra, rb)

            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1, f2 = f(x1), f(x2)
            for _ in range(60):
                if f1 <= f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _GOLDEN * (hi - lo)
                    f1 = f(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _GOLDEN * (hi - lo)
                    f2 = f(x2)
                if min(f1, f2) <= 1.0 + 1e-9:
                    return True
    return False


def lattice_to_csv(table: LatticeTable, path: str | Path) -> None:
    """Write atoms as CSV with columns j,k,ell,r,s,c,mu."""
    columns = [table.j, table.k, table.ell, table.r, table.s, table.c, table.mu]
    _write_csv(path, "j,k,ell,r,s,c,mu", columns)

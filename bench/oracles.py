"""Reference computations the benchmark checks the library against.

Nothing here imports ``radial_gabor``: grids, norms, Bessel factors and
the covering test are rebuilt from their definitions with numpy/scipy, so
a defect in the library's own numerics cannot hide in its oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma, ive, jv, roots_legendre

PANEL_NODES = 8


def sphere_area(d: int) -> float:
    """|S^(d-1)|."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def grid(theta_max: float, n_points: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 8-node Gauss-Legendre radii on [0, theta_max] and weights
    for integration against |S^(d-1)| theta^(d-1) d theta."""
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    panels = n_points // PANEL_NODES
    h = theta_max / panels
    radii = (np.arange(panels)[:, None] * h + 0.5 * h * (x + 1.0)[None, :]).ravel()
    weights = np.tile(0.5 * h * w, panels) * radii ** (d - 1) * sphere_area(d)
    return radii, weights


def l2_norm(values: np.ndarray, weights: np.ndarray) -> float:
    return math.sqrt(float(np.sum(weights * np.abs(values) ** 2)))


def gaussian_norm(amp: float, alpha: float, d: int) -> float:
    """L2(R^d) norm of theta -> amp exp(-alpha theta^2), in closed form."""
    return abs(amp) * (math.pi / (2.0 * alpha)) ** (d / 4.0)


def gaussian_atom(theta, amp, alpha, d, r, s, c, mu) -> np.ndarray:
    """Normalized frame atom sqrt(mu) e^(i pi r s c) Omega(r, s, c) g for
    g = amp exp(-alpha theta^2), by the closed form

        Omega g = amp e^(-alpha theta^2 - alpha r^2) 0F1(; d/2; theta^2 w),
        w = alpha^2 r^2 - pi^2 s^2 + 2 i alpha pi r s c,

    evaluated as Gamma(a+1) z^-a ive(a, 2z) e^(Re 2z) with z = theta sqrt(w)
    and a = (d-2)/2 (the scaled Bessel function keeps theta r ~ 100 finite).
    """
    a = (d - 2) / 2.0
    w = alpha**2 * r * r - math.pi**2 * s * s + 2j * alpha * math.pi * r * s * c
    z = np.asarray(theta, dtype=float) * np.sqrt(complex(w))
    small = np.abs(z) < 1e-150
    zs = np.where(small, 1.0, z)
    hyp = gamma(a + 1.0) * zs ** (-a) * ive(a, 2.0 * zs) * np.exp(2.0 * zs.real)
    hyp = np.where(small, 1.0, hyp)
    phase = complex(math.cos(math.pi * r * s * c), math.sin(math.pi * r * s * c))
    return math.sqrt(mu) * phase * amp * np.exp(-alpha * theta**2 - alpha * r * r) * hyp


def spline_window(radii: np.ndarray, values: np.ndarray, theta_max: float):
    """The radial window a profile CSV defines: the not-a-knot cubic spline
    through its samples, zero beyond theta_max."""
    spline = CubicSpline(radii, values, bc_type="not-a-knot")
    return lambda t: np.where(t <= theta_max, spline(t), 0.0)


def plane_wave_average(m: int, t: np.ndarray) -> np.ndarray:
    """B_m(t), the average of exp(2 pi i t u_1) over u in S^(m-1):
    Gamma(m/2) (pi t)^(1 - m/2) J_(m/2 - 1)(2 pi t), with B_1 = cos(2 pi t)."""
    if m == 1:
        return np.cos(2.0 * math.pi * t)
    nu = m / 2.0 - 1.0
    pos = t > 0.0
    tp = np.where(pos, t, 1.0)
    val = math.gamma(m / 2.0) * (math.pi * tp) ** (-nu) * jv(nu, 2.0 * math.pi * tp)
    return np.where(pos, val, 1.0)


def quadrature_atom(window, theta, d, r, s, c, mu, theta_max) -> np.ndarray:
    """Normalized frame atom by the phi-integral of the rotation-averaged
    shift, on a Gauss-Legendre rule twice as fine as the oscillation needs."""
    n_phi = 2 * 32 * math.ceil(max(64, 8.0 * (1.0 + theta_max * (r + s))) / 32)
    x, w = roots_legendre(n_phi)
    phi = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    th = np.asarray(theta, dtype=float)[:, None]
    cos_phi = np.cos(phi)[None, :]
    sin_phi = np.sin(phi)[None, :]
    shifted = window(np.sqrt(np.maximum(th * th - 2.0 * r * th * cos_phi + r * r, 0.0)))
    sin_alpha = math.sqrt(max(0.0, 1.0 - c * c))
    integrand = (
        shifted
        * np.exp(2j * math.pi * s * c * th * cos_phi)
        * plane_wave_average(d - 1, s * sin_alpha * th * sin_phi)
        * sin_phi ** (d - 2)
    )
    values = sphere_area(d - 1) / sphere_area(d) * (integrand @ w)
    phase = complex(math.cos(math.pi * r * s * c), math.sin(math.pi * r * s * c))
    return math.sqrt(mu) * phase * values


class CoveringOracle:
    """Brute-force d = 2 covering test over lattice rows (j, k, c).

    A point (x, omega) is covered when some atom, rotated by psi (or by
    psi after the reflection that flips the relative angle), has
    max(|x - R a j|^2 / a^2, |omega - R b k e^(i beta)|^2 / b^2) <= 1, with
    cos beta = c.  The minimum over a dense psi grid is an upper bound of
    the true minimum; subtracting the Lipschitz bound times half a step
    gives a lower bound.  Verdicts inside the margin, or not separated by
    the bounds, are returned as None (undecided).
    """

    def __init__(self, j, k, c, a: float, b: float, n_psi: int = 8192, margin: float = 1e-3):
        self.aj = a * np.asarray(j, dtype=float)
        self.bk = b * np.asarray(k, dtype=float)
        self.beta = np.arccos(np.clip(np.asarray(c, dtype=float), -1.0, 1.0))
        self.a, self.b, self.n_psi, self.margin = a, b, n_psi, margin

    def _bounds(self, sel, r, phi_x, s, phi_w, n_psi):
        psi = np.arange(n_psi) * (2.0 * math.pi / n_psi)
        aj, bk, beta = self.aj[sel, None], self.bk[sel, None], self.beta[sel, None]
        lip = np.maximum(2.0 * aj * r / self.a**2, 2.0 * bk * s / self.b**2)[:, 0]
        best = np.full(sel.size, np.inf)
        for px, pw in ((phi_x, phi_w), (-phi_x, -phi_w)):
            dx = (r * r + aj * aj - 2.0 * aj * r * np.cos(px - psi)) / self.a**2
            dw = (s * s + bk * bk - 2.0 * bk * s * np.cos(pw - beta - psi)) / self.b**2
            best = np.minimum(best, np.maximum(dx, dw).min(axis=1))
        return best, best - lip * math.pi / n_psi

    def verdict(self, x, omega) -> bool | None:
        r, s = math.hypot(x[0], x[1]), math.hypot(omega[0], omega[1])
        phi_x = math.atan2(x[1], x[0])
        phi_w = math.atan2(omega[1], omega[0])
        # |x - R a j| >= | |x| - a j |, so only rows within one step can cover
        sel = np.flatnonzero((np.abs(self.aj - r) <= self.a) & (np.abs(self.bk - s) <= self.b))
        n_psi = self.n_psi
        for _ in range(2):  # second pass: 16x finer grid on the open rows only
            if sel.size == 0:
                return False
            upper, lower = self._bounds(sel, r, phi_x, s, phi_w, n_psi)
            if upper.min() <= 1.0 - self.margin:
                return True
            sel = sel[lower < 1.0 + self.margin]
            n_psi *= 16
        return False if sel.size == 0 else None

"""Rotation-averaged time-frequency shifts of radial windows and the
radial short-time Fourier transform built from them.

The average of the Schroedinger time-frequency shift over all rotations of
a phase-space point (x, omega) maps radial functions to radial functions
and depends only on the orbit invariants (r, s, c) = (|x|, |omega|,
cos of the angle between x and omega).  Acting on a radial part f0 it is
the single integral

    (|S^(d-2)| / |S^(d-1)|) * int_0^pi f0(sqrt(theta^2 - 2 r theta cos(phi)
        + r^2)) * exp(2 pi i theta s c cos(phi))
        * B_(d-1)(theta s sin(alpha) sin(phi)) * sin(phi)^(d-2) d phi,

evaluated here by Gauss-Legendre quadrature on [0, pi] with the node count
of ``phi_node_count``, which grows with the oscillation theta_max * (r + s).

For a Gaussian g(theta) = A exp(-alpha theta^2) the average is exact,

    A exp(-alpha theta^2 - alpha r^2) * 0F1(; d/2; theta^2 w),
    w = alpha^2 r^2 - pi^2 s^2 + 2 i alpha pi r s c,

and ``_gaussian_shift_values`` evaluates it through the exponentially
scaled Bessel function ``scipy.special.ive``.  Where r s c = 0 (the ell = 0
atom of every ring, and the rings with r = 0 or s = 0) w is real, and the
closed form takes real-argument functions instead: B_d for w < 0 and the
scaled modified Bessel function I_nu for w >= 0 (at d = 2, ``j0`` and
``i0e`` take a sixth to an eighth of the time of the complex ``ive``
call).  ``build_frame`` uses it for ``GaussianSpec``
windows; ``rot_avg_shift`` and ``radial_stft`` always integrate, so the
closed form and the quadrature check each other.

Both kernels return the values at (r, s, c) and at the mirror point
(r, s, -c) together: the mirror differs only in the sign of the odd part
of the oscillatory factor, so ``build_frame`` fills the lattice atoms at
+ell and -ell of a ring from one evaluation.

``stft_direct_2d`` is a deliberately independent tensor-quadrature STFT in
d = 2, used as an oracle by the tests and the acceptance suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma, i0e, ive, roots_legendre

from .bessel import sph_bessel_values
from .profiles import GaussianSpec, RadialProfile, inner, sphere_area

__all__ = [
    "OrbitPoint",
    "phi_node_count",
    "rot_avg_shift",
    "radial_stft",
    "stft_direct_2d",
    "stft_rotation_average_2d",
]


@dataclass(frozen=True)
class OrbitPoint:
    """Rotation-invariant coordinates of a phase-space pair.

    r = |x|, s = |omega|, c = cos of the angle between x and omega.
    When r or s vanishes the angle is meaningless and c is normalized to 1.
    """

    r: float
    s: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.r < math.inf and 0.0 <= self.s < math.inf):
            name, radius = ("r", self.r) if not 0.0 <= self.r < math.inf else ("s", self.s)
            raise ValueError(f"parameter {name}: orbit radius must be nonnegative and finite, got {radius}")
        if not abs(self.c) <= 1.0 + 1e-12:
            raise ValueError(f"parameter c: |c| must not exceed 1, got {self.c}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "s", float(self.s))
        c = min(1.0, max(-1.0, float(self.c)))
        if self.r == 0.0 or self.s == 0.0:
            c = 1.0
        object.__setattr__(self, "c", c)


@lru_cache(maxsize=128)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    return x, w


def _gl_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# A quadrature pass holds several (n_points, nodes) float64 arrays (window
# samples, kernel, phases).  At the CLI's 1024-point grid, 2^27 samples
# (1 GiB) per array allow 2^17 nodes; larger counts are refused before
# anything is allocated.  Frame builds up to J = 24 need a few hundred.
_MAX_PHI_NODES = 2**27 // 1024


def phi_node_count(theta_max: float, r: float, s: float) -> int:
    """Gauss-Legendre node count on [0, pi] for the orbit (r, s): the
    oscillation-resolving minimum 8 (1 + theta_max (r + s)), at least 64,
    rounded up to a multiple of 32 so rules can be cached across lattice
    rings.  A ValueError naming r or s refuses a count above
    ``_MAX_PHI_NODES``, whose sample arrays cannot be allocated."""
    need = 8.0 * (1.0 + theta_max * s + theta_max * r)
    if not need <= _MAX_PHI_NODES:
        name = "r" if r >= s else "s"
        raise ValueError(
            f"parameter {name}: the orbit (r, s) = ({r:g}, {s:g}) needs {need:.3g} phi-quadrature "
            f"nodes at theta_max = {theta_max:g}, above the {_MAX_PHI_NODES} that can be allocated"
        )
    return ((max(64, math.ceil(need)) + 31) // 32) * 32


def _shifted_window_samples(
    window: RadialProfile, r: float, quad_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Window samples on the shifted radius sqrt(theta^2 - 2 r theta cos(phi)
    + r^2); shared by every angle index on one lattice ring."""
    phi, w_phi = _gl_on(0.0, math.pi, quad_nodes)
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    theta = window.radii[:, None]
    # (theta - r cos phi)^2 + (r sin phi)^2 expanded; the clamp absorbs rounding
    radicand = theta**2 - 2.0 * r * theta * cos_phi[None, :] + r * r
    fvals = window.evaluate(np.sqrt(np.maximum(radicand, 0.0)))
    return fvals, cos_phi, sin_phi, w_phi


def _averaged_shift_values(
    window: RadialProfile,
    point: OrbitPoint,
    quad_nodes: int,
    ring: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged shift of ``window`` at ``point`` and at its mirror (r, s, -c),
    from one pass over the phi grid.

    The two integrands share the window samples, the B_(d-1) factor and
    cos(2 pi theta s c cos(phi)); only the sign of the sine part differs.
    With E = (K cos) @ w and O = (K sin) @ w the values are E + iO at c and
    E - iO at -c, for complex windows as well as real ones.
    """
    d = window.dim
    if ring is None:
        ring = _shifted_window_samples(window, point.r, quad_nodes)
    fvals, cos_phi, sin_phi, w_phi = ring
    theta = window.radii[:, None]
    s, c = point.s, point.c
    sin_alpha = math.sqrt(max(0.0, 1.0 - c * c))

    kernel = fvals
    if s != 0.0 and sin_alpha != 0.0:
        kernel = kernel * sph_bessel_values(d - 1, (s * sin_alpha) * theta * sin_phi[None, :])
    if d > 2:
        kernel = kernel * sin_phi[None, :] ** (d - 2)

    prefactor = sphere_area(d - 1) / sphere_area(d)
    if s == 0.0 or c == 0.0:
        values = (prefactor * (kernel @ w_phi)).astype(complex)
        return values, values
    # split the oscillatory factor into real transcendentals; complex exp
    # on large grids costs several times two real ones
    phase_arg = (2.0 * math.pi * s * c) * theta * cos_phi[None, :]
    even = (kernel * np.cos(phase_arg)) @ w_phi
    odd = (kernel * np.sin(phase_arg)) @ w_phi
    return prefactor * (even + 1j * odd), prefactor * (even - 1j * odd)


def _gaussian_shift_values(
    g: GaussianSpec, radii: np.ndarray, d: int, point: OrbitPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the averaged shift of g(theta) = A exp(-alpha theta^2)
    at ``radii``, at ``point`` and at its mirror (r, s, -c):
    A exp(-alpha theta^2 - alpha r^2) 0F1(; d/2; theta^2 w) with
    w = alpha^2 r^2 - pi^2 s^2 + 2 i alpha pi r s c.

    0F1 is evaluated as Gamma(nu+1) z^-nu ive(nu, 2z) exp(2 Re z), with
    nu = (d-2)/2 and z = theta sqrt(w).  Re sqrt(w) <= alpha r, so the
    combined exponent is at most -alpha (theta - r)^2 and nothing overflows.
    The mirror has conj(w), and ive(nu, conj z) = conj ive(nu, z), so its
    values are A conj(u) for the unit-amplitude values u at ``point``.

    When r s c = 0, w is real and so is u, which is then also the mirror
    value; ``_gaussian_real_axis`` evaluates it without complex arithmetic.
    """
    r, s, c = point.r, point.s, point.c
    alpha = g.alpha
    w_re = alpha * alpha * r * r - math.pi**2 * s * s
    exponent = -alpha * (radii * radii + r * r)
    if r * s * c == 0.0:
        u = _gaussian_real_axis(radii, d, w_re, exponent)
        return g.amp * u, g.amp * u
    nu = 0.5 * (d - 2)
    z = radii * cmath.sqrt(complex(w_re, 2.0 * alpha * math.pi * r * s * c))
    out = np.exp(exponent).astype(complex)
    # below |z| = 1e-8 the series 1 + z^2/(nu+1) + ... of 0F1 is 1 to
    # roundoff, while z^-nu overflows as z -> 0 (the origin atom has z = 0)
    big = np.abs(z) > 1e-8
    zb = z[big]
    out[big] = (gamma(nu + 1.0) * zb ** (-nu) * ive(nu, 2.0 * zb)
                * np.exp(2.0 * zb.real + exponent[big]))
    return g.amp * out, g.amp * np.conj(out)


def _gaussian_real_axis(radii: np.ndarray, d: int, w: float, exponent: np.ndarray) -> np.ndarray:
    """exp(exponent) 0F1(; d/2; theta^2 w) at theta = ``radii`` for real w.

    For w < 0 this is exp(exponent) B_d(theta sqrt(-w) / pi).  For w >= 0 it
    is Gamma(nu+1) z^-nu I_nu(2z) exp(exponent) with z = theta sqrt(w),
    evaluated scaled as in ``_gaussian_shift_values``; w = 0 leaves
    exp(exponent) through the small-z guard.
    """
    if w < 0.0:
        return np.exp(exponent) * sph_bessel_values(d, radii * (math.sqrt(-w) / math.pi))
    nu = 0.5 * (d - 2)
    z = radii * math.sqrt(w)
    out = np.exp(exponent)
    big = z > 1e-8
    zb = z[big]
    # the Cephes i0e takes about a sixth of the time of ive on 1024 points
    scaled_iv = i0e(2.0 * zb) if d == 2 else ive(nu, 2.0 * zb)
    out[big] = gamma(nu + 1.0) * zb ** (-nu) * scaled_iv * np.exp(2.0 * zb + exponent[big])
    return out


def rot_avg_shift(window: RadialProfile, point: OrbitPoint) -> RadialProfile:
    """Apply the rotation-averaged time-frequency shift at ``point`` to a
    radial profile, sampled on the profile's own grid with the node count
    of ``phi_node_count`` (a ValueError naming r or s above its cap).

    The result is linear in ``window`` and contractive in L2 norm (the
    operator is an average of unitaries).
    """
    nodes = phi_node_count(window.theta_max, point.r, point.s)
    return window.with_values(_averaged_shift_values(window, point, nodes)[0])


def radial_stft(f: RadialProfile, g: RadialProfile, point: OrbitPoint) -> complex:
    """Radial STFT coefficient <f, pi(point) g> with the half-phase
    convention exp(-i pi r s c); its magnitude is what coefficients and
    norms use downstream."""
    shifted = rot_avg_shift(g, point)
    phase = complex(math.cos(math.pi * point.r * point.s * point.c),
                    -math.sin(math.pi * point.r * point.s * point.c))
    return phase * inner(f, shifted)


# ----------------------------------------------------------------------
# direct 2-d oracles (tensor quadrature, no radial reduction)
# ----------------------------------------------------------------------

def _gaussian_halfwidth(fn) -> float:
    if isinstance(fn, GaussianSpec):
        # |amp| e^(-alpha w^2) ~ 1e-18
        return math.sqrt(41.0 / fn.alpha)
    return 4.5


def stft_direct_2d(f, g, x: np.ndarray, omega: np.ndarray) -> complex:
    """Short-time Fourier transform in d = 2 by direct tensor quadrature:
    int f(t) conj(g(t - x)) exp(-2 pi i t.omega) dt.

    f and g are analytic radial evaluators with decay (for example
    ``GaussianSpec``); accuracy target 1e-7 for Gaussian-type inputs.
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    half = max(_gaussian_halfwidth(f), _gaussian_halfwidth(g))
    center = 0.5 * x
    width = half + 0.5 * float(np.linalg.norm(x))
    freq = float(np.linalg.norm(omega)) + 1.0
    nodes_per_axis = max(64, math.ceil(2.0 * math.pi * width * freq) + 32)
    nodes_per_axis = ((nodes_per_axis + 31) // 32) * 32
    t1, w1 = _gl_on(center[0] - width, center[0] + width, nodes_per_axis)
    t2, w2 = _gl_on(center[1] - width, center[1] + width, nodes_per_axis)

    rad_f = np.sqrt(t1[:, None] ** 2 + t2[None, :] ** 2)
    rad_g = np.sqrt((t1[:, None] - x[0]) ** 2 + (t2[None, :] - x[1]) ** 2)
    phase1 = np.exp(-2.0j * math.pi * omega[0] * t1) * w1
    phase2 = np.exp(-2.0j * math.pi * omega[1] * t2) * w2
    grid = np.asarray(f(rad_f), dtype=complex) * np.conj(np.asarray(g(rad_g), dtype=complex))
    return complex(phase1 @ grid @ phase2)


def stft_rotation_average_2d(f, g, x: np.ndarray, omega: np.ndarray, n_psi: int = 192) -> complex:
    """Average of the direct STFT over simultaneous rotations of (x, omega),
    by trapezoid quadrature in the rotation angle (the integrand is smooth
    and 2 pi periodic, so the trapezoid rule converges geometrically)."""
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    total = 0.0 + 0.0j
    for psi in np.arange(n_psi) * (2.0 * math.pi / n_psi):
        rot = np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])
        total += stft_direct_2d(f, g, rot @ x, rot @ omega)
    return total / n_psi

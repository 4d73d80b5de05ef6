"""Bessel functions of the first kind and the normalized spherical average B_d.

``bessel_j`` is J_nu for integer and half-integer orders nu >= 0, through
``scipy.special.jv``.  ``sph_bessel_values`` is B_d(t), the average of
exp(2*pi*i*t*eta.xi) over the unit sphere S^{d-1}, with a = (d-2)/2:

    B_d(t) = 0F1(; d/2; -(pi t)^2) = Gamma(a+1) (pi t)^(-a) J_a(2 pi t),

one ``scipy.special.hyp0f1`` call, exact for every d >= 2 including t = 0;
the closed forms B_1 = cos(2 pi t) (more accurate), B_2 = J_0(2 pi t) through
``scipy.special.j0`` (about 1.5 times faster, as accurate) and
B_3 = sinc(2t) (four times faster) replace it there.  ``sph_bessel`` is the
scalar wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "BesselOrder",
    "bessel_j",
    "sph_bessel",
    "sph_bessel_values",
    "lanczos_gamma",
]


@dataclass(frozen=True)
class BesselOrder:
    """Order nu = twice_order / 2, so integer and half-integer orders share
    one exact representation."""

    twice_order: int

    def __post_init__(self) -> None:
        if self.twice_order < 0:
            raise ValueError("twice_order must be >= 0")

    @property
    def value(self) -> float:
        return self.twice_order / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_order % 2 == 0

    @classmethod
    def from_value(cls, nu: float | int | "BesselOrder") -> "BesselOrder":
        if isinstance(nu, BesselOrder):
            return nu
        t = 2.0 * float(nu)
        ti = round(t)
        if abs(t - ti) > 1e-12:
            raise ValueError(f"order {nu} is neither integer nor half-integer")
        return cls(int(ti))


def lanczos_gamma(x: float) -> float:
    """Gamma(x) for x > 0 (``math.gamma``; the name is kept for callers)."""
    if x <= 0.0:
        raise ValueError("lanczos_gamma requires x > 0")
    return math.gamma(x)


def bessel_j(order: BesselOrder | float | int, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for nu >= 0 integer or
    half-integer and x >= 0."""
    o = BesselOrder.from_value(order)
    if float(x) < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    return float(special.jv(o.value, float(x)))


def sph_bessel_values(d: int, t: np.ndarray) -> np.ndarray:
    """B_d on an array of t >= 0, to ~1e-14 absolute: closed forms for
    d = 1, 2, 3 (cos, j0, sinc), ``hyp0f1`` otherwise."""
    if d < 1:
        raise ValueError("sph_bessel_values requires d >= 1")
    t = np.asarray(t, dtype=float)
    if d == 1:
        return np.cos(2.0 * math.pi * t)
    if d == 2:
        return special.j0(2.0 * math.pi * t)
    if d == 3:
        return np.sinc(2.0 * t)
    return special.hyp0f1(d / 2.0, -((math.pi * t) ** 2))


def sph_bessel(d: int, t: float) -> float:
    """Spherical average B_d(t) of a plane wave of frequency t over S^{d-1}.

    Satisfies B_1(t) = cos(2 pi t), B_2(t) = J_0(2 pi t),
    B_3(t) = sin(2 pi t)/(2 pi t), B_d(0) = 1 and |B_d| <= 1.
    """
    if d < 1:
        raise ValueError("sph_bessel requires d >= 1")
    t = float(t)
    if t < 0.0:
        raise ValueError("sph_bessel requires t >= 0")
    return float(sph_bessel_values(d, t))

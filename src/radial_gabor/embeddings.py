"""Embedding and compactness classification for radial modulation spaces,
with the sequence-space machinery behind it.

The source and target spaces carry weights (1 + |omega|)^s and
(1 + |omega|)^t; with alpha = 1/p - 1/q and p <= q the embedding is
continuous iff t - s <= alpha (d - 1) and compact iff additionally p < q
and the inequality is strict.  For p > q nothing embeds at any s, t, d
(see ``classify_embedding``).  All exponent arithmetic is written so
that exact rational inputs (``fractions.Fraction``) pass through
unharmed, and p = infinity or q = infinity contribute 1/inf = 0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import LatticeTable

__all__ = [
    "EmbeddingStatus",
    "EmbeddingQuery",
    "EmbeddingVerdict",
    "classify_embedding",
    "h_sequence",
    "rearrange",
    "carl_exponent",
    "entropy_exponent",
    "approx_number_exponent",
    "sigma_tail",
    "fit_decay_slope",
]


def _inv(p):
    """1/p with 1/inf = 0 exactly; keeps Fractions exact."""
    if p == math.inf:
        return 0
    return 1 / p


def _validate_exponent(p, name: str) -> None:
    if p != math.inf and not 1 <= p:
        raise ValueError(f"parameter {name}: must lie in [1, inf], got {p}")


class EmbeddingStatus(str, Enum):
    NOT_EMBEDDED = "NotEmbedded"
    CONTINUOUS = "Continuous"
    COMPACT = "Compact"


@dataclass(frozen=True)
class EmbeddingQuery:
    """Source space (p, weight exponent s) against target (q, t) in
    dimension d."""

    p: float
    q: float
    s: float
    t: float
    d: int

    def __post_init__(self) -> None:
        _validate_exponent(self.p, "p")
        _validate_exponent(self.q, "q")
        for name in ("s", "t"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"parameter {name}: must be a number, got nan")
        if math.isnan(self.t - self.s):
            raise ValueError(f"parameters s, t: t - s is undefined at s = t = {self.s}")
        if self.d < 2:
            raise ValueError(f"parameter d: dimension must be at least 2, got {self.d}")


@dataclass(frozen=True)
class EmbeddingVerdict:
    status: EmbeddingStatus
    alpha: float
    threshold: float


def classify_embedding(query: EmbeddingQuery) -> EmbeddingVerdict:
    """Exact-arithmetic embedding decision for every (p, q).

    For p > q nothing embeds (threshold -inf): ``h_sequence``'s map is bounded
    l^p -> l^q iff sum h^r < inf with 1/r = 1/q - 1/p, and on the k = 0
    rings h^r = mu = j^(d-1) + 1 whatever s and t are, so the sum diverges.
    """
    p, q = query.p, query.q
    alpha = _inv(p) - _inv(q)
    if p > q:
        return EmbeddingVerdict(EmbeddingStatus.NOT_EMBEDDED, alpha, -math.inf)
    threshold = alpha * (query.d - 1)
    diff = query.t - query.s
    if diff > threshold:
        status = EmbeddingStatus.NOT_EMBEDDED
    elif p < q and diff < threshold:
        status = EmbeddingStatus.COMPACT
    else:
        status = EmbeddingStatus.CONTINUOUS
    return EmbeddingVerdict(status, alpha, threshold)


def h_sequence(lat: LatticeTable, query: EmbeddingQuery) -> np.ndarray:
    """Weight-ratio sequence (1 + b k)^(t-s) mu^(-alpha) on the lattice,
    with b = ``lat.spec.b``; bounded iff the embedding is continuous,
    vanishing iff compact."""
    alpha = float(_inv(query.p) - _inv(query.q))
    if alpha < 0.0:
        raise ValueError("h_sequence requires p <= q")
    return (1.0 + lat.spec.b * lat.k.astype(float)) ** (query.t - query.s) * lat.mu ** (-alpha)


def rearrange(v) -> np.ndarray:
    """Non-increasing rearrangement; ties keep their original order."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("rearrange expects a 1-d sequence")
    if np.any(v < 0.0):
        raise ValueError("rearrange expects nonnegative entries")
    return v[np.argsort(-v, kind="stable")]


def carl_exponent(p, q, r):
    """Entropy-number exponent 1/s = 1/r + 1/p - 1/q for the embedding
    l^p -> l^q_w with a weight in the Lorentz space of exponent r."""
    _validate_exponent(p, "p")
    _validate_exponent(q, "q")
    if not r > 0:
        raise ValueError("r must be positive")
    return 1 / r + _inv(p) - _inv(q)


def entropy_exponent(p, q, r):
    """Entropy-number decay exponent of the radial modulation-space
    embedding when the inverse measure sequence decays like n^(-1/r).

    The embedding weight is the alpha power of the inverse measures, so its
    Lorentz exponent is r / alpha and the composed rate is
    (1/p - 1/q) (1 + 1/r); with r = 3/(d-1) this is (d+2)/3 (1/p - 1/q).
    """
    _validate_exponent(p, "p")
    _validate_exponent(q, "q")
    if not r > 0:
        raise ValueError("r must be positive")
    if p > q:
        raise ValueError("entropy_exponent requires p <= q")
    alpha = _inv(p) - _inv(q)
    if alpha == 0:
        return 0 * alpha
    return carl_exponent(p, q, r / alpha)


def approx_number_exponent(p, q, d):
    """Approximation-number decay exponent (d-1)/3 (1/p - 1/q)."""
    _validate_exponent(p, "p")
    _validate_exponent(q, "q")
    if p > q:
        raise ValueError("approx_number_exponent requires p <= q")
    return (_inv(p) - _inv(q)) * (d - 1) / 3


def sigma_tail(b, n: int, q) -> float:
    """Tail q-norm (sum_{k >= n} b_k^q)^(1/q) of a non-increasing sequence,
    1-based in n; the sup of the tail when q is infinite."""
    b = np.asarray(b, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.any(np.diff(b) > 0.0):
        raise ValueError("sigma_tail expects a non-increasing sequence")
    tail = b[n - 1 :]
    if tail.size == 0:
        return 0.0
    if q == math.inf:
        return float(tail[0])
    return float(np.sum(tail ** float(q)) ** (1.0 / float(q)))


def fit_decay_slope(n_values, values) -> tuple[float, float]:
    """Least-squares slope of log(values) against log(n) with the rms
    residual of the fit."""
    n_values = np.asarray(n_values, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (n_values > 0) & (values > 0)
    if keep.sum() < 2:
        return math.nan, math.nan
    x = np.log(n_values[keep])
    y = np.log(values[keep])
    coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
    rms = math.sqrt(float(res[0]) / x.size) if res.size else 0.0
    return float(coeffs[0]), rms

"""Probabilistic distance between spherical Gaussian entities.

An entity is a K-means cluster summarized by (mean, spherical variance,
size). The distance between entities l and j is 1 - (p_lj + p_jl)/2, where
p_jl is the probability that a point drawn from l's Gaussian is closer (in
variance-scaled squared distance) to j's center than to its own. The
probabilities come from a noncentral chi-square law in the unequal-variance
case and a plain normal in the equal-variance case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln, ndtr

# "auto" sums the exact Poisson-mixture series up to this df+ncp and uses
# Sankaran's approximation above it; the switch is for cost (the series has
# ~ncp/2 terms), not accuracy, and Sankaran is within ~2e-6 from here on
SERIES_LIMIT = 2000.0

# relative variance gap below which two entities count as equal-variance
EQUAL_VAR_RTOL = 1e-6


@dataclass(frozen=True)
class SphericalCluster:
    """Mean vector, spherical variance and member count of one entity."""

    mean: np.ndarray
    sigma2: float
    size: int

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite entries")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def p(self) -> int:
        return self.mean.size


def variance_floor(data) -> float:
    """Smallest admissible entity variance for this dataset."""
    x = data.values
    total_var = float(((x - x.mean(axis=0)) ** 2).sum()) / (data.n - 1)
    floor = 1e-8 * total_var / data.p
    return floor if floor > 0 else 1e-12


def fit_entity(data, member_indices, floor: float | None = None) -> SphericalCluster:
    """Summarize the given observations as one spherical entity.

    sigma2 is the trace of the sample covariance (divisor n-1) scaled by
    1/p, floored at a tiny fraction of the overall data variance so that
    singleton or collinear entities stay usable.
    """
    idx = np.asarray(member_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("entity needs at least one member")
    if floor is None:
        floor = variance_floor(data)
    xs = data.values[idx]
    mean = xs.mean(axis=0)
    if idx.size == 1:
        sigma2 = floor
    else:
        total_ss = float(((xs - mean) ** 2).sum())
        sigma2 = max(total_ss / ((idx.size - 1) * data.p), floor)
    return SphericalCluster(mean, sigma2, int(idx.size))


def _series_cdf(x: float, df: float, ncp: float) -> float:
    # Poisson(ncp/2) mixture of central chi-square CDFs
    if ncp == 0.0:
        return float(gammainc(df / 2.0, x / 2.0))
    m = ncp / 2.0
    i_max = int(np.ceil(m + 12.0 * np.sqrt(m) + 35.0))
    i = np.arange(i_max + 1)
    log_w = i * np.log(m) - m - gammaln(i + 1.0)
    keep = log_w > -40.0  # weights below ~4e-18 cannot move the sum
    w = np.exp(log_w[keep])
    terms = gammainc(df / 2.0 + i[keep], x / 2.0)
    return float(min(1.0, w @ terms))


def _normal_approx_cdf(x: float, df: float, ncp: float) -> float:
    # Sankaran (1963, Biometrika 50): (X/(df+ncp))^h, h in [1/3, 1/2], is
    # close to normal. The power is taken as expm1(h log1p(.)) so that it
    # keeps its digits at huge ncp, where x/(df+ncp) is 1 to ~1/sqrt(ncp)
    mean = df + ncp
    h = 1.0 - 2.0 / 3.0 * mean * (df + 3.0 * ncp) / (df + 2.0 * ncp) ** 2
    p = (df + 2.0 * ncp) / mean**2
    m = (h - 1.0) * (1.0 - 3.0 * h)
    shifted = math.expm1(h * math.log1p((x - mean) / mean))
    centre = h * p * (h - 1.0 - 0.5 * (2.0 - h) * m * p)
    scale = h * math.sqrt(2.0 * p) * (1.0 + 0.5 * m * p)
    return float(ndtr((shifted - centre) / scale))


def noncentral_chisq_cdf(x: float, df: float, ncp: float, method: str = "auto") -> float:
    """CDF of the noncentral chi-square distribution.

    method "auto" evaluates the exact Poisson-mixture series while
    df + ncp <= SERIES_LIMIT and Sankaran's power-transform normal
    approximation above. The series stays accurate at any ncp, but it sums
    about ncp/2 + 12 sqrt(ncp/2) terms, so the switch saves time, not
    digits. Over df 1-30, Sankaran is within ~2e-6 of the exact CDF at
    ncp=1e3, ~7e-8 at 1e4 and ~1e-10 from 1e6 up to 1e11, past which
    scipy's ncx2 returns NaN while Sankaran stays finite. It is poor at small ncp (~2e-3
    at ncp=10), which is why "auto" keeps the series there.
    "series"/"normal" force one evaluator; "normal" is Sankaran's.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if ncp < 0:
        raise ValueError("ncp must be >= 0")
    if x <= 0:
        return 0.0
    if method == "auto":
        method = "series" if df + ncp <= SERIES_LIMIT else "normal"
    if method == "series":
        return _series_cdf(x, df, ncp)
    if method == "normal":
        return _normal_approx_cdf(x, df, ncp)
    raise ValueError(f"unknown method {method!r}")


def misclass_prob(from_cluster: SphericalCluster, into_cluster: SphericalCluster) -> float:
    """Probability that a point of `from_cluster` is scored closer to
    `into_cluster`'s center than to its own.

    Equal-variance entities give Pr[N(D^2, 4 D^2) < 0] with D the
    variance-scaled center separation (0.5 at D=0 by continuity);
    otherwise the probability comes from a scaled, shifted noncentral
    chi-square with noncentrality s_l^2 ||mu_l-mu_j||^2 / (s_l^2-s_j^2)^2.
    """
    l, j = from_cluster, into_cluster
    if l.p != j.p:
        raise ValueError(f"dimension mismatch: {l.p} vs {j.p}")
    if l.sigma2 <= 0 or j.sigma2 <= 0:
        raise ValueError("entity variances must be positive")

    diff = l.mean - j.mean
    dist_sq = float(diff @ diff)
    if abs(l.sigma2 - j.sigma2) <= EQUAL_VAR_RTOL * max(l.sigma2, j.sigma2):
        if dist_sq == 0.0:
            return 0.5
        delta = np.sqrt(dist_sq / l.sigma2)
        return float(ndtr(-delta / 2.0))

    gap = l.sigma2 - j.sigma2
    x0 = j.sigma2 * dist_sq / gap**2
    ncp = l.sigma2 * dist_sq / gap**2
    cdf = noncentral_chisq_cdf(x0, l.p, ncp) if x0 > 0 else 0.0
    if gap > 0:  # scale (s_l^2/s_j^2 - 1) positive
        return cdf
    return 1.0 - cdf


def cluster_distance(a: SphericalCluster, b: SphericalCluster) -> float:
    """Merge distance 1 - (p_ab + p_ba)/2, symmetric and in [0, 1]."""
    return 1.0 - 0.5 * (misclass_prob(a, b) + misclass_prob(b, a))


def entity_distance_matrix(entities) -> np.ndarray:
    """Symmetric pairwise distance matrix over entities, zero diagonal."""
    K = len(entities)
    if K < 2:
        raise ValueError("need at least 2 entities")
    d = np.zeros((K, K))
    for i in range(K):
        for j in range(i + 1, K):
            d[i, j] = d[j, i] = cluster_distance(entities[i], entities[j])
    return d

"""Probabilistic distance between spherical Gaussian entities.

An entity is a K-means cluster summarized by its mean and spherical
variance. The distance between entities l and j is 1 - (p_lj + p_jl)/2,
where p_lj is the probability that a point drawn from l's Gaussian is closer
(in variance-scaled squared distance) to j's center than to its own.
`misclass_matrix` gives every p_lj at once: a plain normal, in array form,
for equal-variance pairs and a noncentral chi-square law for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln, ndtr

# the CDF sums the exact Poisson-mixture series up to this df+ncp and uses
# Sankaran's approximation above it; the switch is for cost (the series has
# ~ncp/2 terms), not accuracy, and Sankaran is within ~2e-6 from here on
SERIES_LIMIT = 2000.0

# relative variance gap below which two entities count as equal-variance
EQUAL_VAR_RTOL = 1e-6


@dataclass(frozen=True)
class SphericalCluster:
    """Mean vector and spherical variance of one entity: all the merge
    distance reads of a K-means cluster."""

    mean: np.ndarray
    sigma2: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite entries")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma2", float(self.sigma2))


def variance_floor(data) -> float:
    """Smallest admissible entity variance for this dataset."""
    x = data.values
    total_var = float(((x - x.mean(axis=0)) ** 2).sum()) / (data.n - 1)
    floor = 1e-8 * total_var / data.p
    return floor if floor > 0 else 1e-12


def fit_entity(data, member_indices, floor: float) -> SphericalCluster:
    """Summarize the given observations as one spherical entity.

    sigma2 is the trace of the sample covariance (divisor n-1) scaled by
    1/p, floored at `floor` so that singleton or collinear entities stay
    usable; `variance_floor(data)` gives the floor of the whole dataset,
    computed once per run.
    """
    idx = np.asarray(member_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("entity needs at least one member")
    xs = data.values[idx]
    mean = xs.mean(axis=0)
    if idx.size == 1:
        sigma2 = floor
    else:
        total_ss = float(((xs - mean) ** 2).sum())
        sigma2 = max(total_ss / ((idx.size - 1) * data.p), floor)
    return SphericalCluster(mean, sigma2)


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


def noncentral_chisq_cdf(x: float, df: float, ncp: float) -> float:
    """CDF of the noncentral chi-square distribution.

    Evaluates the exact Poisson-mixture series while df + ncp <=
    SERIES_LIMIT and Sankaran's power-transform normal approximation above.
    The series stays accurate at any ncp, but it sums about
    ncp/2 + 12 sqrt(ncp/2) terms, so the switch saves time, not digits.
    Over df 1-30, Sankaran is within ~2e-6 of the exact CDF at ncp=1e3,
    ~7e-8 at 1e4 and ~1e-10 from 1e6 up to 1e11, past which scipy's ncx2
    returns NaN while Sankaran stays finite. It is poor at small ncp
    (~2e-3 at ncp=10), which is why the series covers that range.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if ncp < 0:
        raise ValueError("ncp must be >= 0")
    if x <= 0:
        return 0.0
    if df + ncp <= SERIES_LIMIT:
        return _series_cdf(x, df, ncp)
    return _normal_approx_cdf(x, df, ncp)


def misclass_matrix(entities) -> np.ndarray:
    """(K, K) matrix of p_lj: the probability that a point of entity l is
    scored closer to entity j's center than to its own.

    Equal-variance pairs give Pr[N(D^2, 4 D^2) < 0] with D the
    variance-scaled center separation (0.5 at D=0, as on the diagonal);
    the others a scaled, shifted noncentral chi-square with noncentrality
    s_l^2 ||mu_l-mu_j||^2 / (s_l^2-s_j^2)^2. Ragged means raise ValueError.
    """
    means = np.stack([e.mean for e in entities])
    sigma2 = np.array([e.sigma2 for e in entities])
    diff = means[:, None, :] - means[None, :, :]
    # unlike einsum, a stacked matmul rounds each pair as `diff @ diff` does
    dist_sq = np.matmul(diff[..., None, :], diff[..., None])[..., 0, 0]
    gap = sigma2[:, None] - sigma2[None, :]
    equal = np.abs(gap) <= EQUAL_VAR_RTOL * np.maximum(sigma2[:, None], sigma2[None, :])
    prob = ndtr(-np.sqrt(dist_sq / sigma2[:, None]) / 2.0)

    # unequal pairs stay per pair in Python floats: numpy's power, log1p and
    # expm1 round unlike Python's and math's (on ~0.1% and 1-5% of values)
    s2, d2 = sigma2.tolist(), dist_sq.tolist()
    for l, j in np.argwhere(~equal).tolist():
        gap_lj = s2[l] - s2[j]
        x0 = s2[j] * d2[l][j] / gap_lj**2
        ncp = s2[l] * d2[l][j] / gap_lj**2
        cdf = noncentral_chisq_cdf(x0, means.shape[1], ncp) if x0 > 0 else 0.0
        prob[l, j] = cdf if gap_lj > 0 else 1.0 - cdf
    return prob


def entity_distance_matrix(entities) -> np.ndarray:
    """Merge distances 1 - (p_lj + p_jl)/2 over entities: symmetric, in
    [0, 1], zero diagonal."""
    if len(entities) < 2:
        raise ValueError("need at least 2 entities")
    prob = misclass_matrix(entities)
    d = 1.0 - 0.5 * (prob + prob.T)
    np.fill_diagonal(d, 0.0)
    return d

"""Probabilistic distance between spherical Gaussian entities.

An entity is a K-means cluster summarized by its mean and spherical
variance. The distance between entities l and j is 1 - (p_lj + p_jl)/2,
where p_lj is the probability that a point drawn from l's Gaussian is closer
(in variance-scaled squared distance) to j's center than to its own.
`misclass_matrix` gives every p_lj at once: a plain normal for
equal-variance pairs and a noncentral chi-square law for the others. It is
elementwise array code with no BLAS call, so its bits do not depend on which
BLAS kernel the CPU selects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, expm1, log1p, ndtr

# the CDF takes scipy's exact `chndtr` up to this df+ncp and Sankaran's
# approximation above it; `chndtr` slows with ncp and is NaN from ncp ~1e11,
# and Sankaran is within ~2e-6 from here on
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


def _sankaran_cdf(x, df, ncp):
    # Sankaran (1963, Biometrika 50): (X/(df+ncp))^h, h in [1/3, 1/2], is
    # close to normal. The power is taken as expm1(h log1p(.)) so that it
    # keeps its digits at huge ncp, where x/(df+ncp) is 1 to ~1/sqrt(ncp)
    mean = df + ncp
    spread = df + 2.0 * ncp
    h = 1.0 - 2.0 / 3.0 * mean * (df + 3.0 * ncp) / (spread * spread)
    p = spread / (mean * mean)
    m = (h - 1.0) * (1.0 - 3.0 * h)
    shifted = expm1(h * log1p((x - mean) / mean))
    centre = h * p * (h - 1.0 - 0.5 * (2.0 - h) * m * p)
    scale = h * np.sqrt(2.0 * p) * (1.0 + 0.5 * m * p)
    return ndtr((shifted - centre) / scale)


def noncentral_chisq_cdf(x, df: float, ncp):
    """CDF of the noncentral chi-square distribution, elementwise over x and
    ncp; scalars in, a float out.

    It is 0 where x <= 0, scipy's exact `chndtr` where df + ncp <=
    SERIES_LIMIT and Sankaran's power-transform normal approximation above.
    Over df 1-30, Sankaran is within ~2e-6 of the exact CDF at ncp=1e3,
    ~7e-8 at 1e4 and ~1e-10 from 1e6 up to 1e11, past which `chndtr`
    returns NaN while Sankaran stays finite. It is poor at small ncp
    (~2e-3 at ncp=10), which is why `chndtr` covers that range. Each step
    is an IEEE arithmetic operation, `np.sqrt` (correctly rounded) or a
    scipy ufunc, not numpy's CPU-dispatched log1p and expm1, so an array
    gives its elements' scalar-call bits on any CPU.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    x, ncp = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(ncp, dtype=float))
    if np.any(ncp < 0):
        raise ValueError("ncp must be >= 0")
    cdf = np.zeros(x.shape)
    positive, small = x > 0, df + ncp <= SERIES_LIMIT
    exact, approx = positive & small, positive & ~small
    cdf[exact] = chndtr(x[exact], df, ncp[exact])
    cdf[approx] = _sankaran_cdf(x[approx], df, ncp[approx])
    return float(cdf) if cdf.ndim == 0 else cdf


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
    # one IEEE add per column in column order, so no BLAS kernel sets the bits
    dist_sq = np.zeros((len(entities), len(entities)))
    for col in means.T:
        diff = col[:, None] - col[None, :]
        dist_sq += diff * diff
    gap = sigma2[:, None] - sigma2[None, :]
    equal = np.abs(gap) <= EQUAL_VAR_RTOL * np.maximum(sigma2[:, None], sigma2[None, :])
    prob = ndtr(-np.sqrt(dist_sq / sigma2[:, None]) / 2.0)

    l, j = np.nonzero(~equal)
    d2, g = dist_sq[l, j], gap[l, j]
    cdf = noncentral_chisq_cdf(sigma2[j] * d2 / (g * g), means.shape[1], sigma2[l] * d2 / (g * g))
    prob[l, j] = np.where(g > 0, cdf, 1.0 - cdf)
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

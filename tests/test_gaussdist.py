"""Distance math: noncentral chi-square CDF, misclassification probabilities
against closed forms and the Monte-Carlo quadratic-form oracle."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import ncx2

from kmh.core import DataMatrix
from kmh.gaussdist import (
    EQUAL_VAR_RTOL,
    SERIES_LIMIT,
    SphericalCluster,
    cluster_distance,
    entity_distance_matrix,
    fit_entity,
    misclass_prob,
    noncentral_chisq_cdf,
    variance_floor,
)

_MC_CHUNK = 250_000


def sph(mean, sigma2):
    return SphericalCluster(np.asarray(mean, dtype=float), sigma2)


@dataclass(frozen=True)
class QuadFormSpec:
    """Eigenvalues and shifted-mean coefficients of the quadratic form whose
    law gives the misclassification probability in the general case."""

    lambdas: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        lambdas = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        deltas = np.atleast_1d(np.asarray(self.deltas, dtype=float))
        if lambdas.shape != deltas.shape or lambdas.ndim != 1:
            raise ValueError("lambdas and deltas must be vectors of equal length")
        if np.any(lambdas <= 0):
            raise ValueError("all lambdas must be > 0")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "deltas", deltas)


def quadform_from_spherical(
    from_cluster: SphericalCluster, into_cluster: SphericalCluster
) -> QuadFormSpec:
    """Quadratic-form coefficients for a pair of spherical entities: all
    eigenvalues equal the variance ratio, deltas are the scaled mean gap."""
    l, j = from_cluster, into_cluster
    if l.p != j.p:
        raise ValueError(f"dimension mismatch: {l.p} vs {j.p}")
    lambdas = np.full(l.p, l.sigma2 / j.sigma2)
    deltas = (l.mean - j.mean) / np.sqrt(l.sigma2)
    return QuadFormSpec(lambdas, deltas)


def theorem1_mc_cdf(spec: QuadFormSpec, x: float, draws: int, seed: int = 0) -> float:
    """Monte-Carlo CDF of the quadratic-form law at x.

    Samples the representation sum_i [(lam_i - 1) U_i - lam_i d_i^2/(lam_i - 1)]
    over the lam_i != 1 coordinates (U_i noncentral chi-square, 1 df) plus
    sum_i d_i (2 Z_i + d_i) over the lam_i = 1 ones. Draws landing exactly
    on x count half, so atoms are scored by the continuity convention.
    """
    if draws < 10_000:
        raise ValueError("draws must be >= 10000")
    lam, delta = spec.lambdas, spec.deltas
    ne = lam != 1.0
    eq = ~ne
    lam_ne, delta_ne = lam[ne], delta[ne]
    delta_eq = delta[eq]
    shift = float((-lam_ne * delta_ne**2 / (lam_ne - 1.0)).sum())
    root_ncp = np.abs(lam_ne * delta_ne / (lam_ne - 1.0))

    rng = np.random.default_rng(seed)
    below = 0.0
    at = 0.0
    remaining = draws
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        y = np.full(m, shift)
        if lam_ne.size:
            z = rng.standard_normal((m, lam_ne.size))
            u = (z + root_ncp) ** 2
            y += u @ (lam_ne - 1.0)
        if delta_eq.size:
            z = rng.standard_normal((m, delta_eq.size))
            y += (2.0 * z + delta_eq) @ delta_eq
        below += np.count_nonzero(y < x)
        at += np.count_nonzero(y == x)
    return float((below + 0.5 * at) / draws)


class TestNoncentralChisq:
    def test_central_chisq2_closed_form(self):
        assert noncentral_chisq_cdf(2.0, 2, 0.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_df1_closed_form(self):
        # F(x) = Phi(sqrt(x) - sqrt(ncp)) - Phi(-sqrt(x) - sqrt(ncp))
        for x, ncp in [(1.0, 1.0), (2.5, 0.5), (0.3, 4.0)]:
            want = ndtr(math.sqrt(x) - math.sqrt(ncp)) - ndtr(-math.sqrt(x) - math.sqrt(ncp))
            assert noncentral_chisq_cdf(x, 1, ncp) == pytest.approx(want, abs=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 400, 100)
        for df, ncp in [(2, 0.0), (5, 50.0), (10, 150.0)]:
            vals = [noncentral_chisq_cdf(x, df, ncp) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_negative_x_and_bad_args(self):
        assert noncentral_chisq_cdf(-1.0, 2, 1.0) == 0.0
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(1.0, 2, -0.5)
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(1.0, 0, 0.5)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            df = int(rng.integers(1, 30))
            ncp = float(rng.uniform(0, 500))
            x = float(rng.uniform(0, df + ncp + 4 * math.sqrt(df + ncp)))
            want = ncx2.cdf(x, df, ncp) if ncp > 0 else None
            got = noncentral_chisq_cdf(x, df, ncp)
            if want is not None:
                assert got == pytest.approx(want, abs=1e-8)

    def test_auto_above_series_limit_matches_scipy(self):
        for df in (1, 2, 5, 10, 30):
            for ncp in (2e3, 1e4, 1e5, 1e6, 1e7, 1e9):
                assert df + ncp > SERIES_LIMIT
                sd = math.sqrt(2.0 * (df + 2.0 * ncp))
                for z in np.linspace(-6.0, 6.0, 25):
                    x = df + ncp + z * sd
                    got = noncentral_chisq_cdf(x, df, ncp)
                    assert got == pytest.approx(ncx2.cdf(x, df, ncp), abs=1e-5)

    def test_auto_above_series_limit_df1_closed_form(self):
        ncp = 1e4
        sd = math.sqrt(2.0 * (1.0 + 2.0 * ncp))
        for z in np.linspace(-6.0, 6.0, 25):
            x = 1.0 + ncp + z * sd
            want = ndtr(math.sqrt(x) - math.sqrt(ncp)) - ndtr(-math.sqrt(x) - math.sqrt(ncp))
            assert noncentral_chisq_cdf(x, 1, ncp) == pytest.approx(want, abs=1e-5)

    def test_extreme_ncp_finite_and_monotone(self):
        # scipy's ncx2 is NaN here; the pipeline reaches ncp ~ 4e11
        xs = 1e12 * np.linspace(1.0 - 1e-6, 1.0 + 1e-6, 201)
        vals = [noncentral_chisq_cdf(x, 2, 1e12) for x in xs]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# largest |CDF - scipy ncx2.cdf| allowed on each side of SERIES_LIMIT: the
# series is exact, and Sankaran's approximation is within ~2e-6 from the
# limit up (see noncentral_chisq_cdf)
SERIES_ABS = 1e-10
SANKARAN_ABS = 2e-6


@st.composite
def cdf_args(draw, log10_ncp_min: float, log10_ncp_max: float):
    """(x, df, ncp) with ncp log-uniform in the given decades and x within
    10 standard deviations of the mean df + ncp."""
    df = draw(st.integers(1, 30))
    ncp = 10.0 ** draw(st.floats(log10_ncp_min, log10_ncp_max))
    z = draw(st.floats(-10.0, 10.0))
    return df + ncp + z * math.sqrt(2.0 * (df + 2.0 * ncp)), df, ncp


@settings(derandomize=True, max_examples=200, deadline=None)
@given(args=cdf_args(-3.0, math.log10(SERIES_LIMIT - 30.0)))
def test_series_side_matches_scipy(args):
    x, df, ncp = args
    assert df + ncp <= SERIES_LIMIT
    want = ncx2.cdf(x, df, ncp)
    assert noncentral_chisq_cdf(x, df, ncp) == pytest.approx(want, abs=SERIES_ABS)


# scipy's ncx2 returns NaN from ncp ~ 1e11, so the reference stops at 1e10
@settings(derandomize=True, max_examples=200, deadline=None)
@given(args=cdf_args(math.log10(SERIES_LIMIT), 10.0))
def test_sankaran_side_matches_scipy(args):
    x, df, ncp = args
    assert df + ncp > SERIES_LIMIT
    want = ncx2.cdf(x, df, ncp)
    assert noncentral_chisq_cdf(x, df, ncp) == pytest.approx(want, abs=SANKARAN_ABS)


class TestMisclassProb:
    def test_identical_clusters(self):
        c = sph([0, 0], 1.0)
        assert misclass_prob(c, c) == 0.5

    def test_equal_sigma_delta_two(self):
        a = sph([0, 0], 1.0)
        b = sph([2, 0], 1.0)
        assert misclass_prob(a, b) == pytest.approx(ndtr(-1.0), abs=1e-12)

    def test_concentric_smaller_into_larger(self):
        inner = sph([0, 0, 0], 1.0)
        outer = sph([0, 0, 0], 4.0)
        assert misclass_prob(inner, outer) == 1.0
        assert misclass_prob(outer, inner) == 0.0

    def test_translation_and_rotation_invariance(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=3)
        shift = rng.normal(size=3)
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0],
                [math.sin(theta), math.cos(theta), 0],
                [0, 0, 1],
            ]
        )
        a, b = sph(np.zeros(3), 1.3), sph(mu, 0.6)
        base = misclass_prob(a, b)
        assert misclass_prob(sph(shift, 1.3), sph(mu + shift, 0.6)) == pytest.approx(base)
        assert misclass_prob(sph(rot @ np.zeros(3), 1.3), sph(rot @ mu, 0.6)) == pytest.approx(
            base
        )

    def test_equal_sigma_decreasing_in_delta(self):
        deltas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        probs = [misclass_prob(sph([0.0], 1.0), sph([d], 1.0)) for d in deltas]
        assert all(b < a for a, b in zip(probs, probs[1:]))
        assert probs[0] == 0.5 and probs[-1] < 1e-4

    def test_monte_carlo_cross_check_equal_sigma(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10**6, 2))  # from N(0, I)
        into = np.array([2.0, 0.0])
        y = ((x - into) ** 2).sum(axis=1) - (x**2).sum(axis=1)
        mc = (y < 0).mean()
        assert misclass_prob(sph([0, 0], 1.0), sph(into, 1.0)) == pytest.approx(mc, abs=0.002)

    @staticmethod
    def ncx2_misclass(l, j):
        # X = mu_l + s_l Z is scored closer to mu_j iff
        # (r-1) ||Z + c||^2 < (r-1) x0 with r = s_l^2/s_j^2, where
        # ||Z + c||^2 ~ ncx2(p, s_l^2 D^2/gap^2) and x0 = s_j^2 D^2/gap^2
        dist_sq = float((l.mean - j.mean) @ (l.mean - j.mean))
        gap = l.sigma2 - j.sigma2
        x0 = j.sigma2 * dist_sq / gap**2
        ncp = l.sigma2 * dist_sq / gap**2
        if gap > 0:
            return ncx2.cdf(x0, l.p, ncp)
        return ncx2.sf(x0, l.p, ncp)

    def test_near_equal_variances_match_scipy(self):
        # ncp = 3600 and 3780: both directions go through the approximation
        a, b = sph([0, 0], 1.0), sph([3, 0], 1.05)
        for l, j in ((a, b), (b, a)):
            assert misclass_prob(l, j) == pytest.approx(self.ncx2_misclass(l, j), abs=1e-5)

    def test_variance_gap_past_rtol_meets_equal_variance_form(self):
        # gap 1e-5 gives ncp = 1.6e11, past where scipy's ncx2 is finite
        ratio = 1.0 + 1e-5
        assert ratio - 1.0 > EQUAL_VAR_RTOL * ratio
        a, b = sph([0, 0], 1.0), sph([4, 0], ratio)
        for l, j in ((a, b), (b, a)):
            delta = 4.0 / math.sqrt(l.sigma2)
            assert misclass_prob(l, j) == pytest.approx(ndtr(-delta / 2.0), abs=1e-5)


class TestTheorem1Oracle:
    def test_degenerate_point_mass(self):
        spec = QuadFormSpec(np.ones(2), np.zeros(2))
        assert theorem1_mc_cdf(spec, -0.01, draws=10**4, seed=0) == 0.0
        assert theorem1_mc_cdf(spec, 0.01, draws=10**4, seed=0) == 1.0

    def test_equal_lambda_reduces_to_normal(self):
        spec = QuadFormSpec(np.ones(2), np.array([2.0, 0.0]))
        got = theorem1_mc_cdf(spec, 0.0, draws=10**6, seed=3)
        assert got == pytest.approx(ndtr(-1.0), abs=0.002)

    def test_oracle_matches_unequal_branch(self):
        l = sph([0.0, 0, 0], 1.0)
        j = sph([1.0, 0, 0], 4.0)
        spec = quadform_from_spherical(l, j)
        assert np.allclose(spec.lambdas, 0.25)
        got = theorem1_mc_cdf(spec, 0.0, draws=10**6, seed=4)
        assert got == pytest.approx(misclass_prob(l, j), abs=0.005)

    def test_draw_floor_enforced(self):
        with pytest.raises(ValueError):
            theorem1_mc_cdf(QuadFormSpec(np.ones(1), np.ones(1)), 0.0, draws=100)


class TestClusterDistance:
    def test_identical_entities(self):
        c = sph([1, 1], 2.0)
        assert cluster_distance(c, c) == 0.5

    def test_equal_sigma_delta_two(self):
        a, b = sph([0, 0], 1.0), sph([2, 0], 1.0)
        assert cluster_distance(a, b) == pytest.approx(1 - ndtr(-1.0), abs=1e-12)

    def test_concentric(self):
        assert cluster_distance(sph([0, 0], 1.0), sph([0, 0], 4.0)) == 0.5

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = sph(rng.normal(size=4), float(rng.uniform(0.2, 3)))
            b = sph(rng.normal(size=4), float(rng.uniform(0.2, 3)))
            d1, d2 = cluster_distance(a, b), cluster_distance(b, a)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0


class TestEntityDistanceMatrix:
    def test_two_identical(self):
        c = sph([0, 0], 1.0)
        d = entity_distance_matrix([c, c])
        assert d[0, 1] == 0.5 and d[0, 0] == 0.0

    def test_collinear_spacing_pattern(self):
        ents = [sph([0.0], 1.0), sph([2.0], 1.0), sph([4.0], 1.0)]
        d = entity_distance_matrix(ents)
        near = 1 - ndtr(-1.0)
        far = 1 - ndtr(-2.0)
        assert d[0, 1] == pytest.approx(near, abs=1e-12)
        assert d[1, 2] == pytest.approx(near, abs=1e-12)
        assert d[0, 2] == pytest.approx(far, abs=1e-12)

    def test_symmetric_random(self):
        rng = np.random.default_rng(6)
        ents = [sph(rng.normal(size=2), float(rng.uniform(0.5, 2))) for _ in range(6)]
        d = entity_distance_matrix(ents)
        assert np.array_equal(d, d.T)


class TestFitEntity:
    def test_single_point_gets_floor(self):
        data = DataMatrix(np.array([[0.0, 0], [1, 1], [2, 2]]))
        ent = fit_entity(data, [1], variance_floor(data))
        assert np.allclose(ent.mean, [1, 1])
        assert ent.sigma2 == variance_floor(data)

    def test_square_hand_value(self):
        data = DataMatrix(np.array([[0.0, 0], [2, 0], [0, 2], [2, 2]]))
        ent = fit_entity(data, [0, 1, 2, 3], variance_floor(data))
        assert np.allclose(ent.mean, [1, 1])
        assert ent.sigma2 == pytest.approx(4.0 / 3.0)

    def test_consistency_large_sample(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 2.0, size=(10**5, 3))
        data = DataMatrix(pts)
        ent = fit_entity(data, np.arange(10**5), variance_floor(data))
        assert ent.sigma2 == pytest.approx(4.0, rel=0.05)

    def test_empty_rejected(self):
        data = DataMatrix(np.eye(3))
        with pytest.raises(ValueError):
            fit_entity(data, [], variance_floor(data))

"""Distance math: the noncentral chi-square CDF against closed forms, scipy
and an independent Poisson-series oracle, its array form against its scalar
calls to the last bit, misclassification probabilities against closed forms
and the Monte-Carlo quadratic-form oracle and, to the last bit, the array
kernel against a scalar per-pair oracle that takes the same sums."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln, ndtr
from scipy.stats import ncx2

from kmh.core import DataMatrix
from kmh.gaussdist import (
    EQUAL_VAR_RTOL,
    SERIES_LIMIT,
    SphericalCluster,
    entity_distance_matrix,
    fit_entity,
    misclass_matrix,
    noncentral_chisq_cdf,
    variance_floor,
)

_MC_CHUNK = 250_000


def sph(mean, sigma2):
    return SphericalCluster(np.asarray(mean, dtype=float), sigma2)


def pair_probs(a, b):
    """(p_ab, p_ba): entries [0, 1] and [1, 0] of the kernel's matrix."""
    prob = misclass_matrix([a, b])
    return prob[0, 1], prob[1, 0]


def pair_distances(a, b):
    """Entries [0, 1] and [1, 0] of the merge distance matrix."""
    d = entity_distance_matrix([a, b])
    return d[0, 1], d[1, 0]


def misclass_prob(from_cluster: SphericalCluster, into_cluster: SphericalCluster) -> float:
    """Scalar oracle of one `misclass_matrix` entry, whose every bit the
    kernel must reproduce: the same column-ordered squared distance and
    squared gap, and the CDF's scalar call."""
    l, j = from_cluster, into_cluster
    dist_sq = 0.0
    for d in (l.mean - j.mean).tolist():
        dist_sq += d * d
    if abs(l.sigma2 - j.sigma2) <= EQUAL_VAR_RTOL * max(l.sigma2, j.sigma2):
        if dist_sq == 0.0:
            return 0.5
        delta = np.sqrt(dist_sq / l.sigma2)
        return float(ndtr(-delta / 2.0))

    gap = l.sigma2 - j.sigma2
    x0 = j.sigma2 * dist_sq / (gap * gap)
    ncp = l.sigma2 * dist_sq / (gap * gap)
    cdf = noncentral_chisq_cdf(x0, l.mean.size, ncp)
    if gap > 0:  # scale (s_l^2/s_j^2 - 1) positive
        return cdf
    return 1.0 - cdf


def distance_matrix_oracle(entities) -> np.ndarray:
    """The per-pair merge distance matrix the array form replaced."""
    d = np.zeros((len(entities), len(entities)))
    for i, a in enumerate(entities):
        for j in range(i + 1, len(entities)):
            b = entities[j]
            d[i, j] = d[j, i] = 1.0 - 0.5 * (misclass_prob(a, b) + misclass_prob(b, a))
    return d


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
    lambdas = np.full(l.mean.size, l.sigma2 / j.sigma2)
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


def series_cdf(x: float, df: float, ncp: float) -> float:
    """Independent oracle of the exact CDF: the Poisson(ncp/2) mixture of
    central chi-square CDFs, summed term by term."""
    if x <= 0:
        return 0.0
    if ncp == 0.0:
        return float(gammainc(df / 2.0, x / 2.0))
    m = ncp / 2.0
    i_max = int(np.ceil(m + 12.0 * np.sqrt(m) + 35.0))
    i = np.arange(i_max + 1)
    log_w = i * np.log(m) - m - gammaln(i + 1.0)
    keep = log_w > -40.0  # weights below ~4e-18 cannot move the sum
    terms = np.exp(log_w[keep]) * gammainc(df / 2.0 + i[keep], x / 2.0)
    return min(1.0, math.fsum(terms.tolist()))


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
        with pytest.raises(ValueError, match="ncp"):  # one negative ncp in an array
            noncentral_chisq_cdf(np.ones((2, 2)), 2, np.array([[1.0, 3e3], [-1e-300, 0.0]]))
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(1.0, 0, 0.5)

    def test_array_form_matches_scalar_calls_bit_for_bit(self):
        # x <= 0, ncp = 0, each side of SERIES_LIMIT and df + ncp on it
        df = 3
        x = np.array([-1.0, 0.0, 2.5, 4.0, 40.0, SERIES_LIMIT, 2100.0, 1e5 + 9.0, 1e12])
        ncp = np.array([5.0, 0.0, 0.0, 0.0, 30.0, SERIES_LIMIT - df, SERIES_LIMIT, 1e5, 1e12])
        scalars = [noncentral_chisq_cdf(a, df, b) for a, b in zip(x.tolist(), ncp.tolist())]
        assert all(type(v) is float for v in scalars)
        assert scalars[:2] == [0.0, 0.0] and all(0.0 < v < 1.0 for v in scalars[2:])
        assert same_bits(noncentral_chisq_cdf(x, df, ncp), np.array(scalars))

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


# largest |CDF - reference| allowed on each side of SERIES_LIMIT: below it
# scipy's exact `chndtr` against the Poisson series, and above it Sankaran's
# approximation, within ~2e-6 from the limit up (see noncentral_chisq_cdf),
# against scipy's ncx2, which is `chndtr` too
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
    want = series_cdf(x, df, ncp)
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
        assert pair_probs(c, c) == (0.5, 0.5)

    def test_equal_sigma_delta_two(self):
        a = sph([0, 0], 1.0)
        b = sph([2, 0], 1.0)
        for got in pair_probs(a, b):
            assert got == pytest.approx(ndtr(-1.0), abs=1e-12)

    def test_concentric_smaller_into_larger(self):
        inner = sph([0, 0, 0], 1.0)
        outer = sph([0, 0, 0], 4.0)
        assert pair_probs(inner, outer) == (1.0, 0.0)

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
        base = pair_probs(a, b)
        assert pair_probs(sph(shift, 1.3), sph(mu + shift, 0.6)) == pytest.approx(base)
        assert pair_probs(sph(rot @ np.zeros(3), 1.3), sph(rot @ mu, 0.6)) == pytest.approx(base)

    def test_equal_sigma_decreasing_in_delta(self):
        deltas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        for side in (0, 1):
            probs = [pair_probs(sph([0.0], 1.0), sph([d], 1.0))[side] for d in deltas]
            assert all(b < a for a, b in zip(probs, probs[1:]))
            assert probs[0] == 0.5 and probs[-1] < 1e-4

    def test_monte_carlo_cross_check_equal_sigma(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10**6, 2))  # from N(0, I)
        into = np.array([2.0, 0.0])
        y = ((x - into) ** 2).sum(axis=1) - (x**2).sum(axis=1)
        mc = (y < 0).mean()
        for got in pair_probs(sph([0, 0], 1.0), sph(into, 1.0)):
            assert got == pytest.approx(mc, abs=0.002)

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
            return ncx2.cdf(x0, l.mean.size, ncp)
        return ncx2.sf(x0, l.mean.size, ncp)

    def test_near_equal_variances_match_scipy(self):
        # ncp = 3600 and 3780: both directions go through the approximation
        a, b = sph([0, 0], 1.0), sph([3, 0], 1.05)
        for got, (l, j) in zip(pair_probs(a, b), ((a, b), (b, a))):
            assert got == pytest.approx(self.ncx2_misclass(l, j), abs=1e-5)

    def test_variance_gap_past_rtol_meets_equal_variance_form(self):
        # gap 1e-5 gives ncp = 1.6e11, past where scipy's ncx2 is finite
        ratio = 1.0 + 1e-5
        assert ratio - 1.0 > EQUAL_VAR_RTOL * ratio
        a, b = sph([0, 0], 1.0), sph([4, 0], ratio)
        for got, l in zip(pair_probs(a, b), (a, b)):
            delta = 4.0 / math.sqrt(l.sigma2)
            assert got == pytest.approx(ndtr(-delta / 2.0), abs=1e-5)


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
        assert got == pytest.approx(pair_probs(l, j)[0], abs=0.005)
        got = theorem1_mc_cdf(quadform_from_spherical(j, l), 0.0, draws=10**6, seed=4)
        assert got == pytest.approx(pair_probs(l, j)[1], abs=0.005)

    def test_draw_floor_enforced(self):
        with pytest.raises(ValueError):
            theorem1_mc_cdf(QuadFormSpec(np.ones(1), np.ones(1)), 0.0, draws=100)


class TestClusterDistance:
    def test_identical_entities(self):
        c = sph([1, 1], 2.0)
        assert pair_distances(c, c) == (0.5, 0.5)

    def test_equal_sigma_delta_two(self):
        a, b = sph([0, 0], 1.0), sph([2, 0], 1.0)
        for got in pair_distances(a, b):
            assert got == pytest.approx(1 - ndtr(-1.0), abs=1e-12)

    def test_concentric(self):
        assert pair_distances(sph([0, 0], 1.0), sph([0, 0], 4.0)) == (0.5, 0.5)

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = sph(rng.normal(size=4), float(rng.uniform(0.2, 3)))
            b = sph(rng.normal(size=4), float(rng.uniform(0.2, 3)))
            d1, d2 = pair_distances(a, b)
            assert d1 == d2 == pair_distances(b, a)[0]
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

    def test_ragged_means_rejected(self):
        ents = [sph([0.0, 0.0], 1.0), sph([1.0, 0.0, 0.0], 1.0)]
        with pytest.raises(ValueError):
            misclass_matrix(ents)
        with pytest.raises(ValueError):
            entity_distance_matrix(ents)


def test_zero_variance_entity_rejected():
    with pytest.raises(ValueError, match="sigma2 must be > 0"):
        sph([0.0, 0.0], 0.0)


@st.composite
def entity_sets(draw):
    """2-25 entities in p = 1-8. Variances are a common base times a factor
    drawn from exact ties, relative gaps just inside and just outside
    EQUAL_VAR_RTOL, and plain unequal ones; some means repeat earlier ones.
    So the equal-variance form, the series and Sankaran's approximation all
    run, as does the x0 = 0 shortcut of coincident centers."""
    p = draw(st.integers(1, 8))
    k = draw(st.integers(2, 25))
    base = draw(st.floats(1e-3, 1e3))
    near = [1.0, 1.0 + 0.5 * EQUAL_VAR_RTOL, 1.0 + 2.0 * EQUAL_VAR_RTOL, 1.0 + 20.0 * EQUAL_VAR_RTOL]
    factor = st.sampled_from(near) | st.floats(0.05, 20.0)
    coord = st.floats(-50.0, 50.0)
    entities = []
    for _ in range(k):
        if entities and draw(st.booleans()):
            mean = entities[draw(st.integers(0, len(entities) - 1))].mean
        else:
            mean = [draw(coord) for _ in range(p)]
        entities.append(sph(mean, base * draw(factor)))
    return entities


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(entities=entity_sets())
def test_kernel_matches_per_pair_oracle_bit_for_bit(entities):
    want = np.array([[misclass_prob(l, j) for j in entities] for l in entities])
    assert same_bits(misclass_matrix(entities), want)
    assert same_bits(entity_distance_matrix(entities), distance_matrix_oracle(entities))


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

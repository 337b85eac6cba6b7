import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc as scipy_betainc

from wsol import threshold
from wsol.errors import ValidationError
from wsol.threshold import ThresholdDistribution, regularized_incomplete_beta

# Beta shapes of the sampler tests: symmetric, J-shaped with a pole at 0,
# and right-skewed.
BETA_SHAPES = [
    pytest.param(2.0, 2.0, id="beta22"),
    pytest.param(0.7, 1.3, id="beta07_13"),
    pytest.param(2.0, 5.0, id="beta25"),
]


class TestConstruction:
    def test_uniform_rejects_empty_support(self):
        with pytest.raises(ValidationError):
            ThresholdDistribution.uniform(0.6, 0.6)
        with pytest.raises(ValidationError):
            ThresholdDistribution.uniform(0.8, 0.2)
        with pytest.raises(ValidationError):
            ThresholdDistribution.uniform(-0.1, 0.5)

    def test_beta_rejects_nonpositive_shapes(self):
        with pytest.raises(ValidationError):
            ThresholdDistribution.beta_prior(0.0, 2.0)
        with pytest.raises(ValidationError):
            ThresholdDistribution.beta_prior(2.0, -1.0)

    @pytest.mark.filterwarnings("error")
    def test_beta_shapes_up_to_the_bound_evaluate_without_warning(self):
        # Past the bound the continued fraction fails to converge near the
        # mean, and its coefficients overflow (a numpy warning) from 1e154.
        too_large = ((2e5, 2.0), (2.0, 1e154), (1e154, 1e154), (1e-300, 1e300))
        for alpha, beta in too_large:
            with pytest.raises(ValidationError, match="at most"):
                ThresholdDistribution.beta_prior(alpha, beta)
        grid = np.linspace(0.0, 1.0, 2001)
        for alpha, beta in ((1e5, 1e5), (1e5, 1e-300), (1000.0, 0.05)):
            d = ThresholdDistribution.beta_prior(alpha, beta)
            assert np.all(np.diff(d.cdf(np.append(grid, d.mean()))[:-1]) >= 0)
            assert np.all(np.isfinite(d.pdf(grid)))

    def test_beta_off_the_unit_interval_and_unknown_kinds_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\] only"):
            ThresholdDistribution(kind="beta", a=0.1, alpha=2.0, beta=2.0)
        with pytest.raises(ValidationError, match="unknown distribution kind"):
            ThresholdDistribution(kind="gamma")

    @pytest.mark.parametrize("shapes", [{"alpha": 7.0}, {"beta": 0.5}])
    def test_uniform_rejects_beta_shapes(self, shapes):
        # Nothing reads them, so a uniform prior with shapes would only
        # compare unequal to the same prior without.
        with pytest.raises(ValidationError, match="uniform prior takes no beta shapes"):
            ThresholdDistribution(kind="uniform", **shapes)
        assert ThresholdDistribution(kind="uniform", alpha=1.0, beta=1.0) == (
            ThresholdDistribution.uniform()
        )

    def test_beta_is_full_support(self):
        d = ThresholdDistribution.beta_prior(2.0, 2.0)
        assert d.support == (0.0, 1.0)


class TestCdf:
    def test_uniform_cdf_is_identity_on_support(self):
        d = ThresholdDistribution.uniform()
        assert d.cdf(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_beta22_cdf_midpoint_by_symmetry(self):
        d = ThresholdDistribution.beta_prior(2.0, 2.0)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_restricted_uniform_midpoint(self):
        d = ThresholdDistribution.uniform(0.2, 0.8)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_clamps_outside_support(self):
        d = ThresholdDistribution.uniform(0.2, 0.8)
        assert d.cdf(0.1) == 0.0
        assert d.cdf(0.95) == 1.0
        assert d.cdf(0.2) == 0.0
        assert d.cdf(0.8) == 1.0

    def test_uniform_cdf_keeps_the_bits_of_clip(self):
        # NaN propagates and -0.0 stays -0.0, as through np.clip.
        x = np.array([np.nan, -0.0, 0.0, -0.5, 1.5, 0.3, 1.0, np.inf, -np.inf])
        for a, b in ((0.0, 1.0), (0.2, 0.8)):
            d = ThresholdDistribution.uniform(a, b)
            ref = np.clip((x - d.a) / (d.b - d.a), 0.0, 1.0)
            np.testing.assert_array_equal(d.cdf(x).view(np.int64), ref.view(np.int64))
        assert np.isnan(ThresholdDistribution.uniform().cdf(np.nan))

    @pytest.mark.parametrize(
        "alpha,beta", [(2.0, 2.0), (0.7, 1.3), (5.0, 1.5), (0.5, 0.5), (3.0, 7.0)]
    )
    def test_beta_cdf_matches_scipy(self, alpha, beta):
        x = np.linspace(0.0, 1.0, 501)
        ours = regularized_incomplete_beta(alpha, beta, x)
        ref = scipy_betainc(alpha, beta, x)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_rejects_nan_argument(self):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            regularized_incomplete_beta(2.0, 2.0, [0.3, np.nan])
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            ThresholdDistribution.beta_prior(2.0, 2.0).cdf(np.nan)

    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, -1.0)])
    def test_rejects_non_positive_shapes(self, a, b):
        with pytest.raises(ValidationError, match="shape parameters must be positive"):
            regularized_incomplete_beta(a, b, 0.3)

    def test_continued_fraction_that_does_not_converge_raises(self, monkeypatch):
        # One round is far too few at x = 0.3; the error names the shapes.
        monkeypatch.setattr(threshold, "_CF_MAX_ITER", 0)
        with pytest.raises(ValidationError, match="did not converge for a=2.0, b=3.0"):
            regularized_incomplete_beta(2.0, 3.0, [0.1, 0.3])

    def test_monotone_nondecreasing(self, rng):
        for d in (
            ThresholdDistribution.uniform(0.1, 0.9),
            ThresholdDistribution.beta_prior(2.0, 5.0),
        ):
            x = np.sort(rng.uniform(0, 1, 500))
            vals = d.cdf(x)
            assert np.all(np.diff(vals) >= 0)
            assert vals[0] >= 0 and vals[-1] <= 1

    @pytest.mark.parametrize(
        "dist",
        [
            ThresholdDistribution.uniform(),
            ThresholdDistribution.uniform(0.2, 0.8),
            ThresholdDistribution.beta_prior(2.0, 2.0),
            ThresholdDistribution.beta_prior(1.5, 4.0),
        ],
        ids=["uniform01", "uniform28", "beta22", "beta15_40"],
    )
    def test_cdf_equals_pdf_quadrature(self, dist, rng):
        # The density vanishes beyond the support, so integrating to
        # min(x, b) avoids handing quad a discontinuity mid-interval.
        a, b = dist.support
        for x in rng.uniform(0, 1, 100):
            integral, err = quad(dist.pdf, a, min(x, b), limit=200)
            assert abs(dist.cdf(x) - integral) < 1e-9 + err


class TestPdf:
    def test_uniform_unit_density(self):
        assert ThresholdDistribution.uniform().pdf(0.7) == 1.0

    def test_restricted_uniform_outside(self):
        assert ThresholdDistribution.uniform(0.2, 0.8).pdf(0.1) == 0.0

    def test_beta22_density_midpoint(self):
        # density is 6x(1-x); at 0.5 that is 1.5
        assert ThresholdDistribution.beta_prior(2.0, 2.0).pdf(0.5) == pytest.approx(
            1.5, rel=1e-12
        )

    def test_nonnegative_and_zero_outside(self, rng):
        d = ThresholdDistribution.uniform(0.3, 0.6)
        x = rng.uniform(0, 1, 200)
        vals = d.pdf(x)
        assert np.all(vals >= 0)
        assert np.all(vals[(x < 0.3) | (x > 0.6)] == 0)


class TestSampling:
    def test_deterministic_given_seed(self):
        d = ThresholdDistribution.uniform()
        a = d.sample(np.random.default_rng(11), 100)
        b = d.sample(np.random.default_rng(11), 100)
        np.testing.assert_array_equal(a, b)

    def test_support_containment(self):
        d = ThresholdDistribution.uniform(0.2, 0.8)
        draws = d.sample(np.random.default_rng(0), 10000)
        assert np.all((draws >= 0.2) & (draws <= 0.8))

    def test_beta22_sample_mean(self):
        d = ThresholdDistribution.beta_prior(2.0, 2.0)
        draws = d.sample(np.random.default_rng(5), 100_000)
        assert abs(draws.mean() - 0.5) < 0.005

    @pytest.mark.parametrize(
        "dist",
        [
            ThresholdDistribution.uniform(),
            ThresholdDistribution.beta_prior(2.0, 2.0),
            ThresholdDistribution.beta_prior(0.7, 1.3),
        ],
        ids=["uniform01", "beta22", "beta07_13"],
    )
    def test_kolmogorov_smirnov(self, dist):
        n = 100_000
        draws = np.sort(dist.sample(np.random.default_rng(42), n))
        cdf = dist.cdf(draws)
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(cdf - lo)))
        assert ks < 0.01

    @pytest.mark.parametrize("alpha,beta", BETA_SHAPES)
    def test_inverse_transform_consistency(self, alpha, beta):
        # Sampler inverts the implemented cdf, so cdf(draw) recovers the
        # underlying uniform stream.
        d = ThresholdDistribution.beta_prior(alpha, beta)
        draws = d.sample(np.random.default_rng(9), 20000)
        u = np.random.default_rng(9).random(20000)
        assert np.max(np.abs(d.cdf(draws) - u)) < 1e-10

    @pytest.mark.parametrize("alpha,beta", BETA_SHAPES)
    def test_beta_cdf_evaluations_per_draw(self, alpha, beta, monkeypatch):
        # Converged draws leave the Newton loop, so the incomplete beta sees
        # each draw only a few times (grid build included).
        evaluated = []

        def counting(a, b, x):
            evaluated.append(np.size(x))
            return regularized_incomplete_beta(a, b, x)

        threshold._beta_quantile_grid.cache_clear()
        monkeypatch.setattr(threshold, "regularized_incomplete_beta", counting)
        d = ThresholdDistribution.beta_prior(alpha, beta)
        d.sample(np.random.default_rng(9), 20000)
        assert sum(evaluated) <= 3 * 20000

    @pytest.mark.parametrize(
        "alpha,beta,per_draw",
        [(0.1, 0.1, 18.0), (0.2, 0.2, 7.5)],
        ids=["beta01_01", "beta02_02"],
    )
    def test_pole_shape_cdf_evaluations_per_draw(
        self, alpha, beta, per_draw, monkeypatch
    ):
        # Draws next to a pole start far from their quantile; Newton steps
        # that stay inside the bracket and bit-pattern bisection where they
        # do not keep their cost bounded (grid build included).
        evaluated = []

        def counting(a, b, x):
            evaluated.append(np.size(x))
            return regularized_incomplete_beta(a, b, x)

        threshold._beta_quantile_grid.cache_clear()
        monkeypatch.setattr(threshold, "regularized_incomplete_beta", counting)
        d = ThresholdDistribution.beta_prior(alpha, beta)
        d.sample(np.random.default_rng(9), 20000)
        assert sum(evaluated) <= per_draw * 20000

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.3, 8.0), (8.0, 0.3), (0.1, 0.1), (0.2, 0.2)],
        ids=["beta03_8", "beta8_03", "beta01_01", "beta02_02"],
    )
    def test_draws_newton_cannot_settle_are_bisected(self, alpha, beta):
        # Next to a pole Newton converges too slowly (Beta(0.3, 8) at 0) or
        # cannot reach the 1e-12 residual at all, because the cdf jumps by
        # more than that between neighbouring floats (Beta(8, 0.3) at 1).
        # Bisection finishes those draws to within one float spacing, even
        # where the quantile lies many decades below the grid spacing
        # (Beta(0.1, 0.1) and Beta(0.2, 0.2) at both ends).
        d = ThresholdDistribution.beta_prior(alpha, beta)
        draws = d.sample(np.random.default_rng(4), 20000)
        u = np.random.default_rng(4).random(20000)
        assert np.all(d.cdf(np.nextafter(draws, 0.0)) - u <= 1e-12)
        assert np.all(u - d.cdf(np.nextafter(draws, 1.0)) <= 1e-12)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1000.0, 0.05), (0.05, 1000.0)],
        ids=["beta1000_005", "beta005_1000"],
    )
    def test_extreme_shapes_invert_every_draw(self, alpha, beta):
        # Elements of one continued-fraction call converge in different
        # rounds; each stops counting once it has converged, so no call
        # waits for a round in which all of them meet the bound at once.
        d = ThresholdDistribution.beta_prior(alpha, beta)
        draws = d.sample(np.random.default_rng(7), 20000)
        u = np.random.default_rng(7).random(20000)
        f = d.cdf(draws)
        settled = np.abs(f - u) <= 1e-12
        stepped = (d.cdf(np.nextafter(draws, 0.0)) < u) & (u <= f)
        assert np.all(settled | stepped)

    def test_scalar_draw(self):
        d = ThresholdDistribution.beta_prior(2.0, 2.0)
        x = d.sample(np.random.default_rng(1))
        assert isinstance(x, float) and 0.0 < x < 1.0


class TestMean:
    def test_uniform_mean(self):
        assert ThresholdDistribution.uniform(0.2, 0.8).mean() == pytest.approx(0.5)

    def test_beta_mean(self):
        assert ThresholdDistribution.beta_prior(2.0, 6.0).mean() == pytest.approx(0.25)


@settings(max_examples=50, deadline=None)
@given(
    x1=st.floats(min_value=0.0, max_value=1.0),
    x2=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.floats(min_value=0.3, max_value=8.0),
    beta=st.floats(min_value=0.3, max_value=8.0),
)
def test_cdf_monotone_property(x1, x2, alpha, beta):
    d = ThresholdDistribution.beta_prior(alpha, beta)
    lo, hi = sorted((x1, x2))
    assert d.cdf(lo) <= d.cdf(hi) + 1e-15

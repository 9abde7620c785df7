import math

import numpy as np
import pytest
from scipy import stats

from dp_la.mechanisms import (
    PrivacyBudget,
    RngState,
    Sensitivity,
    SensitivityNorm,
    empirical_dp_check,
    gaussian_sigma,
    laplace_scale,
    sample_laplace,
)

S1 = Sensitivity(1.0, SensitivityNorm.L1)


class TestPrivacyBudget:
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            PrivacyBudget(eps)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, delta)

    def test_pure_dp_default(self):
        assert PrivacyBudget(1.0).delta == 0.0


class TestLaplaceScale:
    @pytest.mark.parametrize(
        "s, eps, expected",
        [(1.0, 1.0, 1.0), (2.0, 0.5, 4.0), (1.0, 10_000.0, 1e-4)],
    )
    def test_direct_ratio(self, s, eps, expected):
        assert laplace_scale(Sensitivity(s, SensitivityNorm.L1), PrivacyBudget(eps)) == pytest.approx(expected)

    def test_rejects_zero_sensitivity(self):
        with pytest.raises(ValueError):
            laplace_scale(Sensitivity(0.0, SensitivityNorm.L1), PrivacyBudget(1.0))

    def test_rejects_l2_sensitivity(self):
        with pytest.raises(ValueError):
            laplace_scale(Sensitivity(1.0, SensitivityNorm.L2), PrivacyBudget(1.0))

    def test_rejects_nonzero_delta(self):
        with pytest.raises(ValueError):
            laplace_scale(S1, PrivacyBudget(1.0, 1e-5))

    def test_monotone_in_epsilon_and_sensitivity(self):
        epsilons = [0.01, 0.1, 0.5, 1.0, 5.0, 100.0]
        scales = [laplace_scale(S1, PrivacyBudget(e)) for e in epsilons]
        assert all(a > b for a, b in zip(scales, scales[1:]))
        sens = [0.5, 1.0, 2.0, 7.0]
        scales = [laplace_scale(Sensitivity(s, SensitivityNorm.L1), PrivacyBudget(1.3)) for s in sens]
        assert all(a < b for a, b in zip(scales, scales[1:]))


class TestSampleLaplace:
    def test_moments_at_scale_one(self):
        x = sample_laplace(1.0, RngState(7), size=100_000)
        assert abs(x.mean()) < 0.02  # 3 standard errors of the mean
        assert x.var() == pytest.approx(2.0, rel=0.05)

    def test_ks_statistic_against_analytic_cdf(self):
        x = sample_laplace(1.0, RngState(11), size=100_000)
        ks = stats.kstest(x, stats.laplace(scale=1.0).cdf)
        assert ks.statistic < 0.01

    def test_scaling_property_is_exact(self):
        a = sample_laplace(1.0, RngState(3), size=1000)
        b = sample_laplace(2.0, RngState(3), size=1000)
        assert np.array_equal(b, 2.0 * a)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            sample_laplace(0.0, RngState(0), size=1)


class TestGaussianSigma:
    def test_classical_calibration_value(self):
        sigma = gaussian_sigma(Sensitivity(1.0, SensitivityNorm.L2), PrivacyBudget(1.0, 1e-5))
        assert sigma == pytest.approx(4.844805262605389, rel=1e-12)

    def test_linearity_in_sensitivity_is_exact(self):
        b = PrivacyBudget(1.0, 1e-5)
        s1 = gaussian_sigma(Sensitivity(1.0, SensitivityNorm.L2), b)
        s2 = gaussian_sigma(Sensitivity(2.0, SensitivityNorm.L2), b)
        assert s2 == 2.0 * s1

    def test_inverse_scaling_in_epsilon(self):
        s = Sensitivity(1.0, SensitivityNorm.L2)
        lo = gaussian_sigma(s, PrivacyBudget(100.0, 1e-5))
        assert lo == pytest.approx(0.04844805262605389, rel=1e-12)
        # degree -1 homogeneity as an exact halving identity
        one = gaussian_sigma(s, PrivacyBudget(1.0, 1e-5))
        two = gaussian_sigma(s, PrivacyBudget(2.0, 1e-5))
        assert one == 2.0 * two

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_rejects_degenerate_delta(self, delta):
        with pytest.raises(ValueError):
            if delta == 0.0:
                gaussian_sigma(Sensitivity(1.0, SensitivityNorm.L2), PrivacyBudget(1.0, 0.0))
            else:
                PrivacyBudget(1.0, delta)

    def test_rejects_l1_sensitivity(self):
        with pytest.raises(ValueError):
            gaussian_sigma(S1, PrivacyBudget(1.0, 1e-5))


class TestRngState:
    def test_identical_seed_identical_stream(self):
        a = RngState(42).generator.random(16)
        b = RngState(42).generator.random(16)
        assert np.array_equal(a, b)

    def test_substreams_are_distinct_and_reproducible(self):
        root = RngState(42)
        a1 = root.substream("alpha").generator.random(16)
        a2 = RngState(42).substream("alpha").generator.random(16)
        b = RngState(42).substream("beta").generator.random(16)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_first_draws_are_pinned(self):
        # any change to the seeding scheme moves every split, noise draw and
        # results.csv row
        assert RngState(0).generator.random(3).tolist() == [
            0.014067035665647709, 0.2577672456246177, 0.47156538101528966]
        noise = RngState(0).substream("pipeline", "input_perturbation", "seed", 0)
        assert noise.substream("input-noise").generator.normal(size=3).tolist() == [
            -0.21648973873293897, 1.2030135137285687, 0.2776350407139029]

    def test_generator_is_built_once_on_first_use(self):
        rng = RngState(5)
        assert "generator" not in vars(rng)
        assert rng.generator is rng.generator
        assert repr(rng.substream("a", 1)) == "RngState(seed=5, path=('a', 1))"

    def test_nested_labels(self):
        x = RngState(1).substream("m", 0, 3).generator.random(4)
        y = RngState(1).substream("m", 0, 3).generator.random(4)
        z = RngState(1).substream("m", 1, 3).generator.random(4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_rejects_a_negative_or_fractional_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            RngState(-1)
        with pytest.raises(TypeError):
            RngState(1.5)

    def test_seeds_past_64_bits_do_not_alias(self):
        small = RngState(3).substream("split", 1).generator.random(4)
        large = RngState(3 + 2**64).substream("split", 1).generator.random(4)
        assert not np.array_equal(small, large)


class TestEmpiricalDpCheck:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
    def test_calibrated_count_query_passes(self, eps):
        report = empirical_dp_check(PrivacyBudget(eps), trials=100_000, rng=RngState(0))
        assert report.passed
        assert report.max_ratio <= math.exp(eps) * 1.2

    def test_heavy_noise_passes(self):
        report = empirical_dp_check(PrivacyBudget(0.01), trials=100_000, rng=RngState(2))
        assert report.passed
        assert report.max_ratio == pytest.approx(1.0, abs=0.2)

    def test_requires_an_explicit_rng(self):
        with pytest.raises(TypeError, match="rng"):
            empirical_dp_check(PrivacyBudget(1.0), trials=20_000)

    def test_rejects_too_few_trials(self):
        with pytest.raises(ValueError, match="trials"):
            empirical_dp_check(PrivacyBudget(1.0), trials=500, rng=RngState(0))

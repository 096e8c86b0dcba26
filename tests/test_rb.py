import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bnpmmd.errors import (DegeneratePriorError, InvalidInputError,
                           InvalidParameterError)
from bnpmmd.kernels import gaussian_kernel
from bnpmmd.rb import (EVIDENCE_AGAINST, EVIDENCE_FOR, INCONCLUSIVE, RBConfig,
                       ecdf_eval, empirical_quantile, estimate_rb_strength,
                       run_gof_test, simulate_mmd_samples)

SQRT2 = np.sqrt(2.0)


def normal_base(dim=1):
    return lambda k, rng: rng.standard_normal((k, dim))


class TestEcdf:
    def test_below_min(self):
        assert ecdf_eval(np.array([1.0, 2.0, 3.0]), 0.5) == 0.0

    def test_at_max(self):
        assert ecdf_eval(np.array([1.0, 2.0, 3.0]), 3.0) == 1.0

    def test_interior(self):
        assert ecdf_eval(np.array([1.0, 2.0, 3.0, 4.0]), 2.5) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ecdf_eval(np.array([]), 1.0)


class TestQuantile:
    def test_p_one_is_max(self):
        assert empirical_quantile(np.array([3.0, 1.0, 7.0]), 1.0) == 7.0

    def test_median_convention(self):
        assert empirical_quantile(np.array([10.0, 20.0, 30.0, 40.0]), 0.5) == 20.0

    def test_out_of_range_rejected(self):
        for p in [0.0, -0.1, 1.1]:
            with pytest.raises(InvalidInputError):
                empirical_quantile(np.array([1.0]), p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(0.001, 1.0))
def test_quantile_ecdf_galois(samples, p):
    v = np.array(samples)
    assert ecdf_eval(v, empirical_quantile(v, p)) >= p


class TestEstimateRB:
    def test_identical_samples_give_one(self):
        rng = np.random.default_rng(0)
        v = rng.random(100)
        rb, _ = estimate_rb_strength(v, v.copy(), 20, 1)
        assert rb == pytest.approx(1.0)

    def test_maximal_evidence_endpoint(self):
        prior = np.arange(1, 21) * 0.05          # 0.05 .. 1.00
        posterior = np.full(20, 0.01)
        rb, strength = estimate_rb_strength(prior, posterior, 20, 1)
        assert rb == pytest.approx(20.0)
        assert strength == pytest.approx(1.0)

    def test_maximal_counter_evidence_endpoint(self):
        prior = np.arange(1, 21) * 0.05
        posterior = np.full(20, 2.0)             # above the prior support
        rb, strength = estimate_rb_strength(prior, posterior, 20, 1)
        assert rb == 0.0
        assert strength == 0.0

    def test_rb_capped(self):
        rng = np.random.default_rng(1)
        prior = rng.random(1000)
        posterior = rng.random(1000) * 1e-4      # all far below the anchor
        rb, strength = estimate_rb_strength(prior, posterior, 20, 1)
        assert rb <= 20.0
        assert 0.0 <= strength <= 1.0

    def test_degenerate_prior_raises_with_payload(self):
        prior = np.full(50, 0.3)
        posterior = np.linspace(0, 1, 50)
        with pytest.raises(DegeneratePriorError) as exc:
            estimate_rb_strength(prior, posterior, 10, 1)
        assert exc.value.prior_samples is not None
        assert exc.value.posterior_samples is not None

    def test_rejects_short_prior(self):
        with pytest.raises(InvalidInputError):
            estimate_rb_strength(np.arange(5.0), np.arange(20.0), 20, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_rb_strength_ranges(seed, grid):
    rng = np.random.default_rng(seed)
    prior = rng.random(200)
    posterior = rng.random(200) * rng.uniform(0.2, 2.0)
    rb, strength = estimate_rb_strength(prior, posterior, grid, 1)
    assert 0.0 <= rb <= grid
    assert 0.0 <= strength <= 1.0 + 1e-12


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RBConfig(anchor_cell=0)
        with pytest.raises(InvalidParameterError):
            RBConfig(anchor_cell=20, grid_cells=20)
        with pytest.raises(InvalidParameterError):
            RBConfig(mc_reps=5, grid_cells=20)
        with pytest.raises(InvalidParameterError):
            RBConfig(truncation_epsilon=None)
        with pytest.raises(InvalidParameterError):
            RBConfig(concentration=-1.0)

    def test_rb_cap(self):
        assert RBConfig().rb_cap == 20.0


class TestSimulate:
    def test_entries_finite_and_near_nonnegative(self):
        rng = np.random.default_rng(2)
        cfg = RBConfig(concentration=5.0, mc_reps=50, truncation_epsilon=None,
                       explicit_terms=20, kernel=gaussian_kernel(SQRT2))
        X = rng.standard_normal((30, 1))
        for which in ("prior", "posterior"):
            v = simulate_mmd_samples(X, normal_base(), cfg, which, rng, n_terms=20)
            assert v.shape == (50,)
            assert np.all(np.isfinite(v))
            assert np.all(v >= -1e-12)

    def test_flat_posterior_matches_concentration_matched_prior(self):
        # with no prior mass on the base, the posterior is a weighted bootstrap
        # of the data; when the data itself comes from the model, its draws are
        # indistinguishable from a prior with the same total concentration
        rng = np.random.default_rng(42)
        n, n_terms = 1000, 20
        X = normal_base()(n, rng)
        Y = normal_base()(100, rng)
        cfg_pri = RBConfig(concentration=float(n), mc_reps=1000, truncation_epsilon=None,
                           explicit_terms=n_terms, kernel=gaussian_kernel(SQRT2))
        cfg_pos = RBConfig(concentration=0.0, mc_reps=1000, truncation_epsilon=None,
                           explicit_terms=n_terms, kernel=gaussian_kernel(SQRT2))
        prior = simulate_mmd_samples(X, Y, cfg_pri, "prior", rng,
                                     n_terms=n_terms, base_sampler=normal_base())
        posterior = simulate_mmd_samples(X, Y, cfg_pos, "posterior", rng, n_terms=n_terms)
        assert stats.ks_2samp(prior, posterior).pvalue > 0.01

    def test_posterior_concentrates_below_prior_under_null(self):
        rng = np.random.default_rng(3)
        cfg = RBConfig(concentration=25.0, mc_reps=400, kernel=gaussian_kernel(SQRT2))
        X = normal_base()(50, rng)
        Y = normal_base()(50, rng)
        prior = simulate_mmd_samples(X, Y, cfg, "prior", rng, n_terms=40,
                                     base_sampler=normal_base())
        posterior = simulate_mmd_samples(X, Y, cfg, "posterior", rng, n_terms=40,
                                         base_sampler=normal_base())
        assert posterior.mean() < prior.mean()

    def test_prior_needs_base(self):
        rng = np.random.default_rng(4)
        cfg = RBConfig(mc_reps=30, truncation_epsilon=None, explicit_terms=5)
        with pytest.raises(InvalidParameterError):
            simulate_mmd_samples(np.zeros((5, 1)), np.zeros((5, 1)), cfg, "prior", rng,
                                 n_terms=5)

    def test_unknown_which_rejected(self):
        rng = np.random.default_rng(5)
        cfg = RBConfig(mc_reps=30, truncation_epsilon=None, explicit_terms=5)
        with pytest.raises(InvalidParameterError):
            simulate_mmd_samples(np.zeros((5, 1)), normal_base(), cfg, "both", rng,
                                 n_terms=5)

    @pytest.mark.parametrize("poisoned", ["data", "model"])
    def test_non_finite_input_rejected(self, poisoned):
        # one NaN cell in 50x5 data left 30 of 100 posterior draws NaN, silently
        rng = np.random.default_rng(34)
        X, Y = normal_base(5)(50, rng), normal_base(5)(50, rng)
        {"data": X, "model": Y}[poisoned][17, 2] = np.nan
        cfg = RBConfig(concentration=25.0, mc_reps=100, kernel=gaussian_kernel(80.0))
        with pytest.raises(InvalidInputError, match="non-finite"):
            simulate_mmd_samples(X, Y, cfg, "posterior", rng, n_terms=30,
                                 base_sampler=normal_base(5))


class TestRunGofTest:
    def _cfg(self, **kw):
        kw.setdefault("concentration", 10.0)
        kw.setdefault("mc_reps", 200)
        kw.setdefault("kernel", gaussian_kernel(SQRT2))
        return RBConfig(**kw)

    def test_report_fields_and_ranges(self):
        rng = np.random.default_rng(6)
        X = normal_base(2)(40, rng)
        report = run_gof_test(X, normal_base(2), self._cfg(), rng)
        assert 0.0 <= report.rb <= 20.0
        assert 0.0 <= report.strength <= 1.0
        assert report.prior_samples.shape == (200,)
        assert report.posterior_samples.shape == (200,)
        assert report.n_terms >= 2
        assert report.decision in (EVIDENCE_FOR, EVIDENCE_AGAINST, INCONCLUSIVE)

    def test_decision_matches_rb_sign(self):
        rng = np.random.default_rng(7)
        X = normal_base()(40, rng)
        report = run_gof_test(X, normal_base(), self._cfg(), rng)
        if report.rb > 1:
            assert report.decision == EVIDENCE_FOR
        elif report.rb < 1:
            assert report.decision == EVIDENCE_AGAINST
        else:
            assert report.decision == INCONCLUSIVE

    def test_deterministic_given_seed(self):
        X = normal_base(2)(30, np.random.default_rng(8))
        r1 = run_gof_test(X, normal_base(2), self._cfg(), np.random.default_rng(99))
        r2 = run_gof_test(X, normal_base(2), self._cfg(), np.random.default_rng(99))
        assert r1.rb == r2.rb
        assert r1.strength == r2.strength
        assert np.array_equal(r1.prior_samples, r2.prior_samples)
        assert np.array_equal(r1.posterior_samples, r2.posterior_samples)

    def test_warns_when_concentration_dominates(self):
        rng = np.random.default_rng(9)
        X = normal_base()(10, rng)
        with pytest.warns(UserWarning, match="n/2"):
            run_gof_test(X, normal_base(), self._cfg(concentration=20.0), rng)

    def test_no_warning_at_half_n(self):
        # a = n/2 is the paper's own setting (a=25, n=50)
        rng = np.random.default_rng(35)
        X = normal_base()(50, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_gof_test(X, normal_base(), self._cfg(concentration=25.0, mc_reps=50), rng)

    def test_too_few_observations(self):
        rng = np.random.default_rng(10)
        with pytest.raises(InvalidInputError):
            run_gof_test(np.zeros((1, 1)), normal_base(), self._cfg(), rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        # one bad cell poisons about half the posterior draws yet the ratio
        # would still yield a decision
        X = normal_base(5)(50, np.random.default_rng(13))
        X[17, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            run_gof_test(X, normal_base(5), self._cfg(), np.random.default_rng(14))

    def test_prior_mean_respects_flat_bound(self):
        # the prior Monte Carlo mean never exceeds the model-vs-base squared
        # MMD plus three times the kernel bound
        from bnpmmd.discrepancy import mmd2_empirical, prior_mean_upper_bound
        rng = np.random.default_rng(11)
        spec = gaussian_kernel(SQRT2)
        X = normal_base()(40, rng)
        report = run_gof_test(X, normal_base(), self._cfg(), rng)
        h_draws = normal_base()(400, rng)
        y_draws = normal_base()(400, rng)
        bound = prior_mean_upper_bound(spec.kernel_bound,
                                       mmd2_empirical(h_draws, y_draws, spec))
        assert report.prior_samples.mean() < bound

    def test_resample_model_flag(self):
        rng = np.random.default_rng(12)
        X = normal_base()(30, rng)
        report = run_gof_test(X, normal_base(), self._cfg(resample_model_per_rep=True), rng)
        assert np.all(np.isfinite(report.prior_samples))


def test_null_and_alternative_rb_trends():
    # the ratio drifts up with n under the null and down under a mean shift
    warnings.simplefilter("ignore")
    rng = np.random.default_rng(13)
    cfg = RBConfig(concentration=10.0, mc_reps=300, kernel=gaussian_kernel(80.0),
                   resample_model_per_rep=True)
    null_medians, alt_medians = [], []
    for n in [30, 50, 200]:
        null_rbs, alt_rbs = [], []
        for _ in range(6):
            X0 = normal_base(5)(n, rng)
            null_rbs.append(run_gof_test(X0, normal_base(5), cfg, rng).rb)
            X1 = normal_base(5)(n, rng) + 0.5
            alt_rbs.append(run_gof_test(X1, normal_base(5), cfg, rng).rb)
        null_medians.append(np.median(null_rbs))
        alt_medians.append(np.median(alt_rbs))
    assert null_medians[0] <= null_medians[-1] + 1e-12
    assert alt_medians[0] >= alt_medians[-1] - 1e-12

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bnpmmd import discrepancy, rb as rb_module
from bnpmmd.discrepancy import mmd2_weighted
from bnpmmd.dp import sample_dp_posterior, sample_dp_prior
from bnpmmd.errors import (DegeneratePriorError, InvalidInputError,
                           InvalidParameterError)
from bnpmmd.kernels import gaussian_kernel
from bnpmmd.rb import (EVIDENCE_AGAINST, EVIDENCE_FOR, INCONCLUSIVE, RBConfig,
                       ecdf_eval, empirical_quantile, estimate_rb_strength,
                       _mc_chunk, run_gof_test, simulate_mmd_samples)

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

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError, match="quantile of an empty sample"):
            empirical_quantile(np.array([]), 0.5)

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

    @pytest.mark.parametrize("anchor_cell", [0, 20])
    def test_rejects_anchor_cell_off_the_grid(self, anchor_cell):
        with pytest.raises(InvalidParameterError, match="anchor_cell < grid_cells"):
            estimate_rb_strength(np.arange(40.0), np.arange(20.0), 20, anchor_cell)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("poisoned", ["prior", "posterior"])
    def test_non_finite_draws_rejected(self, poisoned, bad):
        # NaN fails every ECDF comparison, so 300 NaN prior draws among 1000
        # still gave a ratio and a strength
        rng = np.random.default_rng(2)
        draws = {"prior": rng.random(1000), "posterior": rng.random(1000) * 0.5}
        draws[poisoned][rng.permutation(1000)[:300]] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            estimate_rb_strength(draws["prior"], draws["posterior"], 20, 1)


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
        with pytest.raises(InvalidParameterError, match="model_size"):
            RBConfig(model_size=0)

    @pytest.mark.parametrize("a", [np.nan, np.inf, 0.0, -1.0])
    def test_concentration_positive_and_finite(self, a):
        # a NaN concentration ran until the Dirichlet normalizer gave up
        with pytest.raises(InvalidParameterError, match=f"positive concentration, got {a}"):
            RBConfig(concentration=a)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1, np.nan])
    def test_truncation_epsilon_in_unit_interval(self, eps):
        with pytest.raises(InvalidParameterError, match="truncation_epsilon must lie in"):
            RBConfig(truncation_epsilon=eps)

    def test_rb_cap(self):
        assert RBConfig().rb_cap == 20.0


class TestSimulate:
    def test_entries_finite_and_near_nonnegative(self):
        rng = np.random.default_rng(2)
        spec = gaussian_kernel(SQRT2)
        X = rng.standard_normal((30, 1))
        for draw in (lambda r: sample_dp_prior(5.0, normal_base(), 20, r),
                     lambda r: sample_dp_posterior(5.0, X, normal_base(), 20, r)):
            v = simulate_mmd_samples(draw, normal_base()(30, rng), 30, spec, 50, rng)
            assert v.shape == (50,)
            assert np.all(np.isfinite(v))
            assert np.all(v >= -1e-12)

    def test_flat_posterior_matches_concentration_matched_prior(self):
        # with no prior mass on the base, the posterior is a weighted bootstrap
        # of the data; when the data itself comes from the model, its draws are
        # indistinguishable from a prior with the same total concentration
        rng = np.random.default_rng(42)
        n, n_terms = 1000, 20
        spec = gaussian_kernel(SQRT2)
        X = normal_base()(n, rng)
        Y = normal_base()(100, rng)
        prior = simulate_mmd_samples(lambda r: sample_dp_prior(float(n), normal_base(), n_terms, r),
                                     Y, 100, spec, 1000, rng)
        posterior = simulate_mmd_samples(lambda r: sample_dp_posterior(0.0, X, None, n_terms, r),
                                         Y, 100, spec, 1000, rng)
        assert stats.ks_2samp(prior, posterior).pvalue > 0.01

    def test_posterior_concentrates_below_prior_under_null(self):
        rng = np.random.default_rng(3)
        spec = gaussian_kernel(SQRT2)
        X = normal_base()(50, rng)
        Y = normal_base()(50, rng)
        prior = simulate_mmd_samples(lambda r: sample_dp_prior(25.0, normal_base(), 40, r),
                                     Y, 50, spec, 400, rng)
        posterior = simulate_mmd_samples(
            lambda r: sample_dp_posterior(25.0, X, normal_base(), 40, r), Y, 50, spec, 400, rng)
        assert posterior.mean() < prior.mean()


# (d, prior or posterior, a, n, N): prior weights at a/N = 25/42 come from
# the log-space path, posterior weights at (a+n)/N = 75/42 from Gamma draws,
# and at 22/60 from log space
CHUNK_CASES = {
    "prior-d5": (5, "prior", 25.0, 50, 42),
    "posterior-d5": (5, "posterior", 25.0, 50, 42),
    "prior-d20": (20, "prior", 25.0, 50, 42),
    "posterior-d20": (20, "posterior", 25.0, 50, 42),
    "posterior-log-space-d5": (5, "posterior", 2.0, 20, 60),
}


class TestChunks:
    def test_chunk_rule(self):
        assert _mc_chunk(42, 50) == 15
        assert _mc_chunk(60, 50) == 9
        assert _mc_chunk(42, 1000) == 1
        assert _mc_chunk(10000, 50) == 1

    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_chunked_draws_match_one_measure_at_a_time(self, case):
        # chunks reorder the stream, so the draws differ one by one; their
        # distribution must not
        d, which, a, n, k = CHUNK_CASES[case]
        rng = np.random.default_rng(d)
        X, Y = rng.standard_normal((n, d)), rng.standard_normal((50, d))
        spec = gaussian_kernel(float(d))
        c = _mc_chunk(k, 50)
        assert c > 1

        def draw(size):
            if which == "prior":
                return lambda r: sample_dp_prior(a, normal_base(d), k, r, size=size)
            return lambda r: sample_dp_posterior(a, X, normal_base(d), k, r, size=size)

        chunked = simulate_mmd_samples(draw(c), Y, 50, spec, 4000, np.random.default_rng(100 + d))
        one = simulate_mmd_samples(draw(None), Y, 50, spec, 4000, np.random.default_rng(200 + d))
        assert stats.ks_2samp(chunked, one).pvalue > 0.01

    def test_last_chunk_is_cut(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((50, 5))
        spec = gaussian_kernel(5.0)
        draw = lambda r: sample_dp_prior(25.0, normal_base(5), 42, r, size=15)
        values = simulate_mmd_samples(draw, Y, 50, spec, 40, np.random.default_rng(8))
        r = np.random.default_rng(8)
        whole = np.concatenate([mmd2_weighted(draw(r), Y, spec) for _ in range(3)])
        np.testing.assert_array_equal(values, whole[:40])

    @pytest.mark.parametrize("kind", ["no_difference", "mean_shift"])
    def test_resampled_test_draws_as_one_pair_at_a_time(self, kind):
        # a model sample, then a measure, for each replication; stacks of 13
        # pairs with a short last one must give each pair's value alone
        d, n, mc_reps = 5, 50, 100
        X = normal_base(d)(n, np.random.default_rng(1)) + (0.5 if kind == "mean_shift" else 0.0)
        cfg = RBConfig(mc_reps=mc_reps, explicit_terms=42, truncation_epsilon=None,
                       resample_model_per_rep=True)
        assert _mc_chunk(max(42, n), n) == 13 and mc_reps % 13
        report = run_gof_test(X, normal_base(d), cfg, np.random.default_rng(2))
        r, a = np.random.default_rng(2), cfg.concentration

        def one_at_a_time(draw):
            values = []
            for _ in range(mc_reps):
                Y = normal_base(d)(n, r)
                values.append(mmd2_weighted(draw(), Y, cfg.kernel))
            return values

        prior = one_at_a_time(lambda: sample_dp_prior(a, normal_base(d), 42, r))
        posterior = one_at_a_time(lambda: sample_dp_posterior(a, X, normal_base(d), 42, r))
        np.testing.assert_array_equal(report.prior_samples, prior)
        np.testing.assert_array_equal(report.posterior_samples, posterior)

    def test_resampled_chunks_keep_every_block_within_the_chunk_entries(self, monkeypatch):
        # with N well below m a chunk sized by N max(m, N) alone stacked
        # 27 model self blocks of 50^2 entries, 67,500, past the kept arrays
        shapes, real = [], discrepancy._blocks

        def blocks(shape):
            shapes.append(shape)
            return real(shape)

        monkeypatch.setattr(discrepancy, "_blocks", blocks)
        X = normal_base(20)(50, np.random.default_rng(8))
        cfg = RBConfig(mc_reps=60, explicit_terms=24, truncation_epsilon=None,
                       resample_model_per_rep=True)
        report = run_gof_test(X, normal_base(20), cfg, np.random.default_rng(8))
        assert (13, 50, 50) in shapes
        assert max(np.prod(shape) for shape in shapes) <= 2**15
        monkeypatch.setattr(rb_module, "_mc_chunk", lambda n_terms, m: 1)  # each pair alone
        alone = run_gof_test(X, normal_base(20), cfg, np.random.default_rng(8))
        np.testing.assert_array_equal(report.prior_samples, alone.prior_samples)
        np.testing.assert_array_equal(report.posterior_samples, alone.posterior_samples)

    def test_fixed_model_test_draws_chunks(self, monkeypatch):
        sizes = []
        real = rb_module.sample_dp_prior

        def prior(*args, size=None):
            sizes.append(size)
            return real(*args, size=size)

        monkeypatch.setattr(rb_module, "sample_dp_prior", prior)
        X = normal_base(5)(50, np.random.default_rng(9))
        cfg = RBConfig(mc_reps=100, explicit_terms=42, truncation_epsilon=None)
        run_gof_test(X, normal_base(5), cfg, np.random.default_rng(10))
        assert sizes == [15] * 7
        sizes.clear()
        run_gof_test(X, normal_base(5), replace(cfg, resample_model_per_rep=True),
                     np.random.default_rng(10))
        assert sizes == [None] * 100


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

    @pytest.mark.parametrize("terms", [{}, {"truncation_epsilon": None, "explicit_terms": 5}],
                             ids=["eps", "explicit"])
    def test_zero_concentration_rejected_before_any_draw(self, terms):
        rng = np.random.default_rng(36)
        state = rng.bit_generator.state
        X = normal_base()(20, np.random.default_rng(37))
        with pytest.raises(InvalidParameterError, match="positive concentration, got 0.0"):
            run_gof_test(X, normal_base(), self._cfg(concentration=0.0, **terms), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed", "resampled"])
    def test_model_sampler_of_the_wrong_row_count_rejected(self, resample):
        short = lambda k, rng: rng.standard_normal((k - 1, 2))
        X = normal_base(2)(30, np.random.default_rng(11))
        with pytest.raises(InvalidInputError, match="wrong number of rows"):
            run_gof_test(X, short, self._cfg(resample_model_per_rep=resample),
                         np.random.default_rng(12), base_sampler=normal_base(2))

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

    @pytest.mark.parametrize("poisoned", ["data", "model"])
    def test_non_finite_input_rejected(self, poisoned):
        # one NaN cell in 50x5 data left 30 of 100 posterior draws NaN, silently
        rng = np.random.default_rng(34)
        X, Y = normal_base(5)(50, rng), normal_base(5)(50, rng)
        {"data": X, "model": Y}[poisoned][17, 2] = np.nan
        cfg = self._cfg(concentration=25.0, mc_reps=100, kernel=gaussian_kernel(80.0))
        with pytest.raises(InvalidInputError, match="non-finite"):
            run_gof_test(X, Y, cfg, rng, base_sampler=normal_base(5))

    @pytest.mark.parametrize("resample", [False, True])
    def test_fixed_model_sample_rejected_before_any_draw(self, resample):
        # without a base the array was called as a sampler after the
        # truncation draw (TypeError); with resampling it cannot be redrawn
        rng = np.random.default_rng(46)
        X, Y = normal_base(5)(50, np.random.default_rng(47)), normal_base(5)(50, rng)
        state = rng.bit_generator.state
        cfg = self._cfg(resample_model_per_rep=resample)
        base = {"base_sampler": normal_base(5)} if resample else {}
        with pytest.raises(InvalidParameterError, match="fixed model sample"):
            run_gof_test(X, Y, cfg, rng, **base)
        assert rng.bit_generator.state == state

    def test_fixed_model_sample_with_base(self):
        # the fixed sample is the one a sampler returning it would give
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((50, 5)), rng.standard_normal((50, 5))
        cfg = RBConfig(mc_reps=40)
        fixed = run_gof_test(X, Y, cfg, np.random.default_rng(1), base_sampler=normal_base(5))
        drawn = run_gof_test(X, lambda k, r: Y, cfg, np.random.default_rng(1),
                             base_sampler=normal_base(5))
        assert fixed.rb == drawn.rb == 2.5
        assert np.array_equal(fixed.prior_samples, drawn.prior_samples)
        assert np.array_equal(fixed.posterior_samples, drawn.posterior_samples)

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

    def test_median_resolved_once_per_test(self, monkeypatch):
        # each simulation resolved its own median against its own model draw,
        # so the ratio compared prior and posterior under two bandwidths
        import bnpmmd.discrepancy as discrepancy
        real = discrepancy.mmd2_weighted
        specs = set()

        def recorder(P, Y, spec, **kwargs):
            specs.add(spec)
            return real(P, Y, spec, **kwargs)

        monkeypatch.setattr(discrepancy, "mmd2_weighted", recorder)
        X = normal_base(5)(50, np.random.default_rng(38))
        cfg = self._cfg(concentration=25.0, mc_reps=50, kernel=gaussian_kernel(None),
                        resample_model_per_rep=True)
        run_gof_test(X, normal_base(5), cfg, np.random.default_rng(39))
        assert len(specs) == 1
        assert not next(iter(specs)).needs_median

    @pytest.mark.parametrize("resample", [False, True])
    def test_non_finite_model_sample_rejected_before_median(self, resample):
        X = normal_base(2)(30, np.random.default_rng(40))
        cfg = self._cfg(kernel=gaussian_kernel(None), resample_model_per_rep=resample)
        with pytest.raises(InvalidInputError, match="non-finite"):
            run_gof_test(X, lambda k, r: np.full((k, 2), np.nan), cfg, np.random.default_rng(41))

    def test_non_finite_redrawn_model_sample_rejected(self):
        # only the 10th-40th model draws hold a NaN; the redraws skipped the
        # finite check, so the test returned evidence for H0
        calls = []

        def model(k, rng):
            calls.append(k)
            sample = rng.standard_normal((k, 2))
            if 10 <= len(calls) <= 40:
                sample[0, 0] = np.nan
            return sample

        X = normal_base(2)(30, np.random.default_rng(42))
        cfg = self._cfg(resample_model_per_rep=True)
        with pytest.raises(InvalidInputError, match="model sample"):
            run_gof_test(X, model, cfg, np.random.default_rng(43), base_sampler=normal_base(2))
        assert len(calls) == 10

    @pytest.mark.parametrize("kernel, calls", [(gaussian_kernel(SQRT2), 100),
                                               (gaussian_kernel(None), 101)],
                             ids=["fixed", "median"])
    def test_resampling_draws_only_used_model_samples(self, kernel, calls):
        # one model draw per replication of each simulation and, with a median
        # kernel, the one it is resolved against; each simulation also drew a
        # model sample up front that no replication compared against
        drawn = []

        def model(k, rng):
            drawn.append(k)
            return rng.standard_normal((k, 2))

        X = normal_base(2)(40, np.random.default_rng(44))
        cfg = self._cfg(mc_reps=50, kernel=kernel, resample_model_per_rep=True)
        run_gof_test(X, model, cfg, np.random.default_rng(45), base_sampler=normal_base(2))
        assert len(drawn) == calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_concentration_completes(self, seed):
        # every Gamma(1e-5 / j) weight of the truncation rule underflowed to
        # zero, so the test raised NumericUnderflowError
        rng = np.random.default_rng(seed)
        X = normal_base(5)(50, rng)
        report = run_gof_test(X, normal_base(5), self._cfg(concentration=1e-5), rng)
        assert 2 <= report.n_terms <= 5

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed", "resampled"])
    @pytest.mark.parametrize("d", [5, 60])
    def test_prior_at_round_off_raises(self, d, resample):
        # at sigma = 1e9 every draw is round-off, whose order set the decision:
        # at d = 5, null, mean-shift and variance-shift data all got rb 0.867
        rng = np.random.default_rng(0)
        X = normal_base(d)(50, rng)
        cfg = RBConfig(mc_reps=400, kernel=gaussian_kernel(1e9), resample_model_per_rep=resample)
        with pytest.raises(DegeneratePriorError, match="round-off") as err:
            run_gof_test(X, normal_base(d), cfg, rng)
        assert err.value.prior_samples.shape == err.value.posterior_samples.shape == (400,)
        assert np.abs(err.value.prior_samples).max() < 2e-15

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed", "resampled"])
    def test_large_bandwidth_above_round_off_decides(self, resample):
        rng = np.random.default_rng(0)
        X = normal_base(5)(50, rng)
        cfg = RBConfig(mc_reps=400, kernel=gaussian_kernel(1e6), resample_model_per_rep=resample)
        report = run_gof_test(X, normal_base(5), cfg, rng)
        assert np.abs(report.prior_samples).max() > 1e-12

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

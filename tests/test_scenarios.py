import numpy as np
import pytest

from bnpmmd.errors import InvalidInputError, InvalidParameterError
from bnpmmd.kernels import gaussian_kernel
from bnpmmd.rb import RBConfig
from bnpmmd.scenarios import (SCENARIOS, RocCurve, ScenarioSpec,
                              fnp_permutation_test, lognormal_cov,
                              null_model_sampler, roc_from_scores,
                              run_roc_study, sample_scenario, scenario_sampler)


def auc_pairwise_oracle(h0, h1):
    # P(score under H1 < score under H0), ties counted one half
    h0 = np.asarray(h0)[:, None]
    h1 = np.asarray(h1)[None, :]
    return float(np.mean((h1 < h0) + 0.5 * (h1 == h0)))


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec("cauchy", 2, 10)
        with pytest.raises(InvalidParameterError):
            scenario_sampler("cauchy", 2)

    @pytest.mark.parametrize("n", [0, -5])
    def test_scenario_size_must_be_positive(self, n):
        with pytest.raises(InvalidParameterError, match=f"size must be positive, got {n}"):
            ScenarioSpec("no_difference", 2, n)

    def test_no_difference_is_null_model(self):
        a = sample_scenario(ScenarioSpec("no_difference", 3, 100), np.random.default_rng(0))
        b = null_model_sampler(3)(100, np.random.default_rng(0))
        assert np.array_equal(a, b)

    def test_lognormal_cov_structure(self):
        B = lognormal_cov(4)
        assert np.all(np.diag(B) == 0.25)
        off = B[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.2)
        for dim in (1, 2, 60, 500):  # positive definite, so the skewness sampler can factor it
            np.linalg.cholesky(lognormal_cov(dim))

    @pytest.mark.parametrize("name,mean,var", [
        ("no_difference", 0.0, 1.0),
        ("mean_shift", 0.5, 1.0),
        ("mixture", 0.0, 2.0),          # 0.5 N(-1,1) + 0.5 N(1,1)
        ("variance_shift", 0.0, 2.0),
        ("heavy_tail", 0.0, 3.0),       # t with 3 dof
        ("kurtosis", 0.0, np.pi**2 / 3.0),
    ])
    def test_first_two_moments(self, name, mean, var):
        rng = np.random.default_rng(1)
        X = sample_scenario(ScenarioSpec(name, 3, 100000), rng)
        n = X.shape[0]
        se_mean = X.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - mean) <= 3 * se_mean)
        centered_sq = (X - X.mean(axis=0)) ** 2
        se_var = centered_sq.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(X.var(axis=0, ddof=1) - var) <= 3 * se_var)

    def test_skewness_moments(self):
        # exp of a correlated normal: coordinate mean exp(0.25/2), variance
        # (exp(0.25) - 1) exp(0.25)
        rng = np.random.default_rng(2)
        X = sample_scenario(ScenarioSpec("skewness", 3, 100000), rng)
        mean = np.exp(0.125)
        var = (np.exp(0.25) - 1.0) * np.exp(0.25)
        se_mean = X.std(axis=0, ddof=1) / np.sqrt(X.shape[0])
        assert np.all(np.abs(X.mean(axis=0) - mean) <= 3 * se_mean)
        centered_sq = (X - X.mean(axis=0)) ** 2
        se_var = centered_sq.std(axis=0, ddof=1) / np.sqrt(X.shape[0])
        assert np.all(np.abs(X.var(axis=0, ddof=1) - var) <= 4 * se_var)

    def test_all_scenarios_sample(self):
        rng = np.random.default_rng(3)
        for name in SCENARIOS:
            X = sample_scenario(ScenarioSpec(name, 2, 50), rng)
            assert X.shape == (50, 2)
            assert np.all(np.isfinite(X))


class TestPermutationTest:
    def test_constant_data_gives_one(self):
        X = np.ones((10, 2))
        Y = np.ones((8, 2))
        p = fnp_permutation_test(X, Y, gaussian_kernel(1.0), 99, np.random.default_rng(4))
        assert p == 1.0

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X, Y = rng.standard_normal((6, 1)), rng.standard_normal((7, 1))
            p = fnp_permutation_test(X, Y, gaussian_kernel(1.0), 49, rng)
            assert 0.0 < p <= 1.0

    def test_separated_samples_reject(self):
        spec = gaussian_kernel(np.sqrt(2.0))
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((30, 1))
            Y = rng.standard_normal((30, 1)) + 5.0
            if fnp_permutation_test(X, Y, spec, 200, rng) <= 0.01:
                hits += 1
        assert hits >= 95

    def test_rejects_bad_perm_count(self):
        with pytest.raises(InvalidParameterError):
            fnp_permutation_test(np.zeros((2, 1)), np.zeros((2, 1)),
                                 gaussian_kernel(1.0), 0, np.random.default_rng(6))

    @pytest.mark.parametrize("poisoned", ["X", "Y"])
    def test_non_finite_sample_rejected(self, poisoned):
        # one NaN cell made every permuted statistic NaN, so none reached the
        # observed one and p came out at its floor 1 / (num_perms + 1)
        rng = np.random.default_rng(7)
        samples = {"X": rng.standard_normal((20, 2)), "Y": rng.standard_normal((20, 2))}
        samples[poisoned][4, 1] = np.nan
        with pytest.raises(InvalidInputError, match=f"^{poisoned} contains non-finite"):
            fnp_permutation_test(samples["X"], samples["Y"], gaussian_kernel(1.0), 99, rng)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError, match="^Y must be non-empty"):
            fnp_permutation_test(np.zeros((3, 1)), np.zeros((0, 1)),
                                 gaussian_kernel(1.0), 9, np.random.default_rng(8))

    def test_samples_of_different_widths_rejected(self):
        # np.vstack raised a bare numpy ValueError when pooling them
        with pytest.raises(InvalidInputError, match=r"^dimension mismatch: X has 2 .*, Y 3"):
            fnp_permutation_test(np.zeros((3, 2)), np.zeros((4, 3)),
                                 gaussian_kernel(1.0), 9, np.random.default_rng(9))

    def test_stacks_of_samples_rejected(self):
        # two (c, N, d) stacks were pooled and permuted as one and gave a p-value
        stack = np.random.default_rng(10).standard_normal((2, 5, 3))
        with pytest.raises(InvalidInputError, match=r"^X must be non-empty rows \(N, d\)"):
            fnp_permutation_test(stack, stack + 1.0, gaussian_kernel(1.0), 9,
                                 np.random.default_rng(11))


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_from_scores(np.full(10, 20.0), np.zeros(10))
        assert curve.auc == pytest.approx(1.0)

    @pytest.mark.parametrize("h0, h1", [([], [1.0]), ([1.0], [])], ids=["no-h0", "no-h1"])
    def test_empty_scores_rejected(self, h0, h1):
        with pytest.raises(InvalidInputError, match="both hypotheses"):
            roc_from_scores(np.array(h0), np.array(h1))

    def test_default_threshold_range_is_the_ratio_range(self):
        assert roc_from_scores(np.ones(2), np.ones(2)).thresholds[-1] == RBConfig().rb_cap == 20.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN ratio never falls below a threshold, so an all-NaN H1 sample
        # read as a test that never rejects: AUC 0
        with pytest.raises(InvalidInputError, match="finite"):
            roc_from_scores(np.linspace(1.0, 19.0, 10), np.full(10, bad))
        with pytest.raises(InvalidInputError, match="finite"):
            roc_from_scores(np.array([2.0, bad]), np.array([1.0, 3.0]))

    def test_identical_scores_give_half(self):
        v = np.linspace(1.0, 19.0, 15)
        curve = roc_from_scores(v, v.copy())
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_small_hand_case(self):
        # pairwise oracle: pairs (2,1) (2,3) (10,1) (10,3) -> 3/4
        curve = roc_from_scores(np.array([2.0, 10.0]), np.array([1.0, 3.0]),
                                num_thresholds=401)
        oracle = auc_pairwise_oracle([2.0, 10.0], [1.0, 3.0])
        assert oracle == 0.75
        assert abs(curve.auc - oracle) <= 1 / 401 + 0.02

    def test_grid_matches_pairwise_oracle_on_ratio_lattice(self):
        # ratio outputs live on a lattice (multiples of 1 / (anchor share *
        # draws), here 0.02); a grid finer than the lattice separates every
        # jump, so the completed trapezoid reproduces the pairwise area
        rng = np.random.default_rng(7)
        for _ in range(50):
            h0 = rng.integers(0, 1001, size=rng.integers(5, 40)) * 0.02
            h1 = rng.integers(0, 1001, size=rng.integers(5, 40)) * 0.02
            curve = roc_from_scores(h0, h1, num_thresholds=2001)
            assert abs(curve.auc - auc_pairwise_oracle(h0, h1)) <= 1 / 2001 + 1e-9

    def test_grid_near_pairwise_oracle_on_continuous_scores(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h0 = rng.uniform(0, 20, size=rng.integers(5, 40))
            h1 = rng.uniform(0, 20, size=rng.integers(5, 40))
            curve = roc_from_scores(h0, h1, num_thresholds=401)
            assert abs(curve.auc - auc_pairwise_oracle(h0, h1)) <= 0.02

    @pytest.mark.parametrize("num_thresholds", [0, 1])
    def test_too_few_thresholds_rejected(self, num_thresholds):
        # one grid point or none has no curve, so no area to report
        with pytest.raises(InvalidParameterError, match="num_thresholds"):
            roc_from_scores(np.array([2.0, 10.0]), np.array([1.0, 3.0]),
                            num_thresholds=num_thresholds)

    @pytest.mark.parametrize("threshold_max", [np.nan, -1.0, 0.0, np.inf])
    def test_threshold_max_must_be_positive_and_finite(self, threshold_max):
        # each gave every threshold 0 or NaN, so a silent AUC of 0.5 for perfectly separated scores
        assert roc_from_scores([3.0, 2.0], [0.2, 0.1], threshold_max=20.0).auc == 1.0
        with pytest.raises(InvalidParameterError, match="threshold_max must be positive and finite"):
            roc_from_scores([3.0, 2.0], [0.2, 0.1], threshold_max=threshold_max)

    def test_monotone_rates(self):
        rng = np.random.default_rng(8)
        curve = roc_from_scores(rng.uniform(0, 20, 30), rng.uniform(0, 20, 30))
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert len(curve.thresholds) == 401
        assert curve.thresholds[0] == 0.0
        assert curve.thresholds[-1] == 20.0


class TestRocStudy:
    def _cfg(self):
        return RBConfig(concentration=10.0, mc_reps=100, kernel=gaussian_kernel(80.0),
                        truncation_epsilon=None, explicit_terms=25)

    def test_mean_shift_detected(self):
        rng = np.random.default_rng(9)
        curve = run_roc_study(ScenarioSpec("no_difference", 10, 40),
                              ScenarioSpec("mean_shift", 10, 40),
                              self._cfg(), 6, rng)
        assert curve.auc >= 0.9
        assert curve.excluded == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_roc_study(ScenarioSpec("no_difference", 2, 30),
                          ScenarioSpec("mean_shift", 3, 30),
                          self._cfg(), 4, np.random.default_rng(11))

    def test_too_few_reps_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_roc_study(ScenarioSpec("no_difference", 2, 30),
                          ScenarioSpec("mean_shift", 2, 30),
                          self._cfg(), 1, np.random.default_rng(12))

    def test_too_few_thresholds_rejected_before_any_replication(self, monkeypatch):
        import bnpmmd.scenarios as sc
        calls = []
        monkeypatch.setattr(sc, "run_gof_test", lambda *a, **k: calls.append(1))
        with pytest.raises(InvalidParameterError, match="num_thresholds"):
            run_roc_study(ScenarioSpec("no_difference", 2, 30),
                          ScenarioSpec("mean_shift", 2, 30),
                          self._cfg(), 4, np.random.default_rng(14), num_thresholds=1)
        assert calls == []

    def test_hypothesis_with_every_replication_dropped_raises_naming_it(self):
        from bnpmmd.errors import DegeneratePriorError
        cfg = RBConfig(concentration=5.0, mc_reps=60, kernel=gaussian_kernel(1e9))
        with pytest.raises(DegeneratePriorError,
                           match="all 2 replications of scenario 'no_difference' were dropped"):
            run_roc_study(ScenarioSpec("no_difference", 2, 20),
                          ScenarioSpec("mean_shift", 2, 20), cfg, 2, np.random.default_rng(1))

    def test_degenerate_runs_are_excluded_with_count(self, monkeypatch):
        import bnpmmd.scenarios as sc
        from bnpmmd.errors import DegeneratePriorError
        real = sc.run_gof_test
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise DegeneratePriorError("constant prior")
            return real(*args, **kwargs)

        monkeypatch.setattr(sc, "run_gof_test", flaky)
        curve = run_roc_study(ScenarioSpec("no_difference", 2, 30),
                              ScenarioSpec("mean_shift", 2, 30),
                              self._cfg(), 6, np.random.default_rng(13))
        assert curve.excluded == 4
        assert 0.0 <= curve.auc <= 1.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bnpmmd.dp import (DEFAULT_MAX_TERMS, DiscreteMeasure, PosteriorParams,
                       sample_dp_posterior, sample_dp_prior, sample_stick_breaking,
                       stopping_rule_N, symmetric_dirichlet)
from bnpmmd.errors import InvalidParameterError
from bnpmmd.gan import GeneratorNet, TrainConfig, train
from bnpmmd.rb import RBConfig, run_gof_test


def normal_base(dim=1):
    return lambda k, rng: rng.standard_normal((k, dim))


def zero_base(dim=1):
    return lambda k, rng: np.zeros((k, dim))


class TestStoppingRule:
    def test_never_stops_at_one(self):
        # the ratio at j=1 is identically 1, so any eps < 1 forces N >= 2
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert stopping_rule_N(5.0, 0.5, DEFAULT_MAX_TERMS, rng).n_terms >= 2

    def test_clamp_contract(self):
        rng = np.random.default_rng(1)
        res = stopping_rule_N(25.0, 1e-3, 3, rng)
        assert res.n_terms == 3
        assert res.clamped

    def test_zero_concentration_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidParameterError):
            stopping_rule_N(0.0, 0.5, DEFAULT_MAX_TERMS, rng)

    def test_distribution_matches_independent_oracle(self):
        # oracle: the mass ratio at step j is Beta(a/j, a(j-1)/j), independent
        # across j because the Gamma vector is redrawn fresh; N is the first
        # j >= 2 where that Beta variable drops below eps
        a, eps, draws = 25.0, 1e-3, 10000
        rng = np.random.default_rng(101)
        impl = np.array([stopping_rule_N(a, eps, DEFAULT_MAX_TERMS, rng).n_terms
                         for _ in range(draws)])

        orng = np.random.default_rng(202)
        alive = np.ones(draws, dtype=bool)
        oracle = np.zeros(draws, dtype=int)
        j = 1
        while alive.any():
            j += 1
            ratios = orng.beta(a / j, a * (j - 1) / j, size=draws)
            stop = alive & (ratios < eps)
            oracle[stop] = j
            alive &= ~stop
        res = stats.ks_2samp(impl, oracle)
        assert res.pvalue > 0.01


class TestPriorSampling:
    def test_simplex(self):
        rng = np.random.default_rng(3)
        m = sample_dp_prior(25.0, normal_base(2), 40, rng)
        assert np.all(m.weights >= 0)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert m.atoms.shape == (40, 2)

    def test_huge_concentration_flattens_weights(self):
        # Monte Carlo check of the almost-sure weight limit 1/N
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(1000):
            m = sample_dp_prior(1e7, normal_base(), 10, rng)
            if np.max(np.abs(m.weights - 0.1)) < 0.01:
                hits += 1
        assert hits >= 990

    def test_max_weight_gap_decreasing_in_concentration(self):
        rng = np.random.default_rng(5)
        gaps = []
        for a in [1e2, 1e4, 1e6]:
            vals = [np.max(np.abs(sample_dp_prior(a, zero_base(), 20, rng).weights - 1 / 20))
                    for _ in range(2000)]
            gaps.append(np.mean(vals))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_weight_moments(self):
        # E[J] = 1/N, Var[J] = (N-1)/(N^2 (a+1))
        a, N, reps = 25.0, 50, 20000
        rng = np.random.default_rng(6)
        first = np.array([sample_dp_prior(a, zero_base(), N, rng).weights[0]
                          for _ in range(reps)])
        assert first.mean() == pytest.approx(1.0 / N, abs=3 * first.std() / np.sqrt(reps))
        target_var = (N - 1) / (N**2 * (a + 1))
        s2 = first.var(ddof=1)
        centered = (first - first.mean()) ** 2
        se_var = centered.std(ddof=1) / np.sqrt(reps)
        assert abs(s2 - target_var) < 3 * se_var

    def test_zero_concentration_prior_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InvalidParameterError):
            sample_dp_prior(0.0, normal_base(), 5, rng)

    def test_tiny_shape_survives_underflow(self):
        # per-coordinate shape 1e-4: log-space sampling keeps the normalizer alive
        rng = np.random.default_rng(8)
        w = symmetric_dirichlet(0.05, 500, rng)
        assert np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorSampling:
    def test_flat_prior_atoms_are_data_rows(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((15, 3))
        post = PosteriorParams.from_prior(0.0, data)
        m = sample_dp_posterior(post, 60, rng)
        row_set = {tuple(r) for r in data}
        assert all(tuple(r) in row_set for r in m.atoms)

    def test_simplex(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((5, 1))
        post = PosteriorParams.from_prior(3.0, data, normal_base())
        m = sample_dp_posterior(post, 25, rng)
        assert np.all(m.weights >= 0)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixture_fraction_matches_binomial(self):
        # a = n makes the base-draw probability exactly 1/2
        rng = np.random.default_rng(11)
        n = 40
        data = np.zeros((n, 1))
        post = PosteriorParams.from_prior(float(n), data, lambda k, r: np.ones((k, 1)))
        draws = 10000
        m = sample_dp_posterior(post, draws, rng)
        frac = np.mean(m.atoms[:, 0] == 1.0)
        se = np.sqrt(0.25 / draws)
        assert abs(frac - 0.5) <= 3 * se

    def test_posterior_moment(self):
        # E[(J*)^2] = (a+n+N)/((a+n+1) N^2)
        rng = np.random.default_rng(12)
        a, n, N = 5.0, 20, 30
        data = np.zeros((n, 1))
        post = PosteriorParams.from_prior(a, data, zero_base())
        reps = 20000
        sq = np.array([sample_dp_posterior(post, N, rng).weights[0] ** 2
                       for _ in range(reps)])
        target = (a + n + N) / ((a + n + 1) * N**2)
        assert abs(sq.mean() - target) <= 3 * sq.std(ddof=1) / np.sqrt(reps)

    def test_empty_data_rejected(self):
        with pytest.raises(InvalidParameterError):
            PosteriorParams.from_prior(1.0, np.zeros((0, 2)), zero_base())


class TestStickBreaking:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(13)
        m = sample_stick_breaking(2.0, normal_base(), 200, rng)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(m.weights >= 0)

    def test_third_weight_mean(self):
        # E[w_i] = (a/(a+1))^(i-1) / (a+1); a = 1 gives E[w_3] = 1/8
        rng = np.random.default_rng(14)
        reps = 20000
        w3 = np.array([sample_stick_breaking(1.0, zero_base(), 25, rng).weights[2]
                       for _ in range(reps)])
        assert abs(w3.mean() - 0.125) <= 3 * w3.std(ddof=1) / np.sqrt(reps)

    def test_half_line_mass_matches_base(self):
        # mean of F(A) over draws equals H(A) for A = (-inf, 0.3]
        rng = np.random.default_rng(15)
        reps = 3000
        masses = np.empty(reps)
        for i in range(reps):
            m = sample_stick_breaking(4.0, normal_base(), 100, rng)
            masses[i] = m.weights[m.atoms[:, 0] <= 0.3].sum()
        target = stats.norm.cdf(0.3)
        assert abs(masses.mean() - target) <= 3 * masses.std(ddof=1) / np.sqrt(reps)

    def test_bad_params(self):
        rng = np.random.default_rng(16)
        with pytest.raises(InvalidParameterError):
            sample_stick_breaking(0.0, zero_base(), 5, rng)
        with pytest.raises(InvalidParameterError):
            sample_stick_breaking(1.0, zero_base(), 0, rng)


def test_gamma_and_stick_breaking_samplers_agree():
    # both truncations target the same process: compare the mean of a bounded
    # test function under each by a two-sample t-test at the 1% level
    rng = np.random.default_rng(17)
    a, terms, draws = 5.0, 500, 10000

    def measure_mass(m):
        return m.weights[m.atoms[:, 0] <= 0.3].sum()

    via_gamma = np.array([measure_mass(sample_dp_prior(a, normal_base(), terms, rng))
                          for _ in range(draws)])
    via_stick = np.array([measure_mass(sample_stick_breaking(a, normal_base(), terms, rng))
                          for _ in range(draws)])
    res = stats.ttest_ind(via_gamma, via_stick, equal_var=False)
    assert res.pvalue > 0.01


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 50.0), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_prior_simplex_property(a, n_terms, seed):
    rng = np.random.default_rng(seed)
    m = sample_dp_prior(a, zero_base(), n_terms, rng)
    assert np.all(m.weights >= 0)
    assert abs(m.weights.sum() - 1.0) <= 1e-12


def _run_gof(**cfg):
    rng = np.random.default_rng(18)
    run_gof_test(rng.standard_normal((10, 1)), normal_base(),
                 RBConfig(concentration=2.0, mc_reps=20, **cfg), rng)


def _run_train(**cfg):
    rng = np.random.default_rng(19)
    net = GeneratorNet.initialize([1, 4, 2], rng)
    train(net, rng.random((16, 2)),
          TrainConfig(minibatch=8, iterations=1, checkpoint_every=0, **cfg), rng)


@pytest.mark.parametrize("invalid", [
    lambda: _run_gof(truncation_epsilon=0.0),
    lambda: _run_gof(truncation_epsilon=1.5),
    lambda: _run_gof(truncation_epsilon=None, explicit_terms=0),
    lambda: _run_gof(explicit_terms=3),
    lambda: _run_train(truncation_epsilon=1.5),
    lambda: stopping_rule_N(0.0, 1e-3, DEFAULT_MAX_TERMS, np.random.default_rng(20)),
    lambda: stopping_rule_N(25.0, 1.5, DEFAULT_MAX_TERMS, np.random.default_rng(20)),
    lambda: stopping_rule_N(25.0, 1e-3, 0, np.random.default_rng(20)),
    lambda: sample_dp_prior(-1.0, zero_base(), 5, np.random.default_rng(20)),
], ids=["rb-eps-0", "rb-eps-1.5", "rb-explicit-0", "rb-both-set",
        "train-eps-1.5", "rule-concentration-0", "rule-eps-1.5", "rule-max-terms-0",
        "params-negative-concentration"])
def test_invalid_truncation_settings_rejected(invalid):
    with pytest.raises(InvalidParameterError):
        invalid()


class TestValidation:
    def test_measure_validation(self):
        with pytest.raises(InvalidParameterError):
            DiscreteMeasure(np.array([0.6, 0.6]), np.zeros((2, 1)))
        with pytest.raises(InvalidParameterError):
            DiscreteMeasure(np.array([-0.5, 1.5]), np.zeros((2, 1)))
        with pytest.raises(InvalidParameterError):
            DiscreteMeasure(np.array([0.5, 0.5]), np.zeros((3, 1)))

    def test_measure_is_immutable(self):
        m = DiscreteMeasure(np.array([0.5, 0.5]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            m.weights[0] = 1.0

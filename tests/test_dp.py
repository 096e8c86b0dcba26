import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bnpmmd.dp import (DEFAULT_MAX_TERMS, DiscreteMeasure, sample_dp_posterior,
                       sample_dp_prior, sample_stick_breaking, stopping_rule_N,
                       symmetric_dirichlet)
from bnpmmd.errors import InvalidInputError, InvalidParameterError, NumericUnderflowError
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
        # oracle: the rule as first written, with j Gamma weights per level
        eps = 1e-3
        rng, orng = np.random.default_rng(101), np.random.default_rng(202)
        for a, draws in [(25.0, 10000), (256.0, 1000)]:
            impl = [stopping_rule_N(a, eps, DEFAULT_MAX_TERMS, rng).n_terms
                    for _ in range(draws)]
            oracle = [gamma_stopping_rule(a, eps, orng) for _ in range(draws)]
            assert stats.ks_2samp(impl, oracle).pvalue > 0.01, a

    def test_small_concentration_stops_early(self):
        # every Gamma(1e-5 / j) weight underflows to zero, which once raised
        rng = np.random.default_rng(1)
        levels = {stopping_rule_N(1e-5, 1e-3, DEFAULT_MAX_TERMS, rng) for _ in range(50)}
        assert {res.n_terms for res in levels} <= set(range(2, 6))
        assert not any(res.clamped for res in levels)

    def test_concentration_below_the_smallest_shape_is_typed(self):
        # a / 2 rounds to zero, which numpy's Beta sampler rejects untyped
        with pytest.raises(NumericUnderflowError):
            stopping_rule_N(5e-324, 1e-3, DEFAULT_MAX_TERMS, np.random.default_rng(3))


def gamma_stopping_rule(a, eps, rng):
    """The rule as first written: at each level j >= 2 redraw j Gamma(a/j)
    weights and stop once the last carries less than ``eps`` of their total."""
    j = 1
    while True:
        j += 1
        h = rng.gamma(a / j, 1.0, size=j)
        if h[-1] / h.sum() < eps:
            return j


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
        m = sample_dp_posterior(0.0, data, None, 60, rng)
        row_set = {tuple(r) for r in data}
        assert all(tuple(r) in row_set for r in m.atoms)

    def test_simplex(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((5, 1))
        m = sample_dp_posterior(3.0, data, normal_base(), 25, rng)
        assert np.all(m.weights >= 0)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixture_fraction_matches_binomial(self):
        # a = n makes the base-draw probability exactly 1/2
        rng = np.random.default_rng(11)
        n = 40
        data = np.zeros((n, 1))
        draws = 10000
        m = sample_dp_posterior(float(n), data, lambda k, r: np.ones((k, 1)), draws, rng)
        frac = np.mean(m.atoms[:, 0] == 1.0)
        se = np.sqrt(0.25 / draws)
        assert abs(frac - 0.5) <= 3 * se

    def test_posterior_moment(self):
        # E[(J*)^2] = (a+n+N)/((a+n+1) N^2)
        rng = np.random.default_rng(12)
        a, n, N = 5.0, 20, 30
        data = np.zeros((n, 1))
        reps = 20000
        sq = np.array([sample_dp_posterior(a, data, zero_base(), N, rng).weights[0] ** 2
                       for _ in range(reps)])
        target = (a + n + N) / ((a + n + 1) * N**2)
        assert abs(sq.mean() - target) <= 3 * sq.std(ddof=1) / np.sqrt(reps)

    def test_empty_data_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_dp_posterior(1.0, np.zeros((0, 2)), zero_base(), 5, np.random.default_rng(0))

    def test_stack_of_data_rejected_naming_it(self):
        # a (c, N, d) stack ended in numpy's "too many values to unpack"
        named = r"^data must be rows \(N, d\), got shape \(2, 4, 1\)"
        with pytest.raises(InvalidInputError, match=named):
            sample_dp_posterior(1.0, np.zeros((2, 4, 1)), zero_base(), 5, np.random.default_rng(0))

    def test_stack_from_the_base_rejected_naming_it(self):
        base = lambda k, rng: np.zeros((k, 1, 1))
        with pytest.raises(InvalidInputError, match=r"^base sampler output must be rows \(N, d\)"):
            sample_dp_posterior(5.0, np.zeros((4, 1)), base, 30, np.random.default_rng(0))

    @pytest.mark.parametrize("a, base, named", [(-1.0, zero_base(), "non-negative"),
                                                (2.0, None, "base_sampler")],
                             ids=["negative-concentration", "no-base"])
    def test_bad_arguments_rejected_before_any_draw(self, a, base, named):
        rng = np.random.default_rng(15)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match=named):
            sample_dp_posterior(a, np.zeros((4, 1)), base, 5, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [lambda k: (1, 5), lambda k: (k, 1)], ids=["row", "column"])
    def test_base_rows_must_match_data(self, shape):
        # a one-row or one-column output broadcast into every base atom or coordinate
        data = np.random.default_rng(17).standard_normal((50, 5))
        base = lambda k, rng: rng.standard_normal(shape(k))
        with pytest.raises(InvalidInputError, match=r"base sampler returned shape \(\d+, \d\)"):
            sample_dp_posterior(50.0, data, base, 40, np.random.default_rng(18))


@pytest.mark.parametrize("a", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("draw", [
    lambda a, rng: sample_dp_prior(a, zero_base(), 5, rng),
    lambda a, rng: sample_dp_posterior(a, np.zeros((4, 1)), zero_base(), 5, rng),
    lambda a, rng: sample_stick_breaking(a, zero_base(), 5, rng),
    lambda a, rng: symmetric_dirichlet(a, 5, rng),
], ids=["prior", "posterior", "stick", "dirichlet"])
def test_non_finite_concentration_rejected_before_any_draw(draw, a):
    # an infinite stick put all its mass on the last atom; a NaN concentration
    # ran out the Dirichlet retries with NumericUnderflowError
    rng = np.random.default_rng(21)
    state = rng.bit_generator.state
    with pytest.raises(InvalidParameterError, match=f"got {a}"):
        draw(a, rng)
    assert rng.bit_generator.state == state


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

    def test_base_must_return_one_row_per_atom(self):
        with pytest.raises(InvalidInputError, match=r"want \(5, d\)"):
            sample_stick_breaking(1.0, lambda k, rng: np.zeros((1, 3)), 5,
                                  np.random.default_rng(16))

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
                 RBConfig(**{"concentration": 2.0, "mc_reps": 20, **cfg}), rng)


def _run_train(**cfg):
    rng = np.random.default_rng(19)
    net = GeneratorNet.initialize([1, 4, 2], rng)
    train(net, rng.random((16, 2)),
          TrainConfig(**{"minibatch": 8, "iterations": 1, "checkpoint_every": 0, **cfg}), rng)


@pytest.mark.parametrize("invalid", [
    lambda: _run_gof(truncation_epsilon=0.0),
    lambda: _run_gof(truncation_epsilon=1.5),
    lambda: _run_gof(truncation_epsilon=None, explicit_terms=0),
    lambda: _run_gof(explicit_terms=3),
    lambda: _run_gof(concentration=0.0),
    lambda: _run_gof(concentration=0.0, truncation_epsilon=None, explicit_terms=3),
    lambda: _run_train(truncation_epsilon=1.5),
    lambda: _run_train(step_size=-1.0),
    lambda: _run_train(step_size=0.0),
    lambda: _run_train(step_size=float("nan")),
    lambda: _run_train(checkpoint_every=-1),
    lambda: stopping_rule_N(0.0, 1e-3, DEFAULT_MAX_TERMS, np.random.default_rng(20)),
    lambda: stopping_rule_N(np.nan, 1e-3, DEFAULT_MAX_TERMS, np.random.default_rng(20)),
    lambda: stopping_rule_N(np.inf, 1e-3, DEFAULT_MAX_TERMS, np.random.default_rng(20)),
    lambda: stopping_rule_N(25.0, 1.5, DEFAULT_MAX_TERMS, np.random.default_rng(20)),
    lambda: stopping_rule_N(25.0, 1e-3, 0, np.random.default_rng(20)),
    lambda: sample_dp_prior(-1.0, zero_base(), 5, np.random.default_rng(20)),
], ids=["rb-eps-0", "rb-eps-1.5", "rb-explicit-0", "rb-both-set",
        "gof-concentration-0", "gof-concentration-0-explicit",
        "train-eps-1.5", "train-step-negative", "train-step-0", "train-step-nan",
        "train-checkpoint-negative", "rule-concentration-0", "rule-concentration-nan",
        "rule-concentration-inf", "rule-eps-1.5",
        "rule-max-terms-0", "params-negative-concentration"])
def test_invalid_truncation_settings_rejected(invalid):
    with pytest.raises(InvalidParameterError):
        invalid()


@pytest.mark.parametrize("concentration", [0.0, -1.0])
def test_stopping_rule_names_the_concentration_it_got(concentration):
    with pytest.raises(InvalidParameterError, match=f"positive concentration, got {concentration}"):
        stopping_rule_N(concentration, 1e-3, DEFAULT_MAX_TERMS, np.random.default_rng(20))


class TestValidation:
    def test_measure_validation(self):
        with pytest.raises(InvalidParameterError):
            DiscreteMeasure(np.array([0.6, 0.6]), np.zeros((2, 1)))
        with pytest.raises(InvalidParameterError):
            DiscreteMeasure(np.array([-0.5, 1.5]), np.zeros((2, 1)))
        with pytest.raises(InvalidParameterError):
            DiscreteMeasure(np.array([0.5, 0.5]), np.zeros((3, 1)))
        # abs(nan - 1) > tol is False, so a NaN weight once passed the simplex check
        with pytest.raises(InvalidParameterError, match="not 1"):
            DiscreteMeasure(np.array([np.nan, 1.0]), np.zeros((2, 1)))

    def test_measure_is_immutable(self):
        m = DiscreteMeasure(np.array([0.5, 0.5]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            m.weights[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        # the measure froze the arrays it was given, so the caller's next write raised;
        # it holds read-only views of them, which see that write
        w, a = np.array([0.5, 0.5]), np.zeros((2, 1))
        m = DiscreteMeasure(w, a)
        a[0, 0] = 1.0
        w[:] = [0.25, 0.75]
        assert not m.weights.flags.writeable and not m.atoms.flags.writeable
        assert m.atoms[0, 0] == 1.0 and m.weights[0] == 0.25


STACK_DATA = np.random.default_rng(30).standard_normal((20, 3))
SIZED_DRAWS = {
    # a/N < 1 builds the weights in log space, a/N >= 1 from Gamma draws
    "prior-log-space": lambda rng, size: sample_dp_prior(25.0, normal_base(3), 42, rng, size=size),
    "prior-gamma": lambda rng, size: sample_dp_prior(80.0, normal_base(3), 42, rng, size=size),
    "posterior-gamma": lambda rng, size: sample_dp_posterior(25.0, STACK_DATA, normal_base(3),
                                                             42, rng, size=size),
    "posterior-log-space": lambda rng, size: sample_dp_posterior(2.0, STACK_DATA, normal_base(3),
                                                                 60, rng, size=size),
    "flat-posterior": lambda rng, size: sample_dp_posterior(0.0, STACK_DATA, None, 42, rng,
                                                            size=size),
}


class TestStackedDraws:
    @pytest.mark.parametrize("draw", SIZED_DRAWS.values(), ids=SIZED_DRAWS)
    def test_size_one_equals_unsized_draw(self, draw):
        for seed in range(5):
            alone = draw(np.random.default_rng(seed), None)
            stack = draw(np.random.default_rng(seed), 1)
            assert stack.weights.shape == (1,) + alone.weights.shape
            assert stack.atoms.shape == (1,) + alone.atoms.shape
            np.testing.assert_array_equal(stack.weights[0], alone.weights)
            np.testing.assert_array_equal(stack.atoms[0], alone.atoms)

    @pytest.mark.parametrize("a", [0.05, 25.0, 80.0])
    def test_dirichlet_size_one_equals_unsized(self, a):
        alone = symmetric_dirichlet(a, 42, np.random.default_rng(31))
        np.testing.assert_array_equal(symmetric_dirichlet(a, 42, np.random.default_rng(31), 1)[0],
                                      alone)

    @pytest.mark.parametrize("draw", SIZED_DRAWS.values(), ids=SIZED_DRAWS)
    def test_stack_rows_are_measures(self, draw):
        stack = draw(np.random.default_rng(32), 7)
        assert (stack.n_terms, stack.dim) == (stack.weights.shape[1], 3)
        assert stack.weights.shape[0] == stack.atoms.shape[0] == 7
        assert np.all(stack.weights >= 0)
        np.testing.assert_allclose(stack.weights.sum(axis=1), 1.0, atol=1e-12)
        # seven different rows, not one row repeated
        assert len({row.tobytes() for row in stack.weights}) == 7

    @pytest.mark.parametrize("row, error", [
        ([0.5, 0.5, 0.5, -0.5], "non-negative"),
        ([0.3, 0.3, 0.3, 0.3], r"weights sum to np.float64\(1.2\), not 1"),
        ([np.nan, 0.5, 0.25, 0.25], "not 1"),
    ], ids=["negative", "off-simplex", "nan"])
    def test_stack_rejects_a_bad_row(self, row, error):
        weights = np.full((3, 4), 0.25)
        weights[1] = row
        with pytest.raises(InvalidParameterError, match=error):
            DiscreteMeasure(weights, np.zeros((3, 4, 2)))
        with pytest.raises(InvalidParameterError, match=error):
            DiscreteMeasure(weights[1], np.zeros((4, 2)))

    @pytest.mark.parametrize("atoms", [np.zeros((3, 5, 2)), np.zeros((2, 4, 2)), np.zeros((12, 2))],
                             ids=["terms", "measures", "flat"])
    def test_stack_rejects_atoms_of_the_wrong_shape(self, atoms):
        with pytest.raises(InvalidParameterError, match="atoms row count"):
            DiscreteMeasure(np.full((3, 4), 0.25), atoms)

    @pytest.mark.parametrize("shape", [lambda k: (1, 3), lambda k: (k, 1), lambda k: (k - 1, 3)],
                             ids=["row", "column", "short"])
    @pytest.mark.parametrize("size", [None, 5])
    def test_base_output_of_the_wrong_shape_rejected(self, shape, size):
        base = lambda k, rng: rng.standard_normal(shape(k))
        with pytest.raises(InvalidInputError, match=r"base sampler returned shape"):
            sample_dp_posterior(50.0, STACK_DATA, base, 40, np.random.default_rng(33), size=size)
        if shape(7)[1] == 3:  # the prior takes the base's width as the dimension
            with pytest.raises(InvalidInputError, match=r"base sampler returned shape"):
                sample_dp_prior(5.0, base, 40, np.random.default_rng(33), size=size)

    def test_underflowed_row_redraws_the_whole_call(self):
        rng = _ZeroGamma(34, zero_calls=1)
        w = symmetric_dirichlet(80.0, 42, rng, 3)
        assert rng.sizes == [(3, 42), (3, 42)]
        plain = np.random.default_rng(34)
        plain.gamma(80.0 / 42, 1.0, size=(3, 42))  # the call whose row 1 was zeroed
        second = plain.gamma(80.0 / 42, 1.0, size=(3, 42))
        np.testing.assert_array_equal(w, second / second.sum(axis=1, keepdims=True))

    def test_row_that_keeps_underflowing_raises(self):
        with pytest.raises(NumericUnderflowError, match="Dirichlet normalizer"):
            symmetric_dirichlet(80.0, 42, _ZeroGamma(35, zero_calls=1000), 3)


class _ZeroGamma:
    """A generator whose first ``zero_calls`` Gamma draws come back with row 1 all zero."""

    def __init__(self, seed, zero_calls):
        self.rng = np.random.default_rng(seed)
        self.zero_calls = zero_calls
        self.sizes = []

    def gamma(self, shape, scale, size):
        h = self.rng.gamma(shape, scale, size=size)
        self.sizes.append(size)
        if len(self.sizes) <= self.zero_calls:
            h[min(1, size[0] - 1)] = 0.0
        return h

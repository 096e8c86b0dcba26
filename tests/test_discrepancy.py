import numpy as np
import pytest

from bnpmmd.discrepancy import (deviation_tail_bound, generalization_bound,
                                grad_mmd2_atoms, mmd2_empirical, mmd2_weighted,
                                prior_mean_upper_bound, yy_mean_term)
from bnpmmd.dp import DiscreteMeasure, sample_dp_posterior, sample_dp_prior
from bnpmmd.errors import InvalidInputError, InvalidParameterError
from bnpmmd.kernels import (FAMILIES, KernelSpec, eval_kernel, format_kernel,
                            gaussian_kernel, gaussian_mixture)

SQRT2 = np.sqrt(2.0)


def uniform_measure(X):
    X = np.atleast_2d(X)
    return DiscreteMeasure(np.full(X.shape[0], 1.0 / X.shape[0]), X)


def mmd2_loop_oracle(X, Y, spec):
    # independent O(n^2) re-computation, pair by pair
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    n, m = X.shape[0], Y.shape[0]
    kxx = sum(eval_kernel(spec, X[i], X[j]) for i in range(n) for j in range(n))
    kxy = sum(eval_kernel(spec, X[i], Y[j]) for i in range(n) for j in range(m))
    kyy = sum(eval_kernel(spec, Y[i], Y[j]) for i in range(m) for j in range(m))
    return kxx / n**2 - 2 * kxy / (n * m) + kyy / m**2


class TestEmpirical:
    def test_identical_samples_vanish(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        assert abs(mmd2_empirical(X, X, gaussian_mixture())) <= 1e-12

    def test_hand_value(self):
        # X = {0}, Y = {2}, sigma = sqrt(2): 2 - 2 exp(-1)
        val = mmd2_empirical([[0.0]], [[2.0]], gaussian_kernel(SQRT2))
        assert val == pytest.approx(2 - 2 * np.exp(-1), abs=1e-12)
        assert val == pytest.approx(1.264241, abs=1e-6)

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        spec = gaussian_kernel(1.3)
        for _ in range(100):
            X = rng.standard_normal((7, 2))
            Y = rng.standard_normal((7, 2))
            assert mmd2_empirical(X, Y, spec) == pytest.approx(
                mmd2_loop_oracle(X, Y, spec), abs=1e-10)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        spec = gaussian_kernel(2.0)
        for _ in range(20):
            X, Y = rng.standard_normal((5, 2)), rng.standard_normal((8, 2))
            v = mmd2_empirical(X, Y, spec)
            assert v == pytest.approx(mmd2_empirical(Y, X, spec), abs=1e-14)
            assert v >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            mmd2_empirical(np.zeros((2, 2)), np.zeros((2, 3)), gaussian_kernel(1.0))


class TestWeighted:
    def test_uniform_weights_reduce_to_empirical(self):
        rng = np.random.default_rng(3)
        spec = gaussian_mixture()
        for _ in range(20):
            X = rng.standard_normal((6, 2))
            Y = rng.standard_normal((9, 2))
            assert mmd2_weighted(uniform_measure(X), Y, spec) == pytest.approx(
                mmd2_empirical(X, Y, spec), abs=1e-10)

    def test_single_atom_coincides(self):
        P = DiscreteMeasure(np.array([1.0]), np.array([[0.0]]))
        assert mmd2_weighted(P, [[0.0]], gaussian_kernel(SQRT2)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        P = DiscreteMeasure(np.array([0.75, 0.25]), np.array([[0.0], [2.0]]))
        val = mmd2_weighted(P, [[0.0]], gaussian_kernel(SQRT2))
        assert val == pytest.approx(0.079015, abs=1e-6)

    def test_precomputed_yy_term_matches(self):
        rng = np.random.default_rng(4)
        spec = gaussian_kernel(1.0)
        P = uniform_measure(rng.standard_normal((5, 2)))
        Y = rng.standard_normal((7, 2))
        from bnpmmd.discrepancy import yy_mean_term
        assert mmd2_weighted(P, Y, spec, yy_term=yy_mean_term(Y, spec)) == \
            mmd2_weighted(P, Y, spec)


STACK_SPECS = [KernelSpec(f, (1.3,)) for f in FAMILIES] + [
    gaussian_kernel(80.0), gaussian_mixture(), KernelSpec("rational-quadratic", (0.7, 2.0), 2.5)]


class TestStacked:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=format_kernel)
    @pytest.mark.parametrize("d, n_terms, m", [(1, 3, 1), (5, 42, 50), (20, 70, 30), (60, 17, 50)])
    def test_each_value_is_its_row_alone(self, spec, d, n_terms, m):
        rng = np.random.default_rng(d + n_terms)
        base = lambda k, r: r.standard_normal((k, d))
        Y = rng.standard_normal((m, d))
        X = rng.standard_normal((50, d))
        for c in (1, 2, 15):
            for stack in (sample_dp_prior(25.0, base, n_terms, rng, size=c),
                          sample_dp_posterior(25.0, X, base, n_terms, rng, size=c)):
                values = mmd2_weighted(stack, Y, spec)
                assert values.shape == (c,)
                for w, atoms, value in zip(stack.weights, stack.atoms, values):
                    alone = mmd2_weighted(DiscreteMeasure(w, atoms), Y, spec)
                    assert type(alone) is float
                    assert value == alone

    def test_precomputed_yy_term_matches(self):
        rng = np.random.default_rng(5)
        spec = gaussian_kernel(1.0)
        stack = sample_dp_prior(5.0, lambda k, r: r.standard_normal((k, 2)), 8, rng, size=4)
        Y = rng.standard_normal((7, 2))
        np.testing.assert_array_equal(mmd2_weighted(stack, Y, spec, yy_term=yy_mean_term(Y, spec)),
                                      mmd2_weighted(stack, Y, spec))

    @pytest.mark.parametrize("m", [50, 100])
    @pytest.mark.parametrize("d", [15, 16, 47, 48, 60])
    def test_paired_samples_give_each_pair_alone(self, d, m):
        rng = np.random.default_rng(d + m)
        base = lambda k, r: r.standard_normal((k, d))
        stack = sample_dp_posterior(25.0, rng.standard_normal((50, d)), base, 42, rng, size=5)
        atoms, Y = stack.atoms.copy(), rng.standard_normal((5, m, d))
        Y[:, 9] = Y[:, 3]
        Y[0, 1] = atoms[0, 2]  # an atom that is a row of its own sample
        Y[2, 4, 1] = np.nan
        atoms[3] += 1e3  # far from the origin for their spread: every block goes to cdist
        Y[3] += 1e3
        stack = DiscreteMeasure(stack.weights, atoms)
        for spec in (gaussian_kernel(float(d)), gaussian_mixture(), KernelSpec("exponential", (4.0,))):
            values = mmd2_weighted(stack, Y, spec)
            assert values.shape == (5,)
            alone = [mmd2_weighted(DiscreteMeasure(w, a), y, spec)
                     for w, a, y in zip(stack.weights, stack.atoms, Y)]
            np.testing.assert_array_equal(values, alone)
            assert np.isnan(values[2]) and np.isfinite(np.delete(values, 2)).all()
            np.testing.assert_array_equal(yy_mean_term(Y, spec), [yy_mean_term(y, spec) for y in Y])

    def test_paired_samples_of_another_count_or_width_raise(self):
        rng = np.random.default_rng(7)
        stack = sample_dp_prior(5.0, lambda k, r: r.standard_normal((k, 2)), 8, rng, size=4)
        Y = rng.standard_normal((4, 7, 2))
        for bad in (Y[:3], Y[:1], Y[..., :1], np.concatenate([Y, Y])):
            with pytest.raises(InvalidInputError):
                mmd2_weighted(stack, bad, gaussian_kernel(1.0))
        with pytest.raises(InvalidInputError):
            mmd2_weighted(DiscreteMeasure(stack.weights[0], stack.atoms[0]), Y[:1],
                          gaussian_kernel(1.0))

    def test_dimension_mismatch(self):
        stack = sample_dp_prior(5.0, lambda k, r: r.standard_normal((k, 2)), 8,
                                np.random.default_rng(6), size=4)
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            mmd2_weighted(stack, np.zeros((5, 3)), gaussian_kernel(1.0))


class TestGradient:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_stationary_at_coincident_point(self, family):
        # s = 0 is the exponential's kink, where its coefficient is set to 0
        P = DiscreteMeasure(np.array([1.0]), np.array([[0.5, -1.0]]))
        g = grad_mmd2_atoms(P, [[0.5, -1.0]], KernelSpec(family, (2.0,)))
        assert np.allclose(g, 0.0, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        gaussian_kernel(1.5),
        gaussian_mixture((0.8, 2.0)),
        KernelSpec("rational-quadratic", (1.2,), 1.0),
        KernelSpec("matern", (1.4,)),
        KernelSpec("exponential", (1.1,)),
    ])
    def test_matches_central_differences(self, spec):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            atoms = rng.standard_normal((4, 2))
            w = rng.dirichlet(np.ones(4))
            P = DiscreteMeasure(w, atoms)
            Y = rng.standard_normal((3, 2))
            analytic = grad_mmd2_atoms(P, Y, spec)
            fd = np.zeros_like(Y)
            for t in range(Y.shape[0]):
                for j in range(Y.shape[1]):
                    up, dn = Y.copy(), Y.copy()
                    up[t, j] += h
                    dn[t, j] -= h
                    fd[t, j] = (mmd2_weighted(P, up, spec) - mmd2_weighted(P, dn, spec)) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-8)
            assert np.abs(analytic - fd).max() / scale < 1e-4

    def test_sqrt_loss_chain_rule(self):
        rng = np.random.default_rng(6)
        spec = gaussian_kernel(1.5)
        P = uniform_measure(rng.standard_normal((5, 2)))
        Y = rng.standard_normal((4, 2)) + 1.0
        mmd2 = mmd2_weighted(P, Y, spec)
        analytic = grad_mmd2_atoms(P, Y, spec) / (2.0 * np.sqrt(mmd2))
        h = 1e-6
        fd = np.zeros_like(Y)
        for t in range(Y.shape[0]):
            for j in range(Y.shape[1]):
                up, dn = Y.copy(), Y.copy()
                up[t, j] += h
                dn[t, j] -= h
                fd[t, j] = (np.sqrt(mmd2_weighted(P, up, spec))
                            - np.sqrt(mmd2_weighted(P, dn, spec))) / (2 * h)
        assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-4


class TestBounds:
    def test_prior_mean_bound_arithmetic(self):
        assert prior_mean_upper_bound(1.0, 0.0) == 3.0
        assert prior_mean_upper_bound(6.0, 0.5) == 18.5

    def test_prior_mean_monte_carlo_below_bound(self):
        rng = np.random.default_rng(7)
        base = lambda k, r: r.standard_normal((k, 1))
        spec = gaussian_kernel(SQRT2)
        Y = base(50, rng)
        vals = [mmd2_weighted(sample_dp_prior(25.0, base, 36, rng), Y, spec)
                for _ in range(1000)]
        assert np.mean(vals) < prior_mean_upper_bound(spec.kernel_bound, 0.0)

    def test_generalization_bound_value(self):
        # 2*6/sqrt(100) + 2*sqrt((0+100+100)*6 / ((0+100+1)*100))
        expected = 1.2 + 2.0 * np.sqrt(1200.0 / 10100.0)
        assert generalization_bound(0.0, 100, 100, 6.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.889382, abs=1e-6)

    def test_contamination_adds_four_eps(self):
        base = generalization_bound(2.0, 50, 30, 1.0, 0.1)
        assert generalization_bound(2.0, 50, 30, 1.0, 0.1, contamination=0.1) == \
            pytest.approx(base + 0.4, abs=1e-12)

    def test_generalization_bound_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            generalization_bound(1.0, 0, 10, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            generalization_bound(1.0, 10, 0, 1.0, 0.0)

    def test_tail_bound_values(self):
        # exponent -eps^2 n m / (2 K (n + m)) = -6.25 at n = m = 100, K = 1, eps = 0.5
        assert deviation_tail_bound(100, 100, 1.0, 1e-9) == pytest.approx(2.0, abs=1e-9)
        assert deviation_tail_bound(100, 100, 1.0, 0.5) == pytest.approx(
            2.0 * np.exp(-6.25), abs=1e-15)
        assert 2.0 * np.exp(-6.25) == pytest.approx(0.003861, abs=1e-6)

    def test_tail_bound_monotone_in_tolerance(self):
        vals = [deviation_tail_bound(50, 80, 2.0, t) for t in np.linspace(0.01, 2.0, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tail_bound_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            deviation_tail_bound(0, 10, 1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            deviation_tail_bound(10, 10, 1.0, 0.0)


class TestAsymptoticBehavior:
    def test_informative_prior_limit(self):
        # huge concentration: the weighted estimate tracks the uniform-weight
        # empirical estimate on the same atoms
        rng = np.random.default_rng(8)
        base = lambda k, r: r.standard_normal((k, 1))
        spec = gaussian_kernel(SQRT2)
        Y = base(50, rng)
        gaps = []
        for _ in range(200):
            m = sample_dp_prior(1e6, base, 50, rng)
            gaps.append(abs(mmd2_weighted(m, Y, spec) - mmd2_empirical(m.atoms, Y, spec)))
        assert np.median(gaps) < 0.01

    def test_flat_posterior_concentrates_with_sample_size(self):
        # against a fresh same-distribution sample, the posterior-weighted
        # squared MMD shrinks as n grows
        rng = np.random.default_rng(9)
        base = lambda k, r: r.standard_normal((k, 1))
        spec = gaussian_kernel(SQRT2)
        means = []
        for n in [50, 200, 800]:
            X = base(n, rng)
            Y = base(n, rng)
            vals = [mmd2_weighted(sample_dp_posterior(0.0, X, None, 100, rng), Y, spec)
                    for _ in range(400)]
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]

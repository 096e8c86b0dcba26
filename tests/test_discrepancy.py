import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bnpmmd import discrepancy
from bnpmmd.discrepancy import (KEPT_BLOCK_ENTRIES, deviation_tail_bound, generalization_bound,
                                grad_mmd2_atoms, mmd2_and_grad, mmd2_empirical, mmd2_weighted,
                                prior_mean_upper_bound, yy_mean_term)
from bnpmmd.dp import DiscreteMeasure, sample_dp_posterior, sample_dp_prior
from bnpmmd.errors import InvalidInputError, InvalidParameterError
from bnpmmd.kernels import (FAMILIES, KernelSpec, eval_kernel, _sq_dist, format_kernel,
                            gaussian_kernel, gaussian_mixture, gram, gram_grad_coeff,
                            resolve_median, self_gram)

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


def separate_passes(P, Y, spec):
    # the value and gradient as evaluated before they shared one pass: the
    # value from its own distance-form blocks, the gradient's own cross block
    # from the distances the value's cross block takes, and its own sample block
    m, w = len(Y), P.weights
    value = (w @ self_gram(spec, P.atoms) @ w - 2.0 / m * (w @ gram(spec, P.atoms, Y).sum(axis=1))
             + self_gram(spec, Y).sum() / (m * m))
    gvy = gram_grad_coeff(spec, _sq_dist(P.atoms, Y))
    wg = P.weights[:, None] * gvy
    cross = -2.0 / m * (wg.T @ P.atoms - wg.sum(axis=0)[:, None] * Y)
    gyy = gram_grad_coeff(spec, _sq_dist(Y, Y))
    self_term = 2.0 / (m * m) * (gyy @ Y - gyy.sum(axis=1)[:, None] * Y)
    return float(value), cross + self_term


def posterior_and_sample(d, n_terms, m, seed):
    # atoms drawn from data rows repeat, and one sample row is an atom: the
    # exponential's kink at s = 0 in both blocks
    rng = np.random.default_rng(seed)
    P = sample_dp_posterior(0.0, rng.standard_normal((50, d)), None, n_terms, rng)
    Y = rng.standard_normal((m, d))
    Y[1] = P.atoms[2]
    return P, Y


FUSED_SPECS = [gaussian_kernel(1.3), gaussian_mixture((0.5, 1.0, 2.0, 4.0, 8.0, 16.0)),
               KernelSpec("exponential", (1.1,)), KernelSpec("rational-quadratic", (1.2,), 2.5),
               KernelSpec("matern", (1.4,))]


class TestFusedPass:
    @pytest.mark.parametrize("spec", FUSED_SPECS, ids=format_kernel)
    @pytest.mark.parametrize("d, n_terms, m", [
        (2, 40, 40), (2, 70, 50), (16, 42, 50), (60, 42, 50), (60, 80, 80)])
    def test_equals_separate_passes_to_the_bit(self, spec, d, n_terms, m):
        P, Y = posterior_and_sample(d, n_terms, m, seed=d + n_terms + m)
        value, grad = mmd2_and_grad(P, Y, spec)
        expected_value, expected_grad = separate_passes(P, Y, spec)
        assert type(value) is float and value == expected_value
        np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(grad_mmd2_atoms(P, Y, spec), expected_grad)

    @pytest.mark.parametrize("d", [2, 16, 60])
    def test_median_bandwidth_and_nan_row(self, d):
        P, Y = posterior_and_sample(d, 30, 36, seed=d)
        median = resolve_median(gaussian_kernel(None), P.atoms, Y)
        nan_row = Y.copy()
        nan_row[5, 0] = np.nan
        for spec, sample in ((median, Y), (median, nan_row), (gaussian_mixture(), nan_row)):
            value, grad = mmd2_and_grad(P, sample, spec)
            expected_value, expected_grad = separate_passes(P, sample, spec)
            np.testing.assert_array_equal(value, expected_value)
            np.testing.assert_array_equal(grad, expected_grad)
        assert np.isnan(value) and np.isnan(grad).all()

    def test_reused_arrays_give_fresh_results_as_blocks_grow_and_shrink(self):
        spec = gaussian_mixture()
        cases = [posterior_and_sample(2, n, m, seed=n) for n, m in
                 [(30, 30), (80, 60), (20, 90), (50, 50), (90, 20)]]
        fresh = []
        for P, Y in cases:
            discrepancy._kept.arrays = None  # this call's blocks in new arrays
            fresh.append(mmd2_and_grad(P, Y, spec))
        for _ in range(2):
            for (P, Y), (value, grad) in zip(cases, fresh):
                again = mmd2_and_grad(P, Y, spec)
                assert again[0] == value
                np.testing.assert_array_equal(again[1], grad)

    @pytest.mark.parametrize("function", [mmd2_and_grad, grad_mmd2_atoms])
    def test_stacked_input_is_a_typed_error(self, function):
        # scipy's "XA must be a 2-dimensional array" (a stack of measures) or
        # "XB ..." (a stack of samples) came out of grad_mmd2_atoms
        rng = np.random.default_rng(8)
        stack = sample_dp_prior(5.0, lambda k, r: r.standard_normal((k, 2)), 8, rng, size=4)
        single = DiscreteMeasure(stack.weights[0], stack.atoms[0])
        with pytest.raises(InvalidInputError, match=r"weights of shape \(4, 8\)"):
            function(stack, rng.standard_normal((7, 2)), gaussian_kernel(1.0))
        with pytest.raises(InvalidInputError, match=r"sample of shape \(3, 7, 2\)"):
            function(single, rng.standard_normal((3, 7, 2)), gaussian_kernel(1.0))


def normal_base(d):
    return lambda k, r: r.standard_normal((k, d))


class TestKeptBlocks:
    @pytest.mark.parametrize("paired", [False, True], ids=["fixed", "paired"])
    @pytest.mark.parametrize("d", [5, 20])
    def test_rb_chunk_after_the_first_allocates_no_block(self, d, paired):
        # each chunk allocated its cross block and stack of self blocks fresh,
        # which the allocator trimmed and faulted back in page by page
        rng = np.random.default_rng(d)
        c, n_terms, m, spec = 15, 42, 50, gaussian_kernel(80.0)

        def chunk():
            P = sample_dp_prior(25.0, normal_base(d), n_terms, rng, size=c)
            return P, rng.standard_normal((c, m, d) if paired else (m, d))

        mmd2_weighted(*chunk(), spec)
        P, Y = chunk()
        tracemalloc.start()
        try:
            mmd2_weighted(P, Y, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c * n_terms * m * 8, peak

    def test_returned_values_share_no_memory_with_the_kept_arrays(self):
        rng = np.random.default_rng(12)
        spec = gaussian_mixture()
        stack = sample_dp_prior(5.0, normal_base(2), 12, rng, size=4)
        samples = rng.standard_normal((4, 10, 2))
        P, Y = posterior_and_sample(2, 20, 15, seed=13)
        for call in (lambda: mmd2_weighted(stack, samples, spec),
                     lambda: mmd2_weighted(stack, samples[0], spec),
                     lambda: yy_mean_term(samples, spec), lambda: mmd2_and_grad(P, Y, spec)[1]):
            value = call()
            assert isinstance(value, np.ndarray)
            assert not any(np.shares_memory(value, a) for a in discrepancy._kept.arrays)

    def test_threads_interleaving_block_sizes_match_a_serial_run(self):
        spec = gaussian_mixture()
        rng = np.random.default_rng(14)
        cases = [posterior_and_sample(d, n, m, seed=n + d)
                 for d, n, m in [(2, 30, 40), (20, 60, 50), (2, 90, 20), (20, 25, 25)]]
        stacks = [(sample_dp_prior(5.0, normal_base(d), n, rng, size=c),
                   rng.standard_normal((c, m, d)))
                  for d, n, m, c in [(20, 42, 50, 15), (2, 10, 12, 3), (5, 70, 60, 4)]]

        def evaluate(i):
            P, Y = cases[i % len(cases)]
            stack, samples = stacks[i % len(stacks)]
            value, grad = mmd2_and_grad(P, Y, spec)
            return [value, grad, mmd2_weighted(stack, samples, spec), yy_mean_term(samples, spec)]

        steps = 2 * len(cases) * len(stacks)
        serial = [evaluate(i) for i in range(steps)]
        workers = 4  # more threads than a small machine has cores
        barrier, results, errors = threading.Barrier(workers, timeout=60), {}, []

        def worker(k):
            try:
                for step in range(steps):
                    i = (step + 5 * k) % steps  # the threads evaluate different sizes at each step
                    barrier.wait()
                    results[k, i] = evaluate(i)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == workers * steps
        for (_, i), got in results.items():
            for a, b in zip(got, serial[i]):
                np.testing.assert_array_equal(a, b)

    def test_block_above_the_cap_takes_new_arrays(self):
        discrepancy._kept.arrays = None
        discrepancy._blocks((10, 12))
        assert [a.size for a in discrepancy._kept.arrays] == [120] * 4  # the largest block seen
        side = int(np.sqrt(KEPT_BLOCK_ENTRIES))
        discrepancy._blocks((side, side))
        kept = discrepancy._kept.arrays
        assert [a.size for a in kept] == [KEPT_BLOCK_ENTRIES] * 4
        spec = gaussian_mixture()
        P, Y = posterior_and_sample(2, side + 1, side, seed=15)
        value, grad = mmd2_and_grad(P, Y, spec)
        assert discrepancy._kept.arrays is kept and [a.size for a in kept] == [KEPT_BLOCK_ENTRIES] * 4
        expected_value, expected_grad = separate_passes(P, Y, spec)
        assert value == expected_value
        np.testing.assert_array_equal(grad, expected_grad)
        blocks = discrepancy._blocks((side + 1, side))
        assert not any(np.shares_memory(b, a) for b in blocks for a in kept)


def long_double_mmd2(w, V, Y, spec):
    # the distance form in 80-bit long double, pair by pair from differences
    w, V, Y = (np.asarray(a, dtype=np.longdouble) for a in (w, V, Y))

    def k(A, B):
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
        return sum(np.exp(-sq / (2 * np.longdouble(s) ** 2)) for s in spec.bandwidths)

    return w @ k(V, V) @ w - 2 * (w @ k(V, Y).sum(axis=1)) / len(Y) + k(Y, Y).mean()


def distance_form_mmd2(w, V, Y, spec):
    # a single measure's value as mmd2_weighted took it from distance blocks alone
    m, w = len(Y), w[None, :]
    return ((w @ self_gram(spec, V) @ w.T)[0, 0]
            + -2.0 / m * (w @ gram(spec, V, Y).sum(axis=-1)[:, None])[0, 0]
            + self_gram(spec, Y).reshape(-1).sum() / (m * m))


SPLIT_SPECS = [gaussian_kernel(80.0), gaussian_kernel(2.0), gaussian_mixture()]


class TestSplitForm:
    @pytest.mark.parametrize("spec", SPLIT_SPECS, ids=format_kernel)
    @pytest.mark.parametrize("d", [5, 20, 60])
    def test_within_1e_15_t_of_a_long_double_reference(self, spec, d, monkeypatch):
        # the cap on (max ||x||^2 + max ||z||^2) / (2 sigma^2) is chosen by this
        # bound; every block here is within it, so no distance is computed
        def no_profiles(*args):
            raise AssertionError("a block left the split form")

        monkeypatch.setattr(discrepancy, "profile_sums", no_profiles)
        rng = np.random.default_rng(d)
        X, Y = rng.standard_normal((50, d)), rng.standard_normal((50, d))
        errors = []
        for stack in (sample_dp_prior(25.0, normal_base(d), 42, rng, size=15),
                      sample_dp_posterior(25.0, X, normal_base(d), 42, rng, size=15)):
            values = mmd2_weighted(stack, Y, spec)
            errors += [abs(value - long_double_mmd2(w, V, Y, spec))
                       for w, V, value in zip(stack.weights, stack.atoms, values)]
        errors.append(abs(mmd2_empirical(X, Y, spec)
                          - long_double_mmd2(np.full(50, 1 / 50), X, Y, spec)))
        assert max(errors) <= 1e-15 * spec.kernel_bound, max(errors)

    @pytest.mark.parametrize("spec", SPLIT_SPECS, ids=format_kernel)
    @pytest.mark.parametrize("d", [5, 20])
    def test_a_stack_takes_each_form_per_measure(self, spec, d):
        rng = np.random.default_rng(d + 1)
        stack = sample_dp_posterior(25.0, rng.standard_normal((50, d)), normal_base(d), 30, rng,
                                    size=5)
        atoms, Y = stack.atoms.copy(), rng.standard_normal((5, 40, d))
        atoms[1] += 1e3  # far from the origin: over the cap, so every block from distances
        Y[1] += 1e3
        atoms[3, 7, 0] = np.nan
        stack = DiscreteMeasure(stack.weights, atoms)
        values = mmd2_weighted(stack, Y, spec)
        alone = [mmd2_weighted(DiscreteMeasure(w, a), y, spec)
                 for w, a, y in zip(stack.weights, stack.atoms, Y)]
        np.testing.assert_array_equal(values, alone)
        assert values[1] == distance_form_mmd2(stack.weights[1], atoms[1], Y[1], spec)
        assert np.isnan(values[3]) and np.isfinite(np.delete(values, 3)).all()
        for k in (0, 2, 4):  # the split form, within round-off of the distance form
            assert abs(values[k] - distance_form_mmd2(stack.weights[k], atoms[k], Y[k], spec)) \
                <= 1e-14 * spec.kernel_bound
        fixed = mmd2_weighted(stack, Y[0], spec)  # one sample for all: each measure alone too
        np.testing.assert_array_equal(
            fixed, [mmd2_weighted(DiscreteMeasure(w, a), Y[0], spec)
                    for w, a in zip(stack.weights, stack.atoms)])

    def test_norms_at_the_float_range_choose_a_form_without_overflow(self):
        # ||v||^2 overflows to inf (the distance form), and the sum of two finite
        # maxima would (the split form): numpy's overflow warnings are errors here
        spec = gaussian_kernel(1.3e154)
        w, Y = np.full(3, 1 / 3), np.zeros((2, 2))
        V = np.full((3, 2), 1e154)
        assert mmd2_weighted(DiscreteMeasure(w, V), Y, spec) == distance_form_mmd2(w, V, Y, spec)
        V = np.array([[1.3e154, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert abs(mmd2_weighted(DiscreteMeasure(w, V), Y, spec)
                   - distance_form_mmd2(w, V, Y, spec)) <= 1e-15

    @pytest.mark.parametrize("spec", SPLIT_SPECS + [gaussian_kernel(1.3)], ids=format_kernel)
    @pytest.mark.parametrize("d", [2, 16, 60])
    def test_fused_value_agrees_with_mmd2_weighted(self, spec, d):
        # mmd2_and_grad keeps its distance blocks, so its value differs by round-off
        P, Y = posterior_and_sample(d, 42, 50, seed=d)
        value, _ = mmd2_and_grad(P, Y, spec)
        assert abs(value - mmd2_weighted(P, Y, spec)) <= 1e-14 * spec.kernel_bound


class TestInputRule:
    SPEC = gaussian_kernel(1.0)

    def test_wrong_rank_is_a_typed_error(self):
        # a stack raised numpy's "only 0-dimensional arrays ..." TypeError out of
        # mmd2_empirical, and 4-D arrays scipy's "XA must be a 2-dimensional array"
        rng = np.random.default_rng(10)
        stack, four = rng.standard_normal((3, 5, 2)), rng.standard_normal((2, 3, 5, 2))
        P = uniform_measure(stack[0])
        for X, Y in ((stack, stack[0]), (stack[0], stack)):
            with pytest.raises(InvalidInputError, match="two samples"):
                mmd2_empirical(X, Y, self.SPEC)
        for function in (lambda: yy_mean_term(four, self.SPEC), lambda: self_gram(self.SPEC, four),
                         lambda: gram(self.SPEC, four, stack[0]),
                         lambda: mmd2_weighted(P, four, self.SPEC)):
            with pytest.raises(InvalidInputError, match=r"must be rows \(N, d\) or a stack"):
                function()

    def test_every_mmd_function_rejects_an_empty_or_narrower_sample(self):
        rng = np.random.default_rng(11)
        P = uniform_measure(rng.standard_normal((4, 2)))
        stack = sample_dp_prior(5.0, lambda k, r: r.standard_normal((k, 2)), 8, rng, size=3)
        for function in (lambda Y: mmd2_empirical(Y, P.atoms, self.SPEC),
                         lambda Y: mmd2_empirical(P.atoms, Y, self.SPEC),
                         lambda Y: mmd2_weighted(P, Y, self.SPEC),
                         lambda Y: mmd2_weighted(stack, Y, self.SPEC),
                         lambda Y: mmd2_weighted(P, Y, self.SPEC, yy_term=0.0),
                         lambda Y: mmd2_and_grad(P, Y, self.SPEC)):
            with pytest.raises(InvalidInputError, match="must be non-empty"):
                function(np.zeros((0, 2)))
            with pytest.raises(InvalidInputError, match="dimension mismatch"):
                function(np.zeros((3, 5)))
        with pytest.raises(InvalidInputError, match="^Y must be non-empty"):
            yy_mean_term(np.zeros((0, 2)), self.SPEC)


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

import contextlib
import tracemalloc

import numpy as np
import pytest

from bnpmmd import discrepancy, gan
from bnpmmd.discrepancy import mmd2_empirical
from bnpmmd.dp import DiscreteMeasure
from bnpmmd.errors import InvalidInputError, InvalidParameterError
from bnpmmd.gan import (GeneratorNet, TrainConfig, _loss_and_param_grads,
                        eight_gaussian_ring, generator_forward, loss_and_grad,
                        mmds_score, train)
from bnpmmd.kernels import gaussian_kernel, gaussian_mixture


def make_net(dims, seed=0):
    return GeneratorNet.initialize(dims, np.random.default_rng(seed))


class TestForward:
    def test_zero_parameters_give_half(self):
        net = make_net([2, 4, 4, 3])
        for w in net.weights:
            w[:] = 0.0
        U = np.random.default_rng(1).uniform(-1, 1, (7, 2))
        out = generator_forward(net, U)
        assert np.allclose(out, 0.5)

    def test_output_range(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            net = make_net([3, 8, 8, 5], seed)
            out = generator_forward(net, rng.uniform(-1, 1, (50, 3)))
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_hand_computed_single_layer(self):
        net = GeneratorNet([1, 2], [np.array([[1.0, -2.0]])], [np.array([0.5, 0.25])])
        out = generator_forward(net, np.array([[2.0]]))
        expected = 1.0 / (1.0 + np.exp(-(np.array([2.0 * 1.0 + 0.5, 2.0 * -2.0 + 0.25]))))
        assert np.allclose(out, expected, atol=1e-15)

    def test_dimension_mismatch(self):
        net = make_net([2, 4, 3])
        with pytest.raises(InvalidInputError):
            generator_forward(net, np.zeros((5, 3)))

    def test_square_noise_dim_allowed(self):
        net = GeneratorNet.initialize([2, 8, 8, 8, 8, 2], np.random.default_rng(0))
        out = generator_forward(net, np.random.default_rng(1).uniform(-1, 1, (4, 2)))
        assert out.shape == (4, 2)

    def test_serialization_roundtrip(self):
        net = make_net([2, 6, 6, 4], seed=3)
        clone = GeneratorNet.from_dict(net.to_dict())
        assert clone.layer_dims == net.layer_dims
        U = np.random.default_rng(4).uniform(-1, 1, (9, 2))
        assert np.array_equal(generator_forward(net, U), generator_forward(clone, U))


    @pytest.mark.parametrize("edit", [
        lambda p: (p["weights"].pop(), p["biases"].pop()),
        lambda p: p["biases"].pop(),
        lambda p: p["biases"][0].append(0.0),
    ], ids=["last-layer-missing", "bias-missing", "bias-too-long"])
    def test_payload_must_match_layer_dims(self, edit):
        # a payload without its last layer loaded as a shorter net
        payload = make_net([1, 2, 2, 2]).to_dict()
        edit(payload)
        with pytest.raises(InvalidParameterError, match="layer_dims"):
            GeneratorNet.from_dict(payload)

    @pytest.mark.parametrize("edit", [
        lambda p: p["weights"].append([0.0] * 4),
        lambda p: p["weights"][1].pop(),
    ], ids=["extra-weight", "weight-too-short"])
    def test_payload_weights_must_match_layer_dims(self, edit):
        # an extra weight matrix was dropped silently, and a short one
        # failed inside reshape with an untyped ValueError
        payload = make_net([1, 2, 2, 2]).to_dict()
        edit(payload)
        with pytest.raises(InvalidParameterError, match=r"want weight shapes \[\(1, 2\)"):
            GeneratorNet.from_dict(payload)

    def test_weight_shapes_must_match_layer_dims(self):
        with pytest.raises(InvalidParameterError, match=r"want weight shapes \[\(1, 2\)\]"):
            GeneratorNet([1, 2], [np.zeros((2, 1))], [np.zeros(2)])


class TestLossAndGrad:
    def test_loss_nonnegative_and_finite(self):
        rng = np.random.default_rng(5)
        net = make_net([2, 8, 8, 8, 8, 2], seed=6)
        X = rng.random((64, 2))
        cfg = TrainConfig(minibatch=64, iterations=1, kernel=gaussian_mixture())
        loss, gw, gb, clamped = loss_and_grad(net, X, cfg, rng)
        assert loss >= 0.0
        assert all(np.all(np.isfinite(g)) for g in gw + gb)

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        net = make_net([2, 8, 8, 8, 8, 3], seed=8)
        atoms = rng.random((40, 3))
        measure = DiscreteMeasure(np.full(40, 1.0 / 40), atoms)
        U = rng.uniform(-1, 1, (30, 2))
        spec = gaussian_kernel(2.0)
        _, gw, gb, _ = _loss_and_param_grads(net, measure, U, spec, 1e-12)
        h = 1e-4
        worst = 0.0
        for params, grads in ((net.weights, gw), (net.biases, gb)):
            for layer, grad in zip(params, grads):
                flat = layer.reshape(-1)
                for idx in range(0, flat.size, max(1, flat.size // 5)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = _loss_and_param_grads(net, measure, U, spec, 1e-12)[0]
                    flat[idx] = orig - h
                    lm = _loss_and_param_grads(net, measure, U, spec, 1e-12)[0]
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(grad.reshape(-1)[idx] - fd) / max(abs(fd), 1e-10)
                    worst = max(worst, rel)
        assert worst < 1e-3

    def test_generated_equal_atoms_hits_floor(self):
        # uniform weights on atoms exactly equal to the generated batch: the
        # squared discrepancy cancels and the loss sits at sqrt(floor)
        rng = np.random.default_rng(9)
        net = make_net([1, 4, 4, 2], seed=10)
        U = rng.uniform(-1, 1, (20, 1))
        Y = generator_forward(net, U)
        measure = DiscreteMeasure(np.full(20, 1.0 / 20), Y)
        loss, _, _, clamped = _loss_and_param_grads(net, measure, U,
                                                    gaussian_mixture(), 1e-12)
        assert clamped
        assert loss == pytest.approx(np.sqrt(1e-12))


class TestTrainConfig:
    @pytest.mark.parametrize("concentration", [-300.0, -1e-9, np.nan, np.inf])
    def test_bad_concentration_named_as_given(self, concentration):
        with pytest.raises(InvalidParameterError, match=f"concentration .*got {concentration}$"):
            TrainConfig(minibatch=64, concentration=concentration)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0, np.nan])
    def test_truncation_epsilon_outside_unit_interval(self, eps):
        with pytest.raises(InvalidParameterError, match=f"truncation_epsilon .*got {eps}$"):
            TrainConfig(truncation_epsilon=eps)

    def test_zero_concentration_is_the_default_bootstrap(self):
        assert TrainConfig(concentration=0.0).concentration == 0.0


class TestTrain:
    def test_deterministic_history(self):
        data = eight_gaussian_ring(512, np.random.default_rng(11))
        cfg = TrainConfig(minibatch=64, iterations=30, checkpoint_every=10)
        runs = []
        for _ in range(2):
            net = make_net([1, 8, 8, 8, 8, 2], seed=12)
            runs.append(train(net, data, cfg, np.random.default_rng(13)))
        (net1, h1), (net2, h2) = runs
        assert np.array_equal(h1.loss, h2.loss)
        assert np.array_equal(h1.grad_norm, h2.grad_norm)
        assert h1.mmds_values == h2.mmds_values
        assert all(np.array_equal(a, b) for a, b in zip(net1.weights, net2.weights))

    def test_short_run_improves_ring_fit(self):
        rng = np.random.default_rng(14)
        data = eight_gaussian_ring(1024, rng)
        net = make_net([1, 16, 16, 16, 16, 2], seed=15)
        cfg = TrainConfig(minibatch=128, iterations=400, checkpoint_every=0)
        net, hist = train(net, data, cfg, rng)
        assert not hist.diverged
        assert hist.loss.shape == (400,)
        assert np.median(hist.loss[-40:]) < np.median(hist.loss[:40])

    def test_divergence_guard_mechanics(self, monkeypatch):
        # an impossible improvement factor makes every iteration count as
        # over budget, so the loop aborts after the configured patience
        monkeypatch.setattr(gan, "DIVERGENCE_FACTOR", 0.01)
        monkeypatch.setattr(gan, "DIVERGENCE_PATIENCE", 5)
        rng = np.random.default_rng(16)
        data = eight_gaussian_ring(256, rng)
        net = make_net([1, 8, 8, 8, 8, 2], seed=17)
        cfg = TrainConfig(minibatch=32, iterations=500, checkpoint_every=0)
        net, hist = train(net, data, cfg, rng)
        assert hist.diverged
        assert hist.loss.shape == (5,)

    def test_nan_loss_diverges_at_once(self, monkeypatch):
        # NaN > factor * initial is never true, so the patience counter alone
        # would let a poisoned run finish as if it were healthy
        real, calls = gan.loss_and_grad, []

        def nan_from_eighth(net, batch, cfg, rng):
            loss, grads_w, grads_b, clamped = real(net, batch, cfg, rng)
            calls.append(loss)
            return (np.nan if len(calls) >= 8 else loss), grads_w, grads_b, clamped

        monkeypatch.setattr(gan, "loss_and_grad", nan_from_eighth)
        rng = np.random.default_rng(33)
        data = eight_gaussian_ring(512, rng)
        net = make_net([1, 8, 8, 8, 8, 2], seed=34)
        cfg = TrainConfig(minibatch=256, iterations=60, checkpoint_every=0)
        net, hist = train(net, data, cfg, rng)
        assert hist.diverged
        assert hist.loss.shape == (8,)
        assert np.isnan(hist.loss[-1])
        assert np.all(np.isfinite(hist.loss[:-1]))

    def test_reused_blocks_match_fresh_arrays_as_they_grow(self, monkeypatch):
        real, levels = gan.mmd2_and_grad, []

        def recorded(P, Y, spec):
            levels.append(P.n_terms)
            return real(P, Y, spec)

        monkeypatch.setattr(gan, "mmd2_and_grad", recorded)
        data = eight_gaussian_ring(512, np.random.default_rng(43))
        cfg = TrainConfig(minibatch=64, iterations=40, checkpoint_every=10)
        net, hist = train(make_net([1, 8, 8, 2], seed=44), data, cfg, np.random.default_rng(45))
        # a new largest level after the first step makes the kept arrays grow mid-run
        assert max(levels[1:]) > levels[0]
        assert getattr(discrepancy._blocks, "arrays", None) is None  # dropped with the run
        monkeypatch.setattr(gan, "reused_blocks", contextlib.nullcontext)
        fresh_net, fresh = train(make_net([1, 8, 8, 2], seed=44), data, cfg,
                                 np.random.default_rng(45))
        assert np.array_equal(hist.loss, fresh.loss)
        assert np.array_equal(hist.grad_norm, fresh.grad_norm)
        assert hist.mmds_values == fresh.mmds_values
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, fresh_net.weights))

    def test_steady_state_kernel_pass_allocates_no_block(self, monkeypatch):
        # each step allocated about ten fresh N x N arrays, which the allocator
        # trimmed and faulted back in page by page
        real, peaks, largest = gan.mmd2_and_grad, [], [0]

        def traced(P, Y, spec):
            if P.n_terms > largest[0]:  # the kept arrays grow on this call
                largest[0] = P.n_terms
                return real(P, Y, spec)
            tracemalloc.start()
            try:
                result = real(P, Y, spec)
                peaks.append((tracemalloc.get_traced_memory()[1], P.n_terms))
            finally:
                tracemalloc.stop()
            return result

        monkeypatch.setattr(gan, "mmd2_and_grad", traced)
        rng = np.random.default_rng(46)
        data = eight_gaussian_ring(1024, rng)
        cfg = TrainConfig(minibatch=256, iterations=30, checkpoint_every=0)
        train(make_net([1, 8, 8, 2], seed=47), data, cfg, rng)
        assert len(peaks) >= 20
        assert all(peak < n * n * 8 for peak, n in peaks), peaks

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dataset_rejected_before_first_draw(self, bad):
        # unchecked, one NaN row trains until the loss turns NaN and leaves NaN weights
        rng = np.random.default_rng(33)
        data = eight_gaussian_ring(512, rng)
        data[7] = bad
        net = make_net([1, 8, 8, 8, 8, 2], seed=34)
        weights = [w.copy() for w in net.weights]
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match="dataset"):
            train(net, data, TrainConfig(minibatch=256, iterations=60, checkpoint_every=0), rng)
        assert rng.bit_generator.state == state
        assert all(np.array_equal(a, b) for a, b in zip(weights, net.weights))

    def test_empty_dataset_rejected(self):
        net = make_net([1, 4, 2], seed=35)
        with pytest.raises(InvalidInputError, match="training dataset must be non-empty"):
            train(net, np.zeros((0, 2)), TrainConfig(minibatch=4, iterations=2),
                  np.random.default_rng(35))

    def test_minibatch_larger_than_dataset_rejected(self):
        rng = np.random.default_rng(18)
        data = eight_gaussian_ring(16, rng)
        net = make_net([1, 4, 4, 2], seed=19)
        with pytest.raises(InvalidParameterError):
            train(net, data, TrainConfig(minibatch=32, iterations=5), rng)

    def test_informative_bootstrap_prior_also_trains(self):
        # flat prior vs prior mass matched to the minibatch, backed by a
        # jittered resampler of the data itself: both stay finite and converge
        rng = np.random.default_rng(30)
        data = eight_gaussian_ring(512, rng)

        def smoothed(k, r):
            rows = data[r.integers(0, data.shape[0], size=k)]
            return rows + 0.01 * r.standard_normal((k, 2))

        for conc, base in [(0.0, None), (64.0, smoothed)]:
            net = make_net([1, 8, 8, 8, 8, 2], seed=31)
            cfg = TrainConfig(minibatch=64, iterations=60, checkpoint_every=0,
                              concentration=conc, base_sampler=base)
            net, hist = train(net, data, cfg, np.random.default_rng(32))
            assert not hist.diverged
            assert np.all(np.isfinite(hist.loss))


    def test_base_of_wrong_width_rejected(self):
        # a (k, 1) base broadcast into both coordinates and trained to the end
        rng = np.random.default_rng(37)
        data = eight_gaussian_ring(256, rng)
        cfg = TrainConfig(minibatch=64, iterations=20, checkpoint_every=0, concentration=5.0,
                          base_sampler=lambda k, r: r.random((k, 1)))
        with pytest.raises(InvalidInputError, match=r"want \(\d+, 2\)"):
            train(make_net([1, 8, 2], seed=38), data, cfg, rng)

    @pytest.mark.parametrize("bandwidth", [1.0, None], ids=["fixed", "median"])
    def test_nan_generator_diverges(self, bandwidth):
        # a median kernel raised from resolve_median, naming a Y the caller never passed
        rng = np.random.default_rng(39)
        data = eight_gaussian_ring(256, rng)
        net = make_net([1, 4, 2], seed=40)
        net.weights[-1][0, 1] = np.nan
        cfg = TrainConfig(minibatch=32, iterations=5, kernel=gaussian_kernel(bandwidth))
        net, hist = train(net, data, cfg, rng)
        assert hist.diverged
        assert hist.loss.shape == (1,) and np.isnan(hist.loss[0])
        assert np.isnan(hist.mmds_values).all()


class TestMMDS:
    def test_identical_full_batch_is_zero(self):
        rng = np.random.default_rng(20)
        X = rng.random((50, 2))
        score = mmds_score(X, X.copy(), 50, 5, gaussian_mixture(), rng)
        assert abs(score) <= 1e-12

    def test_max_dominates_each_batch(self):
        rng = np.random.default_rng(21)
        real = rng.random((100, 2))
        fake = rng.random((100, 2))
        spec = gaussian_kernel(1.0)
        probe = np.random.default_rng(22)
        score = mmds_score(real, fake, 40, 25, spec, probe)
        replay = np.random.default_rng(22)
        batches = []
        for _ in range(25):
            i = replay.choice(100, size=40, replace=False)
            j = replay.choice(100, size=40, replace=False)
            batches.append(mmd2_empirical(real[i], fake[j], spec))
        assert score == pytest.approx(max(batches))
        assert all(score >= b - 1e-15 for b in batches)

    def test_separation(self):
        rng = np.random.default_rng(23)
        real = rng.standard_normal((400, 1))
        same = rng.standard_normal((400, 1))
        shifted = rng.standard_normal((400, 1)) + 3.0
        spec = gaussian_kernel(np.sqrt(2.0))
        s_same = mmds_score(real, same, 100, 50, spec, np.random.default_rng(24))
        s_far = mmds_score(real, shifted, 100, 50, spec, np.random.default_rng(24))
        assert s_far > s_same

    def test_full_set_score_permutation_invariant(self):
        rng = np.random.default_rng(25)
        real = rng.random((60, 2))
        fake = rng.random((60, 2))
        spec = gaussian_kernel(1.0)
        base = mmds_score(real, fake, 60, 3, spec, np.random.default_rng(26))
        perm = np.random.default_rng(27).permutation(60)
        scrambled = mmds_score(real[perm], fake, 60, 3, spec, np.random.default_rng(26))
        assert scrambled == pytest.approx(base, abs=1e-14)

    def test_nan_propagates(self):
        # Python's max(worst, nan) keeps worst, which hid NaN subset pairs
        rng = np.random.default_rng(36)
        real = rng.random((50, 2))
        assert np.isnan(mmds_score(real, np.full((50, 2), np.nan), 20, 5,
                                   gaussian_mixture(), rng))
        fake = rng.random((50, 2))
        fake[3] = np.nan
        assert np.isnan(mmds_score(real, fake, 50, 5, gaussian_mixture(), rng))

    def test_oversized_subset_rejected(self):
        rng = np.random.default_rng(28)
        with pytest.raises(InvalidParameterError):
            mmds_score(np.zeros((5, 1)), np.zeros((5, 1)), 6, 2,
                       gaussian_kernel(1.0), rng)


def test_ring_dataset_properties():
    rng = np.random.default_rng(29)
    X = eight_gaussian_ring(5000, rng)
    assert X.shape == (5000, 2)
    assert np.all(X > 0.0) and np.all(X < 1.0)
    # eight distinct blobs: every point sits near one of the mode centers
    angles = 2 * np.pi * np.arange(8) / 8
    centers = np.column_stack([0.40 + 0.32 * np.cos(angles),
                               0.60 + 0.32 * np.sin(angles)])
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.all(d2.min(axis=1) < 0.02)
    counts = np.bincount(d2.argmin(axis=1), minlength=8)
    assert counts.min() > 400

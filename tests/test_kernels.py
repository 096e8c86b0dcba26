import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpmmd.errors import InvalidInputError, InvalidParameterError, UnsupportedKernelError
from bnpmmd.kernels import (EXPONENTIAL, FAMILIES, GAUSSIAN, MATERN,
                            RATIONAL_QUADRATIC, KernelComponent, KernelSpec,
                            eval_kernel, format_kernel, gaussian_kernel,
                            gaussian_mixture, gram, median_heuristic, parse_kernel,
                            resolve_median)


def single(family, bw, shape=None):
    return KernelSpec((KernelComponent(family, bw, shape),))


class TestEvalKernel:
    def test_gaussian_at_zero_distance(self):
        x = np.array([1.2, -0.7, 3.0])
        assert eval_kernel(gaussian_kernel(2.0), x, x) == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_hand_value(self):
        # sigma 2, ||x-y|| = 2: exp(-4/8)
        val = eval_kernel(gaussian_kernel(2.0), np.array([0.0, 0.0]), np.array([2.0, 0.0]))
        assert val == pytest.approx(np.exp(-0.5), abs=1e-9)
        assert val == pytest.approx(0.606531, abs=1e-6)

    def test_mixture_bound(self):
        spec = gaussian_mixture()
        assert spec.kernel_bound == 6.0
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert 0.0 <= eval_kernel(spec, x, y) <= 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            eval_kernel(gaussian_kernel(1.0), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unit_at_origin_all_families(self, family):
        x = np.array([0.3, 0.4])
        assert eval_kernel(single(family, 1.5), x, x) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_value(self):
        # h(u) = exp(-u), u = 3/1.5
        val = eval_kernel(single(EXPONENTIAL, 1.5), np.array([0.0]), np.array([3.0]))
        assert val == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_rational_quadratic_value(self):
        # alpha = 1: (1 + u^2/2)^-1 at u = 2
        val = eval_kernel(single(RATIONAL_QUADRATIC, 1.0, 1.0), np.array([0.0]), np.array([2.0]))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matern_value(self):
        # nu = 1.5: (1 + sqrt(3) u) exp(-sqrt(3) u) at u = 1
        c = np.sqrt(3.0)
        val = eval_kernel(single(MATERN, 2.0, 1.5), np.array([0.0]), np.array([2.0]))
        assert val == pytest.approx((1 + c) * np.exp(-c), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
       st.lists(st.floats(-50, 50), min_size=2, max_size=5),
       st.sampled_from(FAMILIES))
def test_symmetry_and_range(xs, ys, family):
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d]), np.array(ys[:d])
    spec = single(family, 3.0)
    kxy = eval_kernel(spec, x, y)
    kyx = eval_kernel(spec, y, x)
    assert kxy == kyx
    assert 0.0 <= kxy <= spec.kernel_bound


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_psd_smoke(family):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 3))
    K = gram(single(family, 2.0), X, X)
    eigmin = np.linalg.eigvalsh(K).min()
    assert eigmin >= -1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_monotone_decay_along_ray(family):
    spec = single(family, 1.7)
    origin = np.zeros(2)
    radii = np.linspace(0.0, 10.0, 60)
    vals = [eval_kernel(spec, origin, np.array([r, 0.0])) for r in radii]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestMedianHeuristic:
    def test_hand_enumeration(self):
        X = np.array([[0.0], [0.0]])
        Y = np.array([[3.0], [4.0]])
        assert median_heuristic(X, Y) == pytest.approx(12.5)

    def test_degenerate_single_identical_point(self):
        X = np.array([[1.0, 2.0]])
        with pytest.raises(InvalidInputError, match="degenerate"):
            median_heuristic(X, X.copy())

    def test_swap_invariance(self):
        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((6, 2)), rng.standard_normal((9, 2))
        assert median_heuristic(X, Y) == median_heuristic(Y, X)

    def test_resolve_median_fills_bandwidth(self):
        spec = gaussian_kernel(None)
        assert spec.needs_median
        X = np.array([[0.0], [0.0]])
        Y = np.array([[3.0], [4.0]])
        resolved = resolve_median(spec, X, Y)
        assert resolved.components[0].bandwidth == pytest.approx(12.5)
        with pytest.raises(UnsupportedKernelError):
            gram(spec, X, Y)

    def test_resolve_median_rejects_degenerate(self):
        # constant samples have no scale to offer as sigma
        X = np.full((5, 2), 3.0)
        Y = np.full((4, 2), 3.0)
        with pytest.raises(InvalidInputError, match="degenerate"):
            resolve_median(gaussian_kernel(None), X, Y)


class TestParseKernel:
    def test_single(self):
        spec = parse_kernel("gaussian:80")
        assert spec.components == (KernelComponent(GAUSSIAN, 80.0),)

    def test_median(self):
        assert parse_kernel("gaussian:median").needs_median

    def test_mixture(self):
        spec = parse_kernel("mix:gaussian:2,5,10,20,40,80")
        assert len(spec.components) == 6
        assert spec.kernel_bound == 6.0

    def test_shape_suffix(self):
        spec = parse_kernel("rational-quadratic:5:2.5")
        assert spec.components[0].shape == 2.5

    def test_roundtrip_format(self):
        for text in ["gaussian:80", "mix:gaussian:2,5,10,20,40,80", "rational-quadratic:5:2.5",
                     "gaussian:median"]:
            assert format_kernel(parse_kernel(text)) == text

    def test_rejects_garbage(self):
        # Matern is implemented only at nu = 1.5; an infinite bandwidth or
        # shape would make the kernel constant; gaussian and exponential take
        # no shape; sigma^2 must be a finite normal float
        for bad in ["", "gaussian", "gaussian:-1", "mix:gaussian", "unknown:3", "matern:5:2.5",
                    "gaussian:inf", "rational-quadratic:5:inf", "gaussian:80:2",
                    "exponential:1:0.5", "rational-quadratic:5:abc", "gaussian:80:",
                    "gaussian:1e-300", "gaussian:1e200", "exponential:1e-300"]:
            with pytest.raises(InvalidParameterError):
                parse_kernel(bad)

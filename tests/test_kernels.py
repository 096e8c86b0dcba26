import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bnpmmd import kernels
from bnpmmd.discrepancy import mmd2_empirical, yy_mean_term
from bnpmmd.errors import InvalidInputError, InvalidParameterError, UnsupportedKernelError
from bnpmmd.kernels import (EXPONENTIAL, FAMILIES, GAUSSIAN, MATERN,
                            RATIONAL_QUADRATIC, KernelSpec,
                            eval_kernel, format_kernel, gaussian_kernel,
                            gaussian_mixture, gram, gram_grad_coeff, median_heuristic,
                            parse_kernel, resolve_median, _sum_bandwidths)


def single(family, bw, shape=None):
    return KernelSpec(family, (bw,), shape)


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

    def test_more_than_a_pair_of_points_rejected(self):
        # two (2, 3) arrays raised numpy's "only 0-dimensional arrays ..." TypeError
        with pytest.raises(InvalidInputError, match="two points"):
            eval_kernel(gaussian_kernel(1.0), np.zeros((2, 3)), np.zeros((2, 3)))

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
        val = eval_kernel(single(MATERN, 2.0), np.array([0.0]), np.array([2.0]))
        assert val == pytest.approx((1 + c) * np.exp(-c), abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_overflowed_distance_gives_zero(self, family):
        # ||x - y||^2 = 1e310 overflows to inf; Matern's (1 + inf) * exp(-inf) was NaN
        K = gram(parse_kernel(f"{family}:2"), [[0.0]], [[1e155]])
        assert K[0, 0] == 0.0


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
        assert resolved.bandwidths[0] == pytest.approx(12.5)
        with pytest.raises(UnsupportedKernelError):
            gram(spec, X, Y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("poisoned", ["X", "Y"])
    def test_non_finite_sample_rejected(self, poisoned, bad):
        # a NaN cell made the median itself NaN, returned as a bandwidth
        samples = {"X": np.arange(6.0).reshape(3, 2), "Y": np.ones((4, 2))}
        samples[poisoned][1, 0] = bad
        with pytest.raises(InvalidInputError, match=f"^{poisoned} contains non-finite"):
            median_heuristic(samples["X"], samples["Y"])

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError, match="^X must be non-empty"):
            median_heuristic(np.zeros((0, 2)), np.ones((4, 2)))

    def test_stack_of_samples_rejected(self):
        # two (c, N, d) stacks gave the median over their paired blocks as a bandwidth
        stack = np.random.default_rng(12).standard_normal((2, 5, 3))
        with pytest.raises(InvalidInputError, match=r"^X must be non-empty rows \(N, d\)"):
            median_heuristic(stack, stack + 1.0)

    def test_resolve_median_rejects_degenerate(self):
        # constant samples have no scale to offer as sigma
        X = np.full((5, 2), 3.0)
        Y = np.full((4, 2), 3.0)
        with pytest.raises(InvalidInputError, match="degenerate"):
            resolve_median(gaussian_kernel(None), X, Y)


class TestParseKernel:
    def test_single(self):
        spec = parse_kernel("gaussian:80")
        assert spec == KernelSpec(GAUSSIAN, (80.0,))

    def test_median(self):
        assert parse_kernel("gaussian:median").needs_median

    def test_mixture(self):
        spec = parse_kernel("mix:gaussian:2,5,10,20,40,80")
        assert len(spec.bandwidths) == 6
        assert spec.kernel_bound == 6.0

    def test_shape_suffix(self):
        spec = parse_kernel("rational-quadratic:5:2.5")
        assert spec.shape == 2.5

    def test_roundtrip_format(self):
        for text in ["gaussian:80", "mix:gaussian:2,5,10,20,40,80", "rational-quadratic:5:2.5",
                     "gaussian:median"]:
            assert format_kernel(parse_kernel(text)) == text

    def test_rejects_garbage(self):
        # only rational-quadratic takes a shape (Matern is implemented only at
        # nu = 1.5); an infinite bandwidth or shape would make the kernel
        # constant; sigma^2 must be a finite normal float; a bandwidth list
        # needs the mix: prefix
        for bad in ["", "gaussian", "gaussian:-1", "mix:gaussian", "unknown:3", "matern:5:2.5",
                    "matern:5:1.5", "gaussian:2,5", "mix:gaussian:2,5:2", "mix:", "mix:gaussian:2,",
                    "gaussian:inf", "rational-quadratic:5:inf", "gaussian:80:2",
                    "exponential:1:0.5", "rational-quadratic:5:abc", "gaussian:80:",
                    "gaussian:1e-300", "gaussian:1e200", "exponential:1e-300"]:
            with pytest.raises(InvalidParameterError):
                parse_kernel(bad)

    def test_mixture_with_shape(self):
        spec = parse_kernel("mix:rational-quadratic:1,2:2.5")
        assert spec == KernelSpec(RATIONAL_QUADRATIC, (1.0, 2.0), 2.5)
        assert format_kernel(spec) == "mix:rational-quadratic:1,2:2.5"


class TestKernelSpec:
    def test_hashable_and_compared_by_value(self):
        assert {gaussian_mixture((2, 5)), KernelSpec(GAUSSIAN, [2.0, 5.0])} == \
            {KernelSpec(GAUSSIAN, (2.0, 5.0))}

    def test_needs_a_bandwidth(self):
        with pytest.raises(InvalidParameterError, match="at least one bandwidth"):
            KernelSpec(GAUSSIAN, ())


# every float in the legal bandwidth range, not only those 6 digits can write
_printable = st.floats(1e-150, 1e150)


@st.composite
def _specs(draw):
    family = draw(st.sampled_from(FAMILIES))
    bandwidths = draw(st.lists(st.none() | _printable, min_size=1, max_size=6))
    shape = draw(st.none() | _printable) if family == RATIONAL_QUADRATIC else None
    return KernelSpec(family, bandwidths, shape)


@settings(max_examples=200, deadline=None)
@given(_specs())
def test_parse_inverts_format(spec):
    assert parse_kernel(format_kernel(spec)) == spec


SELF_SPECS = [single(f, 1.3) for f in FAMILIES] + [
    gaussian_mixture(), KernelSpec(RATIONAL_QUADRATIC, (0.7, 2.0), 2.5),
    KernelSpec(MATERN, (0.5, 3.0))]


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("spec", SELF_SPECS, ids=format_kernel)
def test_self_block_on_triangle_equals_full_evaluation(spec, rows):
    # both triangles and the diagonal of a self block, alone or in a stack,
    # have the bits of the full cdist evaluation
    for poison in (None, np.nan, np.inf, -np.inf):
        X = np.random.default_rng(rows).standard_normal((rows, 3))
        X[rows // 2] = X[0]  # a duplicate pair, at distance 0 off the diagonal
        if poison is not None:
            X[-1, 1] = poison
        full = _sum_bandwidths(spec, cdist(X, X, "sqeuclidean"))
        np.testing.assert_array_equal(gram(spec, X[None], X[None])[0], full)
        np.testing.assert_array_equal(gram(spec, X, X), full)


# Each family's profiles as the out-of-place formulas they replaced; the
# in-place evaluation must give the same bits.
_MATERN_C = np.sqrt(2.0 * 1.5)


def _exponential_g_formula(s, sigma, shape):
    r = np.sqrt(s)
    g = np.exp(-r / sigma) / (sigma * r)
    return np.where(s > 0, g, 0.0)


def _matern_h_formula(s, sigma, shape):
    ct = np.minimum(_MATERN_C * (np.sqrt(s) / sigma), 1e3)
    return (1.0 + ct) * np.exp(-ct)


OUT_OF_PLACE = {
    GAUSSIAN: (lambda s, sigma, shape: np.exp(s * (-0.5 / sigma**2)),
               lambda s, sigma, shape: np.exp(s * (-0.5 / sigma**2)) / sigma**2),
    EXPONENTIAL: (lambda s, sigma, shape: np.exp(-np.sqrt(s) / sigma), _exponential_g_formula),
    RATIONAL_QUADRATIC: (
        lambda s, sigma, alpha: (1.0 + s / (2.0 * alpha * sigma**2)) ** (-alpha),
        lambda s, sigma, alpha: (1.0 + s / (2.0 * alpha * sigma**2)) ** (-alpha - 1.0) / sigma**2),
    MATERN: (_matern_h_formula,
             lambda s, sigma, shape: (_MATERN_C / sigma) ** 2
             * np.exp(-_MATERN_C * (np.sqrt(s) / sigma))),
}


@pytest.mark.parametrize("bandwidths", [(1.3,), (2.0, 5.0, 10.0, 20.0, 40.0, 80.0)],
                         ids=["one", "six"])
@pytest.mark.parametrize("family, shape", [(f, None) for f in FAMILIES]
                         + [(RATIONAL_QUADRATIC, 2.5)])
def test_in_place_profiles_equal_out_of_place_formulas(family, shape, bandwidths):
    # s = 0 is the exponential g's kink, s = inf hits the Matern cap
    X = np.random.default_rng(8).standard_normal((30, 3)) * 4.0
    sq = np.concatenate([cdist(X, X, "sqeuclidean").ravel(),
                         [0.0, np.inf, np.nan, 5e-324, 1e300]])
    spec = KernelSpec(family, bandwidths, shape)
    alpha = 1.0 if shape is None else shape
    for grad, formula in enumerate(OUT_OF_PLACE[family]):
        with np.errstate(divide="ignore"):
            want = formula(sq, bandwidths[0], alpha)
            for sigma in bandwidths[1:]:
                want += formula(sq, sigma, alpha)
        np.testing.assert_array_equal((_sum_bandwidths, gram_grad_coeff)[grad](spec, sq.copy()), want)


@pytest.mark.parametrize("spec", SELF_SPECS, ids=format_kernel)
def test_stack_of_self_blocks_equals_each_block(spec):
    X = np.random.default_rng(9).standard_normal((4, 70, 3))
    X[2, 5, 1] = np.nan
    stack = gram(spec, X, X)
    assert stack.shape == (4, 70, 70)
    for x, block in zip(X, stack):
        np.testing.assert_array_equal(block, gram(spec, x, x))
    np.testing.assert_array_equal(gram(spec, X[:1], X[:1])[0], gram(spec, X[0], X[0]))
    # the gradient coefficients of a stack's distances are each block's too
    coeffs = gram_grad_coeff(spec, kernels._sq_dist(X, X))
    for x, block in zip(X, coeffs):
        np.testing.assert_array_equal(block, gram_grad_coeff(spec, kernels._sq_dist(x, x)))


@pytest.mark.parametrize("d", [20, 60])
@pytest.mark.parametrize("family", [EXPONENTIAL, MATERN])
def test_block_of_an_array_against_itself_has_an_exact_diagonal(family, d):
    # sqrt of a negative round-off would give NaN on the diagonal
    X = np.random.default_rng(5).standard_normal((30, d)) + 3.0
    spec = single(family, 2.0)
    for block in (gram(spec, X, X), gram(spec, X[None], X)[0], gram(spec, X[None], X[None])[0]):
        np.testing.assert_array_equal(np.diag(block), 1.0)
    assert abs(mmd2_empirical(X, X, spec)) < 1e-12


@pytest.mark.parametrize("d", [20, 60])
def test_exponential_gradient_is_zero_at_a_duplicate_pair(d):
    X = np.random.default_rng(4).standard_normal((30, d))
    X[9] = X[3]
    g = gram_grad_coeff(single(EXPONENTIAL, 2.0), kernels._sq_dist(X, X))
    assert g[3, 9] == g[9, 3] == 0.0
    np.testing.assert_array_equal(np.diag(g), 0.0)
    assert (np.delete(g[3], [3, 9]) > 0).all()


@pytest.mark.parametrize("d", [5, 20, 60])
def test_paired_stack_of_samples_equals_each_pair_alone(monkeypatch, d):
    calls = []
    monkeypatch.setattr(kernels, "cdist", lambda *a, **k: calls.append(a) or cdist(*a, **k))
    rng = np.random.default_rng(d)
    X, Y = rng.standard_t(3, (4, 30, d)), rng.standard_normal((4, 20, d))
    X[:, 7] = X[:, 2]
    X[:, 11] = Y[:, 4]  # a row shared with its own sample: exactly 0 apart
    X[1, 5, 3] = np.nan
    spec = single(EXPONENTIAL, 4.0)
    with np.errstate(invalid="ignore"):
        sq = kernels._sq_dist(X, Y)
        assert len(calls) == 4  # one cdist per pair
        stack = gram(spec, X, Y)
        for x, y, block, values in zip(X, Y, sq, stack):
            np.testing.assert_array_equal(block, cdist(x, y, "sqeuclidean"))
            np.testing.assert_array_equal(block, kernels._sq_dist(x, y))
            np.testing.assert_array_equal(values, gram(spec, x, y))
    assert (sq[:, 11, 4] == 0).all() and (stack[:, 11, 4] == 1).all()
    assert np.isnan(stack[1, 5]).all() and np.isfinite(np.delete(stack[1], 5, axis=0)).all()


@pytest.mark.parametrize("Y", [np.zeros((3, 20, 16)), np.zeros((1, 20, 16)), np.zeros((4, 20, 15))],
                         ids=["fewer", "one", "narrower"])
def test_paired_stack_of_another_count_or_width_raises(Y):
    X = np.zeros((4, 30, 16))
    with pytest.raises(InvalidInputError):
        gram(gaussian_kernel(1.0), X, Y)
    with pytest.raises(InvalidInputError):
        gram(gaussian_kernel(1.0), X[0], Y[:1])


@pytest.mark.parametrize("call", [
    lambda spec, X: gram(spec, X, X), lambda spec, X: mmd2_empirical(X, X, spec),
    lambda spec, X: yy_mean_term(X, spec), lambda spec, X: eval_kernel(spec, X[0], X[0])],
    ids=["gram", "mmd2_empirical", "yy_mean_term", "eval_kernel"])
def test_rows_of_no_coordinates_raise_naming_the_array(call):
    # rows of no coordinates raise here, not as a block of ones or numpy's reshape error
    with pytest.raises(InvalidInputError, match=r"^[XY] must be rows \(N, d\).*got shape \(\d, 0\)"):
        call(gaussian_kernel(1.0), np.zeros((3, 0)))


def test_empty_blocks_keep_their_shapes():
    rng = np.random.default_rng(16)
    X, Y = rng.standard_normal((3, 60, 16)), rng.standard_normal((20, 16))
    spec = gaussian_kernel(4.0)
    assert gram(spec, X[:, :0], X[:, :0]).shape == (3, 0, 0)
    assert gram(spec, X[0, :0], X[0, :0]).shape == (0, 0)
    assert gram(spec, X[:, :0], Y).shape == (3, 0, 20)
    assert gram(spec, X, Y[:0]).shape == (3, 60, 0)

"""Squared MMD between samples or weighted measures, gradients, and bound evaluators.

All MMD estimators here are the biased V-statistic form, diagonal terms
included; the weighted form reduces exactly to the empirical one when the
measure has uniform weights.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from . import kernels
from .dp import DiscreteMeasure
from .errors import InvalidInputError, InvalidParameterError, as_rows
from .kernels import GAUSSIAN, KernelSpec, _pair_rows, _sq_dist, profile_sums

# bound only because perfbench/spans.py wraps these three names here
cdist, gram, gram_grad_coeff = kernels.cdist, kernels.gram, kernels.gram_grad_coeff


def _nonempty_rows(X, name: str) -> np.ndarray:
    """``X`` by :func:`as_rows`, which must have rows: the MMD functions divide by their count."""
    X = as_rows(X, name, stack=True)
    if X.shape[-2] == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    return X


KEPT_BLOCK_ENTRIES = 2**16  # the largest kernel block _blocks keeps arrays for
_kept = threading.local()


def _blocks(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Four float arrays of ``shape``, for a block's distances or Gram matrix,
    values, coefficients and scratch: views of four flat arrays this thread keeps,
    grown to the largest block seen, for a block of at most
    ``KEPT_BLOCK_ENTRIES`` entries, else new arrays.  Fresh arrays of a few
    hundred KB are trimmed by the allocator and faulted back in page by page,
    which cost an RB chunk or a training step more than its arithmetic.
    Callers reduce a block before they ask for the next and return no view of one.
    """
    size = math.prod(shape)
    arrays = getattr(_kept, "arrays", None)
    if arrays is None or arrays[0].size < size:
        arrays = [np.empty(size) for _ in range(4)]
        if size <= KEPT_BLOCK_ENTRIES:
            _kept.arrays = arrays
    return [a[:size].reshape(shape) for a in arrays]


# the largest (max ||x||^2 + max ||z||^2) / (2 sigma_min^2) of a split-form block; see _kernel_sums
SPLIT_CAP = 64.0


def _kernel_sums(spec: KernelSpec, X: np.ndarray, u: np.ndarray | None,
                 Z: np.ndarray | None) -> np.ndarray:
    """Every MMD value term: for each array x of the stack X, (c, N, d),
    sum_lt u_l k(x_l, z_t) v_t against Z, (m, d), its own array of a paired
    stack Z, (c, m, d), or x itself when Z is None; v is u for a self block,
    else ones, and u None means ones.  A Gaussian block within ``SPLIT_CAP``
    is a^T exp(X Z^T / sigma^2) b, a_l = u_l e^{-||x_l||^2 / 2 sigma^2} and b
    likewise: one batched product, then one multiply and one ``exp`` per
    bandwidth.  No exponent passes the cap, so each kernel value is within a
    relative (d + 4) eps ``SPLIT_CAP`` of the exact one.  Any other block
    takes the squared distances of :func:`kernels.gram`, reduced as u K u,
    u (K 1) or one flat sum.  Each array's form is its own, so its sum too.
    """
    split = np.zeros(len(X), dtype=bool)
    if spec.family == GAUSSIAN and not spec.needs_median:
        nx = np.einsum("cik,cik->ci", X, X)  # einsum sets no overflow flag
        nz = nx if Z is None else np.einsum("...jk,...jk->...j", Z, Z)
        split = (nx.max(axis=1) / (2 * SPLIT_CAP)  # the cap, kept from overflow; NaN or inf fails
                 <= min(spec.bandwidths) ** 2 - nz.max(axis=-1) / (2 * SPLIT_CAP))
    if split.any() and not split.all():  # a stack that mixes the forms: each part on its own
        sums = np.empty(len(X))
        for take in (split, ~split):
            sums[take] = _kernel_sums(spec, X[take], None if u is None else u[take],
                                      Z if Z is None or Z.ndim == 2 else Z[take])
        return sums
    block, values, _, scratch = _blocks((*X.shape[:2], (X if Z is None else Z).shape[-2]))
    if split.all():
        np.matmul(X, (X if Z is None else Z).mT, out=block)
        sums = 0.0
        for sigma in spec.bandwidths:
            scale = 0.5 / sigma**2
            a = np.exp(nx * -scale) * (1.0 if u is None else u)
            b = a if Z is None else np.exp(nz * -scale)
            np.exp(np.multiply(block, 2.0 * scale, out=values), out=values)
            sums = sums + (a[:, None, :] @ values @ b[..., None])[:, 0, 0]
        return sums
    profile_sums(spec, _sq_dist(X, X if Z is None else Z, block), values, None, scratch)
    if u is None:
        return values.reshape(len(X), -1).sum(axis=1)
    u = u[:, None, :]
    return (u @ values @ u.mT if Z is None else u @ values.sum(axis=-1)[..., None])[:, 0, 0]


def mmd2_empirical(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> float:
    """Biased squared-MMD estimate between two samples, each (N, d).

    mean(k(X, X)) - 2 mean(k(X, Y)) + mean(k(Y, Y)), each from
    :func:`_kernel_sums`; non-negative up to float round-off.
    """
    X, Y = _nonempty_rows(X, "X"), _nonempty_rows(Y, "Y")
    if X.ndim != 2 or Y.ndim != 2:
        raise InvalidInputError(f"mmd2_empirical takes two samples (N, d), got {X.shape} and {Y.shape}")
    X, Y = _pair_rows(X, Y)
    kxy = _kernel_sums(spec, X[None], None, Y)[0] / (X.shape[0] * Y.shape[0])
    return float(yy_mean_term(X, spec) - 2.0 * kxy + yy_mean_term(Y, spec))


def yy_mean_term(Y: np.ndarray, spec: KernelSpec) -> float | np.ndarray:
    """mean(k(Y, Y)); precompute when Y is reused across many measures.  A
    stack of samples, (c, m, d), gives c means, each that of its sample alone."""
    Y = _nonempty_rows(Y, "Y")
    m = Y.shape[-2]
    means = _kernel_sums(spec, Y.reshape(-1, m, Y.shape[-1]), None, None) / (m * m)
    return means if Y.ndim == 3 else float(means[0])


def mmd2_weighted(P: DiscreteMeasure, Y: np.ndarray, spec: KernelSpec,
                  *, yy_term: float | None = None) -> float | np.ndarray:
    """Squared MMD between a weighted measure and a sample.

    sum_lt w_l w_t k(V_l, V_t) - (2/m) sum_lt w_l k(V_l, Y_t)
    + mean(k(Y, Y)).  Pass ``yy_term`` to reuse a precomputed last term.

    A single measure is a stack of one and gives a float; a stack of c
    measures gives c values from one stack of self blocks and one cross
    block (:func:`_kernel_sums`), each that of its measure alone to the bit.
    ``Y`` may be a stack of c samples, (c, m, d), paired with the measures
    row by row.  Training calls :func:`mmd2_and_grad` instead.
    """
    V, Y = _pair_rows(P.atoms, _nonempty_rows(Y, "Y"))
    term3 = yy_mean_term(Y, spec) if yy_term is None else yy_term
    V, w = V.reshape(-1, *V.shape[-2:]), P.weights.reshape(-1, V.shape[-2])
    values = _kernel_sums(spec, V, w, None) - 2.0 / Y.shape[-2] * _kernel_sums(spec, V, w, Y) + term3
    return values if P.weights.ndim == 2 else float(values[0])


def grad_mmd2_atoms(P: DiscreteMeasure, Y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Analytic gradient of :func:`mmd2_weighted` in the sample points Y: the
    second output of :func:`mmd2_and_grad`."""
    return mmd2_and_grad(P, Y, spec)[1]


def mmd2_and_grad(P: DiscreteMeasure, Y: np.ndarray, spec: KernelSpec) -> tuple[float, np.ndarray]:
    """The squared MMD of one measure and one sample, (m, d), and its
    gradient in the sample points: row t is d MMD^2 / d Y_t.

    Every supported kernel family is radial with d k(v, y)/d y =
    g(||v - y||^2)(v - y), so the gradient assembles from the g-coefficient
    matrices of the cross and sample blocks.  Each block gets its squared
    distances and each bandwidth's profile once, values and coefficients
    together (:func:`profile_sums`), so the gradient is that of the value's
    own distances.  The value is :func:`mmd2_weighted`'s within round-off,
    not to the bit: that takes Gaussian terms from the split form.
    """
    Y = _nonempty_rows(Y, "Y")
    if P.weights.ndim != 1 or Y.ndim != 2:
        raise InvalidInputError("mmd2_and_grad takes one measure and one sample (m, d); got "
                                f"weights of shape {P.weights.shape} and a sample of shape {Y.shape}")
    V, w = P.atoms, P.weights
    n, m = len(w), len(Y)
    sq, values, coeffs, scratch = _blocks((n, n))
    profile_sums(spec, _sq_dist(V, V, sq), values, None, scratch)
    term1 = float(w @ values @ w)

    sq, values, coeffs, scratch = _blocks((n, m))
    profile_sums(spec, _sq_dist(V, Y, sq), values, coeffs, scratch)
    term2 = -2.0 / m * float(w @ values.sum(axis=1))
    # w_l g_lt; copying the weights out first spares the broadcast product numpy's 64 KB buffer
    np.copyto(scratch, w[:, None])
    wg = np.multiply(scratch, coeffs, out=coeffs)
    cross = -2.0 / m * (wg.T @ V - wg.sum(axis=0)[:, None] * Y)

    sq, values, coeffs, scratch = _blocks((m, m))
    profile_sums(spec, _sq_dist(Y, Y, sq), values, coeffs, scratch)  # diagonal displacement 0
    term3 = float(values.reshape(-1, m * m).sum(axis=1)[0] / (m * m))
    self_term = 2.0 / (m * m) * (coeffs @ Y - coeffs.sum(axis=1)[:, None] * Y)
    return term1 + term2 + term3, cross + self_term


def prior_mean_upper_bound(kernel_bound: float, mmd2_base_model: float) -> float:
    """Upper bound on the mean of the prior-weighted squared MMD:
    the base-vs-model squared MMD plus three times the kernel bound."""
    return mmd2_base_model + 3.0 * kernel_bound


def generalization_bound(concentration: float, n: int, n_terms: int, kernel_bound: float,
                         mmd_opt: float, contamination: float | None = None) -> float:
    """Upper bound on the expected (unsquared) MMD reached by a trained generator.

    mmd_opt + 2K/sqrt(n) + 4aK/(a+n) + 2 sqrt((a+n+N)K / ((a+n+1)N)), plus
    4 eps under a contamination rate eps.
    """
    if n <= 0 or n_terms <= 0:
        raise InvalidParameterError("n and n_terms must be positive")
    a, N, K = concentration, n_terms, kernel_bound
    bound = (mmd_opt
             + 2.0 * K / math.sqrt(n)
             + 4.0 * a * K / (a + n)
             + 2.0 * math.sqrt((a + n + N) * K / ((a + n + 1.0) * N)))
    if contamination is not None:
        bound += 4.0 * contamination
    return bound


def deviation_tail_bound(n: int, m: int, kernel_bound: float, tol: float) -> float:
    """Two-sided tail bound 2 exp(-tol^2 n m / (2 K (n + m))) on the
    estimation error of the empirical MMD."""
    if n <= 0 or m <= 0 or kernel_bound <= 0 or tol <= 0:
        raise InvalidParameterError("n, m, kernel_bound, and tol must be positive")
    return 2.0 * math.exp(-(tol * tol) * n * m / (2.0 * kernel_bound * (n + m)))

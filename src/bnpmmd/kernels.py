"""Radial basis kernels, mixtures of them, and bandwidth selection.

Every kernel here has the form k(x, y) = h(s, sigma, shape) in the squared
distance s = ||x - y||^2 (scipy's ``sqeuclidean``), with h mapping [0, inf)
into [0, 1] and h(0) = 1, so a sum over T bandwidths is bounded by T.

A block holds the squared distances from the rows of X, (N, d), to the m
rows of Y, or to its own rows for a self block; a stack X, (c, N, d), gives
c blocks, against one Y or, array by array, against a paired stack Y,
(c, m, d).  Each block's distances come from one of two forms, chosen
from N, m and d alone, so a block has the same bits alone and in a stack:

- The guarded expansion s = ||x||^2 + ||y||^2 - 2 x.y from one matrix
  product, from ``EXPANSION_MIN_DIM`` coordinates on, while N m d is at most
  ``EXPANSION_MAX_PRODUCT`` multiply-adds.  A single array is multiplied as
  a stack of one, a stack as the batched product, one BLAS call per array.
  OpenBLAS runs a product of at most 2^18 multiply-adds on one thread;
  above, it spreads it over its threads, and on a shared 2-core machine a
  172 x 172 x 60 product took 4.4 ms in one timing and 76 us in another.
- ``cdist`` for every other block, a self block as a full square.

Gaussian MMD value terms take no distances while (max ||x||^2 + max ||y||^2)
/ (2 sigma_min^2) is at most ``discrepancy.SPLIT_CAP``: ``discrepancy._kernel_sums``
takes them from the Gram matrix X Y^T, as k = e^{-||x||^2 / 2 sigma^2}
e^{x.y / sigma^2} e^{-||y||^2 / 2 sigma^2}.  Distances serve the other
families, blocks past the cap, gradients, :func:`gram` and :func:`self_gram`.

The expansion's rounding error is at most about (d + 2) eps (||x||^2 +
||y||^2), so a guard recomputes from differences every pair whose s is NaN
or at most ``EXPANSION_GUARD`` (max ||x||^2 + max ||y||^2), the maxima taken
over the block; every other pair is within a relative (d + 2) eps /
``EXPANSION_GUARD`` of the exact distance (1.4e-11 at d = 60).  The maxima
skip NaN rows (``np.fmax``), so a NaN row costs the recomputation of its
own pairs only.  A block in which the guard flags more than
``EXPANSION_DENSE`` of the pairs is recomputed whole by ``cdist``: that
happens to data far from the origin for their spread, and to a block with
an infinite or overflowing norm, whose bound is infinite.  So a pair is
never negative, is exactly 0 where ``cdist`` gives 0 (duplicate rows), and
is NaN where ``cdist`` gives NaN.  A self block takes its norms from the
diagonal of its Gram matrix, which makes its diagonal exactly 0 for a row
of finite norm and NaN for a NaN row with no recomputation.

scipy is imported by the first block that takes ``cdist``, not with this
module: importing it costs more than the rest of the CLI's import, and a run
whose blocks all split or expand never needs it.  Once loaded, ``cdist`` is
scipy's own function, with no wrapper.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (InvalidInputError, InvalidParameterError, UnsupportedKernelError,
                     as_rows, as_sample)


def _load_cdist(*args, **kwargs) -> np.ndarray:
    """A stand-in for scipy's ``cdist``: its first call imports scipy, binds this
    module's ``cdist`` to scipy's function unless it was patched, and forwards."""
    from scipy.spatial.distance import cdist as scipy_cdist
    global cdist
    if cdist is _load_cdist:
        cdist = scipy_cdist
    return scipy_cdist(*args, **kwargs)


cdist = _load_cdist

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
RATIONAL_QUADRATIC = "rational-quadratic"
MATERN = "matern"


def _gaussian_h(s, sigma, shape, out):
    np.multiply(s, -0.5 / sigma**2, out=out)
    return np.exp(out, out=out)


def _gaussian_g_of_h(h, sigma, out):
    return np.divide(h, sigma**2, out=out)


def _gaussian_g(s, sigma, shape, out):
    return _gaussian_g_of_h(_gaussian_h(s, sigma, shape, out), sigma, out)


def _exponential_h(s, sigma, shape, out):
    np.sqrt(s, out=out)
    np.negative(out, out=out)
    out /= sigma
    return np.exp(out, out=out)


def _exponential_g(s, sigma, shape, out):
    # the kink at s = 0 gets coefficient 0 (the symmetric point is stationary)
    kink = ~(s > 0)
    r = np.sqrt(s)
    _exponential_h(s, sigma, shape, out)
    r *= sigma
    with np.errstate(divide="ignore"):
        out /= r
    out[kink] = 0.0
    return out


def _rational_quadratic_base(s, sigma, alpha, out):
    np.divide(s, 2.0 * alpha * sigma**2, out=out)
    out += 1.0
    return out


def _rational_quadratic_h(s, sigma, alpha, out):
    _rational_quadratic_base(s, sigma, alpha, out)
    out **= -alpha
    return out


def _rational_quadratic_g(s, sigma, alpha, out):
    _rational_quadratic_base(s, sigma, alpha, out)
    out **= -alpha - 1.0
    out /= sigma**2
    return out


# Matern is implemented only at nu = 3/2: h = (1 + ct) exp(-ct), t = sqrt(s) / sigma
_MATERN_C = np.sqrt(2.0 * 1.5)


def _matern_ct(s, sigma, out):
    np.sqrt(s, out=out)
    out /= sigma
    out *= _MATERN_C
    return out


def _matern_h(s, sigma, shape, out):
    # exp(-ct) is 0 past ct = 746; the cap makes s = inf give 0, not inf * 0 = NaN
    ct = np.minimum(_matern_ct(s, sigma, out), 1e3, out=out)
    decay = np.negative(ct)
    np.exp(decay, out=decay)
    ct += 1.0
    ct *= decay
    return ct


def _matern_g(s, sigma, shape, out):
    _matern_ct(s, sigma, out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= (_MATERN_C / sigma) ** 2
    return out


class _Family(NamedTuple):
    """Profile of one kernel family in the squared distance s.

    ``h(s, sigma, shape, out)`` writes the kernel value into ``out`` and
    ``g(s, sigma, shape, out)`` the gradient coefficient, d k(v, y) / d y =
    g * (v - y); each returns ``out``, which may be ``s`` itself.  Both
    evaluate the family's formula operation by operation in place, so the
    values are those of the out-of-place formula to the bit; only the
    exponential g and the Matern h need a second array.  Against those
    formulas, d = 5 RB tests with the exponential, rational-quadratic and
    Matern kernels run 1.2-2.5x faster.  A family with no default shape takes none.
    ``g_of_h(h, sigma, out)``, where set, gives g from the values h by the
    last step of ``g`` itself, so with the same bits.
    """

    default_shape: float | None
    h: Callable[..., np.ndarray]
    g: Callable[..., np.ndarray]
    g_of_h: Callable[..., np.ndarray] | None = None


_FAMILY_TABLE = {
    GAUSSIAN: _Family(None, _gaussian_h, _gaussian_g, _gaussian_g_of_h),
    EXPONENTIAL: _Family(None, _exponential_h, _exponential_g),
    RATIONAL_QUADRATIC: _Family(1.0, _rational_quadratic_h, _rational_quadratic_g),
    MATERN: _Family(None, _matern_h, _matern_g),
}
FAMILIES = tuple(_FAMILY_TABLE)
# the families divide by sigma^2, so it must be a finite normal float
_SIGMA_MIN, _SIGMA_MAX = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)

# Standard bandwidth ladder for mixture kernels in generator training.
MIXTURE_BANDWIDTHS = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
# Single bandwidth used throughout the hypothesis-testing experiments.
TEST_BANDWIDTH = 80.0
# Blocks of at least this many coordinates, each block's product at most
# EXPANSION_MAX_PRODUCT multiply-adds, take their squared distances from the guarded
# expansion; a pair within EXPANSION_GUARD of 0 is recomputed, and a block with more
# than EXPANSION_DENSE of its pairs so is recomputed whole.  See the module docstring.
EXPANSION_MIN_DIM = 16
EXPANSION_MAX_PRODUCT = 2**18
EXPANSION_GUARD = 1e-3
EXPANSION_DENSE = 1 / 8


@dataclass(frozen=True)
class KernelSpec:
    """One radial kernel family summed over one or more bandwidths sigma.

    ``shape`` is the family's optional shape parameter, shared by every
    bandwidth.  A ``None`` bandwidth is to be filled in from data by the
    median heuristic (see :func:`resolve_median`).  Pointwise values lie in
    [0, T] for T bandwidths.
    """

    family: str
    bandwidths: tuple[float | None, ...]
    shape: float | None = None

    def __post_init__(self):
        family = _FAMILY_TABLE.get(self.family)
        if family is None:
            raise InvalidParameterError(f"unknown kernel family {self.family!r}")
        bandwidths = tuple(None if b is None else float(b) for b in self.bandwidths)
        if not bandwidths:
            raise InvalidParameterError("kernel spec needs at least one bandwidth")
        # an infinite bandwidth or shape would make the kernel constant, so every MMD 0
        for b in bandwidths:
            if b is not None and not _SIGMA_MIN <= b <= _SIGMA_MAX:
                raise InvalidParameterError(f"kernel bandwidth must lie in [{_SIGMA_MIN:.3g}, "
                                            f"{_SIGMA_MAX:.3g}], got {b:g}")
        if self.shape is not None and family.default_shape is None:
            raise InvalidParameterError(f"{self.family} kernel takes no shape parameter")
        if self.shape is not None and not 0 < self.shape < np.inf:
            raise InvalidParameterError("kernel shape parameter must be finite and positive")
        object.__setattr__(self, "bandwidths", bandwidths)

    @property
    def kernel_bound(self) -> float:
        return float(len(self.bandwidths))

    @property
    def needs_median(self) -> bool:
        return None in self.bandwidths


def gaussian_kernel(bandwidth: float | None = TEST_BANDWIDTH) -> KernelSpec:
    return KernelSpec(GAUSSIAN, (bandwidth,))


def gaussian_mixture(bandwidths=MIXTURE_BANDWIDTHS) -> KernelSpec:
    return KernelSpec(GAUSSIAN, bandwidths)


def profile_sums(spec: KernelSpec, sq: np.ndarray, values: np.ndarray | None,
                 coeffs: np.ndarray | None, scratch: np.ndarray | None) -> None:
    """Write the kernel values at squared distances ``sq``, summed over the
    bandwidths of ``spec``, into ``values``, and the gradient coefficients
    so summed into ``coeffs``; either may be None.

    Each bandwidth's profile is evaluated once: where the family has
    ``g_of_h`` (the Gaussian, g = h / sigma^2) and both sums are asked for,
    its coefficients come from its values.  Every array has the shape of
    ``sq``, and ``scratch`` is needed from two bandwidths on.  ``sq`` may be
    the output only when one sum is asked for at one bandwidth.  The sums
    are those of separate evaluations to the bit.
    """
    if spec.needs_median:
        raise UnsupportedKernelError("median bandwidth not resolved; call resolve_median first")
    family = _FAMILY_TABLE[spec.family]
    shape = family.default_shape if spec.shape is None else spec.shape
    for i, sigma in enumerate(spec.bandwidths):
        if values is not None:
            h = family.h(sq, sigma, shape, scratch if i else values)
            if i:
                values += h
        if coeffs is not None:
            out = scratch if i else coeffs
            if values is not None and family.g_of_h is not None:
                g = family.g_of_h(h, sigma, out)
            else:
                g = family.g(sq, sigma, shape, out)
            if i:
                coeffs += g


def _sum_bandwidths(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Kernel values at squared distances ``sq``, summed over the bandwidths of
    ``spec``: into ``sq`` itself for one bandwidth, else into a new array."""
    many = len(spec.bandwidths) > 1
    out = np.empty_like(sq) if many else sq
    profile_sums(spec, sq, out, None, np.empty_like(sq) if many else None)
    return out


def gram(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross block K[i, j] = k(X_i, Y_j) summed over the bandwidths; K(X, X) is :func:`self_gram`.

    A stack ``X`` of shape (c, N, d) gives its c blocks, (c, N, m), each the
    block of its array alone to the bit.
    """
    return _sum_bandwidths(spec, _sq_dist(X, Y))


def gram_grad_coeff(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Gradient coefficients g(s) at squared distances ``sq``, summed over bandwidths."""
    coeffs = np.empty_like(sq)
    profile_sums(spec, sq, None, coeffs, np.empty_like(sq))
    return coeffs


def self_gram(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """K(X, X) summed over the bandwidths, as a full square.

    A stack of arrays, (c, N, d), gives its c self blocks, (c, N, N), each
    that of its array alone to the bit, with the profiles run once over all.
    """
    return _sum_bandwidths(spec, _self_sq_dist(as_rows(X, "X", stack=True)))


def _sq_dist(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from the rows of X, (N, d) or a stack (c, N, d), to
    those of Y, (m, d), or of a stack Y, (c, m, d), paired with X array by array;
    into ``out``, a C-contiguous float array of the result's shape, if given."""
    X, Y = _pair_rows(X, Y)
    d, m = X.shape[-1], Y.shape[-2]
    out = np.empty(X.shape[:-1] + (m,)) if out is None else out
    if _expands(X, m):
        _cross_expansion(X.reshape(-1, *X.shape[-2:]), Y, out.reshape(-1, *out.shape[-2:]))
    elif Y.ndim == 3:
        _cdist_pairs(X, Y, out)
    else:
        cdist(X.reshape(-1, d), Y, "sqeuclidean", out=out.reshape(X.size // d, m))
    return out


def _pair_rows(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X, Y by :func:`as_rows`, of one width; a stack Y, (c, m, d), needs a stack X of c arrays."""
    X, Y = as_rows(X, "X", stack=True), as_rows(Y, "Y", stack=True)
    if X.shape[-1] != Y.shape[-1]:
        raise InvalidInputError(f"dimension mismatch: {X.shape[-1]} vs {Y.shape[-1]}")
    if Y.ndim == 3 and (X.ndim != 3 or len(X) != len(Y)):
        raise InvalidInputError(f"a stack of {len(Y)} samples pairs with a stack of as many "
                                f"arrays, got shape {X.shape}")
    return X, Y


def _self_sq_dist(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances within X, (N, d), or within each array of a stack
    (c, N, d): the guarded expansion where the block qualifies, else ``cdist``;
    into ``out``, a C-contiguous float array of the result's shape, if given."""
    n = X.shape[-2]
    out = np.empty(X.shape[:-1] + (n,)) if out is None else out
    if _expands(X, n):
        _self_expansion(X.reshape(-1, *X.shape[-2:]), out.reshape(-1, n, n))
    elif X.ndim == 3:
        _cdist_pairs(X, X, out)
    else:
        cdist(X, X, "sqeuclidean", out=out)
    return out


def _cdist_pairs(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> None:
    """``cdist`` from each array of the stack X, (c, N, d), to its own array of
    the stack Y, (c, m, d), written into the (c, N, m) array ``out``."""
    for x, y, block in zip(X, Y, out):
        cdist(x, y, "sqeuclidean", out=block)


def _expands(X: np.ndarray, m: int) -> bool:
    """Whether the blocks of X, (N, d) or a stack (c, N, d), against m rows take
    the expansion: d >= EXPANSION_MIN_DIM and 0 < N m d <= EXPANSION_MAX_PRODUCT."""
    n, d = X.shape[-2:]
    return d >= EXPANSION_MIN_DIM and 0 < n * m * d <= EXPANSION_MAX_PRODUCT


def _cross_expansion(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Guarded expansion from each array of the stack X, (c, N, d), to Y, (m, d),
    or to its own array of a paired stack Y, (c, m, d); into ``out`` if given."""
    with np.errstate(invalid="ignore", over="ignore"):
        nx = np.einsum("cik,cik->ci", X, X)
        ny = np.einsum("...jk,...jk->...j", Y, Y)
        # -2 x.y; the power of two scales exactly
        sq = np.matmul(X, (-2.0 * Y).swapaxes(-1, -2), out=out)
        sq += nx[:, :, None]
        sq += ny[..., None, :]
        bound = EXPANSION_GUARD * (np.fmax.reduce(nx, axis=1, initial=0.0)
                                   + np.fmax.reduce(ny, axis=-1, initial=0.0))
        _resolve(sq, ~(sq > bound[:, None, None]), X, Y)
    return sq


def _self_expansion(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Guarded expansion from each array of the stack X, (c, N, d), to itself;
    into ``out`` if given."""
    with np.errstate(invalid="ignore", over="ignore"):
        sq = np.matmul(X, X.swapaxes(1, 2), out=out)
        norms = np.einsum("cii->ci", sq).copy()
        sq *= -2.0
        sq += norms[:, :, None]
        sq += norms[:, None, :]  # (-2 ||x||^2 + ||x||^2) + ||x||^2 is exactly 0
        bound = 2.0 * EXPANSION_GUARD * np.fmax.reduce(norms, axis=1, initial=0.0)
        redo = ~(sq > bound[:, None, None])
        # a diagonal entry needs recomputing only where the norm is NaN or infinite
        np.einsum("cii->ci", redo)[...] = ~np.isfinite(norms)
        _resolve(sq, redo, X, None)
    return sq


def _resolve(sq: np.ndarray, redo: np.ndarray, X: np.ndarray, Y: np.ndarray | None) -> None:
    """Recompute in place the pairs ``redo`` flags in the blocks ``sq`` of the
    stack X against Y, against its own array of a paired stack Y, or against
    itself when Y is None: a block by ``cdist`` where they are more than
    ``EXPANSION_DENSE`` of its pairs, else each pair from its difference."""
    n, m = sq.shape[1:]
    paired = X if Y is None else (Y if Y.ndim == 3 else None)
    flat = np.flatnonzero(redo)
    if flat.size > EXPANSION_DENSE * n * m:
        dense = np.flatnonzero(np.count_nonzero(redo, axis=(1, 2)) > EXPANSION_DENSE * n * m)
        for k in dense:
            cdist(X[k], Y if paired is None else paired[k], "sqeuclidean", out=sq[k])
            redo[k] = False
        if dense.size:
            flat = np.flatnonzero(redo)
    if flat.size:
        rows, cols = np.divmod(flat, m)  # rows of X flattened to (c N, d)
        X = X.reshape(-1, X.shape[-1])
        if paired is not None:
            cols += rows // n * m  # the column's row in the same block of the paired stack
            Y = paired.reshape(-1, X.shape[-1])
        diff = X[rows] - Y[cols]
        diff *= diff
        sq.reshape(-1)[flat] = diff.sum(axis=1)


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate the (mixture) kernel at a single pair of d-vectors."""
    K = gram(spec, x, y)
    if K.shape != (1, 1):
        raise InvalidInputError(f"eval_kernel takes two points, got {np.shape(x)} and {np.shape(y)}")
    return float(K[0, 0])


def median_heuristic(X: np.ndarray, Y: np.ndarray) -> float:
    """Median of all squared cross-distances ||X_i - Y_j||^2, used as sigma.

    The squared-distance median itself is returned (not its square root).

    Raises:
        InvalidInputError: a sample is empty or holds NaN or inf, or every
            cross-distance is zero, so the heuristic has no scale to offer.
    """
    sq = _sq_dist(as_sample(X, "X"), as_sample(Y, "Y"))
    med = float(np.median(sq))
    if med <= 0.0:
        raise InvalidInputError("median bandwidth is degenerate: every cross-distance "
                                "between the samples is zero; set an explicit bandwidth")
    return med


def resolve_median(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> KernelSpec:
    """Fill every unset bandwidth in ``spec`` from :func:`median_heuristic`."""
    if not spec.needs_median:
        return spec
    sigma = median_heuristic(X, Y)
    return replace(spec, bandwidths=tuple(sigma if b is None else b for b in spec.bandwidths))


def parse_kernel(text: str) -> KernelSpec:
    """Parse the CLI kernel grammar ``[mix:]family:bandwidth[,...][:shape]``.

    Examples::

        gaussian:80                    single bandwidth, sigma 80
        gaussian:median                sigma from the median heuristic at run time
        rational-quadratic:5:2.5       optional shape after the bandwidths
                                       (rational-quadratic only)
        mix:gaussian:2,5,10,20,40,80   sum over a bandwidth list; a list of
                                       more than one needs the ``mix:`` prefix
    """
    parts = text.strip().split(":")
    mix = parts[0] == "mix"
    if mix:
        parts = parts[1:]
    if len(parts) not in (2, 3):
        raise InvalidParameterError(f"bad kernel {text!r}; want [mix:]family:bandwidth[,...][:shape]")
    tokens = [tok.strip() for tok in parts[1].split(",")]
    if len(tokens) > 1 and not mix:
        raise InvalidParameterError(f"bad kernel {text!r}; a bandwidth list needs the mix: prefix")
    shape = _parse_float(parts[2], "shape") if len(parts) == 3 else None
    bandwidths = tuple(None if tok == "median" else _parse_float(tok, "bandwidth") for tok in tokens)
    return KernelSpec(parts[0], bandwidths, shape)


def _parse_float(tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise InvalidParameterError(f"bad {what} {tok!r}") from None


def format_kernel(spec: KernelSpec) -> str:
    """Inverse of :func:`parse_kernel` for manifests and reports; numbers get
    the shortest digits that read back to the same float."""
    prefix = "mix:" if len(spec.bandwidths) > 1 else ""
    bws = ",".join("median" if b is None else _format_float(b) for b in spec.bandwidths)
    suffix = "" if spec.shape is None else f":{_format_float(spec.shape)}"
    return f"{prefix}{spec.family}:{bws}{suffix}"


def _format_float(v: float) -> str:
    return repr(float(v)).removesuffix(".0")

"""Radial basis kernels, mixtures of them, and bandwidth selection.

Every kernel here has the form k(x, y) = h(s, sigma, shape) in the squared
distance s = ||x - y||^2 (scipy's ``sqeuclidean``), with h mapping [0, inf)
into [0, 1] and h(0) = 1, so a T-component mixture is bounded by T.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, InvalidParameterError, UnsupportedKernelError

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
RATIONAL_QUADRATIC = "rational-quadratic"
MATERN = "matern"


def _exponential_g(s, sigma, shape):
    # the kink at s = 0 gets coefficient 0 (the symmetric point is stationary)
    r = np.sqrt(s)
    with np.errstate(divide="ignore"):
        g = np.exp(-r / sigma) / (sigma * r)
    return np.where(s > 0, g, 0.0)


# Matern is implemented only at nu = 3/2: h = (1 + ct) exp(-ct), t = sqrt(s) / sigma
_MATERN_C = np.sqrt(2.0 * 1.5)


def _matern_h(s, sigma, nu):
    ct = _MATERN_C * (np.sqrt(s) / sigma)
    return (1.0 + ct) * np.exp(-ct)


class _Family(NamedTuple):
    """Profile of one kernel family in the squared distance s.

    ``h(s, sigma, shape)`` is the kernel value and ``g(s, sigma, shape)`` the
    gradient coefficient, d k(v, y) / d y = g * (v - y).  A family with no
    default shape takes none; a ``fixed_shape`` one takes only its default.
    """

    default_shape: float | None
    h: Callable[..., np.ndarray]
    g: Callable[..., np.ndarray]
    fixed_shape: bool = False


_FAMILY_TABLE = {
    GAUSSIAN: _Family(
        None,
        lambda s, sigma, shape: np.exp(s * (-0.5 / sigma**2)),
        lambda s, sigma, shape: np.exp(s * (-0.5 / sigma**2)) / sigma**2),
    EXPONENTIAL: _Family(
        None,
        lambda s, sigma, shape: np.exp(-np.sqrt(s) / sigma),
        _exponential_g),
    RATIONAL_QUADRATIC: _Family(
        1.0,
        lambda s, sigma, alpha: (1.0 + s / (2.0 * alpha * sigma**2)) ** (-alpha),
        lambda s, sigma, alpha: (1.0 + s / (2.0 * alpha * sigma**2)) ** (-alpha - 1.0) / sigma**2),
    MATERN: _Family(
        1.5,
        _matern_h,
        lambda s, sigma, nu: (_MATERN_C / sigma) ** 2 * np.exp(-_MATERN_C * (np.sqrt(s) / sigma)),
        fixed_shape=True),
}
FAMILIES = tuple(_FAMILY_TABLE)
# the families divide by sigma^2, so it must be a finite normal float
_SIGMA_MIN, _SIGMA_MAX = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)

# Standard bandwidth ladder for mixture kernels in generator training.
MIXTURE_BANDWIDTHS = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
# Single bandwidth used throughout the hypothesis-testing experiments.
TEST_BANDWIDTH = 80.0


@dataclass(frozen=True)
class KernelComponent:
    """One radial kernel: family name, bandwidth sigma, optional shape.

    ``bandwidth=None`` marks a component whose sigma is to be filled in from
    data by the median heuristic (see :func:`resolve_median`).
    """

    family: str
    bandwidth: float | None
    shape: float | None = None

    def __post_init__(self):
        family = _FAMILY_TABLE.get(self.family)
        if family is None:
            raise InvalidParameterError(f"unknown kernel family {self.family!r}")
        # an infinite bandwidth or shape would make the kernel constant, so every MMD 0
        if self.bandwidth is not None and not _SIGMA_MIN <= self.bandwidth <= _SIGMA_MAX:
            raise InvalidParameterError(f"kernel bandwidth must lie in [{_SIGMA_MIN:.3g}, "
                                        f"{_SIGMA_MAX:.3g}], got {self.bandwidth:g}")
        if self.shape is not None and family.default_shape is None:
            raise InvalidParameterError(f"{self.family} kernel takes no shape parameter")
        if self.shape is not None and not 0 < self.shape < np.inf:
            raise InvalidParameterError("kernel shape parameter must be finite and positive")
        if family.fixed_shape and self.shape not in (None, family.default_shape):
            raise InvalidParameterError(f"{self.family} kernel implements only shape "
                                        f"{family.default_shape:g}")


@dataclass(frozen=True)
class KernelSpec:
    """A sum of radial kernel components; pointwise values lie in [0, T]."""

    components: tuple[KernelComponent, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise InvalidParameterError("kernel spec needs at least one component")

    @property
    def kernel_bound(self) -> float:
        return float(len(self.components))

    @property
    def needs_median(self) -> bool:
        return any(c.bandwidth is None for c in self.components)


def gaussian_kernel(bandwidth: float | None = TEST_BANDWIDTH) -> KernelSpec:
    return KernelSpec((KernelComponent(GAUSSIAN, bandwidth),))


def gaussian_mixture(bandwidths=MIXTURE_BANDWIDTHS) -> KernelSpec:
    return KernelSpec(tuple(KernelComponent(GAUSSIAN, float(b)) for b in bandwidths))


def _sum_components(spec: KernelSpec, sq: np.ndarray, grad: bool) -> np.ndarray:
    """Kernel values, or gradient coefficients, at squared distances ``sq``,
    summed over the components of ``spec``."""
    out = np.zeros_like(sq)
    for comp in spec.components:
        if comp.bandwidth is None:
            raise UnsupportedKernelError("median bandwidth not resolved; call resolve_median first")
        family = _FAMILY_TABLE[comp.family]
        shape = family.default_shape if comp.shape is None else comp.shape
        out += (family.g if grad else family.h)(sq, comp.bandwidth, shape)
    return out


def gram(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X_i, Y_j) summed over mixture components."""
    return _sum_components(spec, _sq_dist(X, Y), grad=False)


def gram_grad_coeff(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Gradient coefficients g(s) at squared distances ``sq``, summed over components."""
    return _sum_components(spec, sq, grad=True)


def _sq_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return cdist(X, Y, "sqeuclidean")


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate the (mixture) kernel at a single pair of d-vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise InvalidInputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(gram(spec, x[None, :], y[None, :])[0, 0])


def median_heuristic(X: np.ndarray, Y: np.ndarray) -> float:
    """Median of all squared cross-distances ||X_i - Y_j||^2, used as sigma.

    The squared-distance median itself is returned (not its square root).

    Raises:
        InvalidInputError: every cross-distance is zero, so the heuristic
            has no scale to offer.
    """
    sq = _sq_dist(X, Y)
    if sq.size == 0:
        raise InvalidInputError("median heuristic needs non-empty samples")
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
    comps = tuple(
        KernelComponent(c.family, sigma if c.bandwidth is None else c.bandwidth, c.shape)
        for c in spec.components
    )
    return KernelSpec(comps)


def parse_kernel(text: str) -> KernelSpec:
    """Parse the CLI kernel grammar.

    Accepted forms::

        gaussian:80              single component, sigma 80
        gaussian:median          sigma from the median heuristic at run time
        matern:5:1.5             optional shape parameter after the bandwidth
                                 (rational-quadratic and matern only; Matern
                                 implements only nu = 1.5)
        mix:gaussian:2,5,10,20,40,80   mixture over a bandwidth list
    """
    parts = text.strip().split(":")
    if parts and parts[0] == "mix":
        if len(parts) != 3:
            raise InvalidParameterError(f"bad mixture kernel {text!r}; want mix:family:b1,b2,...")
        family = parts[1]
        comps = []
        for tok in parts[2].split(","):
            comps.append(KernelComponent(family, _parse_bandwidth(tok)))
        return KernelSpec(tuple(comps))
    if len(parts) not in (2, 3):
        raise InvalidParameterError(f"bad kernel {text!r}; want family:bandwidth[:shape]")
    family = parts[0]
    bandwidth = _parse_bandwidth(parts[1])
    shape = _parse_float(parts[2], "shape") if len(parts) == 3 else None
    return KernelSpec((KernelComponent(family, bandwidth, shape),))


def _parse_bandwidth(tok: str) -> float | None:
    tok = tok.strip()
    return None if tok == "median" else _parse_float(tok, "bandwidth")


def _parse_float(tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise InvalidParameterError(f"bad {what} {tok!r}") from None


def format_kernel(spec: KernelSpec) -> str:
    """Inverse of :func:`parse_kernel` for manifests and reports."""
    def one(c: KernelComponent) -> str:
        bw = "median" if c.bandwidth is None else f"{c.bandwidth:g}"
        return f"{c.family}:{bw}" + (f":{c.shape:g}" if c.shape is not None else "")

    if len(spec.components) == 1:
        return one(spec.components[0])
    families = {c.family for c in spec.components}
    if len(families) == 1 and all(c.shape is None for c in spec.components):
        bws = ",".join("median" if c.bandwidth is None else f"{c.bandwidth:g}" for c in spec.components)
        return f"mix:{next(iter(families))}:{bws}"
    return "+".join(one(c) for c in spec.components)

"""Radial basis kernels, mixtures of them, and bandwidth selection.

Every kernel here has the form k(x, y) = h(||x - y|| / sigma) with h mapping
[0, inf) into [0, 1] and h(0) = 1, so a T-component mixture is bounded by T.
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


def _exponential_g(u, r, sigma, shape):
    # the kink at r = 0 gets coefficient 0 (the symmetric point is stationary)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.exp(-u) / (sigma * r)
    return np.where(r > 0, g, 0.0)


# Matern is implemented only at nu = 3/2: h(u) = (1 + cu) exp(-cu), c = sqrt(2 nu)
_MATERN_C = np.sqrt(2.0 * 1.5)


class _Family(NamedTuple):
    """Radial profile of one kernel family.

    ``h(u, shape)`` is the kernel value at scaled distance u = r / sigma and
    ``g(u, r, sigma, shape)`` the gradient coefficient, d k(v, y) / d y =
    g * (v - y).  A ``fixed_shape`` family implements only its default shape.
    """

    default_shape: float | None
    h: Callable[..., np.ndarray]
    g: Callable[..., np.ndarray]
    fixed_shape: bool = False


_FAMILY_TABLE = {
    GAUSSIAN: _Family(
        None,
        lambda u, shape: np.exp(-0.5 * u * u),
        lambda u, r, sigma, shape: np.exp(-0.5 * u * u) / sigma**2),
    EXPONENTIAL: _Family(
        None,
        lambda u, shape: np.exp(-u),
        _exponential_g),
    RATIONAL_QUADRATIC: _Family(
        1.0,
        lambda u, alpha: (1.0 + u * u / (2.0 * alpha)) ** (-alpha),
        lambda u, r, sigma, alpha: (1.0 + u * u / (2.0 * alpha)) ** (-alpha - 1.0) / sigma**2),
    MATERN: _Family(
        1.5,
        lambda u, nu: (1.0 + _MATERN_C * u) * np.exp(-_MATERN_C * u),
        lambda u, r, sigma, nu: (_MATERN_C / sigma) ** 2 * np.exp(-_MATERN_C * u),
        fixed_shape=True),
}
FAMILIES = tuple(_FAMILY_TABLE)

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
        # an infinite bandwidth or shape makes the kernel constant, so every MMD is 0
        if self.bandwidth is not None and not 0 < self.bandwidth < np.inf:
            raise InvalidParameterError("kernel bandwidth must be finite and positive")
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


def _component(comp: KernelComponent, dist: np.ndarray, grad: bool) -> np.ndarray:
    """One component's kernel values, or its gradient coefficients, at ``dist``."""
    if comp.bandwidth is None:
        raise UnsupportedKernelError("median bandwidth not resolved; call resolve_median first")
    family = _FAMILY_TABLE[comp.family]
    shape = family.default_shape if comp.shape is None else comp.shape
    u = dist / comp.bandwidth
    return family.g(u, dist, comp.bandwidth, shape) if grad else family.h(u, shape)


def gram(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X_i, Y_j) summed over mixture components."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    dist = cdist(X, Y)
    out = np.zeros_like(dist)
    for comp in spec.components:
        out += _component(comp, dist, grad=False)
    return out


def gram_grad_coeff(spec: KernelSpec, dist: np.ndarray) -> np.ndarray:
    """Matrix of gradient coefficients g(r), summed over components."""
    out = np.zeros_like(dist)
    for comp in spec.components:
        out += _component(comp, dist, grad=True)
    return out


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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] < 1 or Y.shape[0] < 1:
        raise InvalidInputError("median heuristic needs non-empty samples")
    if X.shape[1] != Y.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    sq = cdist(X, Y, "sqeuclidean").ravel()
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
                                 (Matern implements only nu = 1.5)
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
    shape = float(parts[2]) if len(parts) == 3 else None
    return KernelSpec((KernelComponent(family, bandwidth, shape),))


def _parse_bandwidth(tok: str) -> float | None:
    tok = tok.strip()
    if tok == "median":
        return None
    try:
        return float(tok)
    except ValueError:
        raise InvalidParameterError(f"bad bandwidth {tok!r}") from None


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

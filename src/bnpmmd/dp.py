"""Finite-truncation simulation of Dirichlet process priors and posteriors.

A draw is represented as a discrete measure: a weight vector on the simplex
and one atom per weight.  Weights come from a symmetric Dirichlet built out
of Gamma variables; the number of terms comes either from an explicit count
or from a random truncation rule on Gamma weight ratios.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, NumericUnderflowError

# Draws i.i.d. rows: sampler(size, rng) -> (size, d) array.
BaseSampler = Callable[[int, np.random.Generator], np.ndarray]

SIMPLEX_TOL = 1e-12
_MAX_RETRIES = 100
# Cap on the random truncation level of the relative-belief test and of dp-sample.
DEFAULT_MAX_TERMS = 10000


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atomic probability measure: weights on the simplex, one atom per weight."""

    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        a = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if w.ndim != 1 or a.shape[0] != w.shape[0]:
            raise InvalidParameterError("atoms row count must equal weights length")
        if np.any(w < 0):
            raise InvalidParameterError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
            raise InvalidParameterError(f"weights sum to {w.sum()!r}, not 1")
        w.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", a)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_terms(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class PosteriorParams:
    """Updated process after conditioning on data.

    ``concentration`` is prior concentration plus sample size; the updated
    base measure is the mixture ``mixture_weight_base * H + (1 - it) * F_n``
    with F_n the empirical distribution of ``data``.
    """

    concentration: float
    mixture_weight_base: float
    data: np.ndarray
    base_sampler: BaseSampler | None = None

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if data.shape[0] == 0:
            raise InvalidParameterError("posterior needs non-empty data")
        if not 0.0 <= self.mixture_weight_base <= 1.0:
            raise InvalidParameterError("mixture_weight_base must lie in [0, 1]")
        if self.mixture_weight_base > 0 and self.base_sampler is None:
            raise InvalidParameterError("base_sampler required when the base mixture weight is positive")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_prior(cls, concentration: float, data: np.ndarray,
                   base_sampler: BaseSampler | None = None) -> "PosteriorParams":
        """Conjugate update of a prior with the given concentration by ``data``."""
        if concentration < 0:
            raise InvalidParameterError("concentration must be non-negative")
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n = data.shape[0]
        if n == 0:
            raise InvalidParameterError("posterior needs non-empty data")
        total = concentration + n
        return cls(total, concentration / total, data, base_sampler)


class StoppingRuleResult(NamedTuple):
    n_terms: int
    clamped: bool


def stopping_rule_N(concentration: float, eps: float, max_terms: int,
                    rng: np.random.Generator) -> StoppingRuleResult:
    """Random truncation level: first j where the last of j fresh Gamma(a/j)
    draws carries less than ``eps`` of their total mass.

    The whole Gamma vector is redrawn at every j (the ratio at j = 1 is
    identically one, so the result is always >= 2).  If the loop reaches
    ``max_terms`` the cap is returned with ``clamped=True``.
    """
    if concentration <= 0:
        raise InvalidParameterError("stopping rule undefined for zero concentration")
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError("truncation_epsilon must lie in (0, 1)")
    if max_terms < 1:
        raise InvalidParameterError("max_terms must be >= 1")
    for j in range(1, max_terms + 1):
        h = _gamma_positive_sum(concentration / j, j, rng)
        if h[-1] / h.sum() < eps:
            return StoppingRuleResult(j, False)
    return StoppingRuleResult(max_terms, True)


def _gamma_positive_sum(shape: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Gamma(shape, 1) draws, redrawn while they all underflow to zero."""
    for _ in range(_MAX_RETRIES):
        h = rng.gamma(shape, 1.0, size=size)
        if h.sum() > 0.0:
            return h
    raise NumericUnderflowError(f"all Gamma({shape}) draws underflowed after {_MAX_RETRIES} retries")


def symmetric_dirichlet(total_concentration: float, n_terms: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(c/N, ..., c/N) weights via normalized Gamma draws.

    For per-coordinate shape below one the draws are built in log space
    (shape-boosted Gamma), which keeps the normalizer positive even when
    c/N is far below the underflow threshold of a direct Gamma sampler.
    """
    if total_concentration <= 0:
        raise InvalidParameterError("Dirichlet weights need positive concentration")
    if n_terms < 1:
        raise InvalidParameterError("n_terms must be >= 1")
    shape = total_concentration / n_terms
    if shape >= 1.0:
        h = _gamma_positive_sum(shape, n_terms, rng)
        return h / h.sum()
    for _ in range(_MAX_RETRIES):
        # log G(shape) = log G(shape + 1) + log(U) / shape
        boost = rng.gamma(shape + 1.0, 1.0, size=n_terms)
        u = rng.random(n_terms)
        with np.errstate(divide="ignore"):
            log_h = np.log(boost) + np.log(u) / shape
        log_h -= log_h.max()
        h = np.exp(log_h)
        total = h.sum()
        if np.isfinite(total) and total > 0.0:
            return h / total
    raise NumericUnderflowError(f"Dirichlet normalizer stayed at zero after {_MAX_RETRIES} retries")


def sample_dp_prior(concentration: float, base_sampler: BaseSampler, n_terms: int,
                    rng: np.random.Generator) -> DiscreteMeasure:
    """One truncated prior draw: Dirichlet(a/N) weights, atoms i.i.d. from the base."""
    if concentration <= 0:
        raise InvalidParameterError("prior draws need positive concentration; "
                                    "zero concentration only arises through the posterior update")
    weights = symmetric_dirichlet(concentration, n_terms, rng)
    atoms = np.atleast_2d(np.asarray(base_sampler(n_terms, rng), dtype=float))
    return DiscreteMeasure(weights, atoms)


def sample_dp_posterior(post: PosteriorParams, n_terms: int,
                        rng: np.random.Generator) -> DiscreteMeasure:
    """One truncated posterior draw.

    Weights are Dirichlet((a+n)/N); each atom independently comes from the
    base with probability a/(a+n), otherwise it is a uniformly chosen data
    row (with replacement).
    """
    weights = symmetric_dirichlet(post.concentration, n_terms, rng)
    n = post.data.shape[0]
    d = post.data.shape[1]
    atoms = np.empty((n_terms, d))
    from_base = rng.random(n_terms) < post.mixture_weight_base
    k = int(from_base.sum())
    if k:
        atoms[from_base] = np.atleast_2d(np.asarray(post.base_sampler(k, rng), dtype=float))
    if k < n_terms:
        atoms[~from_base] = post.data[rng.integers(0, n, size=n_terms - k)]
    return DiscreteMeasure(weights, atoms)


def sample_stick_breaking(a: float, base_sampler: BaseSampler, k_trunc: int,
                          rng: np.random.Generator) -> DiscreteMeasure:
    """Truncated stick-breaking draw; leftover stick mass goes to the last atom."""
    if a <= 0:
        raise InvalidParameterError("stick breaking needs positive concentration")
    if k_trunc < 1:
        raise InvalidParameterError("k_trunc must be >= 1")
    betas = rng.beta(1.0, a, size=k_trunc)
    remaining = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
    weights = betas * remaining[:-1]
    weights[-1] += remaining[-1]
    # absorb float round-off into the largest weight, which dwarfs it
    weights[np.argmax(weights)] += 1.0 - weights.sum()
    atoms = np.atleast_2d(np.asarray(base_sampler(k_trunc, rng), dtype=float))
    return DiscreteMeasure(weights, atoms)

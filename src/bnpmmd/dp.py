"""Finite-truncation simulation of Dirichlet process priors and posteriors.

A draw is represented as a discrete measure: a weight vector on the simplex
and one atom per weight.  Weights come from a symmetric Dirichlet built out
of Gamma variables; the number of terms comes either from an explicit count
or from the random truncation rule of Zarepour & Al-Labadi (2012), drawn as
one Beta share per level.  Asked for ``size`` draws, the prior and
posterior samplers return a stack of measures made in whole-array calls;
``size=1`` consumes the stream as one unsized draw does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericUnderflowError, as_rows

# Draws i.i.d. rows: sampler(size, rng) -> (size, d) array.
BaseSampler = Callable[[int, np.random.Generator], np.ndarray]

SIMPLEX_TOL = 1e-12
_MAX_DIRICHLET_DRAWS = 100
# Truncation levels whose shares are drawn in one call; it fixes the stream.
_LEVEL_CHUNK = 256
# Cap on the random truncation level of the relative-belief test and of dp-sample.
DEFAULT_MAX_TERMS = 10000


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atomic probability measure: weights on the simplex, one atom per weight.

    A stack of c measures with N atoms each holds (c, N) weights and
    (c, N, d) atoms; every row is checked as a single measure is.
    """

    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).view()
        a = np.asarray(self.atoms, dtype=float).view()
        if w.ndim not in (1, 2) or a.ndim != w.ndim + 1 or a.shape[:-1] != w.shape:
            raise InvalidParameterError("atoms row count must equal weights length")
        if (w < 0).any():
            raise InvalidParameterError("weights must be non-negative")
        sums = w.sum(axis=-1)
        on = np.abs(sums - 1.0) <= SIMPLEX_TOL  # a NaN sum is off
        if not on.all():
            raise InvalidParameterError(f"weights sum to {sums.flat[np.argmin(on)]!r}, not 1")
        w.flags.writeable = False  # on views: the caller's arrays stay writeable
        a.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", a)

    @property
    def dim(self) -> int:
        return self.atoms.shape[-1]

    @property
    def n_terms(self) -> int:
        return self.weights.shape[-1]


class StoppingRuleResult(NamedTuple):
    n_terms: int
    clamped: bool


def stopping_rule_N(concentration: float, eps: float, max_terms: int,
                    rng: np.random.Generator) -> StoppingRuleResult:
    """Random truncation level (Zarepour & Al-Labadi, 2012): the first j at
    which the last of j i.i.d. Gamma(a/j) weights carries less than ``eps``
    of their total.

    That share is Beta(a/j, a - a/j), independently across j because the
    weights are fresh at every level (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. IX), so one Beta variate per level stands in for
    j Gamma draws.  Levels are drawn ``_LEVEL_CHUNK`` at a time from j = 2,
    since the share at j = 1 is identically one.  If no level up to
    ``max_terms`` stops, the cap is returned with ``clamped=True``.

    Raises:
        InvalidParameterError: the concentration is not positive and finite,
            ``eps`` is outside (0, 1) or ``max_terms`` is below 1.
        NumericUnderflowError: a is so small that a/j rounds to zero.
    """
    if not 0 < concentration < np.inf:
        raise InvalidParameterError(f"stopping rule needs a positive concentration, got {concentration}")
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError("truncation_epsilon must lie in (0, 1)")
    if max_terms < 1:
        raise InvalidParameterError("max_terms must be >= 1")
    for lo in range(2, max_terms + 1, _LEVEL_CHUNK):
        j = np.arange(lo, min(lo + _LEVEL_CHUNK, max_terms + 1))
        shape = concentration / j
        if shape[-1] == 0.0:
            raise NumericUnderflowError(f"concentration {concentration} / {j[-1]} underflows to zero")
        share = rng.beta(shape, concentration - shape)
        stop = np.flatnonzero(share < eps)
        if stop.size:
            return StoppingRuleResult(int(j[stop[0]]), False)
    return StoppingRuleResult(max_terms, True)


def _dirichlet_rows(shape: float, rows: int, n_terms: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``rows`` rows of ``n_terms`` Gamma(shape) draws, each divided by its
    total; the whole call is redrawn while a total is zero or not finite."""
    for _ in range(_MAX_DIRICHLET_DRAWS):
        h = (rng.gamma(shape, 1.0, size=(rows, n_terms)) if shape >= 1.0
             else _log_gamma_rows(shape, rows, n_terms, rng))
        total = h.sum(axis=1, keepdims=True)
        if ((0.0 < total) & (total < np.inf)).all():  # a NaN total is not
            return h / total
    raise NumericUnderflowError("Dirichlet normalizer was not positive and finite "
                                f"in {_MAX_DIRICHLET_DRAWS} draws")


def _log_gamma_rows(shape: float, k: int, n_terms: int, rng: np.random.Generator) -> np.ndarray:
    """(k, n_terms) Gamma(shape < 1) draws up to a common factor per row,
    built in log space: log G(shape) = log G(shape + 1) + log(U) / shape."""
    boost = rng.gamma(shape + 1.0, 1.0, size=(k, n_terms))
    u = rng.random((k, n_terms))
    with np.errstate(divide="ignore"):
        log_h = np.log(boost) + np.log(u) / shape
    log_h -= log_h.max(axis=1, keepdims=True)
    return np.exp(log_h)


def symmetric_dirichlet(total_concentration: float, n_terms: int,
                        rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Dirichlet(c/N, ..., c/N) weights via normalized Gamma draws.

    For per-coordinate shape below one the draws are built in log space
    (shape-boosted Gamma), which keeps the normalizer positive even when
    c/N is far below the underflow threshold of a direct Gamma sampler.

    With ``size`` it returns (size, N) rows from one Gamma (or log-space)
    call; ``size=1`` gives the unsized draw.
    """
    if not 0 < total_concentration < np.inf:
        raise InvalidParameterError("Dirichlet weights need a positive, finite concentration, "
                                    f"got {total_concentration}")
    if n_terms < 1:
        raise InvalidParameterError("n_terms must be >= 1")
    weights = _dirichlet_rows(total_concentration / n_terms, 1 if size is None else size,
                              n_terms, rng)
    return weights if size is not None else weights[0]


def _draw_base(base_sampler: BaseSampler, k: int, rng: np.random.Generator,
               dim: int | None = None) -> np.ndarray:
    """``k`` atoms from the base; raises unless they come back as k rows of width ``dim``
    (any width when ``dim`` is None), so a short output cannot broadcast."""
    atoms = as_rows(base_sampler(k, rng), "base sampler output")
    if atoms.shape[0] != k or dim not in (None, atoms.shape[1]):
        raise InvalidInputError(f"base sampler returned shape {atoms.shape}, "
                                f"want ({k}, {'d' if dim is None else dim})")
    return atoms


def sample_dp_prior(concentration: float, base_sampler: BaseSampler, n_terms: int,
                    rng: np.random.Generator, size: int | None = None) -> DiscreteMeasure:
    """One truncated prior draw: Dirichlet(a/N) weights, atoms i.i.d. from the base.

    With ``size`` it returns a stack of that many draws: all weight rows in
    one call, then all atoms in one base call; ``size=1`` gives the unsized
    draw.
    """
    if not 0 < concentration < np.inf:
        raise InvalidParameterError(f"prior draws need a positive, finite concentration, got "
                                    f"{concentration}; zero only arises in the posterior update")
    weights = symmetric_dirichlet(concentration, n_terms, rng, size)
    atoms = _draw_base(base_sampler, weights.size, rng)
    return DiscreteMeasure(weights, atoms.reshape(weights.shape + atoms.shape[1:]))


def sample_dp_posterior(concentration: float, data: np.ndarray,
                        base_sampler: BaseSampler | None, n_terms: int,
                        rng: np.random.Generator, size: int | None = None) -> DiscreteMeasure:
    """One truncated draw from the posterior of a DP(a, H) prior given ``data``.

    Weights are Dirichlet((a+n)/N); each atom independently comes from the
    base with probability a/(a+n), otherwise it is a uniformly chosen data
    row (with replacement).  ``base_sampler`` may be None only when a = 0.
    With ``size`` it returns a stack of that many draws, made as one draw
    of size x N atoms is; ``size=1`` gives the unsized draw.
    """
    if not 0 <= concentration < np.inf:
        raise InvalidParameterError("concentration must be finite and non-negative, "
                                    f"got {concentration}")
    data = as_rows(data, "data")
    n, d = data.shape
    if n == 0:
        raise InvalidParameterError("posterior needs non-empty data")
    if concentration > 0 and base_sampler is None:
        raise InvalidParameterError("base_sampler required when the concentration is positive")
    total = concentration + n
    weights = symmetric_dirichlet(total, n_terms, rng, size)
    atoms = np.empty(weights.shape + (d,))
    from_base = rng.random(weights.shape) < concentration / total
    k = int(from_base.sum())
    if k:
        atoms[from_base] = _draw_base(base_sampler, k, rng, d)
    if k < weights.size:
        atoms[~from_base] = data[rng.integers(0, n, size=weights.size - k)]
    return DiscreteMeasure(weights, atoms)


def sample_stick_breaking(a: float, base_sampler: BaseSampler, k_trunc: int,
                          rng: np.random.Generator) -> DiscreteMeasure:
    """Truncated stick-breaking draw; leftover stick mass goes to the last atom."""
    if not 0 < a < np.inf:
        raise InvalidParameterError("stick breaking needs a positive, finite concentration, "
                                    f"got {a}")
    if k_trunc < 1:
        raise InvalidParameterError("k_trunc must be >= 1")
    betas = rng.beta(1.0, a, size=k_trunc)
    remaining = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
    weights = betas * remaining[:-1]
    weights[-1] += remaining[-1]
    # absorb float round-off into the largest weight, which dwarfs it
    weights[np.argmax(weights)] += 1.0 - weights.sum()
    return DiscreteMeasure(weights, _draw_base(base_sampler, k_trunc, rng))

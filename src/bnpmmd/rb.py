"""Goodness-of-fit testing with a relative belief ratio on the squared MMD.

The test simulates the squared MMD between weighted prior/posterior draws
and a sample from the hypothesized model, then compares posterior to prior
mass near zero on a quantile grid of the prior Monte Carlo sample.  The
measures are evaluated in chunks whose size depends only on the truncation
level and the model sample's size.  With a fixed model sample each chunk is
also drawn in whole-array calls, so its size fixes the stream; when each
replication redraws the model sample, the draws stay one model sample and
then one measure at a time, and only their evaluation is stacked.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import discrepancy
from .dp import (DEFAULT_MAX_TERMS, BaseSampler, DiscreteMeasure, sample_dp_posterior,
                 sample_dp_prior, stopping_rule_N)
from .errors import DegeneratePriorError, InvalidInputError, InvalidParameterError, as_sample
from .kernels import KernelSpec, gaussian_kernel, resolve_median

EVIDENCE_FOR = "evidence_for_H0"
EVIDENCE_AGAINST = "evidence_against_H0"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RBConfig:
    """Settings of one relative-belief MMD test run.

    ``grid_cells`` (M) and ``anchor_cell`` (i0) define the prior-quantile
    grid; the ratio is read at the i0/M prior quantile, so the reported
    value lives in [0, M/i0].  ``mc_reps`` Monte Carlo draws feed each of
    the prior and posterior ECDFs.  The concentration must be positive and
    finite, and a ``truncation_epsilon``, when set, must lie in (0, 1).
    """

    concentration: float = 25.0
    mc_reps: int = 1000
    grid_cells: int = 20
    anchor_cell: int = 1
    kernel: KernelSpec = field(default_factory=gaussian_kernel)
    truncation_epsilon: float | None = 1e-3
    explicit_terms: int | None = None
    model_size: int | None = None
    resample_model_per_rep: bool = False

    def __post_init__(self):
        if not 0 < self.concentration < np.inf:
            raise InvalidParameterError("the test needs a positive concentration, "
                                        f"got {self.concentration}")
        if not 1 <= self.anchor_cell < self.grid_cells:
            raise InvalidParameterError("need 1 <= anchor_cell < grid_cells")
        if self.mc_reps < self.grid_cells:
            raise InvalidParameterError("mc_reps must be at least grid_cells")
        if (self.truncation_epsilon is None) == (self.explicit_terms is None):
            raise InvalidParameterError("set exactly one of truncation_epsilon and explicit_terms")
        if self.truncation_epsilon is not None and not 0.0 < self.truncation_epsilon < 1.0:
            raise InvalidParameterError("truncation_epsilon must lie in (0, 1), "
                                        f"got {self.truncation_epsilon}")
        if self.explicit_terms is not None and self.explicit_terms < 1:
            raise InvalidParameterError("explicit_terms (a fixed n_terms) must be >= 1")
        if self.model_size is not None and self.model_size < 1:
            raise InvalidParameterError(f"model_size must be >= 1, got {self.model_size}")

    @property
    def rb_cap(self) -> float:
        return self.grid_cells / self.anchor_cell


@dataclass(frozen=True)
class RBReport:
    """Outcome of one test: ratio, its strength calibration, and the raw draws."""

    rb: float
    strength: float
    prior_samples: np.ndarray
    posterior_samples: np.ndarray
    n_terms: int
    n_terms_clamped: bool
    decision: str


def ecdf_eval(samples: np.ndarray, x):
    """Right-continuous empirical CDF: fraction of samples <= x, for a scalar or array x."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise InvalidInputError("ecdf of an empty sample")
    x = np.asarray(x, dtype=float)
    cdf = np.count_nonzero(samples <= x[..., None], axis=-1) / samples.size
    return cdf if x.ndim else float(cdf)


def empirical_quantile(samples: np.ndarray, p):
    """Inverse-ECDF quantile: the ceil(p * len)-th order statistic, p (scalar or array) in (0, 1]."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InvalidInputError("quantile of an empty sample")
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 < p) & (p <= 1.0)):
        raise InvalidInputError("p must lie in (0, 1]")
    k = np.ceil(p * samples.size).astype(int) - 1
    q = np.partition(samples, k)[k]
    return q if p.ndim else float(q)


def estimate_rb_strength(prior_samples: np.ndarray, posterior_samples: np.ndarray,
                         grid_cells: int, anchor_cell: int) -> tuple[float, float]:
    """Relative belief ratio at (near) zero and its strength.

    The ratio compares posterior to prior ECDF mass below the i0/M prior
    quantile.  The strength sums posterior mass over the prior-quantile
    cells whose cell-level ratio does not exceed the reported one; cells
    with zero prior mass are skipped (their ratio is undefined) which keeps
    the strength inside [0, 1].

    Returns:
        (rb, strength), with rb capped at M/i0.

    Raises:
        InvalidInputError: a draw is NaN or inf.
        DegeneratePriorError: all prior draws are identical, so the quantile
            grid carries no information.
    """
    prior = np.asarray(prior_samples, dtype=float)
    post = np.asarray(posterior_samples, dtype=float)
    if prior.size < grid_cells or post.size == 0:
        raise InvalidInputError("need at least grid_cells prior draws and non-empty posterior draws")
    if not 1 <= anchor_cell < grid_cells:
        raise InvalidParameterError("need 1 <= anchor_cell < grid_cells")
    if not (np.isfinite(prior).all() and np.isfinite(post).all()):
        raise InvalidInputError("prior or posterior draws contain non-finite values (NaN or inf)")
    if np.all(prior == prior[0]):
        raise DegeneratePriorError("constant prior Monte Carlo sample",
                                   prior_samples=prior, posterior_samples=post)

    # both ECDFs at the prior quantiles i/M; entry 0 stands for the open
    # lower end of the first cell, which carries no mass
    quantiles = empirical_quantile(prior, np.arange(1, grid_cells + 1) / grid_cells)
    prior_cdf = np.concatenate(([0.0], ecdf_eval(prior, quantiles)))
    post_cdf = np.concatenate(([0.0], ecdf_eval(post, quantiles)))

    rb = min(post_cdf[anchor_cell] / prior_cdf[anchor_cell], grid_cells / anchor_cell)
    prior_mass, post_mass = np.diff(prior_cdf), np.diff(post_cdf)
    cells = prior_mass > 0.0
    selected = post_mass[cells][post_mass[cells] / prior_mass[cells] <= rb]
    return float(rb), float(sum(selected.tolist()))  # summed cell by cell, left to right


def _model_sample(model, m: int, rng: np.random.Generator) -> np.ndarray:
    """The model sample to compare against: ``model`` itself when it is a
    fixed sample, else ``m`` rows drawn from it; non-empty and finite."""
    sample = as_sample(model(m, rng) if callable(model) else model, "model sample")
    if callable(model) and sample.shape[0] != m:
        raise InvalidInputError("model sampler returned the wrong number of rows")
    return sample


# A test evaluates its measures in chunks whose cross block (c N m entries)
# and stack of self blocks (c N^2) hold at most this many entries, 256 KiB.
# With a fixed model sample a chunk is drawn in one call, so its size fixes
# the stream; with a redrawn one it only sets how many pairs are evaluated
# together, and the stack of model self blocks (c m^2) is held to it too.
_CHUNK_ENTRIES = 2**15


def _mc_chunk(n_terms: int, m: int) -> int:
    """Measures c per chunk for N atoms and m model rows:
    max(1, 2^15 // (N max(m, N))), 15 at N = 42 and m = 50."""
    return max(1, _CHUNK_ENTRIES // (n_terms * max(m, n_terms)))


def simulate_mmd_samples(draw: Callable[[np.random.Generator], DiscreteMeasure], model,
                         m: int, spec: KernelSpec, mc_reps: int,
                         rng: np.random.Generator, *, pairs: int = 1) -> np.ndarray:
    """``mc_reps`` weighted squared MMDs between the measures ``draw(rng)``
    returns and the model sample.  ``spec`` is resolved.

    When ``model`` is the fixed, checked sample, each call may return a stack
    of measures, and the values of a stack that runs past ``mc_reps`` are cut.
    When ``model`` is a sampler, each replication draws ``m`` model rows and
    then one measure, in that order, and ``pairs`` such replications (fewer
    for the last) are evaluated as one paired stack; the values are those
    of each pair evaluated alone, to the bit, whatever ``pairs`` is.
    """
    out = np.empty(mc_reps)
    if not callable(model):
        yy = discrepancy.yy_mean_term(model, spec)
    done = 0
    while done < mc_reps:
        if callable(model):
            samples, measures = zip(*[(_model_sample(model, m, rng), draw(rng))
                                      for _ in range(min(pairs, mc_reps - done))])
            stack = DiscreteMeasure(np.stack([p.weights for p in measures]),
                                    np.stack([p.atoms for p in measures]))
            values = discrepancy.mmd2_weighted(stack, np.stack(samples), spec)
        else:
            values = np.atleast_1d(discrepancy.mmd2_weighted(draw(rng), model, spec, yy_term=yy))
        out[done:done + values.size] = values[:mc_reps - done]
        done += values.size
    return out


# Prior draws all within this times the kernel bound T of zero are round-off: on unit-scale
# data (d 1-60) they stay within 1.2e-15 T at sigma >= 1e8, and reach 1.4e-14 T at sigma = 1e7, d >= 5.
_ROUNDOFF = 1e-14


def run_gof_test(data: np.ndarray, model_sampler: BaseSampler | np.ndarray, cfg: RBConfig,
                 rng: np.random.Generator, *,
                 base_sampler: BaseSampler | None = None) -> RBReport:
    """Full test: simulate prior and posterior squared-MMD draws, estimate the
    relative belief ratio and strength, and decide by its sign against one.

    Every setup decision is made here, once, for both simulations: the
    truncation level, the model sample (or its sampler, when each replication
    redraws it), the kernel with its median bandwidth resolved, and the base
    measure.  The base is the model sampler unless ``base_sampler`` decouples
    them; a fixed (m, d) model sample needs one and cannot be redrawn, else
    ``InvalidParameterError`` before any draw.  A concentration above n/2
    drowns the data in the prior; that is allowed but warned about.  Prior
    draws that all lie at round-off raise ``DegeneratePriorError``.
    """
    data = as_sample(data, "data")
    n = data.shape[0]
    if n < 2:
        raise InvalidInputError("need at least two observations")
    if not callable(model_sampler) and (base_sampler is None or cfg.resample_model_per_rep):
        raise InvalidParameterError("a fixed model sample needs an explicit base_sampler "
                                    "and cannot be redrawn per replication")
    a = cfg.concentration
    if a > n / 2:
        warnings.warn(f"concentration {a} > n/2 = {n / 2}; "
                      "the prior may dominate the update", stacklevel=2)

    # one truncation level per test, shared by prior and posterior
    k, clamped = ((cfg.explicit_terms, False) if cfg.explicit_terms is not None
                  else stopping_rule_N(a, cfg.truncation_epsilon, DEFAULT_MAX_TERMS, rng))
    m = cfg.model_size or n
    # prior and posterior share one model sample unless each replication redraws it
    model = model_sampler if cfg.resample_model_per_rep else _model_sample(model_sampler, m, rng)
    # one bandwidth for both simulations, else the ratio compares two kernels
    spec = (resolve_median(cfg.kernel, data, _model_sample(model, m, rng))
            if cfg.kernel.needs_median else cfg.kernel)
    base = model_sampler if base_sampler is None else base_sampler
    c = _mc_chunk(max(k, m), m) if cfg.resample_model_per_rep else _mc_chunk(k, model.shape[0])
    # a redrawn model sample is drawn between measures, so one measure per draw
    size = None if cfg.resample_model_per_rep else c
    prior = simulate_mmd_samples(lambda r: sample_dp_prior(a, base, k, r, size=size),
                                 model, m, spec, cfg.mc_reps, rng, pairs=c)
    posterior = simulate_mmd_samples(lambda r: sample_dp_posterior(a, data, base, k, r, size=size),
                                     model, m, spec, cfg.mc_reps, rng, pairs=c)
    if np.max(np.abs(prior)) <= _ROUNDOFF * spec.kernel_bound:  # False for NaN draws
        raise DegeneratePriorError("every prior draw is at round-off; the kernel cannot tell the "
                                   "samples apart", prior_samples=prior, posterior_samples=posterior)
    rb, strength = estimate_rb_strength(prior, posterior, cfg.grid_cells, cfg.anchor_cell)
    decision = EVIDENCE_FOR if rb > 1.0 else EVIDENCE_AGAINST if rb < 1.0 else INCONCLUSIVE
    return RBReport(rb=rb, strength=strength, prior_samples=prior, posterior_samples=posterior,
                    n_terms=k, n_terms_clamped=clamped, decision=decision)

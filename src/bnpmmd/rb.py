"""Goodness-of-fit testing with a relative belief ratio on the squared MMD.

The test simulates the squared MMD between weighted prior/posterior draws
and a sample from the hypothesized model, then compares posterior to prior
mass near zero on a quantile grid of the prior Monte Carlo sample.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import discrepancy
from .dp import (DEFAULT_MAX_TERMS, BaseSampler, StoppingRuleResult, sample_dp_posterior,
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
    the prior and posterior ECDFs.
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
        if self.concentration < 0:
            raise InvalidParameterError("concentration must be non-negative")
        if not 1 <= self.anchor_cell < self.grid_cells:
            raise InvalidParameterError("need 1 <= anchor_cell < grid_cells")
        if self.mc_reps < self.grid_cells:
            raise InvalidParameterError("mc_reps must be at least grid_cells")
        if (self.truncation_epsilon is None) == (self.explicit_terms is None):
            raise InvalidParameterError("set exactly one of truncation_epsilon and explicit_terms")
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


def _decide(rb: float) -> str:
    if rb > 1.0:
        return EVIDENCE_FOR
    if rb < 1.0:
        return EVIDENCE_AGAINST
    return INCONCLUSIVE


def _model_sample(model, m: int, rng: np.random.Generator) -> np.ndarray:
    """The model sample to compare against: ``model`` itself when it is a
    fixed sample, else ``m`` rows drawn from it; non-empty and finite."""
    sample = as_sample(model(m, rng) if callable(model) else model, "model sample")
    if callable(model) and sample.shape[0] != m:
        raise InvalidInputError("model sampler returned the wrong number of rows")
    return sample


def simulate_mmd_samples(data: np.ndarray, model, cfg: RBConfig, which: str,
                         rng: np.random.Generator, *, n_terms: int,
                         base_sampler: BaseSampler | None = None) -> np.ndarray:
    """Monte Carlo draws of the weighted squared MMD against the model sample.

    ``model`` is either a fixed (m, d) sample or a sampler callable; a
    sampler is drawn once up front and the sample held fixed across the
    ``cfg.mc_reps`` replications unless ``cfg.resample_model_per_rep``;
    when resampling, the up-front draw is made only to resolve a median
    bandwidth.  The base measure defaults to the model sampler itself (the
    test construction wants them equal); pass ``base_sampler`` to
    deliberately decouple them.

    Args:
        which: "prior" or "posterior".
        n_terms: truncation level of every draw (one per test, see :func:`run_gof_test`).

    Raises:
        InvalidInputError: ``data`` or any model sample, fixed or redrawn, holds NaN or inf.
    """
    if which not in ("prior", "posterior"):
        raise InvalidParameterError(f"which must be 'prior' or 'posterior', got {which!r}")
    data = as_sample(data, "data")
    if cfg.resample_model_per_rep and not callable(model):
        raise InvalidParameterError("per-replication model resampling needs a sampler, not a fixed sample")

    if base_sampler is None and callable(model):
        base_sampler = model
    m = cfg.model_size or data.shape[0]
    sample = (None if cfg.resample_model_per_rep and not cfg.kernel.needs_median
              else _model_sample(model, m, rng))

    if which == "prior":
        if base_sampler is None:
            raise InvalidParameterError("prior simulation needs a base sampler")
        draw = lambda r: sample_dp_prior(cfg.concentration, base_sampler, n_terms, r)
    else:
        draw = lambda r: sample_dp_posterior(cfg.concentration, data, base_sampler,
                                             n_terms, r)

    spec = resolve_median(cfg.kernel, data, sample)
    out = np.empty(cfg.mc_reps)
    yy = None if cfg.resample_model_per_rep else discrepancy.yy_mean_term(sample, spec)
    for r in range(cfg.mc_reps):
        if cfg.resample_model_per_rep:
            sample = _model_sample(model, m, rng)
            yy = discrepancy.yy_mean_term(sample, spec)
        out[r] = discrepancy.mmd2_weighted(draw(rng), sample, spec, yy_term=yy)
    return out


def run_gof_test(data: np.ndarray, model_sampler: BaseSampler, cfg: RBConfig,
                 rng: np.random.Generator, *,
                 base_sampler: BaseSampler | None = None) -> RBReport:
    """Full test: simulate prior and posterior squared-MMD draws, estimate the
    relative belief ratio and strength, and decide by its sign against one.

    The hypothesized model doubles as the base measure unless an explicit
    ``base_sampler`` decouples them (useful for studying misconfiguration).
    A concentration above n/2 drowns the data in the prior; that is allowed
    but warned about.
    """
    data = as_sample(data, "data")
    n = data.shape[0]
    if n < 2:
        raise InvalidInputError("need at least two observations")
    if cfg.concentration <= 0:
        raise InvalidParameterError(f"the test needs a positive concentration, got {cfg.concentration}")
    if cfg.concentration > n / 2:
        warnings.warn(f"concentration {cfg.concentration} > n/2 = {n / 2}; "
                      "the prior may dominate the update", stacklevel=2)

    # one truncation level per test, shared by prior and posterior
    level = (StoppingRuleResult(cfg.explicit_terms, False) if cfg.explicit_terms is not None
             else stopping_rule_N(cfg.concentration, cfg.truncation_epsilon,
                                  DEFAULT_MAX_TERMS, rng))
    m = cfg.model_size or n
    # prior and posterior share one model sample unless each replication redraws it
    model = model_sampler if cfg.resample_model_per_rep else _model_sample(model_sampler, m, rng)
    if cfg.kernel.needs_median:
        # one bandwidth for both simulations, else the ratio compares two kernels
        cfg = replace(cfg, kernel=resolve_median(cfg.kernel, data, _model_sample(model, m, rng)))
    base = base_sampler or model_sampler
    prior = simulate_mmd_samples(data, model, cfg, "prior", rng,
                                 n_terms=level.n_terms, base_sampler=base)
    posterior = simulate_mmd_samples(data, model, cfg, "posterior", rng,
                                     n_terms=level.n_terms, base_sampler=base)
    rb, strength = estimate_rb_strength(prior, posterior, cfg.grid_cells, cfg.anchor_cell)
    return RBReport(rb=rb, strength=strength, prior_samples=prior,
                    posterior_samples=posterior, n_terms=level.n_terms,
                    n_terms_clamped=level.clamped, decision=_decide(rb))

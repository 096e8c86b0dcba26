"""Goodness-of-fit testing with a relative belief ratio on the squared MMD.

The test simulates the squared MMD between weighted prior/posterior draws
and a sample from the hypothesized model, then compares posterior to prior
mass near zero on a quantile grid of the prior Monte Carlo sample.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import discrepancy
from .dp import (DEFAULT_MAX_TERMS, BaseSampler, PosteriorParams, StoppingRuleResult,
                 sample_dp_posterior, sample_dp_prior, stopping_rule_N)
from .errors import DegeneratePriorError, InvalidInputError, InvalidParameterError
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


def ecdf_eval(samples: np.ndarray, x: float) -> float:
    """Right-continuous empirical CDF: fraction of samples <= x."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InvalidInputError("ecdf of an empty sample")
    return float(np.count_nonzero(samples <= x)) / samples.size


def empirical_quantile(samples: np.ndarray, p: float) -> float:
    """Inverse-ECDF quantile: the ceil(p * len)-th order statistic, p in (0, 1]."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InvalidInputError("quantile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise InvalidInputError("p must lie in (0, 1]")
    k = math.ceil(p * samples.size)
    return float(np.partition(samples, k - 1)[k - 1])


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
        DegeneratePriorError: all prior draws are identical, so the quantile
            grid carries no information.
    """
    prior = np.asarray(prior_samples, dtype=float)
    post = np.asarray(posterior_samples, dtype=float)
    if prior.size < grid_cells or post.size == 0:
        raise InvalidInputError("need at least grid_cells prior draws and non-empty posterior draws")
    if not 1 <= anchor_cell < grid_cells:
        raise InvalidParameterError("need 1 <= anchor_cell < grid_cells")
    if np.all(prior == prior[0]):
        raise DegeneratePriorError("constant prior Monte Carlo sample",
                                   prior_samples=prior, posterior_samples=post)

    # both ECDFs at the prior quantiles i/M; entry 0 stands for the open
    # lower end of the first cell, which carries no mass
    quantiles = [empirical_quantile(prior, i / grid_cells) for i in range(1, grid_cells + 1)]
    prior_cdf = [0.0] + [ecdf_eval(prior, q) for q in quantiles]
    post_cdf = [0.0] + [ecdf_eval(post, q) for q in quantiles]

    rb = min(post_cdf[anchor_cell] / prior_cdf[anchor_cell], grid_cells / anchor_cell)
    strength = 0.0
    for i in range(grid_cells):
        prior_mass = prior_cdf[i + 1] - prior_cdf[i]
        if prior_mass <= 0.0:
            continue
        post_mass = post_cdf[i + 1] - post_cdf[i]
        if post_mass / prior_mass <= rb:
            strength += post_mass
    return float(rb), float(strength)


def _decide(rb: float) -> str:
    if rb > 1.0:
        return EVIDENCE_FOR
    if rb < 1.0:
        return EVIDENCE_AGAINST
    return INCONCLUSIVE


def _draw_model(model: BaseSampler, m: int, rng: np.random.Generator) -> np.ndarray:
    out = np.atleast_2d(np.asarray(model(m, rng), dtype=float))
    if out.shape[0] != m:
        raise InvalidInputError("model sampler returned the wrong number of rows")
    return out


def _model_sample(model, cfg: RBConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """The model sample to compare against: ``model`` itself when it is a
    fixed sample, else ``cfg.model_size`` (default n) rows drawn from it."""
    if not callable(model):
        fixed = np.atleast_2d(np.asarray(model, dtype=float))
        if fixed.shape[0] == 0:
            raise InvalidInputError("model sample must be non-empty")
        return fixed
    m = cfg.model_size if cfg.model_size is not None else n
    if m < 1:
        raise InvalidInputError("model sample size must be positive")
    return _draw_model(model, m, rng)


def simulate_mmd_samples(data: np.ndarray, model, cfg: RBConfig, which: str,
                         rng: np.random.Generator, *, n_terms: int,
                         base_sampler: BaseSampler | None = None) -> np.ndarray:
    """Monte Carlo draws of the weighted squared MMD against the model sample.

    ``model`` is either a fixed (m, d) sample or a sampler callable; a
    sampler is drawn once up front and the sample held fixed across the
    ``cfg.mc_reps`` replications unless ``cfg.resample_model_per_rep``.
    The base measure defaults to the model sampler itself (the test
    construction wants them equal); pass ``base_sampler`` to deliberately
    decouple them.

    Args:
        which: "prior" or "posterior".
        n_terms: truncation level of every draw (see :func:`draw_truncation_level`).

    Raises:
        InvalidInputError: ``data`` or the fixed model sample holds NaN or inf.
    """
    if which not in ("prior", "posterior"):
        raise InvalidParameterError(f"which must be 'prior' or 'posterior', got {which!r}")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if not np.isfinite(data).all():
        raise InvalidInputError("data contain non-finite values (NaN or inf)")

    model_sampler = model if callable(model) else None
    if base_sampler is None:
        base_sampler = model_sampler
    fixed_model = _model_sample(model, cfg, data.shape[0], rng)
    if not np.isfinite(fixed_model).all():
        raise InvalidInputError("model sample contains non-finite values (NaN or inf)")
    if cfg.resample_model_per_rep and model_sampler is None:
        raise InvalidParameterError("per-replication model resampling needs a sampler, not a fixed sample")

    if which == "prior":
        if base_sampler is None:
            raise InvalidParameterError("prior simulation needs a base sampler")
        draw = lambda r: sample_dp_prior(cfg.concentration, base_sampler, n_terms, r)
    else:
        post = PosteriorParams.from_prior(cfg.concentration, data, base_sampler)
        draw = lambda r: sample_dp_posterior(post, n_terms, r)

    spec = resolve_median(cfg.kernel, data, fixed_model)
    out = np.empty(cfg.mc_reps)
    model_now = fixed_model
    yy = discrepancy.yy_mean_term(model_now, spec)
    for r in range(cfg.mc_reps):
        if cfg.resample_model_per_rep:
            model_now = _draw_model(model_sampler, fixed_model.shape[0], rng)
            yy = discrepancy.yy_mean_term(model_now, spec)
        out[r] = discrepancy.mmd2_weighted(draw(rng), model_now, spec, yy_term=yy)
    return out


def draw_truncation_level(cfg: RBConfig, rng: np.random.Generator) -> StoppingRuleResult:
    """One truncation draw per test run, shared by prior and posterior paths."""
    if cfg.explicit_terms is not None:
        return StoppingRuleResult(cfg.explicit_terms, False)
    return stopping_rule_N(cfg.concentration, cfg.truncation_epsilon, DEFAULT_MAX_TERMS, rng)


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
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    if n < 2:
        raise InvalidInputError("need at least two observations")
    if not np.isfinite(data).all():
        raise InvalidInputError("data contain non-finite values (NaN or inf)")
    if cfg.concentration > n / 2:
        warnings.warn(f"concentration {cfg.concentration} > n/2 = {n / 2}; "
                      "the prior may dominate the update", stacklevel=2)

    level = draw_truncation_level(cfg, rng)
    # prior and posterior share one model sample unless each replication redraws it
    model = (model_sampler if cfg.resample_model_per_rep
             else _model_sample(model_sampler, cfg, n, rng))
    base = base_sampler or model_sampler
    prior = simulate_mmd_samples(data, model, cfg, "prior", rng,
                                 n_terms=level.n_terms, base_sampler=base)
    posterior = simulate_mmd_samples(data, model, cfg, "posterior", rng,
                                     n_terms=level.n_terms, base_sampler=base)
    rb, strength = estimate_rb_strength(prior, posterior, cfg.grid_cells, cfg.anchor_cell)
    return RBReport(rb=rb, strength=strength, prior_samples=prior,
                    posterior_samples=posterior, n_terms=level.n_terms,
                    n_terms_clamped=level.clamped, decision=_decide(rb))

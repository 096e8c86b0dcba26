"""Synthetic comparison scenarios, a permutation-test baseline, and ROC/AUC studies.

The null model is always the standard normal in d dimensions; each scenario
names the data-generating alternative (or the null itself).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import BaseSampler
from .errors import DegeneratePriorError, InvalidInputError, InvalidParameterError
from .kernels import KernelSpec, gram
from .rb import RBConfig, run_gof_test

NO_DIFFERENCE = "no_difference"
MEAN_SHIFT = "mean_shift"
SKEWNESS = "skewness"
MIXTURE = "mixture"
VARIANCE_SHIFT = "variance_shift"
HEAVY_TAIL = "heavy_tail"
KURTOSIS = "kurtosis"

SCENARIOS = (NO_DIFFERENCE, MEAN_SHIFT, SKEWNESS, MIXTURE,
             VARIANCE_SHIFT, HEAVY_TAIL, KURTOSIS)

RB_THRESHOLD_MAX = 20.0
DEFAULT_NUM_THRESHOLDS = 401


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    dim: int
    n: int

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise InvalidParameterError(f"unknown scenario {self.name!r}; choose from {SCENARIOS}")
        if self.dim < 1 or self.n < 1:
            raise InvalidParameterError("dim and n must be positive")


def lognormal_cov(dim: int) -> np.ndarray:
    """Equicorrelated covariance: 0.25 on the diagonal, 0.2 off it.

    Positive definite for every dim (eigenvalues 0.05 and 0.05 + 0.2 dim);
    validated by Cholesky anyway so a bad edit fails loudly.
    """
    cov = np.full((dim, dim), 0.2)
    np.fill_diagonal(cov, 0.25)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(f"lognormal covariance not positive definite at dim {dim}") from exc
    return cov


def null_model_sampler(dim: int) -> BaseSampler:
    """The hypothesized model: standard normal rows in ``dim`` dimensions."""
    def sample(size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((size, dim))
    return sample


def scenario_sampler(name: str, dim: int) -> BaseSampler:
    """Row sampler for a named scenario at the given dimension.

    The heavy-tail and kurtosis scenarios use i.i.d. coordinates with unit
    scale (coordinate variances 3 and pi^2/3 respectively).
    """
    if name == NO_DIFFERENCE:
        return null_model_sampler(dim)
    if name == MEAN_SHIFT:
        def sample(size, rng):
            return rng.standard_normal((size, dim)) + 0.5
    elif name == SKEWNESS:
        chol = np.linalg.cholesky(lognormal_cov(dim))
        def sample(size, rng):
            return np.exp(rng.standard_normal((size, dim)) @ chol.T)
    elif name == MIXTURE:
        def sample(size, rng):
            signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
            return rng.standard_normal((size, dim)) + signs[:, None]
    elif name == VARIANCE_SHIFT:
        scale = np.sqrt(2.0)
        def sample(size, rng):
            return scale * rng.standard_normal((size, dim))
    elif name == HEAVY_TAIL:
        def sample(size, rng):
            return rng.standard_t(3, size=(size, dim))
    elif name == KURTOSIS:
        def sample(size, rng):
            return rng.logistic(0.0, 1.0, size=(size, dim))
    else:
        raise InvalidParameterError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    return sample


def sample_scenario(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    return scenario_sampler(spec.name, spec.dim)(spec.n, rng)


def fnp_permutation_test(X: np.ndarray, Y: np.ndarray, spec: KernelSpec,
                         num_perms: int, rng: np.random.Generator) -> float:
    """Permutation p-value of the empirical squared MMD.

    p = (1 + #{permuted statistic >= observed}) / (num_perms + 1), so the
    result is always in (0, 1].
    """
    if num_perms < 1:
        raise InvalidParameterError("num_perms must be >= 1")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, m = X.shape[0], Y.shape[0]
    pool = np.vstack([X, Y])
    K = gram(spec, pool, pool)

    def stat(idx: np.ndarray) -> float:
        kx = K[np.ix_(idx[:n], idx[:n])].sum() / (n * n)
        ky = K[np.ix_(idx[n:], idx[n:])].sum() / (m * m)
        kxy = K[np.ix_(idx[:n], idx[n:])].sum() / (n * m)
        return kx - 2.0 * kxy + ky

    observed = stat(np.arange(n + m))
    exceed = 0
    for _ in range(num_perms):
        if stat(rng.permutation(n + m)) >= observed:
            exceed += 1
    return (1.0 + exceed) / (num_perms + 1.0)


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep of a reject-below-threshold test plus its AUC.

    ``fpr``/``tpr`` are per threshold; the AUC integrates the polyline
    completed with the (0, 0) and (1, 1) endpoints.  ``excluded`` counts
    replications dropped because their prior sample degenerated.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    excluded: int = 0


def roc_from_scores(h0_scores: np.ndarray, h1_scores: np.ndarray, *,
                    threshold_max: float = RB_THRESHOLD_MAX,
                    num_thresholds: int = DEFAULT_NUM_THRESHOLDS,
                    excluded: int = 0) -> RocCurve:
    """Build a ROC curve from test scores where small means reject.

    A replication counts as positive (reject) at threshold t when its score
    is strictly below t: H1 scores give the true-positive rate, H0 scores
    the false-positive rate.
    """
    h0 = np.asarray(h0_scores, dtype=float)
    h1 = np.asarray(h1_scores, dtype=float)
    if h0.size < 1 or h1.size < 1:
        raise InvalidInputError("need scores under both hypotheses")
    ts = np.linspace(0.0, threshold_max, num_thresholds)
    tpr = np.count_nonzero(h1[None, :] < ts[:, None], axis=1) / h1.size
    fpr = np.count_nonzero(h0[None, :] < ts[:, None], axis=1) / h0.size
    fpr_full = np.concatenate([[0.0], fpr, [1.0]])
    tpr_full = np.concatenate([[0.0], tpr, [1.0]])
    auc = float(np.trapezoid(tpr_full, fpr_full))
    return RocCurve(thresholds=ts, fpr=fpr, tpr=tpr, auc=auc, excluded=excluded)


def _rb_scores(spec: ScenarioSpec, cfg: RBConfig,
               seeds: list[np.random.SeedSequence]) -> list[float]:
    """Ratios of one test per child seed of fresh scenario data against the
    standard-normal model, leaving out degenerate-prior replications."""
    scores = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        data = sample_scenario(spec, rng)
        try:
            scores.append(run_gof_test(data, null_model_sampler(spec.dim), cfg, rng).rb)
        except DegeneratePriorError:
            pass
    return scores


def run_roc_study(null_spec: ScenarioSpec, alt_spec: ScenarioSpec, cfg: RBConfig,
                  reps: int, rng: np.random.Generator, *,
                  num_thresholds: int = DEFAULT_NUM_THRESHOLDS) -> RocCurve:
    """Relative-belief ROC study: ``reps`` test replications per hypothesis.

    Each replication runs on its own child stream of ``rng``.  Thresholds
    sweep [0, M/i0], the full range of the ratio; ``excluded`` counts the
    replications dropped for a degenerate prior sample.
    """
    if reps < 2:
        raise InvalidParameterError("need at least 2 replications per hypothesis")
    if null_spec.dim != alt_spec.dim:
        raise InvalidParameterError("null and alternative scenarios must share a dimension")
    seeds = rng.bit_generator.seed_seq.spawn(2 * reps)
    h0 = _rb_scores(null_spec, cfg, seeds[:reps])
    h1 = _rb_scores(alt_spec, cfg, seeds[reps:])
    return roc_from_scores(np.array(h0), np.array(h1),
                           threshold_max=cfg.rb_cap, num_thresholds=num_thresholds,
                           excluded=2 * reps - len(h0) - len(h1))

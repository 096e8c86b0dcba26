"""Weighted-bootstrap MMD estimation, relative-belief testing, and generator training."""

__version__ = "0.1.0"

from .dp import (DiscreteMeasure, PosteriorParams, sample_dp_posterior, sample_dp_prior,
                 sample_stick_breaking, stopping_rule_N)
from .discrepancy import (deviation_tail_bound, energy_weighted, generalization_bound,
                          grad_mmd2_atoms, mmd2_empirical, mmd2_weighted,
                          prior_mean_upper_bound)
from .kernels import (KernelComponent, KernelSpec, eval_kernel, gaussian_kernel,
                      gaussian_mixture, median_heuristic, parse_kernel)
from .rb import (RBConfig, RBReport, ecdf_eval, empirical_quantile,
                 estimate_rb_strength, run_gof_test, simulate_mmd_samples)
from .scenarios import (SCENARIOS, RocCurve, ScenarioSpec, fnp_permutation_test,
                        roc_from_scores, run_roc_study, sample_scenario)
from .gan import (GeneratorNet, TrainConfig, TrainHistory, eight_gaussian_ring,
                  generator_forward, loss_and_grad, mmds_score, train)
from .idx import load_idx_images, write_idx_images

__all__ = [
    "DiscreteMeasure", "PosteriorParams", "sample_dp_posterior", "sample_dp_prior",
    "sample_stick_breaking", "stopping_rule_N",
    "deviation_tail_bound", "energy_weighted", "generalization_bound",
    "grad_mmd2_atoms", "mmd2_empirical", "mmd2_weighted", "prior_mean_upper_bound",
    "KernelComponent", "KernelSpec", "eval_kernel", "gaussian_kernel",
    "gaussian_mixture", "median_heuristic", "parse_kernel",
    "RBConfig", "RBReport", "ecdf_eval", "empirical_quantile",
    "estimate_rb_strength", "run_gof_test", "simulate_mmd_samples",
    "SCENARIOS", "RocCurve", "ScenarioSpec", "fnp_permutation_test",
    "roc_from_scores", "run_roc_study", "sample_scenario",
    "GeneratorNet", "TrainConfig", "TrainHistory", "eight_gaussian_ring",
    "generator_forward", "loss_and_grad", "mmds_score", "train",
    "load_idx_images", "write_idx_images",
]

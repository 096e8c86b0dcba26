"""Outputs pinned at fixed seeds.

The values were recorded from the package before its truncation rule,
kernel families, ECDF/quantile helpers and model-sample handling were
consolidated.  A change that reorders how the random stream is consumed, or
alters the arithmetic, fails here; such a change must record new values
deliberately and say so.
"""
import warnings

import numpy as np
import pytest

from bnpmmd.discrepancy import grad_mmd2_atoms
from bnpmmd.dp import DEFAULT_MAX_TERMS, DiscreteMeasure, stopping_rule_N
from bnpmmd.kernels import KernelComponent, KernelSpec, gaussian_kernel, gram
from bnpmmd.rb import RBConfig, estimate_rb_strength, run_gof_test
from bnpmmd.scenarios import null_model_sampler

RTOL = 1e-12


@pytest.mark.parametrize("a, expected", [(25.0, [32, 47, 45]), (256.0, [88, 126, 130])])
def test_stopping_rule_levels(a, expected):
    rng = np.random.default_rng(11)
    assert [stopping_rule_N(a, 1e-3, DEFAULT_MAX_TERMS, rng).n_terms for _ in range(3)] == expected


GOF_CASES = {
    "default": (
        {},
        1.0999999999999999, 0.414, 42, "evidence_for_H0",
        [4.095788169711234e-05, 0.00010255139029591298, 3.831260553199822e-05],
        [4.592112097712153e-05, 3.296874565239527e-05, 9.077810400437425e-05]),
    "median_resample": (
        {"kernel": gaussian_kernel(None), "resample_model_per_rep": True, "mc_reps": 300},
        0.7999999999999999, 0.30999999999999983, 42, "evidence_against_H0",
        [0.003409676038829579, 0.004155574676355744, 0.0035434955460705853],
        [0.005803092002089838, 0.005896719600773426, 0.004846578362802112]),
    "explicit30": (
        {"truncation_epsilon": None, "explicit_terms": 30},
        1.0199999999999998, 0.4359999999999999, 30, "evidence_for_H0",
        [4.7456950997060154e-05, 0.00011761374892949039, 3.902359152552215e-05],
        [3.960864123220276e-05, 2.7270762453013297e-05, 5.272033586867231e-05]),
}


@pytest.mark.parametrize("case", sorted(GOF_CASES))
def test_gof_test_report(case):
    kwargs, rb, strength, n_terms, decision, prior3, post3 = GOF_CASES[case]
    data = np.random.default_rng(21).standard_normal((50, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_gof_test(data, null_model_sampler(5), RBConfig(**kwargs),
                              np.random.default_rng(22))
    np.testing.assert_allclose([report.rb, report.strength], [rb, strength], rtol=RTOL)
    assert report.n_terms == n_terms
    assert report.decision == decision
    np.testing.assert_allclose(report.prior_samples[:3], prior3, rtol=RTOL)
    np.testing.assert_allclose(report.posterior_samples[:3], post3, rtol=RTOL)


KERNEL_CASES = {
    ("gaussian", None): (
        [[0.9116896696674277, 0.5533768878965242], [0.5045079921279714, 0.15737678788176732],
         [0.3236933765728368, 0.11707150064675469]],
        [[-0.33145012922649625, 0.13116155493379528], [0.022339901878098145, 0.0001953864743054201]]),
    ("exponential", None): (
        [[0.6505005909362365, 0.33693791757681085], [0.31044080960959197, 0.14615655707154251],
         [0.22269078334998765, 0.12603227758678107]],
        [[-0.14863019890308987, 0.14508923915920022], [0.024878428845848247, -0.005076587587947913]]),
    ("rational-quadratic", None): (
        [[0.9153689911983751, 0.6282527881040891], [0.5937637241985069, 0.3509865005192108],
         [0.46993395898505397, 0.3179680150517404]],
        [[-0.22922852426885137, 0.10813127495691993], [0.0024081644266322477, -0.0021461242410985293]]),
    ("rational-quadratic", 2.5): (
        [[0.913212179290291, 0.5879644203022514], [0.5462090118175549, 0.2505234798185927],
         [0.3941796698396182, 0.21251649343542262]],
        [[-0.2807599467113198, 0.12068662527313681], [0.008118811650181856, -0.001380145339888672]]),
    ("matern", None): (
        [[0.8284804986033844, 0.43824928731067914], [0.3989908445237826, 0.1548808450800043],
         [0.26709723092819937, 0.12692887245805626]],
        [[-0.24223886601620154, 0.16469457344628202], [0.040639723323504684, -0.006341637089280497]]),
}


@pytest.mark.parametrize("family, shape", sorted(KERNEL_CASES, key=str))
def test_gram_and_gradient(family, shape):
    expected_gram, expected_grad = KERNEL_CASES[family, shape]
    X = np.array([[0.0, 0.0], [0.5, -1.0], [1.5, 2.0]])
    Y = np.array([[0.25, 0.5], [-1.0, 1.0]])
    spec = KernelSpec((KernelComponent(family, 1.3, shape),))
    measure = DiscreteMeasure(np.array([0.2, 0.3, 0.5]), X)
    np.testing.assert_allclose(gram(spec, X, Y), expected_gram, rtol=RTOL)
    np.testing.assert_allclose(grad_mmd2_atoms(measure, Y, spec), expected_grad, rtol=RTOL)


@pytest.mark.parametrize("grid_cells, anchor_cell, expected",
                         [(4, 1, (1.7999999999999998, 1.0)), (6, 2, (1.7999999999999998, 0.5))])
def test_rb_strength_with_ties(grid_cells, anchor_cell, expected):
    prior = np.array([0.3, 0.1, 0.1, 0.5, 0.2, 0.2, 0.2, 0.9, 0.4, 0.4, 0.7, 0.6])
    post = np.array([0.1, 0.1, 0.2, 0.05, 0.2, 0.4, 0.3, 0.1])
    got = estimate_rb_strength(prior, post, grid_cells, anchor_cell)
    np.testing.assert_allclose(got, expected, rtol=RTOL)

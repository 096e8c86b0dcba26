"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every check is seeded, so outcomes are reproducible run to run.  Replication
studies regenerate the model sample per Monte Carlo draw, which is the
harness configuration that reproduces the published strength calibration.
"""
import time

import numpy as np
import pytest

from bnpmmd.discrepancy import (generalization_bound, mmd2_empirical,
                                mmd2_weighted, prior_mean_upper_bound)
from bnpmmd.dp import DEFAULT_MAX_TERMS, sample_dp_posterior, sample_dp_prior, stopping_rule_N
from bnpmmd.gan import (GeneratorNet, TrainConfig, _loss_and_param_grads,
                        eight_gaussian_ring, generator_forward, mmds_score, train)
from bnpmmd.kernels import eval_kernel, gaussian_kernel, gaussian_mixture
from bnpmmd.rb import (RBConfig, ecdf_eval, empirical_quantile,
                       estimate_rb_strength, run_gof_test)
from bnpmmd.scenarios import (ScenarioSpec, null_model_sampler, roc_from_scores,
                              run_roc_study, scenario_sampler)

SQRT2 = np.sqrt(2.0)


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def table_config(sigma=80.0, ell=1000):
    return RBConfig(concentration=25.0, mc_reps=ell, grid_cells=20, anchor_cell=1,
                    kernel=gaussian_kernel(sigma), truncation_epsilon=1e-3,
                    resample_model_per_rep=True)


def replicate_rb(scenario, dim, n, cfg, seed, reps=20, base=None):
    rng = np.random.default_rng(seed)
    rbs, strengths = [], []
    for _ in range(reps):
        X = scenario_sampler(scenario, dim)(n, rng)
        report = run_gof_test(X, null_model_sampler(dim), cfg, rng,
                              base_sampler=base)
        rbs.append(report.rb)
        strengths.append(report.strength)
    return np.array(rbs), np.array(strengths)


def criterion_01(seed=7):
    """null data (d=5, n=50): at least 90% of replications at rb > 1 and a mean
    rb above 1.  Returns the replication rbs, which of them count and the verdict."""
    rbs, _ = replicate_rb("no_difference", 5, 50, table_config(), seed)
    hits = rbs > 1.0
    return rbs, hits, bool(hits.mean() >= 0.90 and rbs.mean() > 1.0)


def criterion_03(seed=10):
    """variance shift (d=10, n=50): at least 90% of replications at rb < 1.
    Returns the replication rbs, which of them count and the verdict."""
    rbs, _ = replicate_rb("variance_shift", 10, 50, table_config(), seed)
    hits = rbs < 1.0
    return rbs, hits, bool(hits.mean() >= 0.90)


def criterion_02(seed=8):
    """mean shift (d=20, n=50): mean rb below 0.5 and mean strength below 0.1
    over 20 replications drawn at the seed, and an AUC of at least 0.95 in a
    30+30 replication ROC study drawn at seed + 1.  Returns the
    replication rbs and strengths, the AUC and the verdict."""
    cfg = table_config()
    rbs, strengths = replicate_rb("mean_shift", 20, 50, cfg, seed)
    curve = run_roc_study(ScenarioSpec("no_difference", 20, 50),
                          ScenarioSpec("mean_shift", 20, 50),
                          cfg, 30, np.random.default_rng(seed + 1))
    ok = rbs.mean() < 0.5 and strengths.mean() < 0.1 and curve.auc >= 0.95
    return rbs, strengths, curve.auc, bool(ok)


def criterion_05(seed=11):
    """heavy-tailed data (d=60, n=50): mean rb above 1 over 20 replications
    whose base is the wrong (logistic) measure, drawn at the seed, and below 1
    over 20 with the base equal to the model, drawn at seed + 1.  Returns
    the two sets of replication rbs and the verdict."""
    cfg = table_config()
    wrong_base = scenario_sampler("kurtosis", 60)   # logistic, not the model
    rbs_bad, _ = replicate_rb("heavy_tail", 60, 50, cfg, seed, base=wrong_base)
    rbs_good, _ = replicate_rb("heavy_tail", 60, 50, cfg, seed + 1)
    return rbs_bad, rbs_good, bool(rbs_bad.mean() > 1.0 and rbs_good.mean() < 1.0)


def criterion_06(seed=13):
    """variance shift (d=60, n=50): the AUC of a 20+20 replication ROC study
    at sigma=80 is at least 0.1 above that at sigma=2, both drawn at the
    seed.  Returns the two AUCs and the verdict."""
    aucs = {}
    for sigma in (80.0, 2.0):
        curve = run_roc_study(ScenarioSpec("no_difference", 60, 50),
                              ScenarioSpec("variance_shift", 60, 50),
                              table_config(sigma=sigma), 20, np.random.default_rng(seed))
        aucs[sigma] = curve.auc
    return aucs[80.0], aucs[2.0], bool(aucs[80.0] >= aucs[2.0] + 0.1)


def test_criterion_01_null_behavior():
    started = time.time()
    rbs, hits, ok = criterion_01()
    elapsed = time.time() - started
    frac = hits.mean()
    ok = ok and elapsed <= 300
    _report(1, "null-behavior d=5", ok,
            f"mean RB {rbs.mean():.2f} (>1), {int(frac * 20)}/20 reps with RB>1 "
            f"(>=90%), {elapsed:.0f}s (<=300s)")


def test_criterion_02_mean_shift_power():
    started = time.time()
    rbs, strengths, auc, ok = criterion_02()
    elapsed = time.time() - started
    ok = ok and elapsed <= 900
    _report(2, "mean-shift power d=20", ok,
            f"mean RB {rbs.mean():.3f} (<0.5), mean strength {strengths.mean():.3f} "
            f"(<0.1), AUC {auc:.3f} (>=0.95), {elapsed:.0f}s (<=900s)")


def test_criterion_03_variance_shift_detection():
    started = time.time()
    rbs, hits, ok = criterion_03()
    elapsed = time.time() - started
    frac = hits.mean()
    _report(3, "variance-shift d=10", ok,
            f"{int(frac * 20)}/20 reps with RB<1 (>=90%), mean RB {rbs.mean():.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_04_rb_endpoints():
    prior = np.arange(1, 21) * 0.05
    rb_hi, str_hi = estimate_rb_strength(prior, np.full(20, 0.01), 20, 1)
    rb_lo, str_lo = estimate_rb_strength(prior, np.full(20, 2.0), 20, 1)
    ok = rb_hi == 20.0 and rb_lo == 0.0 and str_lo == 0.0
    _report(4, "ratio endpoints", ok,
            f"max-evidence RB {rb_hi} (=20), counter-evidence RB {rb_lo} (=0), "
            f"strength {str_lo} (=0)")


def test_criterion_05_base_measure_failure_mode():
    started = time.time()
    rbs_bad, rbs_good, ok = criterion_05()
    elapsed = time.time() - started
    _report(5, "base-measure failure mode d=60", ok,
            f"misconfigured base mean RB {rbs_bad.mean():.2f} (>1, wrongly accepts), "
            f"matched base mean RB {rbs_good.mean():.3f} (<1), {elapsed:.0f}s")


def test_criterion_06_bandwidth_study():
    started = time.time()
    auc_80, auc_2, ok = criterion_06()
    elapsed = time.time() - started
    _report(6, "bandwidth study d=60", ok,
            f"AUC(sigma=80) {auc_80:.3f} >= AUC(sigma=2) {auc_2:.3f} + 0.1, "
            f"{elapsed:.0f}s")


def test_criterion_07_theory_properties():
    started = time.time()
    rng = np.random.default_rng(14)
    base1 = lambda k, r: r.standard_normal((k, 1))
    notes = []

    # flattening ladder: mean of max_i |J_i - 1/N| strictly decreasing in a
    gaps = []
    for a in (1e2, 1e4, 1e6):
        vals = [np.max(np.abs(sample_dp_prior(a, base1, 20, rng).weights - 1 / 20))
                for _ in range(2000)]
        gaps.append(float(np.mean(vals)))
    ladder_ok = gaps[0] > gaps[1] > gaps[2]
    notes.append(f"gap ladder {gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f}")

    # weight moments at a=25, N=50 over 1e5 draws, three standard errors
    a, N, reps = 25.0, 50, 100000
    first = np.array([sample_dp_prior(a, base1, N, rng).weights[0] for _ in range(reps)])
    mean_ok = abs(first.mean() - 1 / N) <= 3 * first.std(ddof=1) / np.sqrt(reps)
    target_var = (N - 1) / (N**2 * (a + 1))
    centered = (first - first.mean()) ** 2
    var_ok = abs(first.var(ddof=1) - target_var) <= 3 * centered.std(ddof=1) / np.sqrt(reps)
    notes.append(f"E[J] err {abs(first.mean() - 1/N):.2e}, "
                 f"Var[J] {first.var(ddof=1):.3e} vs {target_var:.3e}")

    # prior-mean estimate stays below the flat bound (base equals the model)
    spec = gaussian_kernel(SQRT2)
    level = stopping_rule_N(25.0, 1e-3, DEFAULT_MAX_TERMS, rng).n_terms
    Y = base1(50, rng)
    prior_vals = [mmd2_weighted(sample_dp_prior(25.0, base1, level, rng), Y, spec)
                  for _ in range(1000)]
    bound1 = prior_mean_upper_bound(spec.kernel_bound, 0.0)
    prior_ok = np.mean(prior_vals) < bound1
    notes.append(f"prior mean {np.mean(prior_vals):.4f} < {bound1}")

    # flat-posterior expected distance below the generalization bound
    n_data = 100
    X = base1(n_data, rng)
    Yg = base1(100, rng)
    dist_vals = [np.sqrt(max(mmd2_weighted(sample_dp_posterior(0.0, X, None, 100, rng), Yg, spec), 0.0))
                 for _ in range(1000)]
    bound2 = generalization_bound(0.0, n_data, 100, spec.kernel_bound, 0.0)
    gen_ok = np.mean(dist_vals) < bound2
    notes.append(f"E[dist] {np.mean(dist_vals):.4f} < {bound2:.4f}")

    # posterior second-moment identity
    a2, n2, N2 = 5.0, 20, 30
    X2 = np.zeros((n2, 1))
    sq = np.array([sample_dp_posterior(a2, X2, base1, N2, rng).weights[0] ** 2
                   for _ in range(20000)])
    target_sq = (a2 + n2 + N2) / ((a2 + n2 + 1) * N2**2)
    moment_ok = abs(sq.mean() - target_sq) <= 3 * sq.std(ddof=1) / np.sqrt(sq.size)
    notes.append(f"E[J*^2] {sq.mean():.3e} vs {target_sq:.3e}")

    # posterior concentration: mean squared discrepancy falls as n grows
    means = []
    for n in (50, 200, 800):
        Xn = base1(n, rng)
        Yn = base1(n, rng)
        vals = [mmd2_weighted(sample_dp_posterior(0.0, Xn, None, 100, rng), Yn, spec)
                for _ in range(400)]
        means.append(float(np.mean(vals)))
    trend_ok = means[0] > means[1] > means[2]
    notes.append(f"consistency trend {means[0]:.4f}>{means[1]:.4f}>{means[2]:.4f}")

    elapsed = time.time() - started
    ok = all([ladder_ok, mean_ok, var_ok, prior_ok, gen_ok, moment_ok, trend_ok,
              elapsed <= 600])
    _report(7, "theory property suite", ok, "; ".join(notes) + f"; {elapsed:.0f}s (<=600s)")


def _min_preactivation_margin(net, U):
    # central differences only estimate the gradient where the map is smooth;
    # a rectifier kink inside the stencil invalidates the estimate, so a
    # candidate net must keep every hidden preactivation away from zero
    a = U
    margin = np.inf
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        if i < len(net.weights) - 1:
            margin = min(margin, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = 1.0 / (1.0 + np.exp(-z))
    return margin


def criterion_08(seed=3000):
    """gradient fidelity: the analytic parameter gradients of the square-root loss
    (gaussian:2, [2,8,8,8,8,2] nets, 30 uniform atoms, 25 noise rows) against
    central differences (h = 1e-4) at every weight and bias of 20 nets, each the
    next candidate from the seed on whose hidden preactivations all stay 50 h from
    zero; the worst relative error must lie below 1e-3.  Returns the worst
    error, the number of candidates drawn and the verdict."""
    from bnpmmd.dp import DiscreteMeasure
    spec = gaussian_kernel(2.0)
    h = 1e-4
    worst = 0.0
    checked, first = 0, seed
    while checked < 20:
        rng = np.random.default_rng(seed)
        seed += 1
        net = GeneratorNet.initialize([2, 8, 8, 8, 8, 2], rng)
        atoms = rng.random((30, 2))
        measure = DiscreteMeasure(np.full(30, 1 / 30), atoms)
        U = rng.uniform(-1, 1, (25, 2))
        if _min_preactivation_margin(net, U) < 50 * h:
            continue
        checked += 1
        _, gw, gb, _ = _loss_and_param_grads(net, measure, U, spec, 1e-12)
        for params, grads in ((net.weights, gw), (net.biases, gb)):
            for layer, grad in zip(params, grads):
                flat, gflat = layer.reshape(-1), grad.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = _loss_and_param_grads(net, measure, U, spec, 1e-12)[0]
                    flat[idx] = orig - h
                    lm = _loss_and_param_grads(net, measure, U, spec, 1e-12)[0]
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(gflat[idx] - fd) / max(abs(fd), 1e-10))
    return worst, seed - first, worst < 1e-3


def test_criterion_08_gradient_fidelity():
    started = time.time()
    worst, candidates, ok = criterion_08()
    elapsed = time.time() - started
    ok = ok and elapsed <= 60
    _report(8, "gradient fidelity", ok,
            f"worst relative error {worst:.2e} (<1e-3) over 20 nets "
            f"({candidates} candidates), {elapsed:.0f}s (<=60s)")


def criterion_09(seed=6):
    """ring training ([1,64,64,64,64,2] net, minibatch 256, 2,000 iterations): no
    divergence, held-out MMD^2 at most 0.20 of its value before training, and a
    matching score below that of a uniform noise cloud.  Returns the held-out
    MMD^2 before and after, the two matching scores and the verdict."""
    rng = np.random.default_rng(seed)
    spec = gaussian_mixture()
    data = eight_gaussian_ring(4096, rng)
    held_out = eight_gaussian_ring(1024, rng)
    net = GeneratorNet.initialize([1, 64, 64, 64, 64, 2], rng)
    probe_noise = rng.uniform(-1.0, 1.0, size=(1024, 1))
    before = mmd2_empirical(held_out, generator_forward(net, probe_noise), spec)
    cfg = TrainConfig(minibatch=256, iterations=2000, kernel=spec,
                      checkpoint_every=500, final_step_fraction=0.05)
    net, history = train(net, data, cfg, rng)
    generated = generator_forward(net, probe_noise)
    after = mmd2_empirical(held_out, generated, spec)

    noise_cloud = np.random.default_rng(60).uniform(0.0, 1.0, size=(1024, 2))
    mmds_gen = mmds_score(held_out, generated, 512, 50, spec, np.random.default_rng(61))
    mmds_noise = mmds_score(held_out, noise_cloud, 512, 50, spec, np.random.default_rng(61))
    ok = not history.diverged and after / before <= 0.20 and mmds_gen < mmds_noise
    return before, after, mmds_gen, mmds_noise, ok


def test_criterion_09_generator_training():
    started = time.time()
    before, after, mmds_gen, mmds_noise, ok = criterion_09()
    elapsed = time.time() - started
    ok = ok and elapsed <= 600
    _report(9, "generator training on the ring", ok,
            f"held-out MMD^2 {before:.5f} -> {after:.5f} (ratio {after / before:.3f} <= 0.20), "
            f"MMDS gen {mmds_gen:.5f} < noise {mmds_noise:.5f}, {elapsed:.0f}s (<=600s)")


def test_criterion_10_oracle_equivalences():
    started = time.time()
    rng = np.random.default_rng(15)
    spec = gaussian_kernel(1.3)

    # quadratic estimator against a pairwise double loop
    worst_mmd = 0.0
    for _ in range(100):
        X = rng.standard_normal((7, 2))
        Y = rng.standard_normal((7, 2))
        n, m = 7, 7
        kxx = sum(eval_kernel(spec, X[i], X[j]) for i in range(n) for j in range(n))
        kxy = sum(eval_kernel(spec, X[i], Y[j]) for i in range(n) for j in range(m))
        kyy = sum(eval_kernel(spec, Y[i], Y[j]) for i in range(m) for j in range(m))
        oracle = kxx / n**2 - 2 * kxy / (n * m) + kyy / m**2
        worst_mmd = max(worst_mmd, abs(mmd2_empirical(X, Y, spec) - oracle))
    mmd_ok = worst_mmd <= 1e-10

    # grid AUC against the pairwise half-tie oracle on ratio-lattice scores
    L = 2001
    worst_auc = 0.0
    for _ in range(100):
        h0 = rng.integers(0, 1001, size=rng.integers(5, 40)) * 0.02
        h1 = rng.integers(0, 1001, size=rng.integers(5, 40)) * 0.02
        curve = roc_from_scores(h0, h1, num_thresholds=L)
        pairwise = float(np.mean((h1[None, :] < h0[:, None])
                                 + 0.5 * (h1[None, :] == h0[:, None])))
        worst_auc = max(worst_auc, abs(curve.auc - pairwise))
    auc_ok = worst_auc <= 1 / L + 1e-9

    # quantile/ECDF adjunction on random vectors
    galois_ok = True
    for _ in range(1000):
        v = rng.standard_normal(rng.integers(1, 60))
        p = rng.uniform(1e-6, 1.0)
        galois_ok &= ecdf_eval(v, empirical_quantile(v, p)) >= p
    elapsed = time.time() - started
    ok = mmd_ok and auc_ok and galois_ok and elapsed <= 60
    _report(10, "oracle equivalences", ok,
            f"MMD loop gap {worst_mmd:.1e} (<=1e-10), AUC gap {worst_auc:.5f} "
            f"(<=1/{L}+1e-9), quantile adjunction on 1000 vectors, {elapsed:.0f}s (<=60s)")

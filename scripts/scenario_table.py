"""Desk-scale scenario comparison: mean ratio, strength, and the permutation
baseline for each alternative against the standard-normal model.

Example:
    python scripts/scenario_table.py --d 5 --n 50 --reps 20 --seed 7
"""
import argparse

import numpy as np

from bnpmmd.kernels import gaussian_kernel
from bnpmmd.rb import RBConfig, run_gof_test
from bnpmmd.scenarios import (SCENARIOS, fnp_permutation_test,
                              null_model_sampler, scenario_sampler)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--a", type=float, default=25.0)
    parser.add_argument("--ell", type=int, default=1000)
    parser.add_argument("--sigma", type=float, default=80.0)
    parser.add_argument("--perms", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg = RBConfig(concentration=args.a, mc_reps=args.ell,
                   kernel=gaussian_kernel(args.sigma), resample_model_per_rep=True)
    model = null_model_sampler(args.d)
    rng = np.random.default_rng(args.seed)

    print(f"d={args.d} n={args.n} a={args.a} ell={args.ell} sigma={args.sigma} "
          f"reps={args.reps}")
    print(f"{'scenario':<16}{'mean RB':>9}{'mean Str':>10}{'mean p':>9}")
    for name in SCENARIOS:
        sampler = scenario_sampler(name, args.d)
        rbs, strengths, pvals = [], [], []
        for _ in range(args.reps):
            X = sampler(args.n, rng)
            report = run_gof_test(X, model, cfg, rng)
            rbs.append(report.rb)
            strengths.append(report.strength)
            Y = model(args.n, rng)
            pvals.append(fnp_permutation_test(X, Y, cfg.kernel, args.perms, rng))
        print(f"{name:<16}{np.mean(rbs):>9.2f}{np.mean(strengths):>10.2f}"
              f"{np.mean(pvals):>9.3f}")


if __name__ == "__main__":
    main()

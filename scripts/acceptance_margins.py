"""How much room acceptance criteria 1, 3 and 9 have across seeds.

Runs one seeded criterion of ``tests/test_acceptance.py`` at each seed of a
range, through that file's own ``criterion_01``, ``criterion_03`` or
``criterion_09`` (so the scenario, sizes and pass rule are the ones the
suite checks), and prints the number of seeds that pass.  For the
replication criteria 1 and 3 it also prints the per-seed counts and the
pooled rate; for generator training (9) the per-seed held-out MMD^2 ratio
and the largest one.  A change that consumes the random stream in a new
order can quote these numbers for its parent and for itself.  The
criteria's wall-time bound is not checked.

Example:
    python scripts/acceptance_margins.py --criterion 1 --seeds 0-19
"""
import argparse
import importlib.util
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"
CRITERIA = (1, 3, 9)


def load_acceptance():
    spec = importlib.util.spec_from_file_location("test_acceptance", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--criterion", type=int, choices=CRITERIA, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-19"),
                        help="one seed or an inclusive range such as 0-19")
    args = parser.parse_args()

    criterion = getattr(load_acceptance(), f"criterion_{args.criterion:02d}")
    summary = " ".join(criterion.__doc__.split()).split(". ")[0]
    print(f"criterion {args.criterion}: {summary}")
    report = training_margins if args.criterion == 9 else replication_margins
    report(criterion, args.seeds)


def replication_margins(criterion, seeds):
    print(f"{'seed':>4}{'count':>8}{'mean RB':>9}  pass")
    passed, hits, total = 0, 0, 0
    for seed in seeds:
        rbs, counted, ok = criterion(seed)
        count = int(counted.sum())
        passed += ok
        hits += count
        total += rbs.size
        print(f"{seed:>4}{f'{count}/{rbs.size}':>8}{rbs.mean():>9.3f}  {'yes' if ok else 'no'}",
              flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"pooled: {hits}/{total} ({hits / total:.3f})")


def training_margins(criterion, seeds):
    print(f"{'seed':>4}{'before':>10}{'after':>10}{'ratio':>8}{'MMDS gen':>10}{'noise':>9}  pass")
    passed, worst = 0, 0.0
    for seed in seeds:
        before, after, mmds_gen, mmds_noise, ok = criterion(seed)
        passed += ok
        worst = max(worst, after / before)
        print(f"{seed:>4}{before:>10.5f}{after:>10.5f}{after / before:>8.4f}{mmds_gen:>10.5f}"
              f"{mmds_noise:>9.5f}  {'yes' if ok else 'no'}", flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"largest ratio: {worst:.4f} (bound 0.20)")


if __name__ == "__main__":
    main()

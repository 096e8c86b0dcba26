"""How much room acceptance criteria 1, 2, 3, 5, 6, 8 and 9 have across seeds.

Runs one seeded criterion of ``tests/test_acceptance.py`` at each seed of a
range, through that file's own ``criterion_NN`` helper (so the scenario,
sizes and pass rule are the ones the suite checks), and prints the number
of seeds that pass.  Per seed it also prints:

- criteria 1 and 3: the count of replications on the right side of rb = 1
  and the mean rb, then the pooled rate;
- criterion 2: the mean rb and mean strength with their room below 0.5 and
  0.1, and the AUC (bar 0.95); criterion 5: the two mean rbs (bars: above 1
  with the wrong base, below 1 with the right one); criterion 6: the AUCs
  at sigma = 80 and 2 and their gap (bar 0.1); then the tightest value;
- criterion 8: the worst relative gradient error over its 20 nets and the
  number of candidate nets drawn, then the largest error;
- criterion 9: the held-out MMD^2 ratio, then the largest one.

Each seed's row also gives the wall time of its run, and the last line the
total, so a change that claims a speed-up can quote them next to the margins.
Criteria 2 and 5 draw their second part at seed + 1, as the suite does at
its default seeds.  A change that consumes the random stream in a new order
can quote these numbers for its parent and for itself.  The criteria's
wall-time bound is not checked.

Example:
    python scripts/acceptance_margins.py --criterion 1 --seeds 0-19
"""
import argparse
import importlib.util
import time
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"


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
    parser.add_argument("--criterion", type=int, choices=sorted(REPORTS), required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-19"),
                        help="one seed or an inclusive range such as 0-19")
    args = parser.parse_args()

    criterion = getattr(load_acceptance(), f"criterion_{args.criterion:02d}")
    summary = " ".join(criterion.__doc__.split()).split(". ")[0]
    print(f"criterion {args.criterion}: {summary}")
    started = time.perf_counter()
    REPORTS[args.criterion](criterion, args.seeds)
    print(f"wall time: {time.perf_counter() - started:.1f} s over {len(args.seeds)} seeds")


def timed(criterion, seeds):
    """Each seed with the criterion's result there and the wall time of that run in seconds."""
    for seed in seeds:
        started = time.perf_counter()
        result = criterion(seed)
        yield seed, result, time.perf_counter() - started


def replication_margins(criterion, seeds):
    print(f"{'seed':>4}{'count':>8}{'mean RB':>9}{'time s':>8}  pass")
    passed, hits, total = 0, 0, 0
    for seed, (rbs, counted, ok), seconds in timed(criterion, seeds):
        count = int(counted.sum())
        passed += ok
        hits += count
        total += rbs.size
        print(f"{seed:>4}{f'{count}/{rbs.size}':>8}{rbs.mean():>9.3f}{seconds:>8.1f}  "
              f"{'yes' if ok else 'no'}", flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"pooled: {hits}/{total} ({hits / total:.3f})")


def power_margins(criterion, seeds):
    print(f"{'seed':>4}{'mean RB':>9}{'room':>8}{'mean Str':>10}{'room':>8}{'AUC':>7}{'time s':>8}"
          "  pass")
    passed, worst = 0, [0.0, 0.0, 1.0]
    for seed, (rbs, strengths, auc, ok), seconds in timed(criterion, seeds):
        passed += ok
        worst = [max(worst[0], rbs.mean()), max(worst[1], strengths.mean()), min(worst[2], auc)]
        print(f"{seed:>4}{rbs.mean():>9.3f}{0.5 - rbs.mean():>8.3f}{strengths.mean():>10.3f}"
              f"{0.1 - strengths.mean():>8.3f}{auc:>7.3f}{seconds:>8.1f}  {'yes' if ok else 'no'}",
              flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"largest mean RB {worst[0]:.3f} (bar 0.5), largest mean strength {worst[1]:.3f} "
          f"(bar 0.1), smallest AUC {worst[2]:.3f} (bar 0.95)")


def base_margins(criterion, seeds):
    print(f"{'seed':>4}{'wrong base':>12}{'right base':>12}{'time s':>8}  pass")
    passed, lowest_bad, highest_good = 0, float("inf"), float("-inf")
    for seed, (rbs_bad, rbs_good, ok), seconds in timed(criterion, seeds):
        passed += ok
        lowest_bad = min(lowest_bad, rbs_bad.mean())
        highest_good = max(highest_good, rbs_good.mean())
        print(f"{seed:>4}{rbs_bad.mean():>12.3f}{rbs_good.mean():>12.3f}{seconds:>8.1f}  "
              f"{'yes' if ok else 'no'}", flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"smallest wrong-base mean RB {lowest_bad:.3f} (bar: above 1), "
          f"largest right-base mean RB {highest_good:.3f} (bar: below 1)")


def bandwidth_margins(criterion, seeds):
    print(f"{'seed':>4}{'AUC 80':>8}{'AUC 2':>8}{'gap':>8}{'time s':>8}  pass")
    passed, smallest = 0, float("inf")
    for seed, (auc_80, auc_2, ok), seconds in timed(criterion, seeds):
        passed += ok
        smallest = min(smallest, auc_80 - auc_2)
        print(f"{seed:>4}{auc_80:>8.3f}{auc_2:>8.3f}{auc_80 - auc_2:>8.3f}{seconds:>8.1f}  "
              f"{'yes' if ok else 'no'}", flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"smallest gap: {smallest:.3f} (bar 0.1)")


def gradient_margins(criterion, seeds):
    print(f"{'seed':>6}{'worst error':>13}{'candidates':>12}{'time s':>8}  pass")
    passed, worst = 0, 0.0
    for seed, (error, candidates, ok), seconds in timed(criterion, seeds):
        passed += ok
        worst = max(worst, error)
        print(f"{seed:>6}{error:>13.3e}{candidates:>12}{seconds:>8.1f}  {'yes' if ok else 'no'}",
              flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"largest error: {worst:.3e} (bound 1e-3)")


def training_margins(criterion, seeds):
    print(f"{'seed':>4}{'before':>10}{'after':>10}{'ratio':>8}{'MMDS gen':>10}{'noise':>9}"
          f"{'time s':>8}  pass")
    passed, worst = 0, 0.0
    for seed, (before, after, mmds_gen, mmds_noise, ok), seconds in timed(criterion, seeds):
        passed += ok
        worst = max(worst, after / before)
        print(f"{seed:>4}{before:>10.5f}{after:>10.5f}{after / before:>8.4f}{mmds_gen:>10.5f}"
              f"{mmds_noise:>9.5f}{seconds:>8.1f}  {'yes' if ok else 'no'}", flush=True)
    print(f"seeds passing: {passed}/{len(seeds)}")
    print(f"largest ratio: {worst:.4f} (bound 0.20)")


REPORTS = {1: replication_margins, 2: power_margins, 3: replication_margins,
           5: base_margins, 6: bandwidth_margins, 8: gradient_margins, 9: training_margins}

if __name__ == "__main__":
    main()

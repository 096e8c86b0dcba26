"""The example scripts run end to end at tiny sizes."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnpmmd.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_train_ring_generator(tmp_path):
    lines = run_script("train_ring_generator.py", "--iters", "20", "--out-dir", str(tmp_path))
    assert [line.split(":")[0] for line in lines] == ["held-out MMD^2", "matching score",
                                                      "diverged"]
    assert lines[-1].startswith("diverged: False")
    assert {p.name for p in tmp_path.iterdir()} == {"model.json", "history.csv", "ring.svg"}


def test_scenario_table():
    lines = run_script("scenario_table.py", "--d", "2", "--n", "20", "--reps", "2",
                       "--ell", "40", "--perms", "9")
    assert lines[0].startswith("d=2 n=20 ")
    assert lines[1].split() == ["scenario", "mean", "RB", "mean", "Str", "mean", "p"]
    assert [line.split()[0] for line in lines[2:]] == list(SCENARIOS)


@pytest.mark.parametrize("criterion", ["1", "3"])
def test_acceptance_margins(criterion):
    # seed 0 is not an acceptance seed, so this adds a replication set rather
    # than repeating the one the acceptance suite runs
    lines = run_script("acceptance_margins.py", "--criterion", criterion, "--seeds", "0")
    assert lines[0].startswith(f"criterion {criterion}: ")
    assert lines[2].split()[0] == "0"
    assert lines[3] in ("seeds passing: 0/1", "seeds passing: 1/1")
    assert lines[4].startswith("pooled: ") and lines[4].split()[1].endswith("/20")
    assert_wall_times(lines[2], lines[5])


def assert_wall_times(row, last):
    # each seed's row ends with its wall time before the pass column; the last line totals them
    seconds = float(row.split()[-2])
    total = last.removeprefix("wall time: ").removesuffix(" s over 1 seeds")
    assert last != total and 0.0 < seconds <= float(total) + 0.1


def test_acceptance_margins_training():
    # seed 0 is not an acceptance seed (criterion 9 runs at 6)
    lines = run_script("acceptance_margins.py", "--criterion", "9", "--seeds", "0")
    assert lines[0].startswith("criterion 9: ring training")
    seed, before, _, ratio = lines[2].split()[:4]
    assert seed == "0" and float(before) > 0.0 and 0.0 <= float(ratio) < 1.0
    assert lines[3] in ("seeds passing: 0/1", "seeds passing: 1/1")
    assert lines[4].startswith("largest ratio: ") and lines[4].endswith("(bound 0.20)")
    assert_wall_times(lines[2], lines[5])


def test_acceptance_margins_gradient():
    # seed 0 is not an acceptance seed (criterion 8 starts at 3000)
    lines = run_script("acceptance_margins.py", "--criterion", "8", "--seeds", "0")
    assert lines[0].startswith("criterion 8: gradient fidelity")
    seed, error, candidates = lines[2].split()[:3]
    assert seed == "0" and 0.0 < float(error) < 1e-3 and int(candidates) >= 20
    assert lines[3] == "seeds passing: 1/1"
    assert lines[4] == f"largest error: {error} (bound 1e-3)"
    assert_wall_times(lines[2], lines[5])


def load_margins_script():
    spec = importlib.util.spec_from_file_location("acceptance_margins",
                                                  ROOT / "scripts" / "acceptance_margins.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("criterion, results, last", [
    (2, [(np.array([0.2, 0.4]), np.array([0.05, 0.03]), 0.97, True),
         (np.array([0.1]), np.array([0.01]), 1.0, True)],
     "largest mean RB 0.300 (bar 0.5), largest mean strength 0.040 (bar 0.1), "
     "smallest AUC 0.970 (bar 0.95)"),
    (5, [(np.array([2.0, 1.5]), np.array([0.4, 0.6]), True),
         (np.array([0.9]), np.array([0.3]), False)],
     "smallest wrong-base mean RB 0.900 (bar: above 1), "
     "largest right-base mean RB 0.500 (bar: below 1)"),
    (6, [(1.0, 0.5, True), (0.6, 0.55, False)], "smallest gap: 0.050 (bar 0.1)"),
    (8, [(6.4e-4, 5145, True), (2e-3, 30, False)], "largest error: 2.000e-03 (bound 1e-3)"),
])
def test_acceptance_margins_reports(capsys, criterion, results, last):
    # the slow criteria's reports, fed canned results for seeds 3 and 4
    load_margins_script().REPORTS[criterion](lambda seed: results[seed - 3], range(3, 5))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:3]] == ["3", "4"]
    assert [line.split()[-1] for line in lines[1:3]] == ["yes" if r[-1] else "no" for r in results]
    assert all(0.0 <= float(line.split()[-2]) < 1.0 for line in lines[1:3])
    assert lines[3] == f"seeds passing: {sum(r[-1] for r in results)}/2"
    assert lines[4] == last

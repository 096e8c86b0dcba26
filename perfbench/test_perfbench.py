"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``."""
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics, scipy_import_s  # noqa: E402


def test_smoke_mode_runs_every_workload_with_valid_results():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 6, proc.stdout


def test_tracer_self_time_counts_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda X, Y: types.SimpleNamespace(size=len(X) * len(Y))
    mod.outer = lambda X, Y: [mod.inner(X, Y), mod.inner(X, X)]
    original = (mod.inner, mod.outer)
    patches = [(mod, "outer", "discrepancy.mmd2_weighted", lambda a, k, r: False),
               (mod, "inner", "kernels.gram", lambda a, k, r: r.size)]
    with Tracer(patches) as tracer:
        mod.outer([1, 2], [1, 2, 3])
    assert (mod.inner, mod.outer) == original
    outer = tracer.named("discrepancy.mmd2_weighted")[0]
    inner = tracer.named("kernels.gram")
    assert all(s.parent == outer.id and s.op == outer.op for s in inner)
    assert abs(outer.self_s - (outer.duration - sum(s.duration for s in inner))) < 1e-12
    metrics = layer_metrics(tracer.spans)
    assert metrics["kernels.gram.calls"] == 2
    assert metrics["kernels.gram.pairs"] == 6 + 4
    assert metrics["discrepancy.mmd2_weighted.calls"] == 1
    assert metrics["discrepancy.yy_reuse_ratio"] == 0.0


def test_scipy_import_time_sums_top_level_scipy_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy.spatial",
        "import time:        10 |        760 |   bnpmmd.kernels",
        "import time:       300 |        300 |   scipy.stats",
        "import time:         5 |       1065 | bnpmmd",
    ])
    assert scipy_import_s(stderr) == (300 + 450 + 300) / 1e6

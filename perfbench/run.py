#!/usr/bin/env python3
"""Benchmark of bnpmmd's three uses: one RB test (gof), a ROC study (roc)
and ring generator training (train).

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload gof --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics and ``--trace 1`` the
per-layer metrics, from spans recorded around the package's layers (see
``spans.py``).  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is the result as one JSON object; a copy with
the environment it ran in is written to ``.perfbench_out/``.

``python3 perfbench/run.py --smoke`` runs every workload at tiny sizes in
both modes and checks that each result has the schema and metric names
that ``BENCHMARK.json`` lists.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SETUP_PROBES = 8
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 120
SMOKE_TIMEOUT_S = 170


def load_spec() -> dict:
    if not (SRC / "bnpmmd" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'bnpmmd'}; run from a full checkout")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_package():
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message="concentration")
    import bnpmmd
    if Path(bnpmmd.__file__).resolve().parent != SRC / "bnpmmd":
        raise SystemExit(f"error: imported bnpmmd from {bnpmmd.__file__}, not from {SRC}")


def make_workload(name: str, seed: int, sizes: str):
    import bnpmmd.cli  # noqa: F401  (set-up time includes the CLI import)
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, getattr(workloads, sizes.upper()), OUT_DIR)


def _run_probe(cmd: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd} failed:\n{proc.stderr}")
    return proc


def setup_probe(args):
    """A callable that times one fresh interpreter importing the CLI and building inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--sizes", args.sizes]

    def probe() -> float:
        started = time.monotonic()
        return float(_run_probe(cmd).stdout.split()[-1]) - started
    return probe


def measure_scipy_import() -> float:
    from spans import scipy_import_s
    cmd = [sys.executable, "-X", "importtime", "-c", "import bnpmmd.cli"]
    return statistics.median(scipy_import_s(_run_probe(cmd).stderr)
                             for _ in range(IMPORTTIME_PROBES))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or f"unknown ({proc.stderr.strip()})"


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:
        blas = {"error": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "loadavg_at_start": list(loadavg),
    }


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def run_end_to_end(wl, seconds: float, probe_setup) -> tuple[dict, int, int, dict]:
    """Run ops for ``seconds``, with ``SETUP_PROBES`` set-up probes spread between them.

    The probes' time is not counted in the run.  Set-up time is the fastest
    probe: host noise only adds time, and spreading the probes over the run
    keeps one slow spell of the host from covering all of them.
    """
    import resource
    from spans import Tracer
    latencies, attempted, failed, units, wall = [], 0, 0, 0, 0.0
    setup_times, probing_s = [], 0.0
    with Tracer(wl.clock) as tracer:
        wl.warm_up()
        started = time.perf_counter()
        ops = 0
        while ops == 0 or time.perf_counter() - started - probing_s < seconds:
            if (len(setup_times) < SETUP_PROBES and len(setup_times) * seconds / SETUP_PROBES
                    <= time.perf_counter() - started - probing_s):
                probe_started = time.perf_counter()
                setup_times.append(probe_setup())
                probing_s += time.perf_counter() - probe_started
            tracer.spans.clear()
            r = wl.op(ops, tracer)
            ops += 1
            latencies += r.latencies_s
            attempted += r.attempted
            failed += r.failed
            units += r.units
            wall += r.wall_s
    setup_times += [probe_setup() for _ in range(SETUP_PROBES - len(setup_times))]
    values = {
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "op_p90_ms": 1e3 * nearest_rank(latencies, 0.9) if latencies else 0.0,
        "ops_per_s": units / wall,
    }
    details = {"ops": ops, "latency_samples": len(latencies), "units": units,
               "measured_wall_s": wall, "setup_probes_s": setup_times,
               "latencies_ms": [1e3 * t for t in latencies]}
    return values, attempted, failed, details


def run_traced(wl, seconds: float) -> tuple[dict, int, int, dict, list]:
    """Alternate clock-only and fully traced rounds of the same ops for ``seconds``.

    A round is the workload's first ``ROUND_OPS`` ops, so every round does
    the same work and the exact counts must repeat from round to round.
    """
    from spans import EXACT_COUNTS, OP_ROOTS, Tracer, layer_metrics, layer_patches
    patches = layer_patches()
    rounds, plain_s, traced_s = [], [], []
    attempted = failed = 0
    last_spans = []
    wl.warm_up()
    started = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - started < seconds:
        for round_patches, walls in ((wl.clock, plain_s), (patches, traced_s)):
            with Tracer(round_patches, OP_ROOTS) as tracer:
                t0 = time.perf_counter()
                for i in range(wl.ROUND_OPS):
                    r = wl.op(i, tracer)
                    attempted += r.attempted
                    failed += r.failed
                walls.append(time.perf_counter() - t0)
        rounds.append(layer_metrics(tracer.spans))
        last_spans = tracer.spans
    mismatched = [k for k in EXACT_COUNTS if any(r[k] != rounds[0][k] for r in rounds)]
    for k in mismatched:
        print(f"count {k} differs between rounds: {[r[k] for r in rounds]}", file=sys.stderr)
    values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    values["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    details = {"rounds": len(rounds), "round_ops": wl.ROUND_OPS, "plain_round_s": plain_s,
               "traced_round_s": traced_s, "counts_repeat": not mismatched,
               "counts": {k: rounds[0][k] for k in EXACT_COUNTS}}
    return values, attempted, failed, details, last_spans


def result_metrics(values: dict, specs: list[dict]) -> dict:
    names = [m["name"] for m in specs]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in specs}


def validate_result(result, specs: list[dict]) -> list[str]:
    """Problems with one result object against the metric list it should carry."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    units = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry is not {{value, unit}}")
        elif entry["unit"] != units.get(name):
            problems.append(f"{name}: unit {entry['unit']!r}, want {units.get(name)!r}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry['value']!r} is not a finite number")
    return problems


def smoke(spec: dict) -> int:
    """Every workload at tiny sizes in both trace modes, each result validated."""
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--sizes", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SMOKE_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
            else:
                try:
                    result = json.loads(lines[-1])
                except json.JSONDecodeError as exc:
                    problems = [f"last line is not JSON: {exc}"]
                else:
                    specs = spec["per_layer"] if trace else spec["end_to_end"]
                    problems = validate_result(result, specs)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
    return 1 if failures else 0


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("full", "smoke"), default="full")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny sizes and validate the results")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.smoke:
        return smoke(spec)
    if args.setup_probe:
        import_package()
        make_workload(args.workload, args.seed, args.sizes)
        print(time.monotonic())
        return 0

    import_package()
    wl = make_workload(args.workload, args.seed, args.sizes)
    if args.trace:
        values, attempted, failed, details, spans = run_traced(wl, args.seconds)
        values["cli.import.scipy_s"] = measure_scipy_import()
        specs = spec["per_layer"]
        correct = failed == 0 and details["counts_repeat"]
    else:
        values, attempted, failed, details = run_end_to_end(wl, args.seconds, setup_probe(args))
        specs = spec["end_to_end"]
        correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics(values, specs)}

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from spans import write_spans
        write_spans(stem.with_suffix(".spans.jsonl.gz"), spans)
    env = environment(loadavg)
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "sizes": args.sizes, "env": env, "details": details,
         "result": result}, indent=2) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

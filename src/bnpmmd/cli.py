"""Command-line entry point: seeded, reproducible runs with manifest sidecars.

Subcommands: gof-test, roc, mmd, dp-sample, gan-train, gan-score,
bandwidth-sweep.  Every run that writes files also writes a JSON manifest
next to the first output; re-running the manifest's argv reproduces the
outputs byte for byte.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dp import DEFAULT_MAX_TERMS, sample_dp_prior, sample_stick_breaking, stopping_rule_N
from .discrepancy import mmd2_empirical
from .errors import InvalidInputError, InvalidParameterError
from .gan import GeneratorNet, TrainConfig, generator_forward, mmds_score, train
from .idx import load_idx_images
from .kernels import format_kernel, gaussian_kernel, parse_kernel
from .rb import RBConfig, run_gof_test
from .scenarios import SCENARIOS, ScenarioSpec, run_roc_study, scenario_sampler

SEED_ENV_VAR = "BNPMMD_SEED"
FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % x


# ---------------------------------------------------------------------------
# I/O helpers


def read_matrix(path: str, header: bool) -> np.ndarray:
    if path.endswith(".idx") or path.endswith(".idx3-ubyte") or path.endswith("-ubyte"):
        X = load_idx_images(path)
    else:
        X = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{path}: non-finite values (NaN or inf) in input")
    return X


def write_matrix(path, X: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(X), delimiter=",", fmt=FLOAT_FMT)


def write_manifest(command: str, argv: list[str], config: dict, seed: int,
                   outputs: list[str], started: float) -> None:
    if not outputs:
        return
    primary = Path(outputs[0])
    manifest = {
        "command": command,
        "argv": list(argv),
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "wall_time_s": time.time() - started,
        "outputs": [str(o) for o in outputs],
    }
    path = primary.with_name(primary.stem + ".manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def write_roc_svg(path, fpr: np.ndarray, tpr: np.ndarray) -> None:
    """Minimal hand-rolled SVG: the ROC polyline over a diagonal reference."""
    size, margin = 400, 40
    span = size - 2 * margin

    def px(x: float) -> float:
        return margin + x * span

    def py(y: float) -> float:
        return size - margin - y * span

    xs = np.concatenate([[0.0], fpr, [1.0]])
    ys = np.concatenate([[0.0], tpr, [1.0]])
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="black"/>',
        f'<line x1="{px(0):.2f}" y1="{py(0):.2f}" x2="{px(1):.2f}" y2="{py(1):.2f}" '
        'stroke="red" stroke-dasharray="6,4"/>',
        f'<polyline points="{points}" fill="none" stroke="blue" stroke-width="1.5"/>',
        f'<text x="{size / 2:.0f}" y="{size - 8}" text-anchor="middle" '
        'font-size="13">false positive rate</text>',
        f'<text x="12" y="{size / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 12 {size / 2:.0f})">true positive rate</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def rb_config_from_args(args, kernel, model_size: int | None = None) -> RBConfig:
    return RBConfig(
        concentration=args.a,
        mc_reps=args.ell,
        grid_cells=args.M,
        anchor_cell=args.i0,
        kernel=kernel,
        truncation_epsilon=args.eps if args.n_terms is None else None,
        explicit_terms=args.n_terms,
        model_size=model_size,
        resample_model_per_rep=args.resample_model,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_gof_test(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    rng = np.random.default_rng(seed)
    data = read_matrix(args.data, args.header)
    kernel = parse_kernel(args.kernel)
    cfg = rb_config_from_args(args, kernel, model_size=args.m)
    model = scenario_sampler(args.model, data.shape[1])
    base = scenario_sampler(args.base, data.shape[1]) if args.base else None
    report = run_gof_test(data, model, cfg, rng, base_sampler=base)

    payload = {
        "rb": report.rb,
        "strength": report.strength,
        "decision": report.decision,
        "n_terms": report.n_terms,
        "n_terms_clamped": report.n_terms_clamped,
        "n": data.shape[0],
        "d": data.shape[1],
        "model": args.model,
        "a": args.a,
        "ell": args.ell,
        "M": args.M,
        "i0": args.i0,
        "kernel": format_kernel(kernel),
        "seed": seed,
        "prior_summary": _summary(report.prior_samples),
        "posterior_summary": _summary(report.posterior_samples),
    }
    outputs = []
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        outputs.append(args.out)
    else:
        print(json.dumps(payload, indent=2))
    if args.samples_out:
        write_matrix(args.samples_out,
                     np.column_stack([report.prior_samples, report.posterior_samples]))
        outputs.append(args.samples_out)
    print(f"rb={fmt(report.rb)} strength={fmt(report.strength)} decision={report.decision}")
    write_manifest("gof-test", argv, payload, seed, outputs, started)
    return 0


def _summary(v: np.ndarray) -> dict:
    return {"mean": float(np.mean(v)), "sd": float(np.std(v)),
            "min": float(np.min(v)), "max": float(np.max(v))}


def cmd_roc(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    rng = np.random.default_rng(seed)
    kernel = parse_kernel(args.kernel)
    cfg = rb_config_from_args(args, kernel)
    null_spec = ScenarioSpec(args.null, args.d, args.n)
    alt_spec = ScenarioSpec(args.alt, args.d, args.n)
    curve = run_roc_study(null_spec, alt_spec, cfg, args.reps, rng,
                          num_thresholds=args.thresholds)

    rows = np.column_stack([curve.thresholds, curve.fpr, curve.tpr])
    write_matrix(args.out, rows)
    outputs = [args.out]
    if args.svg:
        write_roc_svg(args.svg, curve.fpr, curve.tpr)
        outputs.append(args.svg)
    print(f"auc={fmt(curve.auc)} excluded={curve.excluded}")
    config = {"null": args.null, "alt": args.alt, "d": args.d, "n": args.n,
              "reps": args.reps, "a": args.a, "ell": args.ell, "M": args.M,
              "i0": args.i0, "kernel": format_kernel(kernel),
              "resample_model": args.resample_model,
              "thresholds": args.thresholds, "auc": curve.auc,
              "excluded": curve.excluded}
    write_manifest("roc", argv, config, seed, outputs, started)
    return 0


def cmd_mmd(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    X = read_matrix(args.x, args.header)
    Y = read_matrix(args.y, args.header)
    kernel = parse_kernel(args.kernel)
    from .kernels import resolve_median
    kernel = resolve_median(kernel, X, Y)
    value = mmd2_empirical(X, Y, kernel)
    print(fmt(value))
    outputs = []
    if args.out:
        Path(args.out).write_text(fmt(value) + "\n")
        outputs.append(args.out)
    write_manifest("mmd", argv, {"x": args.x, "y": args.y,
                                 "kernel": format_kernel(kernel), "value": value},
                   seed, outputs, started)
    return 0


def cmd_dp_sample(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    rng = np.random.default_rng(seed)
    base = scenario_sampler(args.base, args.d)
    if args.method == "stick":
        if args.n_terms is None:
            raise InvalidParameterError("stick-breaking sampling needs an explicit --n-terms")
        measure = sample_stick_breaking(args.a, base, args.n_terms, rng)
        n_terms = args.n_terms
    else:
        n_terms = args.n_terms
        if n_terms is None:
            n_terms = stopping_rule_N(args.a, args.eps, DEFAULT_MAX_TERMS, rng).n_terms
        measure = sample_dp_prior(args.a, base, n_terms, rng)
    rows = np.column_stack([measure.weights, measure.atoms])
    write_matrix(args.out, rows)
    print(f"n_terms={n_terms}")
    write_manifest("dp-sample", argv,
                   {"a": args.a, "d": args.d, "base": args.base, "method": args.method,
                    "n_terms": n_terms}, seed, [args.out], started)
    return 0


def cmd_gan_train(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    rng = np.random.default_rng(seed)
    dataset = read_matrix(args.data, args.header)
    kernel = parse_kernel(args.kernel)
    hidden = [int(h) for h in args.hidden.split(",") if h]
    dims = [args.noise_dim] + hidden + [dataset.shape[1]]
    net = GeneratorNet.initialize(dims, rng)
    cfg = TrainConfig(minibatch=args.batch, iterations=args.iters, kernel=kernel,
                      truncation_epsilon=args.eps, step_size=args.step,
                      checkpoint_every=args.checkpoint_every)
    net, history = train(net, dataset, cfg, rng)

    with open(args.out, "w") as fh:
        json.dump(net.to_dict(), fh)
        fh.write("\n")
    outputs = [args.out]
    if args.history:
        write_matrix(args.history,
                     np.column_stack([np.arange(history.loss.size), history.loss,
                                      history.grad_norm]))
        outputs.append(args.history)
    status = "diverged" if history.diverged else "ok"
    print(f"status={status} final_loss={fmt(history.loss[-1])} "
          f"iterations={history.loss.size}")
    write_manifest("gan-train", argv,
                   {"data": args.data, "hidden": hidden, "noise_dim": args.noise_dim,
                    "iters": args.iters, "batch": args.batch,
                    "kernel": format_kernel(kernel), "eps": args.eps,
                    "step": args.step, "status": status}, seed, outputs, started)
    return 0


def cmd_gan_score(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    rng = np.random.default_rng(seed)
    real = read_matrix(args.real, args.header)
    with open(args.model) as fh:
        net = GeneratorNet.from_dict(json.load(fh))
    noise = rng.uniform(-1.0, 1.0, size=(real.shape[0], net.noise_dim))
    generated = generator_forward(net, noise)
    kernel = parse_kernel(args.kernel)
    score = mmds_score(real, generated, args.nmb, args.rmb, kernel, rng)
    if not np.isfinite(score):
        raise InvalidInputError(f"{args.model}: matching score is {score}; "
                                "the generator's output is not finite")
    print(fmt(score))
    outputs = []
    if args.out:
        Path(args.out).write_text(fmt(score) + "\n")
        outputs.append(args.out)
    write_manifest("gan-score", argv,
                   {"real": args.real, "model": args.model, "nmb": args.nmb,
                    "rmb": args.rmb, "kernel": format_kernel(kernel), "score": score},
                   seed, outputs, started)
    return 0


def cmd_bandwidth_sweep(args, argv) -> int:
    started = time.time()
    seed = resolve_seed(args)
    root = np.random.default_rng(seed)
    null_spec = ScenarioSpec(args.null, args.d, args.n)
    alt_spec = ScenarioSpec(args.alt, args.d, args.n)
    sigmas = [s.strip() for s in args.sigmas.split(",") if s.strip()]
    lines = []
    results = {}
    for sig in sigmas:
        kernel = gaussian_kernel(None if sig == "median" else float(sig))
        cfg = rb_config_from_args(args, kernel)
        rng = np.random.default_rng(root.bit_generator.seed_seq.spawn(1)[0])
        curve = run_roc_study(null_spec, alt_spec, cfg, args.reps, rng,
                              num_thresholds=args.thresholds)
        results[sig] = curve.auc
        lines.append(f"{sig},{fmt(curve.auc)}")
        print(f"sigma={sig} auc={fmt(curve.auc)}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    write_manifest("bandwidth-sweep", argv,
                   {"null": args.null, "alt": args.alt, "d": args.d, "n": args.n,
                    "reps": args.reps, "resample_model": args.resample_model,
                    "auc": results}, seed, [args.out], started)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_rb_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=25.0, help="prior concentration")
    p.add_argument("--ell", type=int, default=1000, help="Monte Carlo draws per ECDF")
    p.add_argument("--M", type=int, default=20, help="quantile grid cells")
    p.add_argument("--i0", type=int, default=1, help="anchor cell of the ratio")
    p.add_argument("--eps", type=float, default=1e-3, help="random-truncation threshold")
    p.add_argument("--n-terms", type=int, default=None, dest="n_terms",
                   help="fixed truncation level (overrides --eps)")
    p.add_argument("--kernel", default="gaussian:80")
    p.add_argument("--resample-model", action="store_true", dest="resample_model",
                   help="redraw the model sample for every Monte Carlo draw")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bnpmmd",
                                     description="Weighted-bootstrap MMD testing and training tools")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gof-test", help="relative-belief goodness-of-fit test")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help=f"one of {', '.join(SCENARIOS)}")
    p.add_argument("--base", default=None, help="override base measure (defaults to the model)")
    _add_common_rb_flags(p)
    p.add_argument("--m", type=int, default=None, help="model sample size (default n)")
    p.add_argument("--header", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--samples-out", default=None, dest="samples_out",
                   help="CSV of prior/posterior Monte Carlo draws")
    p.set_defaults(func=cmd_gof_test)

    p = sub.add_parser("roc", help="ROC/AUC replication study of the test")
    p.add_argument("--null", required=True)
    p.add_argument("--alt", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    _add_common_rb_flags(p)
    p.add_argument("--thresholds", type=int, default=401)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV of threshold,fpr,tpr")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("mmd", help="empirical squared MMD between two CSV matrices")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kernel", default="gaussian:80")
    p.add_argument("--header", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mmd)

    p = sub.add_parser("dp-sample", help="emit one weighted-measure draw as CSV")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--base", default="no_difference")
    p.add_argument("--method", choices=["dirichlet", "stick"], default="dirichlet")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--n-terms", type=int, default=None, dest="n_terms")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dp_sample)

    p = sub.add_parser("gan-train", help="train the MLP generator on CSV or IDX data")
    p.add_argument("--data", required=True)
    p.add_argument("--hidden", default="64,64,64,64")
    p.add_argument("--noise-dim", type=int, default=10, dest="noise_dim")
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--kernel", default="mix:gaussian:2,5,10,20,40,80")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--checkpoint-every", type=int, default=200, dest="checkpoint_every")
    p.add_argument("--header", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--history", default=None, help="CSV of iteration,loss,grad_norm")
    p.set_defaults(func=cmd_gan_train)

    p = sub.add_parser("gan-score", help="matching score of a trained generator")
    p.add_argument("--real", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--nmb", type=int, default=100)
    p.add_argument("--rmb", type=int, default=50)
    p.add_argument("--kernel", default="mix:gaussian:2,5,10,20,40,80")
    p.add_argument("--header", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gan_score)

    p = sub.add_parser("bandwidth-sweep", help="AUC of the test across bandwidths")
    p.add_argument("--null", required=True)
    p.add_argument("--alt", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigmas", default="2,5,10,20,40,80,median")
    p.add_argument("--reps", type=int, default=20)
    _add_common_rb_flags(p)
    p.add_argument("--thresholds", type=int, default=401)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV of sigma,auc")
    p.set_defaults(func=cmd_bandwidth_sweep)
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; 0 on success, 2 on usage errors, 1 on runtime errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args, argv)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line entry point: seeded, reproducible runs with manifest sidecars.

Subcommands: gof-test, roc, mmd, dp-sample, gan-train, gan-score,
bandwidth-sweep.  ``dispatch`` gives each run its seed, its generator and
its clock; every run that writes files also gets a JSON manifest next to the
first output, and re-running the manifest's argv reproduces the outputs byte
for byte.
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
from .errors import InvalidInputError, InvalidParameterError, as_sample
from .gan import GeneratorNet, TrainConfig, generator_forward, mmds_score, train
from .idx import load_idx_images
from .kernels import format_kernel, gaussian_mixture, parse_kernel, resolve_median
from .rb import RBConfig, run_gof_test
from .scenarios import (DEFAULT_NUM_THRESHOLDS, SCENARIOS, ScenarioSpec, run_roc_study,
                        scenario_sampler)

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
    return as_sample(X, path)


def write_matrix(path, X: np.ndarray) -> None:
    np.savetxt(path, X, delimiter=",", fmt=FLOAT_FMT)


def write_json(path, obj, indent: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent)
        fh.write("\n")


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
    write_json(primary.with_name(primary.stem + ".manifest.json"), manifest, indent=2)


def resolve_seed(args) -> int:
    """``--seed``, else ``$BNPMMD_SEED``, else 0; a bad value raises naming its source."""
    source, text = ("--seed", args.seed) if args.seed is not None else (
        SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR) or 0)
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise InvalidParameterError(f"{source} must be a non-negative integer, got {text!r}")
    return seed


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
# subcommands: each takes the parsed args and the run's generator and returns
# (results, outputs); ``dispatch`` writes the manifest, whose config is every
# parsed setting updated with the results


def cmd_gof_test(args, rng) -> tuple[dict, list[str]]:
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
        "seed": args.seed,
        "prior_summary": _summary(report.prior_samples),
        "posterior_summary": _summary(report.posterior_samples),
    }
    outputs = []
    if args.out:
        write_json(args.out, payload, indent=2)
        outputs.append(args.out)
    else:
        print(json.dumps(payload, indent=2))
    if args.samples_out:
        write_matrix(args.samples_out,
                     np.column_stack([report.prior_samples, report.posterior_samples]))
        outputs.append(args.samples_out)
    print(f"rb={fmt(report.rb)} strength={fmt(report.strength)} decision={report.decision}")
    return payload, outputs


def _summary(v: np.ndarray) -> dict:
    return {"mean": float(np.mean(v)), "sd": float(np.std(v)),
            "min": float(np.min(v)), "max": float(np.max(v))}


def cmd_roc(args, rng) -> tuple[dict, list[str]]:
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
    return {"kernel": format_kernel(kernel), "auc": curve.auc, "excluded": curve.excluded}, outputs


def cmd_mmd(args, rng) -> tuple[dict, list[str]]:
    X = read_matrix(args.x, args.header)
    Y = read_matrix(args.y, args.header)
    kernel = resolve_median(parse_kernel(args.kernel), X, Y)
    value = mmd2_empirical(X, Y, kernel)
    print(fmt(value))
    outputs = []
    if args.out:
        Path(args.out).write_text(fmt(value) + "\n")
        outputs.append(args.out)
    return {"kernel": format_kernel(kernel), "value": value}, outputs


def cmd_dp_sample(args, rng) -> tuple[dict, list[str]]:
    base = scenario_sampler(args.base, args.d)
    n_terms = args.n_terms
    if n_terms is None:
        if args.method == "stick":
            raise InvalidParameterError("stick-breaking sampling needs an explicit --n-terms")
        n_terms = stopping_rule_N(args.a, args.eps, DEFAULT_MAX_TERMS, rng).n_terms
    sample = sample_stick_breaking if args.method == "stick" else sample_dp_prior
    measure = sample(args.a, base, n_terms, rng)
    rows = np.column_stack([measure.weights, measure.atoms])
    write_matrix(args.out, rows)
    print(f"n_terms={n_terms}")
    return {"n_terms": n_terms}, [args.out]


def cmd_gan_train(args, rng) -> tuple[dict, list[str]]:
    dataset = read_matrix(args.data, args.header)
    kernel = parse_kernel(args.kernel)
    try:
        hidden = [int(h) for h in args.hidden.split(",") if h]
    except ValueError:
        raise InvalidParameterError(f"--hidden takes comma-separated layer widths, "
                                    f"got {args.hidden!r}") from None
    dims = [args.noise_dim] + hidden + [dataset.shape[1]]
    net = GeneratorNet.initialize(dims, rng)
    cfg = TrainConfig(minibatch=args.batch, iterations=args.iters, kernel=kernel,
                      truncation_epsilon=args.eps, step_size=args.step,
                      checkpoint_every=args.checkpoint_every)
    net, history = train(net, dataset, cfg, rng)

    write_json(args.out, net.to_dict())
    outputs = [args.out]
    if args.history:
        write_matrix(args.history,
                     np.column_stack([np.arange(history.loss.size), history.loss,
                                      history.grad_norm]))
        outputs.append(args.history)
    status = "diverged" if history.diverged else "ok"
    print(f"status={status} final_loss={fmt(history.loss[-1])} "
          f"iterations={history.loss.size}")
    return {"hidden": hidden, "kernel": format_kernel(kernel), "status": status}, outputs


def cmd_gan_score(args, rng) -> tuple[dict, list[str]]:
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
    return {"kernel": format_kernel(kernel), "score": score}, outputs


def cmd_bandwidth_sweep(args, root) -> tuple[dict, list[str]]:
    null_spec = ScenarioSpec(args.null, args.d, args.n)
    alt_spec = ScenarioSpec(args.alt, args.d, args.n)
    sigmas = [s.strip() for s in args.sigmas.split(",") if s.strip()]
    if not sigmas:
        raise InvalidParameterError(f"--sigmas {args.sigmas!r} lists no bandwidth")
    kernels = []
    for sig in sigmas:
        try:
            kernel = parse_kernel(f"gaussian:{sig}")
        except InvalidParameterError as err:
            raise InvalidParameterError(f"--sigmas takes bandwidths or 'median', got {sig!r} "
                                        f"({err})") from None
        if kernel in kernels:
            raise InvalidParameterError(f"--sigmas repeats the bandwidth {sig!r}")
        kernels.append(kernel)
    results = {}
    for sig, kernel in zip(sigmas, kernels):
        cfg = rb_config_from_args(args, kernel)
        rng = np.random.default_rng(root.bit_generator.seed_seq.spawn(1)[0])
        curve = run_roc_study(null_spec, alt_spec, cfg, args.reps, rng,
                              num_thresholds=args.thresholds)
        results[sig] = curve.auc
        print(f"sigma={sig} auc={fmt(curve.auc)}")
        # written as each sigma finishes, so a later sigma that fails keeps the earlier rows
        with open(args.out, "a" if len(results) > 1 else "w") as fh:
            fh.write(f"{sig},{fmt(curve.auc)}\n")
    return {"auc": results}, [args.out]


# ---------------------------------------------------------------------------
# parser


def _add_common_rb_flags(p: argparse.ArgumentParser) -> None:
    rb = RBConfig()
    p.add_argument("--a", type=float, default=rb.concentration, help="prior concentration")
    p.add_argument("--ell", type=int, default=rb.mc_reps, help="Monte Carlo draws per ECDF")
    p.add_argument("--M", type=int, default=rb.grid_cells, help="quantile grid cells")
    p.add_argument("--i0", type=int, default=rb.anchor_cell, help="anchor cell of the ratio")
    p.add_argument("--eps", type=float, default=rb.truncation_epsilon, help="truncation threshold")
    p.add_argument("--n-terms", type=int, default=None, dest="n_terms",
                   help="fixed truncation level (overrides --eps)")
    p.add_argument("--resample-model", action="store_true", dest="resample_model",
                   help="redraw the model sample for every Monte Carlo draw")


def _add_study_flags(p: argparse.ArgumentParser, reps: int) -> None:
    """Scenario pair, sizes and ROC grid shared by ``roc`` and ``bandwidth-sweep``."""
    p.add_argument("--null", required=True)
    p.add_argument("--alt", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=reps)
    p.add_argument("--thresholds", type=int, default=DEFAULT_NUM_THRESHOLDS,
                   help="ROC grid points (>= 2)")
    _add_common_rb_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bnpmmd",
                                     description="Weighted-bootstrap MMD testing and training tools")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help=f"run seed (default: ${SEED_ENV_VAR}, then 0)")

    p = sub.add_parser("gof-test", parents=[seeded], help="relative-belief goodness-of-fit test")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help=f"one of {', '.join(SCENARIOS)}")
    p.add_argument("--base", default=None, help="override base measure (defaults to the model)")
    _add_common_rb_flags(p)
    p.add_argument("--kernel", default=format_kernel(RBConfig().kernel))
    p.add_argument("--m", type=int, default=None, help="model sample size (default n)")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--samples-out", default=None, dest="samples_out",
                   help="CSV of prior/posterior Monte Carlo draws")
    p.set_defaults(func=cmd_gof_test)

    p = sub.add_parser("roc", parents=[seeded], help="ROC/AUC replication study of the test")
    _add_study_flags(p, reps=100)
    p.add_argument("--kernel", default=format_kernel(RBConfig().kernel))
    p.add_argument("--out", required=True, help="CSV of threshold,fpr,tpr")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("mmd", parents=[seeded],
                       help="empirical squared MMD between two CSV matrices")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kernel", default="gaussian:80")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mmd)

    p = sub.add_parser("dp-sample", parents=[seeded], help="emit one weighted-measure draw as CSV")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--base", default="no_difference")
    p.add_argument("--method", choices=["dirichlet", "stick"], default="dirichlet")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--n-terms", type=int, default=None, dest="n_terms")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dp_sample)

    p = sub.add_parser("gan-train", parents=[seeded],
                       help="train the MLP generator on CSV or IDX data")
    p.add_argument("--data", required=True)
    p.add_argument("--hidden", default="64,64,64,64")
    p.add_argument("--noise-dim", type=int, default=10, dest="noise_dim")
    cfg = TrainConfig()
    p.add_argument("--iters", type=int, default=cfg.iterations)
    p.add_argument("--batch", type=int, default=cfg.minibatch)
    p.add_argument("--kernel", default=format_kernel(cfg.kernel))
    p.add_argument("--eps", type=float, default=cfg.truncation_epsilon)
    p.add_argument("--step", type=float, default=cfg.step_size)
    p.add_argument("--checkpoint-every", type=int, default=cfg.checkpoint_every, dest="checkpoint_every")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--history", default=None, help="CSV of iteration,loss,grad_norm")
    p.set_defaults(func=cmd_gan_train)

    p = sub.add_parser("gan-score", parents=[seeded], help="matching score of a trained generator")
    p.add_argument("--real", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--nmb", type=int, default=100)
    p.add_argument("--rmb", type=int, default=50)
    p.add_argument("--kernel", default=format_kernel(gaussian_mixture()))
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gan_score)

    p = sub.add_parser("bandwidth-sweep", parents=[seeded],
                       help="AUC of the test across Gaussian bandwidths")
    _add_study_flags(p, reps=20)
    p.add_argument("--sigmas", default=format_kernel(gaussian_mixture()).split(":")[-1] + ",median",
                   help="Gaussian bandwidths, 'median' for the median heuristic")
    p.add_argument("--out", required=True, help="CSV of sigma,auc")
    p.set_defaults(func=cmd_bandwidth_sweep)
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand in its run frame: seed, generator, clock and manifest.

    Returns 0 on success, 2 on usage errors and 1 on runtime errors.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.time()
    try:
        args.seed = resolve_seed(args)
        results, outputs = args.func(args, np.random.default_rng(args.seed))
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        write_manifest(args.command, argv, {**config, **results}, args.seed, outputs, started)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

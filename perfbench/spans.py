"""Span tracing around the module attributes that bnpmmd's layers call through.

A :class:`Tracer` replaces module attributes (for example
``discrepancy.gram``) with wrappers that record one span per call: name,
start, end, parent span, thread and op id.  Spans stay in memory; the
per-layer metrics are computed from them after a round, and the spans of
the last round are written out at the end of the run.  Nothing here changes
the package: the original attributes are restored when the tracer exits.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import re
import statistics
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "thread", "op", "start", "end", "child_s", "info")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # children run on the span's own thread, one after another, so their
        # summed durations are the part of the interval they cover
        return self.end - self.start - self.child_s


class Tracer:
    """Records a span around every call of the patched attributes.

    ``patches`` holds ``(module, attribute, span name, info)`` rows, where
    ``info(args, kwargs, result)`` returns a value kept with the span, or
    is None.  A span whose name is in ``op_roots``, or that has no parent
    on its thread, starts a new op id; other spans inherit their parent's.
    Use as a context manager: the attributes are patched on entry and
    restored on exit.
    """

    def __init__(self, patches, op_roots=()):
        self.patches = list(patches)
        self.op_roots = frozenset(op_roots)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._saved = []

    def __enter__(self) -> "Tracer":
        for module, attr, name, info in self.patches:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, info))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def named(self, name: str, since: int = 0) -> list[Span]:
        return [s for s in self.spans[since:] if s.name == name]

    def _wrap(self, name, fn, info):
        local = self._local
        ids, ops, spans = self._ids, self._ops, self.spans
        is_root = name in self.op_roots

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span()
            span.id = next(ids)
            span.name = name
            span.parent = -1 if parent is None else parent.id
            span.thread = threading.get_ident()
            span.op = next(ops) if is_root or parent is None else parent.op
            span.child_s = 0.0
            span.info = None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced


def layer_patches():
    """Every layer boundary the per-layer metrics need, as Tracer patch rows.

    Each layer is patched where its caller looks it up: ``rb`` calls
    ``rb.sample_dp_posterior`` while ``gan`` calls ``gan.sample_dp_posterior``,
    so both names are wrapped under one span name.
    """
    from bnpmmd import cli, discrepancy, dp, gan, kernels, rb, scenarios

    def n_terms(args, kwargs, result):
        return result.n_terms

    def size(args, kwargs, result):
        return result.size

    def uses_yy(args, kwargs, result):
        return kwargs.get("yy_term") is not None

    def data_dim(args, kwargs, result):
        return args[0].shape[1]

    def study(args, kwargs, result):
        return kwargs.get("threads", 1), result.excluded

    def clamped(args, kwargs, result):
        return result[1].clamped_steps

    return [
        (cli, "dispatch", "cli.dispatch", None),
        (cli, "run_roc_study", "scenarios.study", study),
        (scenarios, "run_gof_test", "scenarios.rep", None),
        (rb, "run_gof_test", "rb.gof_test", data_dim),
        (rb, "simulate_mmd_samples", "rb.simulate", None),
        (rb, "estimate_rb_strength", "rb.estimate", None),
        (rb, "stopping_rule_N", "dp.stopping_rule", n_terms),
        (rb, "sample_dp_prior", "dp.prior_draw", None),
        (rb, "sample_dp_posterior", "dp.posterior_draw", None),
        (gan, "train", "gan.train", clamped),
        (gan, "loss_and_grad", "gan.loss_and_grad", None),
        (gan, "mmds_score", "gan.mmds_score", None),
        (gan, "stopping_rule_N", "dp.stopping_rule", n_terms),
        (gan, "sample_dp_posterior", "dp.posterior_draw", None),
        (gan, "mmd2_weighted", "discrepancy.mmd2_weighted", uses_yy),
        (gan, "grad_mmd2_atoms", "discrepancy.grad", None),
        (gan, "mmd2_empirical", "discrepancy.mmd2_empirical", None),
        (dp, "symmetric_dirichlet", "dp.dirichlet", None),
        (discrepancy, "mmd2_weighted", "discrepancy.mmd2_weighted", uses_yy),
        (discrepancy, "gram", "kernels.gram", size),
        (discrepancy, "gram_grad_coeff", "kernels.grad_coeff", None),
        (discrepancy, "cdist", "kernels.distance", None),
        (kernels, "gram", "kernels.gram", size),
        (kernels, "cdist", "kernels.distance", None),
    ]


# Spans that start a new op id: one RB test, one replication, one iteration.
OP_ROOTS = ("rb.gof_test", "scenarios.rep", "gan.loss_and_grad", "gan.mmds_score")

# Counts that depend only on the seed; two traced rounds must agree exactly.
EXACT_COUNTS = ("dp.stopping_rule.gamma_draws", "dp.draws", "kernels.gram.calls",
                "kernels.gram.pairs", "discrepancy.mmd2_weighted.calls",
                "scenarios.excluded", "gan.clamped_steps")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round (totals over the round)."""
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    infos = defaultdict(list)
    durations = defaultdict(list)
    for s in spans:
        self_s[s.name] += s.self_s
        total_s[s.name] += s.duration
        calls[s.name] += 1
        durations[s.name].append(s.duration)
        if s.info is not None:
            infos[s.name].append(s.info)

    def p50(values):
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    draws = calls["dp.prior_draw"] + calls["dp.posterior_draw"]
    yy_flags = infos["discrepancy.mmd2_weighted"]
    studies = infos["scenarios.study"]
    threads = max((t for t, _ in studies), default=0)
    by_dim = defaultdict(list)
    for s in spans:
        if s.name == "rb.gof_test" and s.info is not None:
            by_dim[s.info].append(s.duration)

    out = {
        "dp.stopping_rule.self_s": self_s["dp.stopping_rule"],
        "dp.stopping_rule.gamma_draws": sum(n * (n + 1) // 2 for n in infos["dp.stopping_rule"]),
        "dp.dirichlet.self_s": self_s["dp.dirichlet"],
        "dp.posterior_draw.self_s": self_s["dp.posterior_draw"],
        "dp.prior_draw.self_s": self_s["dp.prior_draw"],
        "dp.draws": draws,
        "kernels.gram.calls": calls["kernels.gram"],
        "kernels.gram.pairs": sum(infos["kernels.gram"]),
        "kernels.gram.self_s": self_s["kernels.gram"],
        "kernels.distance.self_s": self_s["kernels.distance"],
        "kernels.grad_coeff.self_s": self_s["kernels.grad_coeff"],
        "discrepancy.mmd2_weighted.calls": calls["discrepancy.mmd2_weighted"],
        "discrepancy.mmd2_weighted.self_s": self_s["discrepancy.mmd2_weighted"],
        "discrepancy.yy_reuse_ratio": ratio(sum(yy_flags), len(yy_flags)),
        "discrepancy.grad.self_s": self_s["discrepancy.grad"],
        "discrepancy.mmd2_empirical.self_s": self_s["discrepancy.mmd2_empirical"],
        "rb.simulate.self_s": self_s["rb.simulate"],
        "rb.mc_draws_per_s": ratio(draws, total_s["rb.simulate"]),
        "rb.estimate.self_s": self_s["rb.estimate"],
        "rb.gof_test.d5.p50_s": p50(by_dim[5]),
        "rb.gof_test.d20.p50_s": p50(by_dim[20]),
        "rb.gof_test.d60.p50_s": p50(by_dim[60]),
        "scenarios.rep.p50_s": p50(durations["scenarios.rep"]),
        "scenarios.parallel_efficiency": ratio(total_s["scenarios.rep"],
                                               total_s["scenarios.study"] * threads),
        "scenarios.threads": threads,
        "scenarios.excluded": sum(e for _, e in studies),
        "gan.net.self_s": self_s["gan.loss_and_grad"],
        "gan.update.self_s": self_s["gan.train"],
        "gan.mmds_score.total_s": total_s["gan.mmds_score"],
        "gan.clamped_steps": sum(infos["gan.train"]),
        "cli.roc.overhead_s": total_s["cli.dispatch"] - total_s["scenarios.study"],
    }
    return out


def write_spans(path, spans: list[Span]) -> None:
    """Gzipped JSON lines, one span per line, times relative to the first start."""
    t0 = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        for s in sorted(spans, key=lambda s: s.id):
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                 "thread": s.thread, "op": s.op,
                                 "start": s.start - t0, "end": s.end - t0}) + "\n")


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def scipy_import_s(importtime_stderr: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output.

    The output lists each module after the modules it imported, indented by
    nesting depth.  Sums the cumulative time of every scipy module whose
    importer is not itself a scipy module.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total_us = 0
    stack = []  # (depth, name) of rows below the current one, nearest last
    for depth, name, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        importer = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and importer.split(".")[0] != "scipy":
            total_us += cumulative_us
        stack.append((depth, name))
    return total_us / 1e6

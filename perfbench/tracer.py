"""Span recorder for the traced benchmark run.

The recorder rebinds public temof functions in every loaded temof module
that holds them (the defining module and each module that imported them by
name), so every call into a layer opens a span (name, start, end, parent, run id)
without changing the call's arguments or return value.  Spans stay in memory
while the matrix runs and are written as JSON lines afterwards.
`layer_metrics` turns a span file into the per-layer metrics of BENCHMARK.json.

Every time metric is a self time: the span's duration minus the durations of
its direct child spans.  Self times of all spans plus the part of the traced
wall time that no span covers therefore add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np


def _rows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) == 2 else 1


def _result_rows(result) -> int:
    # merge_dedupe may later return (population, dropped indices)
    return len(result[0] if isinstance(result, tuple) else result)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sort_rows(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 0, "f"))}


def _associate_pairs(args, kwargs, result):
    return {"pairs": _rows(_arg(args, kwargs, 0, "normalized"))
            * len(_arg(args, kwargs, 1, "refs"))}


def _merge_counts(args, kwargs, result):
    return {"rows_in": sum(len(p) for p in args), "rows_out": _result_rows(result)}


def _concat_rows(args, kwargs, result):
    return {"rows": _result_rows(result)}


def _evaluate_rows(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 1, "x"))}  # args[0] is the ProblemSpec


def _temof_counts(args, kwargs, result):
    trace = getattr(result, "trace", None)
    if trace is None:
        return {}
    return {"generations": len(trace), "archive_generations": trace.archive_generations()}


def _hv_counts(args, kwargs, result):
    pts = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "solution"), dtype=float))
    ref = np.asarray(_arg(args, kwargs, 1, "ref_point"), dtype=float).reshape(-1)
    samples = result.samples if result.mode == "monte_carlo" else 0
    return {"points": pts.shape[0], "inbox": int((pts < ref).all(axis=1).sum()),
            "mc_samples": int(samples or 0)}


# (defining module[:class], attribute, span name, counter).  install() rebinds
# a function in every loaded temof module that holds it, so a caller added
# later is traced without a change here.
TARGETS = (
    ("temof.harness", "run_matrix", "harness.run_matrix", None),
    ("temof.harness", "summarize", "harness.report", None),
    ("temof.harness", "write_summary", "harness.report", None),
    ("temof.harness", "write_ranks", "harness.report", None),
    ("temof.nsga3", "nsga3_run", "nsga3.nsga3_run", None),
    ("temof.framework", "temof_run", "framework.temof_run", _temof_counts),
    ("temof.metrics", "igd", "metrics.igd", None),
    ("temof.metrics", "gd", "metrics.gd", None),
    ("temof.metrics", "hv", "metrics.hv", _hv_counts),
    ("temof.stats", "ranksum_mark", "stats", None),
    ("temof.stats", "signed_rank", "stats", None),
    ("temof.stats", "friedman_ranks", "stats", None),
    ("temof.core", "merge_dedupe", "core.merge_dedupe", _merge_counts),
    ("temof.core", "concat", "core.concat", _concat_rows),
    ("temof.variation", "generate_offspring", "variation.generate_offspring", None),
    ("temof.nsga3", "environmental_selection", "nsga3.environmental_selection", None),
    ("temof.nsga3", "first_front_selection", "nsga3.first_front_selection", None),
    ("temof.nsga3", "normalize", "nsga3.normalize", None),
    ("temof.nsga3", "associate", "nsga3.associate", _associate_pairs),
    ("temof.dominance", "sort_fronts", "dominance.sort_fronts", _sort_rows),
    ("temof.dominance", "pareto_mask", "dominance.pareto_mask", _sort_rows),
    ("temof.core:ProblemSpec", "evaluate_batch", "benchmarks.evaluate", _evaluate_rows),
    ("temof.core:ProblemSpec", "true_front", "benchmarks.true_front", None),
)

OPTIMIZERS = ("nsga3.nsga3_run", "framework.temof_run")


class SpanRecorder:
    """Records nested spans around rebound functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, run, attrs]
        self._stack: list[int] = []
        self._run: int | None = None
        self._runs = 0
        self._installed: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # targets or counts not recorded

    def _open(self, name: str) -> list:
        if name in OPTIMIZERS and not any(self.spans[i][1] in OPTIMIZERS
                                          for i in self._stack):
            self._run = self._runs  # one run id per matrix cell
            self._runs += 1
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self._run, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[1] == "harness.run_matrix":
            self._run = None

    def _wrap(self, fn, name, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if counter is not None:
                try:
                    span[6] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    recorder.missing.add(f"counts of {name}")  # the API moved
            return result

        return traced

    def install(self) -> None:
        wrappers = []  # (original, wrapper) of module-level functions
        for target, attr, name, counter in TARGETS:
            module_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(f"{target}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            if cls_name:
                self._rebind(owner, attr, original, wrapper)
            else:
                wrappers.append((original, wrapper))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "temof" or n.startswith("temof."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers:
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "attrs": attrs or {}}) + "\n")


def span_cost_s() -> float:
    """Time one wrapper adds to a call, from a no-op timed with and without it.

    The median of 5 batches of 10 000 calls; the counters' own work is not
    included.
    """
    def noop():
        return None

    costs = []
    for _ in range(5):
        traced = SpanRecorder()._wrap(noop, "probe", None)
        start = time.perf_counter()
        for _ in range(10_000):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10_000):
            traced()
        costs.append((time.perf_counter() - start - plain) / 10_000)
    return statistics.median(costs)


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# Per-layer metrics: name -> unit.  The order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "dominance.sort_fronts.calls": "count",
    "dominance.sort_fronts.rows": "count",
    "dominance.sort_fronts.ms": "ms",
    "dominance.pareto_mask.rows": "count",
    "dominance.pareto_mask.ms": "ms",
    "nsga3.environmental_selection.calls": "count",
    "nsga3.environmental_selection.self_ms": "ms",
    "nsga3.first_front_selection.calls": "count",
    "nsga3.first_front_selection.self_ms": "ms",
    "nsga3.normalize.ms": "ms",
    "nsga3.associate.pairs": "count",
    "nsga3.associate.ms": "ms",
    "nsga3.nsga3_run.self_ms": "ms",
    "framework.temof_run.self_ms": "ms",
    "framework.generations": "count",
    "framework.archive_mating_ratio": "ratio",
    "core.merge_dedupe.rows_in": "count",
    "core.merge_dedupe.kept_ratio": "ratio",
    "core.merge_dedupe.ms": "ms",
    "core.concat.rows": "count",
    "core.concat.ms": "ms",
    "variation.generate_offspring.calls": "count",
    "variation.generate_offspring.self_ms": "ms",
    "benchmarks.evaluate.rows": "count",
    "benchmarks.evaluate.ms": "ms",
    "benchmarks.true_front.calls": "count",
    "benchmarks.true_front.ms": "ms",
    "metrics.igd.ms": "ms",
    "metrics.gd.ms": "ms",
    "metrics.hv.ms": "ms",
    "metrics.hv.mc_samples": "count",
    "metrics.hv.inbox_frac": "ratio",
    "metrics.hv.zero_cells": "count",
    "stats.calls": "count",
    "stats.ms": "ms",
    "harness.report.ms": "ms",
    "harness.run_matrix.self_ms": "ms",
    "trace.matrix_s": "s",
    "trace.untraced_matrix_s": "s",
    "trace.span_cost_us": "us",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.spans": "count",
}

# Span names whose self time is a metric; with the unattributed remainder
# they account for the whole traced wall time.
SELF_TIME_METRICS = {
    "dominance.sort_fronts": "dominance.sort_fronts.ms",
    "dominance.pareto_mask": "dominance.pareto_mask.ms",
    "nsga3.environmental_selection": "nsga3.environmental_selection.self_ms",
    "nsga3.first_front_selection": "nsga3.first_front_selection.self_ms",
    "nsga3.normalize": "nsga3.normalize.ms",
    "nsga3.associate": "nsga3.associate.ms",
    "nsga3.nsga3_run": "nsga3.nsga3_run.self_ms",
    "framework.temof_run": "framework.temof_run.self_ms",
    "core.merge_dedupe": "core.merge_dedupe.ms",
    "core.concat": "core.concat.ms",
    "variation.generate_offspring": "variation.generate_offspring.self_ms",
    "benchmarks.evaluate": "benchmarks.evaluate.ms",
    "benchmarks.true_front": "benchmarks.true_front.ms",
    "metrics.igd": "metrics.igd.ms",
    "metrics.gd": "metrics.gd.ms",
    "metrics.hv": "metrics.hv.ms",
    "stats": "stats.ms",
    "harness.report": "harness.report.ms",
    "harness.run_matrix": "harness.run_matrix.self_ms",
}


def layer_metrics(spans: list[dict], matrix_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced matrix run.

    matrix_s is the traced wall time of `main(["run", ...])`; the trace.*
    entries that compare against an untraced run are filled in by the caller.
    """
    by_id = {s["id"]: s for s in spans}
    child_ms = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] += (s["end"] - s["start"]) * 1000.0
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    attrs: dict[str, float] = {}
    top_ms = 0.0
    for s in spans:
        name = s["name"]
        dur = (s["end"] - s["start"]) * 1000.0
        if s["parent"] is None:
            top_ms += dur
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + dur - child_ms[s["id"]]
        if name == "framework.temof_run" and _inside(s, by_id, "nsga3.nsga3_run"):
            continue  # a base run built on the framework loop is not a framework run
        for key, value in s["attrs"].items():
            attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value

    def ratio(num: str, den: str) -> float:
        d = attrs.get(den, 0)
        return attrs.get(num, 0) / d if d else 0.0

    out = {metric: self_ms.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    out.update({
        "dominance.sort_fronts.calls": calls.get("dominance.sort_fronts", 0),
        "dominance.sort_fronts.rows": attrs.get("dominance.sort_fronts.rows", 0),
        "dominance.pareto_mask.rows": attrs.get("dominance.pareto_mask.rows", 0),
        "nsga3.environmental_selection.calls": calls.get("nsga3.environmental_selection", 0),
        "nsga3.first_front_selection.calls": calls.get("nsga3.first_front_selection", 0),
        "nsga3.associate.pairs": attrs.get("nsga3.associate.pairs", 0),
        "framework.generations": attrs.get("framework.temof_run.generations", 0),
        "framework.archive_mating_ratio": ratio("framework.temof_run.archive_generations",
                                                "framework.temof_run.generations"),
        "core.merge_dedupe.rows_in": attrs.get("core.merge_dedupe.rows_in", 0),
        "core.merge_dedupe.kept_ratio": ratio("core.merge_dedupe.rows_out",
                                              "core.merge_dedupe.rows_in"),
        "core.concat.rows": attrs.get("core.concat.rows", 0),
        "variation.generate_offspring.calls": calls.get("variation.generate_offspring", 0),
        "benchmarks.evaluate.rows": attrs.get("benchmarks.evaluate.rows", 0),
        "benchmarks.true_front.calls": calls.get("benchmarks.true_front", 0),
        "metrics.hv.mc_samples": attrs.get("metrics.hv.mc_samples", 0),
        "metrics.hv.inbox_frac": ratio("metrics.hv.inbox", "metrics.hv.points"),
        "stats.calls": calls.get("stats", 0),
        "trace.matrix_s": matrix_s,
        "trace.unattributed_ms": matrix_s * 1000.0 - top_ms,
        "trace.spans": len(spans),
    })
    return out


def _inside(span: dict, by_id: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] == name:
            return True
        parent = by_id[parent]["parent"]
    return False

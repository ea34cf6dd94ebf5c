"""Command-line interface.

Subcommands:
  bench list            show available benchmark problems
  run                   execute an experiment matrix (JSON config or flags)
  report summarize      comparison table for one metric against a base
  report ranks          Friedman mean ranks per metric
  metric igd|gd|hv      compute one indicator from CSV files
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from .benchmarks import make_problem, problem_names
from .core import TemofError, UsageError
from .harness import (ALGORITHM_NAMES, FAILURES_FILE, KNOWN_METRICS, ExperimentConfig,
                      config_from_dict, load_config, load_records, run_matrix,
                      summarize, write_ranks, write_summary)
from .metrics import MC_DEFAULT_SAMPLES, gd, hv, igd


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temof",
        description="Two-stage evolutionary framework experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="benchmark problems")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_sub.add_parser("list", help="list available problems")

    run = sub.add_parser("run", help="run an experiment matrix")
    run.add_argument("--config", help="JSON experiment config file")
    run.add_argument("--problem", action="append", default=None,
                     help="benchmark name, repeatable")
    run.add_argument("--algo", action="append", default=None,
                     choices=list(ALGORITHM_NAMES), help="algorithm, repeatable")
    seeds = run.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=int, default=None,
                       help="number of runs per cell (seeds 0..k-1)")
    seeds.add_argument("--seed-list", default=None,
                       help="comma-separated explicit seeds")
    run.add_argument("--master-seed", type=int, default=None, help="default: 0")
    run.add_argument("--n", type=int, default=None, help="population size")
    run.add_argument("--max-fes", type=int, default=None, help="evaluation budget")
    run.add_argument("--p", type=float, default=None,
                     help="archive mating probability of the framework (default: 0.5)")
    run.add_argument("--metrics", nargs="+", default=None,
                     choices=list(KNOWN_METRICS))
    run.add_argument("--indicator-target", default=None,
                     choices=["population", "archive"])
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes, at most one per cell left to run "
                          "(default: 1)")
    run.add_argument("--quiet", action="store_true", help="suppress per-run lines")

    report = sub.add_parser("report", help="summaries from saved runs")
    report_sub = report.add_subparsers(dest="report_command", required=True)
    summ = report_sub.add_parser("summarize", help="comparison table for one metric")
    summ.add_argument("--runs", required=True, help="results directory")
    summ.add_argument("--base", required=True, help="base algorithm label")
    summ.add_argument("--metric", required=True, choices=list(KNOWN_METRICS))
    summ.add_argument("--alpha", type=float, default=0.05)
    ranks = report_sub.add_parser("ranks", help="Friedman mean ranks per metric")
    ranks.add_argument("--runs", required=True, help="results directory")

    metric = sub.add_parser("metric", help="compute one indicator")
    metric_sub = metric.add_subparsers(dest="metric_command", required=True)
    for name in ("igd", "gd"):
        m = metric_sub.add_parser(name, help=f"{name.upper()} of a front vs a reference set")
        m.add_argument("--front", required=True, help="CSV of solution objectives")
        m.add_argument("--ref", required=True, help="CSV of reference front points")
    hv_cmd = metric_sub.add_parser("hv", help="hypervolume of a front vs a reference point")
    hv_cmd.add_argument("--front", required=True, help="CSV of solution objectives")
    hv_cmd.add_argument("--ref", required=True, help="CSV holding the reference point")
    hv_cmd.add_argument("--mode", default="auto", choices=["auto", "exact", "monte_carlo"])
    hv_cmd.add_argument("--samples", type=int, default=MC_DEFAULT_SAMPLES)

    return parser


def _load_csv(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data": rejected below
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}") from None
    except OSError as exc:  # a directory, or no permission
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{path} is not a numeric CSV: {exc}") from None
    if rows.shape[0] == 0:
        raise UsageError(f"{path} holds no rows")
    return rows


# the flags that describe a matrix in place of a --config file
_MATRIX_FLAGS = ("problem", "algo", "seeds", "seed_list", "master_seed", "n", "max_fes",
                 "p", "metrics", "indicator_target")


def _set(**values) -> dict:
    """The entries whose flag was given; an unset flag keeps the config default."""
    return {k: v for k, v in values.items() if v is not None}


def _run_config(args) -> ExperimentConfig:
    if args.config is not None:
        given = [f"--{dest.replace('_', '-')}" for dest in _MATRIX_FLAGS
                 if getattr(args, dest) is not None]
        if given:
            raise UsageError(f"--config cannot be combined with {', '.join(given)}")
        return load_config(args.config)
    seeds = None if args.seeds is None else list(range(args.seeds))
    if args.seed_list is not None:
        try:
            seeds = [int(s) for s in args.seed_list.split(",")]
        except ValueError:
            raise UsageError(f"--seed-list must be comma-separated integers, "
                             f"got {args.seed_list!r}") from None
    missing = [flag for flag, value in
               (("--problem", args.problem), ("--algo", args.algo), ("--seeds", seeds),
                ("--n", args.n), ("--max-fes", args.max_fes))
               if value is None]
    if missing:
        raise UsageError(
            f"run needs either --config or the flags: {', '.join(missing)}")
    return config_from_dict(_set(
        problems=args.problem, seeds=seeds, n=args.n, max_fes=args.max_fes,
        algorithms=[_set(name=name, p=args.p) for name in args.algo],
        master_seed=args.master_seed, metrics=args.metrics,
        indicator_target=args.indicator_target))


def _cmd_bench_list() -> int:
    print(f"{'name':8} {'n_var':>5} {'n_obj':>5}  true front")
    for name in problem_names():
        problem = make_problem(name)
        has_front = "yes" if problem.front_sampler is not None else "no"
        print(f"{name:8} {problem.n_var:>5} {problem.n_obj:>5}  {has_front}")
    return 0


def _cmd_run(args) -> int:
    config = _run_config(args)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)

    def progress(done, total, record):
        if args.quiet:
            return
        if record is None:
            print(f"[{done}/{total}] failed (see {FAILURES_FILE})", flush=True)
            return
        vals = " ".join(f"{k}={v:.4e}" for k, v in sorted(record.metrics.items()))
        print(f"[{done}/{total}] {record.problem} {record.algorithm} "
              f"seed={record.seed} {vals} ({record.wall_ms:.0f} ms)", flush=True)

    records = run_matrix(config, workers=args.workers, progress=progress)
    expected = len(config.problems) * len(config.algorithms) * len(config.seeds)
    out = Path(config.output_dir)
    print(f"{len(records)}/{expected} runs complete in {out}")
    if len(records) < expected:
        print(f"some runs failed; see {out / FAILURES_FILE}", file=sys.stderr)
        return 1
    if len(config.algorithms) >= 2:
        base = config.algorithms[0].key
        for metric in config.metrics:
            table = summarize(records, base, metric)
            write_summary(table, out)
            print()
            print(table.to_markdown(), end="")
        if len(config.problems) >= 2:
            path = write_ranks(records, out)
            print(f"\nwrote {path}")
    return 0


def _cmd_report_summarize(args) -> int:
    records = load_records(args.runs)
    table = summarize(records, args.base, args.metric, args.alpha)
    csv_path, md_path = write_summary(table, args.runs)
    print(table.to_markdown(), end="")
    print(f"\nwrote {csv_path} and {md_path}", file=sys.stderr)
    return 0


def _cmd_report_ranks(args) -> int:
    records = load_records(args.runs)
    path = write_ranks(records, args.runs)
    print(path.read_text(encoding="utf-8"), end="")
    return 0


def _cmd_metric(args) -> int:
    front = _load_csv(args.front)
    ref = _load_csv(args.ref)
    if args.metric_command == "igd":
        result = igd(front, ref)
    elif args.metric_command == "gd":
        result = gd(front, ref)
    else:
        if ref.shape[0] != 1:
            raise UsageError(
                f"hv reference file must hold exactly one point, got {ref.shape[0]} rows")
        result = hv(front, ref[0], mode=args.mode, samples=args.samples)
    print(f"{result.value!r}")
    if result.mode == "monte_carlo":
        print(f"mode=monte_carlo samples={result.samples}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    # labels print in UTF-8, the encoding of every results file, whatever the locale
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            if args.report_command == "summarize":
                return _cmd_report_summarize(args)
            return _cmd_report_ranks(args)
        return _cmd_metric(args)
    except TemofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

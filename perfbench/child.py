"""One benchmark repetition in a fresh interpreter.

Times `import temof.cli`, then runs `temof.cli.main(["run", ...])` on the
given config and output directory, optionally under the span recorder, and
writes a JSON result file.  run.py starts this script once per repetition.

    python3 child.py --result R.json [--config C.json --out DIR --workers K
                                      [--spans S.jsonl]]

Without --config it only imports temof.cli (a set-up probe).
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--workers", default="1")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import temof.cli
    result = {"import_done": time.monotonic()}
    if args.config is not None:
        recorder = None
        if args.spans:
            from tracer import SpanRecorder, span_cost_s
            recorder = SpanRecorder()
            recorder.install()
        argv = ["run", "--config", args.config, "--out", args.out, "--quiet",
                "--workers", args.workers]
        start = time.perf_counter()
        rc = temof.cli.main(argv)
        result["matrix_s"] = time.perf_counter() - start
        result["rc"] = rc
        if recorder is not None:
            recorder.uninstall()
            recorder.write(args.spans)
            result["trace_missing"] = sorted(recorder.missing)
            result["span_cost_s"] = span_cost_s()
        result["maxrss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate perfbench/digests.json: the expected outputs of every instance.

    python3 perfbench/record_digests.py

Runs one matrix per (workload, instance) at the benchmark's budget and stores
the digest of its runs.csv (all columns but wall_ms) and report files.  Only
a change that has to alter results reruns this, and says why.
"""

import json
import math
import os
import shutil
import sys

from run import DIGESTS, INSTANCES, MAX_FES, WORK, WORKLOADS, Session


def main() -> int:
    digests: dict[str, dict] = {}
    for workload in sorted(WORKLOADS):
        work = WORK / f"record-{os.getpid()}-{workload}"
        session = Session(workload, 0, MAX_FES, None, work, math.inf)
        for instance in range(INSTANCES):
            if session.rep(instance, WORKLOADS[workload]["workers"]) is None:
                print(f"{workload} instance {instance} failed", file=sys.stderr)
                return 1
            print(f"{workload} instance {instance}: "
                  f"{session.expected[str(instance)]['rows']} rows", flush=True)
        shutil.rmtree(work)
        digests[workload] = session.expected
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

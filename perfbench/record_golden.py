#!/usr/bin/env python3
"""Record ``golden.json``: the exit code and stdout digest of every job of
the default seed, for every workload.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

A job whose output fails its invariant checks is not recorded; the script
stops with an error instead.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    golden = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs(workload, workloads.DEFAULT_SEED)
        runner = run.Runner(jobs, {})
        results = {}
        for job in jobs:
            _, code, out = runner.run_job(job)
            results[job.id] = (code, out)
        failures = checks.check_pass(jobs, results, {})
        if failures:
            sys.exit(f"{workload}: not recording failing jobs: {failures}")
        golden[workload] = {jid: [code, checks.digest(out)]
                            for jid, (code, out) in results.items()}
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

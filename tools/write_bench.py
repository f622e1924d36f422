#!/usr/bin/env python3
"""Record one benchmark snapshot of the checkout as a JSON file.

Usage, from the root of a checkout:

    python3 tools/write_bench.py --out BENCH_<n>.json

For every workload that ``BENCHMARK.json`` declares, this runs
``perfbench/run.py --workload W --seed 0 --trace 0`` (end-to-end
medians) and then ``--trace 1`` (per-layer metrics), each in its own
process for the benchmark's ``run_seconds``, and keeps the JSON object
on the last line of each run's stdout.  Seed 0 is the one whose outputs
are checked against the goldens.  The file it writes holds the commit
the tree is based on and whether the tree differs from it, the Python
version, the seed and run length, and per workload the job counts, the
end-to-end metrics and the per-layer metrics (``src.lines`` among
them).  The benchmark itself is
not changed; this only collects what it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def _git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(workload, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n"
                         + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="file to write, e.g. BENCH_11.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    out = args.out if args.out.is_absolute() else ROOT / args.out
    # the file being rewritten does not count as a change to the tree
    changed = [line for line in _git("status", "--porcelain",
                                     "--untracked-files=no").splitlines()
               if line[3:] != os.path.relpath(out, ROOT)]
    doc = {
        "commit": _git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(changed),
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _run(workload, seconds, 0)
        layers = _run(workload, seconds, 1)
        doc["workloads"][workload] = {
            "attempted": plain["attempted"],
            "failed": plain["failed"] + layers["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": layers["metrics"],
        }
        print(f"{workload}: wall_s {plain['metrics']['wall_s']['value']:.4g} s, "
              f"{plain['failed']}/{plain['attempted']} failed", file=sys.stderr)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

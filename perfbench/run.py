#!/usr/bin/env python3
"""Benchmark of the ``nilhom`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload homology --seed 0 --seconds 35 --trace 0

The workload's job list (``workloads.py``) runs as one closed loop with
one client: jobs run one after another in this process, each through
``nilhom.cli.main`` with its argv, and each starts with nilhom's
in-process caches cleared, as a fresh CLI invocation would.  Whole passes
over the list repeat until ``--seconds`` have gone by; every job's output
is checked on every pass (``checks.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``spans.py``); a human-readable table comes
first and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"
SETUP_SPAWNS = 15
# the probe's time on the reference machine: a 2-vCPU Intel Xeon VM,
# Python 3.11.7, in a quiet period
REF_PROBE_S = 0.012
# a run stops starting passes once this much time has gone, whatever
# --seconds says, so that a slow program still finishes within limits
MAX_RUN_S = 140.0
KINDS = ("betti", "betti_integral", "pages", "filtration", "sigma", "witness",
         "tame", "report", "vbscan")

E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# the --trace 0 table: the end-to-end metrics plus some that are printed
# but not gated (see README.md)
TABLE_UNITS = dict(E2E, raw_wall_s="s", failed_frac="ratio",
                   **{f"{kind}_s": "s" for kind in KINDS})


def per_layer_specs():
    """Every per-layer metric: name -> (unit, better)."""
    out = spans.metric_specs()
    out["cli.output_bytes"] = ("bytes", "lower")
    for kind in KINDS:
        out[f"cmd.{kind}_frac"] = ("ratio", "lower")
    out["jobs.failed_frac"] = ("ratio", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    out["src.lines"] = ("lines", "lower")
    return out


def probe():
    """Seconds a fixed pure-Python integer loop takes right now.

    On a shared VM the CPU speed drifts by tens of percent over minutes;
    this loop, run around every job, tracks the drift so job times can be
    rescaled to a fixed reference speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(120000):
        x += (i * 2654435761) % 1000003
    return time.perf_counter() - t0


def _caches():
    """The lru caches of every loaded nilhom module."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name == "nilhom" or name.startswith("nilhom."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and value not in found:
                    found.append(value)
    return found


class Pass(NamedTuple):
    ref: dict           # job id -> seconds rescaled to REF_PROBE_S
    raw: dict           # job id -> wall seconds
    output_bytes: int


class Runner:
    """Runs passes over one job list and keeps every job's timings."""

    def __init__(self, jobs, golden):
        from nilhom import cli
        self.main = cli.main
        self.jobs = jobs
        self.golden = golden
        self.caches = _caches()
        self.attempted = 0
        self.failures = {}          # job id -> first failure reason
        self.failed = 0
        self.probes = []

    def _settle_and_probe(self):
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        self.probes.append(probe())

    def run_job(self, job, tracer=None):
        """(seconds, exit code, stdout) of one job from cold caches."""
        self._settle_and_probe()
        out, err = io.StringIO(), io.StringIO()
        argv = list(job.argv)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.call(spans.ROOT_SPAN, self.main, (argv,))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = "exception: " + traceback.format_exc(limit=-1).strip()
        return time.perf_counter() - t0, code, out.getvalue()

    def run_pass(self, tracer=None):
        """One pass over the jobs.  A job's reference seconds are its wall
        seconds times REF_PROBE_S over the mean of the probes taken just
        before and just after it."""
        times, results = {}, {}
        self.probes = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.id
            times[job.id], code, out = self.run_job(job, tracer)
            results[job.id] = (code, out)
        self._settle_and_probe()
        failures = checks.check_pass(self.jobs, results, self.golden)
        self.attempted += len(self.jobs)
        self.failed += len(failures)
        for jid, reason in failures.items():
            self.failures.setdefault(jid, reason)
        ref = {jid: secs * 2 * REF_PROBE_S / (before + after)
               for (jid, secs), before, after
               in zip(times.items(), self.probes, self.probes[1:])}
        return Pass(ref, times,
                    sum(len(out.encode("utf-8")) for _, out in results.values()))


def repeat(seconds, started, step):
    """Call ``step`` until ``seconds`` have gone by (at least once)."""
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - begin >= seconds or now - started + (now - t0) > MAX_RUN_S:
            return


def job_medians(passes, field="ref"):
    """Median seconds of every job over the passes of a run."""
    runs = [getattr(p, field) for p in passes]
    return {jid: statistics.median(r[jid] for r in runs) for jid in runs[0]}


def kind_seconds(jobs, medians):
    out = {kind: 0.0 for kind in KINDS}
    for job in jobs:
        out[job.kind] += medians[job.id]
    return out


def measure_setup():
    """Median time of a fresh interpreter importing nilhom.cli, at the
    reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import nilhom.cli"]
    times, probes = [], []
    for i in range(SETUP_SPAWNS + 1):
        probes.append(probe())
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:   # the first spawn may write bytecode caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * REF_PROBE_S / statistics.median(probes)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "nilhom").rglob("*.py")))


def untraced(runner, seconds, started):
    setup = measure_setup()
    passes = []
    repeat(seconds, started, lambda: passes.append(runner.run_pass()))
    medians = job_medians(passes)
    metrics = {
        "setup_s": setup,
        "wall_s": sum(medians.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    table = dict(metrics, raw_wall_s=sum(job_medians(passes, "raw").values()),
                 failed_frac=runner.failed / runner.attempted)
    for kind, secs in kind_seconds(runner.jobs, medians).items():
        if secs:
            table[f"{kind}_s"] = secs
    return metrics, {name: (value, TABLE_UNITS[name])
                     for name, value in table.items()}, f"{len(passes)} passes"


def traced(runner, seconds, started, span_path):
    """Untraced and traced passes alternate, so drift hits both alike."""
    tracer = spans.Tracer()
    plain, with_spans = [], []

    def step():
        plain.append(runner.run_pass())
        tracer.pass_no = len(with_spans)
        tracer.install()
        try:
            with_spans.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()

    repeat(seconds, started, step)
    tracer.write(span_path)
    by_pass = [[] for _ in with_spans]
    for idx, span in enumerate(tracer.spans):
        by_pass[span[5]].append((idx, span))
    per_pass = [spans.pass_metrics(p) for p in by_pass]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith(".self_frac"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                print(f"warning: {name} differs between traced passes: {values}",
                      file=sys.stderr)
            metrics[name] = values[0]
    plain_medians = job_medians(plain)
    plain_wall = sum(plain_medians.values())
    metrics["cli.output_bytes"] = plain[0].output_bytes
    for kind, secs in kind_seconds(runner.jobs, plain_medians).items():
        metrics[f"cmd.{kind}_frac"] = secs / plain_wall
    metrics["jobs.failed_frac"] = runner.failed / runner.attempted
    metrics["trace.overhead_frac"] = (sum(job_medians(with_spans).values())
                                      / plain_wall - 1)
    metrics["src.lines"] = src_lines()
    specs = per_layer_specs()
    return metrics, {name: (metrics[name], specs[name][0]) for name in specs}, \
        f"{len(plain)} untraced + {len(with_spans)} traced passes"


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilhom" / "cli.py").is_file():
        print(f"error: no nilhom sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    jobs = workloads.jobs(args.workload, args.seed)
    golden = (checks.load_golden(args.workload)
              if args.seed == workloads.DEFAULT_SEED else {})
    runner = Runner(jobs, golden)
    if args.trace:
        span_path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, table, passes = traced(runner, args.seconds, started, span_path)
    else:
        metrics, table, passes = untraced(runner, args.seconds, started)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs a pass, "
          f"{passes}, {runner.failed}/{runner.attempted} failed"
          + (" (golden checked)" if golden else ""))
    for jid, reason in sorted(runner.failures.items()):
        print(f"# FAILED {jid}: {reason}")
    for name, (value, unit) in table.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": table[name][1]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

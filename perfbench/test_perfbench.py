"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

import checks
import run
import spans
import workloads
from workloads import Job, _js

sys.path.insert(0, str(run.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


HEIS = _js({"type": "free_nilpotent", "rank": 2, "class": 2})
T_MINUS_2 = _js({"nvars": 1, "ideal": [[{"coeff": "1", "exp": [1]},
                                        {"coeff": "-2", "exp": [0]}]]})
TRIANGLE = _js({"nvars": 2, "ideal": [[{"coeff": "1", "exp": [0, 0]},
                                       {"coeff": "1", "exp": [1, 0]},
                                       {"coeff": "1", "exp": [0, 1]}]]})
UP = _js([{"ineqs": [["0", "1"]], "eqs": [["1", "0"]]}])
ANOSOV = _js({"type": "action",
              "group": {"type": "free_nilpotent", "rank": 2, "class": 2},
              "generators": [[["2", "1"], ["1", "1"]]]})

# one cheap job of every kind, with the metadata the checks read
TINY = [
    Job("betti.r2", ("betti", "--group", HEIS), meta={"rank": 2}),
    Job("betti_integral.r2", ("betti", "--group", HEIS, "--integral"),
        meta={"rank": 2}),
    Job("pages.heis", ("pages", "--group", HEIS), meta={"n": 2, "a": 1}),
    Job("filtration.j2", ("filtration", "--group", HEIS, "--j", "2"),
        meta={"rank": 2, "class": 2, "j": 2}),
    Job("sigma.tri", ("sigma", "--module", TRIANGLE), meta={"nvars": 2}),
    Job("witness.t", ("sigma", "--module", T_MINUS_2, "--witness", "[1]",
                      "--degree-bound", "2"), meta={"nvars": 1, "direction": [1]}),
    Job("tame.tri.m2", ("tame", "--module", TRIANGLE, "--m", "2"),
        meta={"family": "tri", "m": 2}),
    Job("tame.tri.m3", ("tame", "--module", TRIANGLE, "--m", "3"),
        meta={"family": "tri", "m": 3}),
    Job("report.up", ("report", "--c", "1", "--n", "1",
                      "--sigma-complement", UP),
        meta={"family": "up", "c": 1, "n": 1, "fails_at": None}),
    Job("tame.up.m2", ("tame", "--sigma-complement", UP, "--m", "2"),
        meta={"family": "up", "m": 2}),
    Job("vbscan.anosov.j1", ("vbscan", "--group", ANOSOV, "--j", "1",
                             "--m-max", "4"), meta={"j": 1, "m_max": 4}),
    Job("reject.class3", ("betti", "--group",
                          _js({"type": "free_nilpotent", "rank": 2, "class": 3})),
        exit=2),
]


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_same_seed_same_jobs():
    for name in workloads.WORKLOADS:
        first = workloads.jobs(name, 7)
        assert first == workloads.jobs(name, 7)
        other = workloads.jobs(name, 8)
        assert first != other
        assert [j.id for j in first] == [j.id for j in other]
        assert len({j.id for j in first}) == len(first)
        assert any(j.exit == 2 for j in first)


def test_golden_covers_the_default_seed():
    golden = json.loads(checks.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        ids = {j.id for j in workloads.jobs(name, workloads.DEFAULT_SEED)}
        assert set(golden[name]) == ids


def test_end_to_end_metrics_named_with_units():
    runner = run.Runner(TINY, {})
    metrics, table, _ = run.untraced(runner, 0, time.perf_counter())
    assert {name: table[name][1] for name in metrics} == _declared("end_to_end")
    assert all(value > 0 for value in metrics.values())
    assert table["failed_frac"][0] == 0, runner.failures


def test_per_layer_metrics_named_with_units_and_repeatable(tmp_path):
    counts = []
    for i in range(2):
        runner = run.Runner(TINY, {})
        path = tmp_path / f"spans{i}.jsonl"
        metrics, table, _ = run.traced(runner, 0, time.perf_counter(), path)
        assert runner.failed == 0, runner.failures
        assert {name: table[name][1] for name in metrics} == _declared("per_layer")
        assert len(path.read_text().splitlines()) > metrics["cli.main.calls"]
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("_frac")})
    assert counts[0] == counts[1]
    # no CLI path calls the public hall_basis (see README.md)
    for layer in spans.LAYERS:
        if layer != "groups.hall_basis":
            assert counts[0][f"{layer}.calls"] > 0, layer
    assert counts[0]["cli.main.calls"] == len(TINY)


def test_corrupted_output_counts_as_failure():
    runner = run.Runner(TINY, {})
    real = runner.main

    def corrupted(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real(argv)
        doc = json.loads(buf.getvalue() or "null")
        if isinstance(doc, dict) and "betti" in doc:
            doc["betti"][1] += 1
        sys.stdout.write(json.dumps(doc, indent=2) + "\n" if doc else "")
        return code

    runner.main = corrupted
    _, table, _ = run.untraced(runner, 0, time.perf_counter())
    assert set(runner.failures) == {"betti.r2", "betti_integral.r2"}
    assert table["failed_frac"][0] == 2 / len(TINY)


def test_golden_mismatch_counts_as_failure():
    runner = run.Runner(TINY[:1], {"betti.r2": [0, "0" * 64]})
    runner.run_pass()
    assert runner.failed == 1
    assert "golden" in runner.failures["betti.r2"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

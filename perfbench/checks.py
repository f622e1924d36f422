"""Output checks for benchmark jobs.

Three layers of checks decide whether a job failed:

* its exit code is the one the job expects (0, or 2 for inputs that must
  be rejected, whose stdout must then be empty);
* seed-independent invariants hold, on the job's own document and across
  the documents of one pass (Betti numbers against filtration totals,
  ``tame`` monotone in m, ``report`` against ``tame``);
* on the default seed, the exit code and a digest of stdout match the
  golden recorded in ``golden.json``.

Checks read only the documents and the job metadata, never the program's
modules, so they hold against any implementation of the command line.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class CheckError(Exception):
    pass


def _need(cond, msg):
    if not cond:
        raise CheckError(msg)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(workload: str):
    """Golden ``{job id: [exit, sha256]}`` of the default seed, or {}."""
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})


# ------------------------------------------------------------ single jobs

def _betti(job, doc):
    r = job.meta["rank"]
    b = doc["betti"]
    _need(len(b) == r + comb(r, 2) + 1, "betti list has the wrong length")
    _need(b[0] == 1 and b[1] == r, "b0 or b1 is wrong")
    _need(b == b[::-1], "betti numbers are not palindromic")
    _need(sum((-1) ** j * x for j, x in enumerate(b)) == 0,
          "Euler characteristic is not 0")
    if "--integral" in job.argv:
        rows = doc["integral"]
        _need([row["j"] for row in rows] == list(range(len(b))),
              "integral rows do not cover every degree")
        for row in rows:
            free = sum(cell["free_rank"] for cell in row["cells"])
            _need(free == b[row["j"]],
                  f"integral free ranks disagree with b{row['j']}")
            factors = row["invariant_factors"]
            if factors is not None:
                _need(factors.count(0) == b[row["j"]],
                      f"invariant factors disagree with b{row['j']}")


def _pages(job, doc):
    n, a = job.meta["n"], job.meta["a"]
    page = doc["page"]
    dims = {}
    for cell in page["cells"]:
        p, q = cell["p"], cell["q"]
        _need(cell["dim"] == comb(n, p) * comb(a, q), f"cell {(p, q)} dimension")
        _need(len(cell["basis"]) == cell["dim"], f"cell {(p, q)} basis size")
        dims[(p, q)] = cell["dim"]
    _need(sum(dims.values()) == 2 ** (n + a), "cells do not fill the page")
    for d in page["differentials"]:
        p, q = d["p"], d["q"]
        rows = d["matrix"]
        _need(len(rows) == dims.get((p - 2, q + 1), 0)
              and all(len(row) == dims[(p, q)] for row in rows),
              f"differential {(p, q)} has the wrong shape")


def _filtration(job, doc):
    c, j = job.meta["class"], job.meta["j"]
    cert = doc["certificate"]
    bound = c * (j - 1) + 1
    _need(cert["bound"] == bound, "wrong tensor-degree bound")
    _need(cert["bound_satisfied"] is True, "bound not satisfied")
    _need(all(0 <= layer["tensor_degree"] <= bound for layer in cert["layers"]),
          "a layer exceeds the bound")
    _need(cert["total_dimension"] == sum(l["dimension"] for l in cert["layers"]),
          "total dimension is not the sum of the layers")
    _need(cert["dimensions_exact"] == (c <= 2 or j == 1),
          "dimensions_exact flag is wrong")
    if j == 1:
        _need(cert["total_dimension"] == job.meta["rank"],
              "degree-one total is not the rank")


def _cones(cones, nvars):
    for cone in cones:
        for row in cone["ineqs"] + cone["eqs"]:
            _need(len(row) == nvars, "cone row has the wrong arity")


def _sigma(job, doc):
    cones = doc["sigma_complement"]
    _need(len(cones) >= 1, "complement of a non-monomial principal ideal is empty")
    _cones(cones, job.meta["nvars"])


def _laurent(terms):
    return {tuple(t["exp"]): Fraction(t["coeff"]) for t in terms}


def _witness(job, doc):
    found = doc["witness"]
    if found == "unknown":
        return
    module = json.loads(job.argv[job.argv.index("--module") + 1])
    gens = [_laurent(g) for g in module["ideal"]]
    total = {}
    for item in found["combination"]:
        coeff = Fraction(item["coeff"])
        for exp, c in gens[item["generator"]].items():
            e = tuple(x + s for x, s in zip(exp, item["shift"]))
            total[e] = total.get(e, 0) + coeff * c
    total = {e: c for e, c in total.items() if c != 0}
    _need(total == _laurent(found["poly"]),
          "witness polynomial is not the stated combination of generators")
    v = job.meta["direction"]
    lead = tuple(found["minimal_exponent"])
    _need(lead in total, "minimal exponent is not in the support")
    val = sum(a * b for a, b in zip(v, lead))
    _need(all(sum(a * b for a, b in zip(v, e)) > val for e in total if e != lead),
          "minimal exponent is not the unique v-minimum")


def _tame(job, doc):
    _need(isinstance(doc["tame"], bool), "tame verdict is not a boolean")


def _report(job, doc):
    c, n = job.meta["c"], job.meta["n"]
    req = 2 * (c * (n - 1) + 1)
    _need(doc["requirement"] == req, "wrong tameness requirement")
    fails_at = job.meta["fails_at"]
    _need(doc["holds"] is (fails_at is None), "wrong verdict")
    if fails_at is None:
        _need("guaranteed" in doc, "holding report states no guarantee")
    else:
        _need(doc["fails_at_m"] == fails_at, "wrong failing degree")


def _vbscan(job, doc):
    scan = doc["scan"]
    j, m_max = job.meta["j"], job.meta["m_max"]
    rows = scan["rows"]
    _need([row["m"] for row in rows] == list(range(1, m_max + 1)),
          "scan rows do not cover 1..m_max")
    for row in rows:
        _need(len(row["by_p"]) == j + 1 and row["total"] == sum(row["by_p"]),
              f"row m={row['m']} total is not the sum of its degrees")
    sup = max(row["total"] for row in rows)
    _need(scan["observed_sup"] == sup, "observed_sup is not the row maximum")
    _need(scan["verdict"]["observed_bound"] == sup
          and scan["verdict"]["range"] == m_max, "verdict disagrees with rows")


_KIND_CHECKS = {"betti": _betti, "betti_integral": _betti, "pages": _pages,
                "filtration": _filtration, "sigma": _sigma,
                "witness": _witness, "tame": _tame, "report": _report,
                "vbscan": _vbscan}


def check_job(job, code, out):
    """``(reason, doc)``: why the job failed on its own (None when it
    passed) and its parsed document (None when there is none)."""
    if code != job.exit:
        return f"exit code {code}, expected {job.exit}", None
    if job.exit != 0:
        return ("rejected input wrote to stdout" if out else None), None
    try:
        doc = json.loads(out)
        _need(doc["schema"] == "v1" and doc["command"] == job.argv[0],
              "wrong schema or command")
        _KIND_CHECKS[job.kind](job, doc)
    except CheckError as err:
        return str(err), None
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"malformed document: {err!r}", None
    return None, doc


# ------------------------------------------------------------ one pass

def _cross_checks(jobs, docs):
    """Checks that relate jobs of one pass: yields (job id, reason)."""
    betti = {job.meta["rank"]: docs[job.id]["betti"] for job in jobs
             if job.kind == "betti" and job.id in docs}
    tame = {}
    for job in jobs:
        if job.kind == "tame" and job.id in docs:
            tame.setdefault(job.meta["family"], {})[job.meta["m"]] = \
                (job.id, docs[job.id]["tame"])
    for job in jobs:
        doc = docs.get(job.id)
        if doc is None:
            continue
        if job.kind == "filtration" and job.meta["class"] == 2:
            b = betti.get(job.meta["rank"])
            if b is not None and doc["certificate"]["total_dimension"] != b[job.meta["j"]]:
                yield job.id, "filtration total disagrees with the Betti number"
        if job.kind == "betti_integral":
            b = betti.get(job.meta["rank"])
            if b is not None and doc["betti"] != b:
                yield job.id, "integral run disagrees with the rational Betti numbers"
        if job.kind == "report":
            for m, (tid, verdict) in tame.get(job.meta["family"], {}).items():
                if m > doc["requirement"]:
                    continue
                want = doc["holds"] or m < doc["fails_at_m"]
                if verdict != want:
                    yield tid, f"tame m={m} disagrees with {job.id}"
    for family, verdicts in tame.items():
        ms = sorted(verdicts)
        for lo, hi in zip(ms, ms[1:]):
            if verdicts[hi][1] and not verdicts[lo][1]:
                yield verdicts[hi][0], f"{family} tame at m={hi} but not at m={lo}"


def check_pass(jobs, results, golden):
    """Map job id -> failure reason for one pass.

    ``results`` maps job id -> (exit code, stdout).  ``golden`` is the
    default seed's golden, or {} on any other seed.
    """
    failures = {}
    docs = {}
    for job in jobs:
        code, out = results[job.id]
        reason, doc = check_job(job, code, out)
        if reason is None and golden and golden.get(job.id) != [code, digest(out)]:
            reason = "output differs from the golden"
        if reason is not None:
            failures[job.id] = reason
        elif doc is not None:
            docs[job.id] = doc
    for jid, reason in _cross_checks(jobs, docs):
        failures.setdefault(jid, reason)
    return failures

"""Span tracing of nilhom's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that
records a span: layer name, start, end, parent span, job id and a few
counts taken from the call's arguments and result.  A function is
replaced in the module that defines it *and* in every ``nilhom`` module
that holds the same object under the same name (``from .x import f``),
and methods are replaced on their class, so calls through any of those
names are seen.  A call that re-enters the layer it is already inside
(``matrix_rank`` calling ``IntMatrix.rank``, ``kernel_matrix`` calling
``rank_kernel_image``) is folded into the outer span.

Spans stay in memory until ``write`` dumps them as JSON lines.  Self time
is a span's duration minus the time covered by its child spans; a layer's
``.self_frac`` is its self time over the pass's traced job time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter


def _bits(*mats):
    """Largest numerator or denominator bit length among the entries."""
    best = 0
    for m in mats:
        if hasattr(m, "entries"):
            for row in m.entries:
                for x in row:
                    best = max(best, x.numerator.bit_length(),
                               x.denominator.bit_length())
    return best


def _matmul(args, kwargs, result):
    a, b = args
    inner_cols = b.cols if hasattr(b, "cols") else 1
    return {"mults": a.rows * a.cols * inner_cols, "bits": _bits(a, b)}


def _rank(args, kwargs, result):
    m = args[0]
    return {"cells": m.rows * m.cols, "bits": _bits(m)}


def _cells_in(args, kwargs, result):
    return {"cells": args[0].rows * args[0].cols}


def _cells_out(args, kwargs, result):
    return {"cells": result.rows * result.cols}


def _lp(args, kwargs, result):
    return {"vars": args[1], "constraints": len(args[0]), "true": int(result)}


def _cones(args, kwargs, result):
    return {"cones": len(result.cones)}


def _verdict(args, kwargs, result):
    return {"true": int(result)}


def _witness(args, kwargs, result):
    spec = args[0]
    d = args[2] if len(args) > 2 else kwargs.get("degree_bound", 8)
    return {"rows": (2 * d + 1) ** spec.nvars * len(spec.ideal),
            "true": int(result is not None)}


# layer name -> (module, attribute paths, measure); jsonio's encoders and
# decoders are found by name in ``_targets``
LAYERS = {
    "linalg.matmul": ("linalg", ("RatMatrix.__mul__", "IntMatrix.__mul__"), _matmul),
    "linalg.power": ("linalg", ("RatMatrix.__pow__", "IntMatrix.__pow__"), None),
    "linalg.rank": ("linalg", ("matrix_rank", "IntMatrix.rank"), _rank),
    "linalg.rref": ("linalg", ("rank_kernel_image", "kernel_matrix",
                               "image_matrix"), None),
    "linalg.solve": ("linalg", ("solve",), None),
    "linalg.snf": ("linalg", ("smith_normal_form",), _cells_in),
    "linalg.det": ("linalg", ("det", "IntMatrix.det"), None),
    "linalg.exterior": ("linalg", ("exterior_power_map",), None),
    "lp.feasible": ("lp", ("feasible",), _lp),
    "sigma.complement": ("sigma", ("sigma_complement",
                                   "sigma_complement_principal"), _cones),
    "sigma.m_tame": ("sigma", ("m_tame",), _verdict),
    "sigma.witness": ("sigma", ("sigma_witness_search",), _witness),
    "spectral.d2": ("spectral", ("d2_central",), _cells_out),
    "spectral.e2_page": ("spectral", ("e2_page",), None),
    "spectral.page": ("spectral", ("Page.__init__",), None),
    "spectral.homology": ("spectral", ("homology_free_nilpotent_c2",), None),
    "spectral.equivariant_page": ("spectral", ("equivariant_page",), None),
    "filtration.certificate": ("filtration", ("filtration_certificate",), None),
    "filtration.homology_action": ("filtration", ("induced_homology_action",), None),
    "vbscan.scan": ("vbscan", ("vb_scan",), None),
    "vbscan.power": ("vbscan", ("power_subgroup",), None),
    "vbscan.module": ("vbscan", ("QModuleFD.__init__",), None),
    "vbscan.koszul": ("vbscan", ("koszul_homology",), None),
    "groups.quotient_action": ("groups", ("induced_action_on_quotient",), None),
    "groups.hall_basis": ("groups", ("hall_basis",), None),
    "jsonio.encode": ("jsonio", (), None),
    "jsonio.parse": ("jsonio", (), None),
}
ROOT_SPAN = "cli.main"

# extra per-layer counts: metric suffix -> (unit, better)
_EXTRA = {
    "linalg.matmul": {"mults": ("count", "lower")},
    "linalg.rank": {"cells": ("count", "lower")},
    "linalg.snf": {"cells": ("count", "lower")},
    "lp.feasible": {"vars": ("count", "lower"), "constraints": ("count", "lower"),
                    "feasible_ratio": ("ratio", "higher")},
    "sigma.complement": {"cones": ("count", "lower")},
    "sigma.m_tame": {"lp_per_call": ("count", "lower"),
                     "tame_ratio": ("ratio", "higher")},
    "sigma.witness": {"rows": ("count", "lower"),
                      "found_ratio": ("ratio", "higher")},
    "spectral.d2": {"cells": ("count", "lower")},
}


def metric_specs():
    """Every metric a traced pass yields: name -> (unit, better)."""
    specs = {}
    for name in (ROOT_SPAN,) + tuple(LAYERS):
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.self_frac"] = ("ratio", "lower")
        for suffix, spec in _EXTRA.get(name, {}).items():
            specs[f"{name}.{suffix}"] = spec
    specs["linalg.max_entry_bits"] = ("bits", "lower")
    return specs


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; ``job`` and ``pass_no`` label new spans."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, job, pass, counts]
        self.stack = []
        self.job = None
        self.pass_no = 0
        self._undo = []

    def call(self, name, fn, args, kwargs=None, measure=None):
        kwargs = kwargs or {}
        stack, spans = self.stack, self.spans
        if stack and spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                self.pass_no, None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if measure is not None:
            span[6] = measure(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, measure)
        return wrapper

    def _targets(self):
        for name, (mod_name, paths, measure) in LAYERS.items():
            module = sys.modules[f"nilhom.{mod_name}"]
            if mod_name == "jsonio":
                encode = name == "jsonio.encode"
                paths = tuple(
                    a for a, v in vars(module).items()
                    if inspect.isfunction(v) and v.__module__ == module.__name__
                    and (a.endswith("_json") if encode else a.startswith("parse_")))
            for path in paths:
                yield name, module, path, measure

    def install(self):
        """Wrap every traced function in the loaded ``nilhom`` modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nilhom" or n.startswith("nilhom.")]
        for name, module, path, measure in self._targets():
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrapper = self._wrapper(name, original, measure)
            if owner is module:
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """One JSON array per line, after a header line naming the fields;
        ``parent`` is the line number of the parent span (0-based, header
        excluded) or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "job",
                                 "pass", "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def pass_metrics(spans):
    """Per-layer metrics of the spans of one pass (indices are global)."""
    specs = metric_specs()
    out = {name: 0 for name in specs}
    covered = {}
    by_index = {}
    for idx, span in spans:
        by_index[idx] = span
        if span[3] >= 0:
            covered[span[3]] = covered.get(span[3], 0.0) + span[2] - span[1]
    sums = {}
    lp_in_tame = 0
    job_time = sum(end - start for _, (name, start, end, *_) in spans
                   if name == ROOT_SPAN)
    for idx, (name, start, end, parent, _, _, counts) in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_frac"] += (end - start - covered.get(idx, 0.0)) / job_time
        for key, value in (counts or {}).items():
            if key == "bits":
                out["linalg.max_entry_bits"] = max(out["linalg.max_entry_bits"], value)
            else:
                sums[(name, key)] = sums.get((name, key), 0) + value
        if name == "lp.feasible":
            while parent >= 0 and by_index[parent][0] != "sigma.m_tame":
                parent = by_index[parent][3]
            lp_in_tame += parent >= 0
    for (name, key), value in sums.items():
        if key != "true":
            out[f"{name}.{key}"] = value

    def ratio(num, den):
        return num / den if den else 0

    out["lp.feasible.feasible_ratio"] = ratio(sums.get(("lp.feasible", "true"), 0),
                                              out["lp.feasible.calls"])
    out["sigma.m_tame.tame_ratio"] = ratio(sums.get(("sigma.m_tame", "true"), 0),
                                           out["sigma.m_tame.calls"])
    out["sigma.m_tame.lp_per_call"] = ratio(lp_in_tame, out["sigma.m_tame.calls"])
    out["sigma.witness.found_ratio"] = ratio(sums.get(("sigma.witness", "true"), 0),
                                             out["sigma.witness.calls"])
    return out

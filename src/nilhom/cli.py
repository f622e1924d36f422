"""Command-line front end with JSON input and output.

Every command reads specs as inline JSON, a file path, or "-" for stdin,
echoes its resolved configuration into the output document and writes a
schema-versioned JSON payload.  Exit codes: 0 success, 1 when the
reader closed the output pipe before the document was written (nothing
goes to stderr) or on a bug (a traceback), 2 input error (a ValueError:
an unreadable input, an ``--output`` that cannot be opened, a size above
its limit, an integer flag above ``sys.maxsize``) or unsupported
instance, 3 when ``sigma --witness --strict`` came back "unknown".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import jsonio
from .filtration import filtration_certificate
from .groups import (CentralExtension, FreeNilpotentSpec, NilpotentAction,
                     central_extension_of_class2)
from .sigma import (ConeUnion, ValuationVector, hypothesis_report,
                    least_failing_m, m_tame, sigma_complement,
                    sigma_witness_search)
from .linalg import binomial
from .spectral import (betti_free_nilpotent_c2, e2_page,
                       homology_free_nilpotent_c2)
from .vbscan import vb_scan


def _load_json(value, what):
    """Resolve inline JSON, a path, or '-' (stdin) into a parsed document."""
    if value == "-":
        text = sys.stdin.read()
        source = "stdin"
    else:
        try:
            return json.loads(value)
        except json.JSONDecodeError as inline_err:
            try:
                with open(value, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, ValueError) as err:
                raise ValueError(
                    f"{what}: not valid inline JSON (line {inline_err.lineno} "
                    f"column {inline_err.colno}: {inline_err.msg}) and not a "
                    f"readable file: {value!r}: "
                    f"{getattr(err, 'strerror', None) or err}") from None
            source = value
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} ({source}): invalid JSON at line "
                         f"{err.lineno} column {err.colno}: {err.msg}") from None


def _document(command, config, payload):
    doc = {"schema": jsonio.SCHEMA, "command": command, "config": config}
    doc.update(payload)
    return doc


# class one prints binomials C(r, j): rank 4,000 takes about a second in
# betti, and from rank 14,000 on C(r, r/2) has more digits than str() takes
MAX_CLASS_ONE_RANK = 4000


def _require_class_one_rank(group):
    if group.nil_class == 1 and group.rank > MAX_CLASS_ONE_RANK:
        raise ValueError(f"class one takes rank <= {MAX_CLASS_ONE_RANK}, "
                         f"got rank {group.rank}")


def _cmd_betti(args):
    group = jsonio.parse_group(_load_json(args.group, "--group"))
    config = {"group": jsonio.group_json(group), "integral": bool(args.integral)}
    if not isinstance(group, FreeNilpotentSpec):
        raise ValueError("betti needs a free_nilpotent group spec")
    _require_class_one_rank(group)
    if group.nil_class > 2:
        raise ValueError("betti supports free nilpotent groups of class "
                         "<= 2 only; higher classes have no closed page")
    if group.nil_class == 1:
        if args.integral:
            raise ValueError("integral invariant factors need a free "
                             "nilpotent group of class two")
        payload = {"betti": [binomial(group.rank, j)
                             for j in range(group.rank + 1)]}
    else:
        # the integral cells' free ranks are checked against this closed
        # form, so it serves with and without --integral
        payload = {"betti": betti_free_nilpotent_c2(group.rank)}
    if args.integral:
        results = [homology_free_nilpotent_c2(group.rank, j)
                   for j in range(group.hirsch_length + 1)]
        payload["integral"] = [{
            "j": res.j,
            "cells": [{"cell": list(c), "free_rank": f, "torsion": list(t)}
                      for c, f, t in res.integral_cells],
            "invariant_factors":
                list(res.invariant_factors)
                if res.invariant_factors is not None else None,
        } for res in results]
    return _document("betti", config, payload)


# a page has 2^(q_rank + a_rank) labels and is written densely: 15 is the
# rank-5 free page, and rank 6 (21) would be about 7 * 10^10 entries
MAX_PAGE_RANK = 15


def _require_page_rank(q_rank, a_rank):
    if q_rank + a_rank > MAX_PAGE_RANK:
        raise ValueError(f"pages take q_rank + a_rank <= {MAX_PAGE_RANK}, got "
                         f"q_rank {q_rank} and a_rank {a_rank}")


def _cmd_pages(args):
    group = jsonio.parse_group(_load_json(args.group, "--group"))
    config = {"group": jsonio.group_json(group)}
    if isinstance(group, FreeNilpotentSpec):
        if group.nil_class <= 2:
            # sized before the identity pairing is built; class three or
            # more is refused by central_extension_of_class2
            r = group.rank
            _require_page_rank(r, binomial(r, 2) if group.nil_class == 2 else 0)
        group = central_extension_of_class2(group)
    elif isinstance(group, CentralExtension):
        _require_page_rank(group.q_rank, group.a_rank)
    else:
        raise ValueError("pages needs a free_nilpotent or central_extension spec")
    return _document("pages", config, {"page": e2_page(group)})


def _cmd_filtration(args):
    group = jsonio.parse_group(_load_json(args.group, "--group"))
    if not isinstance(group, FreeNilpotentSpec):
        raise ValueError("filtration certificates need a free_nilpotent spec")
    _require_class_one_rank(group)
    cert = filtration_certificate(group, args.j)
    config = {"group": jsonio.group_json(group), "j": args.j}
    return _document("filtration", config,
                     {"certificate": jsonio.certificate_json(cert)})


def _cmd_sigma(args):
    if args.degree_bound < 0:
        raise ValueError("--degree-bound: a degree bound must be >= 0, "
                         f"got {args.degree_bound}")
    spec = jsonio.parse_module(_load_json(args.module, "--module"))
    config = {"module": jsonio.module_json(spec),
              "degree_bound": args.degree_bound}
    payload = {}
    if args.witness is not None:
        entries = jsonio._list(_load_json(args.witness, "--witness"),
                               "--witness must be a list of rationals")
        if len(entries) != spec.nvars:
            raise ValueError(f"--witness has length {len(entries)}, but the "
                             f"module has nvars {spec.nvars}")
        values = tuple(map(jsonio.parse_frac, entries))
        if not any(values):
            raise ValueError("--witness is the zero direction, but a "
                             "direction must be nonzero")
        direction = ValuationVector(values)
        config["witness_direction"] = [jsonio.frac_str(x) for x in direction.v]
        found = sigma_witness_search(spec, direction, args.degree_bound)
        if found is None:
            payload["witness"] = "unknown"
        else:
            payload["witness"] = {
                "poly": jsonio.laurent_json(found.poly),
                "minimal_exponent": list(found.minimal_exponent),
                "combination": [{"generator": gi, "shift": list(sh),
                                 "coeff": jsonio.frac_str(c)}
                                for (gi, sh), c in found.combination],
            }
    else:
        payload["sigma_complement"] = jsonio.cones_json(sigma_complement(spec))
    return _document("sigma", config, payload)


def _agreeing(args, sc):
    """``sc``, cones or a module, once an explicit --nvars is checked
    against its nvars."""
    if args.nvars is not None and args.nvars != sc.nvars:
        what = (f"dimension {sc.nvars} of the cones" if isinstance(sc, ConeUnion)
                else f"nvars {sc.nvars} of the module")
        raise ValueError(f"--nvars {args.nvars} disagrees with the {what}")
    return sc


def _parse_cones(args, nvars):
    """Parse --sigma-complement; nvars serves cones with no constraints."""
    return _agreeing(args, jsonio.parse_cones(
        _load_json(args.sigma_complement, "--sigma-complement"), nvars=nvars))


def _cmd_tame(args):
    if (args.module is None) == (args.sigma_complement is None):
        raise ValueError("tame needs exactly one of --module or --sigma-complement")
    if args.module is None:
        sc = _parse_cones(args, args.nvars)
        config = {"sigma_complement": jsonio.cones_json(sc), "m": args.m}
        return _document("tame", config, {"tame": m_tame(sc, args.m)})
    spec = jsonio.parse_module(_load_json(args.module, "--module"))
    least = least_failing_m(spec)
    _agreeing(args, spec)
    if args.m < 2:
        raise ValueError("tameness is defined for m >= 2")
    config = {"module": jsonio.module_json(spec), "m": args.m}
    return _document("tame", config, {"tame": least is None or least > args.m})


def _cmd_vbscan(args):
    group = jsonio.parse_group(_load_json(args.group, "--group"))
    if not isinstance(group, NilpotentAction):
        raise ValueError("vbscan needs an action spec "
                         '({"type":"action","group":...,"generators":...})')
    report = vb_scan(group, args.j, args.m_max)
    config = {"group": jsonio.group_json(group), "j": args.j,
              "m_max": args.m_max}
    return _document("vbscan", config,
                     {"scan": jsonio.scan_report_json(report)})


def _cmd_report(args):
    sc = _parse_cones(args, args.n if args.nvars is None else args.nvars)
    rep = hypothesis_report(args.c, args.n, sc)
    config = {"c": args.c, "n": args.n,
              "sigma_complement": jsonio.cones_json(sc)}
    return _document("report", config, jsonio.hypothesis_json(rep))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nilhom",
        description="Exact nilpotent-group homology, tameness invariants "
                    "and finite-index Betti scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="rational Betti numbers (class <= 2)")
    p.add_argument("--group", required=True)
    p.add_argument("--integral", action="store_true",
                   help="add per-cell integral invariant factors")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("pages", help="serialise a spectral page")
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_pages)

    p = sub.add_parser("filtration", help="tensor-degree filtration certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("sigma", help="polyhedral complement or a witness search")
    p.add_argument("--module", required=True)
    p.add_argument("--witness", default=None,
                   help="direction vector as JSON, runs the witness search")
    p.add_argument("--degree-bound", type=int, default=8)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the witness search returns unknown")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("tame", help="exact m-tameness decision")
    p.add_argument("--module", default=None)
    p.add_argument("--sigma-complement", default=None)
    p.add_argument("--nvars", type=int, default=None,
                   help="ambient dimension for an empty cone list; "
                        "must agree with the input's")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_tame)

    p = sub.add_parser("vbscan", help="finite-index homology scan")
    p.add_argument("--group", required=True,
                   help="action spec (free nilpotent group plus generators)")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m-max", type=int, default=16)
    p.set_defaults(func=_cmd_vbscan)

    p = sub.add_parser("report", help="tameness hypothesis report")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma-complement", required=True)
    p.add_argument("--nvars", type=int, default=None)
    p.set_defaults(func=_cmd_report)
    for p in sub.choices.values():
        p.add_argument("--output", default=None,
                       help="write the JSON document to this path")
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def _open_output(path):
    """``path`` opened for writing, or stdout when there is none; a path
    that cannot be opened raises ValueError naming it."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        raise ValueError(f"--output {path!r}: {err.strerror}") from None


def _emit(doc, out):
    """Write the document and a newline to the stream ``out``, in the
    chunks ``jsonio.write_json`` hands over."""
    jsonio.write_json(doc, out.write)
    out.write("\n")


def _require_flag_sizes(args):
    """Refuse an integer flag above ``sys.maxsize``, as ``jsonio._size``
    refuses a JSON size: a larger one can make a number in the document
    too long for ``str``."""
    for key, value in vars(args).items():
        if isinstance(value, int) and value > sys.maxsize:
            raise ValueError(f"--{key.replace('_', '-')} is {value}, above the "
                             f"largest size {sys.maxsize}")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _require_flag_sizes(args)
        doc = args.func(args)
        stream = _open_output(args.output)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        with stream as out:
            _emit(doc, out)
            # a short document still sits in stdout's buffer: a closed pipe
            # must show here, not at shutdown
            out.flush()
    except BrokenPipeError:
        # the reader is gone (``| head``): stop quietly, and point stdout at
        # the null device so that its flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # only the witness search can come back "unknown"
    unknown = getattr(args, "strict", False) and doc.get("witness") == "unknown"
    return 3 if unknown else 0


if __name__ == "__main__":
    raise SystemExit(main())

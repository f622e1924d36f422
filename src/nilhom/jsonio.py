"""Shared JSON codecs: rational strings, matrices, group and module specs.

All rationals travel as strings "p/q" (integers as "p"); every document
produced for the command line carries a schema version field "v1".
Ordering of keys and list elements is fixed so repeated runs are
byte-identical.  Integer fields and integer matrix entries may be given
as JSON numbers or strings, but must be integral: "1/2" or 2.9 is
rejected, never truncated.  A JSON boolean is never read as a number.
"""

from __future__ import annotations

from fractions import Fraction
from json import dumps as _scalar
from json.encoder import encode_basestring_ascii as _string

from .filtration import FiltrationCertificate
from .groups import CentralExtension, FreeNilpotentSpec, NilpotentAction
from .linalg import IntMatrix, binomial
from .sigma import Cone, ConeUnion, CyclicModuleSpec, LaurentPoly
from .spectral import Page
from .vbscan import HypothesisReport, ScanReport

SCHEMA = "v1"


def dumps_json(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, written without its pure-Python
    encoder: flat lists of strings or of ints are joined at C speed.

    >>> print(dumps_json({"betti": [1, 2], "ok": True}))
    {
      "betti": [
        1,
        2
      ],
      "ok": true
    }
    """
    out = []
    _encode(doc, "\n", out)
    return "".join(out)


def _encode(x, pad, out):
    """Append the indent-2 text of ``x`` to ``out``; ``pad`` is the newline
    and indentation of the line ``x`` starts on."""
    if isinstance(x, str):
        out.append(_string(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        kinds = set(map(type, x))
        leaf = _string if kinds == {str} else int.__repr__ if kinds == {int} else None
        if leaf is not None:
            out.append("[" + inner + ("," + inner).join(map(leaf, x)) + pad + "]")
        else:
            sep = "["
            for v in x:
                out.append(sep + inner)
                _encode(v, inner, out)
                sep = ","
            out.append(pad + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{"
        for k, v in x.items():
            if not isinstance(k, str):
                if k is not None and not isinstance(k, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {type(k).__name__}")
                k = _scalar(k)
            out.append(sep + inner + _string(k) + ": ")
            _encode(v, inner, out)
            sep = ","
        out.append(pad + "}")
    elif isinstance(x, int) and not isinstance(x, bool):
        out.append(int.__repr__(x))
    elif x is None or isinstance(x, (bool, float)):
        out.append(_scalar(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} "
                        "is not JSON serializable")


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(s) -> Fraction:
    """A Fraction from a JSON number or string; a JSON boolean, which
    Python reads as an int, is refused."""
    if isinstance(s, bool):
        raise ValueError(f"expected an integer, got {s!r}")
    try:
        return Fraction(s if isinstance(s, int) else str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _integer(x) -> int:
    """An int from a JSON number or string, ValueError unless integral."""
    f = parse_frac(x)
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return f.numerator


def int_matrix_json(m: IntMatrix):
    return [[str(x) for x in row] for row in m.entries]


def parse_int_matrix(grid, cols=None) -> IntMatrix:
    """An IntMatrix from a list of rows, each a list of entries; anything
    else, whose keys or characters would be read as entries, is refused."""
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ValueError(f"a matrix must be a list of lists, got {grid!r}")
    return IntMatrix([[_integer(x) for x in row] for row in grid], cols=cols)


def _field(doc, key, what):
    """``doc[key]``, or a ValueError naming ``what`` and the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{what} lacks the field {key!r}") from None


def _list(x, what):
    """``x`` if it is a list, else a ValueError "``what``, got ``x``":
    iterating would read an object by its keys, a string by its letters."""
    if not isinstance(x, list):
        raise ValueError(f"{what}, got {x!r}")
    return x


def parse_group(doc):
    """Parse a group spec document into the matching domain object."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("group spec must be an object with a 'type' field")
    kind = doc["type"]
    what = f"{kind} spec"
    if kind == "free_nilpotent":
        return FreeNilpotentSpec(_integer(_field(doc, "rank", what)),
                                 _integer(_field(doc, "class", what)))
    if kind == "central_extension":
        q_rank = _integer(_field(doc, "q_rank", what))
        a_rank = _integer(_field(doc, "a_rank", what))
        grid = _field(doc, "pairing", what)
        # an empty pairing carries no column count: it is C(q_rank, 2).
        # CentralExtension checks the ranks before the pairing's shape.
        pairing = parse_int_matrix(grid, None if grid else binomial(q_rank, 2))
        return CentralExtension(q_rank, a_rank, pairing)
    if kind == "action":
        group = parse_group(_field(doc, "group", what))
        if not isinstance(group, FreeNilpotentSpec):
            raise ValueError("actions are specified on free nilpotent groups")
        gens = _list(_field(doc, "generators", what),
                     "action generators must be a list of matrices")
        return NilpotentAction(group, tuple(parse_int_matrix(g) for g in gens))
    raise ValueError(f"unknown group type {kind!r}")


def group_json(obj):
    if isinstance(obj, FreeNilpotentSpec):
        return {"type": "free_nilpotent", "rank": obj.rank, "class": obj.nil_class}
    if isinstance(obj, CentralExtension):
        return {"type": "central_extension", "q_rank": obj.q_rank,
                "a_rank": obj.a_rank, "pairing": int_matrix_json(obj.pairing)}
    if isinstance(obj, NilpotentAction):
        return {"type": "action", "group": group_json(obj.target),
                "generators": [int_matrix_json(g) for g in obj.generators]}
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def parse_module(doc) -> CyclicModuleSpec:
    if not isinstance(doc, dict) or "nvars" not in doc:
        raise ValueError("module spec must be an object with 'nvars' and 'ideal'")
    n = _integer(doc["nvars"])
    # before any generator is read, whose exponents would fail on arity
    if n < 0:
        raise ValueError(f"nvars must be nonnegative, got {n}")
    gens = []
    for g in _list(doc.get("ideal", []), "ideal must be a list of generators"):
        terms = {}
        for t in _list([g] if isinstance(g, dict) else g,
                       "an ideal generator must be a list of terms or one term"):
            exp = _list(_field(t, "exp", "module term"),
                        "module term field 'exp' must be a list")
            e = tuple(_integer(x) for x in exp)
            terms[e] = terms.get(e, 0) + parse_frac(_field(t, "coeff", "module term"))
        gens.append(LaurentPoly(n, terms))
    return CyclicModuleSpec(n, tuple(gens))


def laurent_json(f: LaurentPoly):
    return [{"coeff": frac_str(c), "exp": list(e)}
            for e, c in sorted(f.terms.items())]


def module_json(spec: CyclicModuleSpec):
    return {"nvars": spec.nvars, "ideal": [laurent_json(g) for g in spec.ideal]}


def parse_cones(doc, nvars=None) -> ConeUnion:
    """Cone union from its JSON list.

    The rows of any cone fix the dimension, and a cone with no rows takes
    it; ``nvars`` serves only when no cone has a row.  Anything but a
    list of objects, or cones whose rows disagree, raise ValueError.
    """
    if not isinstance(doc, list) or not all(isinstance(c, dict) for c in doc):
        raise ValueError("cone union must be a list of objects "
                         "with 'ineqs' and 'eqs'")
    parsed = [([[parse_frac(x) for x in row] for row in c.get("ineqs", [])],
               [[parse_frac(x) for x in row] for row in c.get("eqs", [])])
              for c in doc]
    first = next((row for ineqs, eqs in parsed for row in ineqs + eqs), None)
    if first is not None:
        nvars = len(first)
    if nvars is None:
        if parsed:
            raise ValueError("cannot infer cone dimension, supply constraints "
                             "or an ambient dimension")
        raise ValueError("empty cone list needs an explicit ambient dimension")
    return ConeUnion(nvars, [Cone(len((ineqs + eqs)[0]) if ineqs + eqs else nvars,
                                  ineqs, eqs) for ineqs, eqs in parsed])


def cones_json(cu: ConeUnion):
    return [{"ineqs": [list(map(str, row)) for row in c.ineqs],
             "eqs": [list(map(str, row)) for row in c.eqs]} for c in cu.cones]


def page_json(page: Page):
    cells = []
    for (p, q), labels in sorted(page.cells.items()):
        cells.append({"p": p, "q": q, "dim": len(labels),
                      "basis": [[list(I), list(J)] for I, J in labels]})
    diffs = []
    for (p, q) in sorted(page.diffs):
        d = page.diffs[(p, q)]
        if d.rows and d.cols and not d.is_zero():
            diffs.append({"p": p, "q": q, "matrix": int_matrix_json(d)})
    return {"cells": cells, "differentials": diffs}


def certificate_json(cert: FiltrationCertificate):
    return {
        "group": group_json(cert.spec),
        "j": cert.j,
        "class": cert.spec.nil_class,
        "bound": cert.bound,
        "layers": [{"tensor_degree": l.tensor_degree,
                    "dimension": l.dimension,
                    "origin": [list(c) for c in l.origin]}
                   for l in cert.layers],
        "total_dimension": cert.total_dimension,
        "dimensions_exact": cert.dimensions_exact,
        "bound_satisfied": cert.bound_satisfied,
    }


def scan_report_json(report: ScanReport):
    return {
        "j": report.j,
        "m_max": report.m_max,
        "rows": [{"m": r.m, "by_p": list(r.by_p), "total": r.total}
                 for r in report.rows],
        "observed_sup": report.observed_sup,
        # constant key, kept because it is part of schema v1
        "verdict": {"bounded_over_range": True,
                    "observed_bound": report.observed_sup,
                    "range": report.m_max},
    }


def hypothesis_json(rep: HypothesisReport):
    out = {"requirement": rep.requirement, "holds": rep.holds}
    if rep.holds:
        out["guaranteed"] = rep.guaranteed
    else:
        out["fails_at_m"] = rep.fails_at_m
    return out

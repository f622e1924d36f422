"""Shared JSON codecs: rational strings, matrices, group and module specs.

All rationals travel as strings "p/q" (integers as "p"); every document
produced for the command line carries a schema version field "v1".
Ordering of keys and list elements is fixed so repeated runs are
byte-identical.  Integer fields and integer matrix entries may be given
as JSON numbers or strings, but must be integral: "1/2" or 2.9 is
rejected, never truncated.  A JSON boolean is never read as a number.

``write_json`` writes every document, as ``json.dumps(doc, indent=2)``
would, through a ``write`` callable.  A ``Page`` is written directly,
with no dict or string grid built for it: its cells and matrix rows go
out one chunk each, so ``pages`` never holds its whole text.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from json import dumps as _scalar
from json.encoder import encode_basestring_ascii as _string

from .filtration import FiltrationCertificate
from .groups import CentralExtension, FreeNilpotentSpec, NilpotentAction
from .linalg import IntMatrix, binomial
from .sigma import Cone, ConeUnion, CyclicModuleSpec, HypothesisReport, LaurentPoly
from .spectral import Page
from .vbscan import ScanReport

SCHEMA = "v1"


def write_json(doc, write):
    """Write exactly ``json.dumps(doc, indent=2)`` through ``write``,
    without its pure-Python encoder: flat lists of strings or of ints are
    joined at C speed.  A ``Page`` in the document is written as its
    cells and nonzero differentials (``_write_page``), one chunk per cell
    and one per matrix row; the rest goes in one chunk.

    >>> write_json({"betti": [1, 2], "ok": True}, print)
    {
      "betti": [
        1,
        2
      ],
      "ok": true
    }
    """
    out = []
    _encode(doc, "\n", out, write)
    write("".join(out))


def _encode(x, pad, out, write):
    """Append the indent-2 text of ``x`` to ``out``; ``pad`` is the newline
    and indentation of the line ``x`` starts on.  A ``Page`` flushes
    ``out`` and writes itself through ``write``."""
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
                _encode(v, inner, out, write)
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
            _encode(v, inner, out, write)
            sep = ","
        out.append(pad + "}")
    elif isinstance(x, int) and not isinstance(x, bool):
        out.append(int.__repr__(x))
    elif x is None or isinstance(x, (bool, float)):
        out.append(_scalar(x))
    elif isinstance(x, Page):
        write("".join(out))
        out.clear()
        _write_page(x, pad, write)
    else:
        raise TypeError(f"Object of type {type(x).__name__} "
                        "is not JSON serializable")


def _write_page(page: Page, pad, write):
    """Write a page as the object {"cells": [...], "differentials": [...]}
    at indentation ``pad``: each cell (p, q, dim and its basis of labels
    [I, J]) in order of (p, q), then each differential that is neither
    empty nor zero, its matrix as rows of integer strings.  One chunk
    goes to ``write`` per cell and per matrix row; a label is joined from
    the texts of its I and its J, each made once, and a row from a row of
    "0" texts with the row's nonzero entries put in place."""
    p1, p2, p3, p4, p5, p6 = (pad + "  " * i for i in range(1, 7))

    def seq(t):
        return "[" + p6 + ("," + p6).join(map(str, t)) + p5 + "]" if t else "[]"

    @cache
    def left(I):
        return "[" + p5 + seq(I) + "," + p5

    @cache
    def right(J):
        return seq(J) + p4 + "]"

    cells = sorted(page.cells.items())
    head = "{" + p1 + '"cells": ['
    for (p, q), labels in cells:
        basis = ("[" + p4 + ("," + p4).join([left(I) + right(J) for I, J in labels])
                 + p3 + "]") if labels else "[]"
        write(head + p2 + "{" + p3 + f'"p": {p},' + p3 + f'"q": {q},' + p3
              + f'"dim": {len(labels)},' + p3 + '"basis": ' + basis + p2 + "}")
        head = ","
    head = (p1 + "]" if cells else head + "]") + "," + p1 + '"differentials": ['
    diffs = [(pq, d) for pq, d in sorted(page.diffs.items())
             if d.rows and d.cols and not d.is_zero()]
    for i, ((p, q), d) in enumerate(diffs):
        head += ("," if i else "") + p2 + "{" + p3 + f'"p": {p},' + p3 \
            + f'"q": {q},' + p3 + '"matrix": ['
        sep, zeros = "", ["0"] * d.cols
        for terms in d.terms:
            row = zeros.copy()
            for j, x in terms:
                row[j] = str(x)
            write(head + sep + p4 + "[" + p5 + '"'
                  + ('",' + p5 + '"').join(row) + '"' + p4 + "]")
            head, sep = "", ","
        head = p3 + "]" + p2 + "}"
    write(head + (p1 + "]" if diffs else "]") + pad + "}")


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


def _size(doc, key, what):
    """The integer field ``doc[key]``, refused with a ValueError naming it
    above ``sys.maxsize``: no rank, class or variable count can exceed
    the largest index Python can hold."""
    n = _integer(_field(doc, key, what))
    if n > sys.maxsize:
        raise ValueError(f"{what} field {key!r} is {n}, above the largest "
                         f"size {sys.maxsize}")
    return n


def _known(doc, keys, what):
    """A ValueError naming the first field of the object ``doc`` outside
    ``keys``: a misspelt field would otherwise read as an absent one."""
    extra = sorted(set(doc) - set(keys))
    if extra:
        *head, last = map(repr, keys)
        raise ValueError(f"{what} has the unknown field {extra[0]!r}; it "
                         f"takes {', '.join(head)} and {last}")


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
        _known(doc, ("type", "rank", "class"), what)
        return FreeNilpotentSpec(_size(doc, "rank", what),
                                 _size(doc, "class", what))
    if kind == "central_extension":
        _known(doc, ("type", "q_rank", "a_rank", "pairing"), what)
        q_rank = _size(doc, "q_rank", what)
        a_rank = _size(doc, "a_rank", what)
        grid = _field(doc, "pairing", what)
        # an empty pairing carries no column count: it is C(q_rank, 2).
        # CentralExtension checks the ranks before the pairing's shape.
        pairing = parse_int_matrix(grid, None if grid else binomial(q_rank, 2))
        return CentralExtension(q_rank, a_rank, pairing)
    if kind == "action":
        _known(doc, ("type", "group", "generators"), what)
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
    """A module spec {"nvars": n, "ideal": [...]}; both fields are
    required and no other is read."""
    n = _size(doc, "nvars", "module spec")
    _known(doc, ("nvars", "ideal"), "module spec")
    # before any generator is read, whose exponents would fail on arity
    if n < 0:
        raise ValueError(f"nvars must be nonnegative, got {n}")
    gens = []
    for g in _list(_field(doc, "ideal", "module spec"),
                   "ideal must be a list of generators"):
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
    return [{"coeff": str(Fraction(c)), "exp": list(e)}
            for e, c in sorted(f.terms.items())]


def module_json(spec: CyclicModuleSpec):
    return {"nvars": spec.nvars, "ideal": [laurent_json(g) for g in spec.ideal]}


def parse_cones(doc, nvars=None) -> ConeUnion:
    """Cone union from its JSON list.

    The rows of any cone fix the dimension, and a cone with no rows takes
    it; ``nvars`` serves only when no cone has a row.  Anything but a
    list of objects with no fields but 'ineqs' and 'eqs' (each optional),
    or cones whose rows disagree, raise ValueError.
    """
    if not isinstance(doc, list) or not all(isinstance(c, dict) for c in doc):
        raise ValueError("cone union must be a list of objects "
                         "with 'ineqs' and 'eqs'")
    for c in doc:
        _known(c, ("ineqs", "eqs"), "cone")

    def rows(cone, key):
        what = f"cone field {key!r} must be a list of rows"
        return [[parse_frac(x) for x in _list(row, what)]
                for row in _list(cone.get(key, []), what)]
    parsed = [(rows(c, "ineqs"), rows(c, "eqs")) for c in doc]
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

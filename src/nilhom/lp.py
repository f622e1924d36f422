"""Exact feasibility of affine constraint systems over the rationals.

Phase one of the simplex method with Bland's rule over
``fractions.Fraction``: one artificial variable per row, and the system
is feasible exactly when their sum can be driven to zero.  Termination
is guaranteed by Bland's anticycling rule and every verdict is exact, so
a True/False answer here is a proof, not an approximation.

A constraint is (coeffs, const, rel) meaning coeffs . x + const REL 0
with rel one of ">=", "==".  There are no strict inequalities: on a cone
"phi(v) > 0" is, after scaling v, the same as "phi(v) - 1 >= 0", which
is how callers state that a point is nonzero.  Variables are free
(unrestricted in sign); they are split internally into nonnegative
pairs.
"""

from __future__ import annotations

from fractions import Fraction

GE = ">="
EQ = "=="

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, tr in enumerate(tableau):
        if i != row and tr[col] != 0:
            f = tr[col]
            tableau[i] = [a - f * b if b else a
                          for a, b in zip(tr, tableau[row])]
    basis[row] = col


def _maximise(tableau, basis, cost):
    """Simplex loop: maximise cost over the tableau, Bland's rule.

    Returns the optimal objective value.  Only phase one runs here, whose
    objective (minus the sum of the artificials) is bounded above by 0,
    so the ratio test always finds a leaving row.
    """
    m = len(tableau)
    ncols = len(tableau[0]) - 1
    while True:
        costed = [(cost[basis[i]], tableau[i]) for i in range(m)
                  if cost[basis[i]]]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            reduced = cost[j] - sum(c * row[j] for c, row in costed)
            if reduced > 0:
                entering = j
                break
        if entering is None:
            return sum(c * row[-1] for c, row in costed)
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        _pivot(tableau, basis, leaving, entering)


def feasible(constraints, nvars: int) -> bool:
    """Decide whether the constraint system has a rational solution."""
    ge_rows = []
    eq_rows = []
    for coeffs, const, rel in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        const = Fraction(const)
        if len(coeffs) != nvars:
            raise ValueError("constraint arity mismatch")
        if rel not in (GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        if all(c == 0 for c in coeffs):
            if const < 0 or (rel == EQ and const != 0):
                return False
            continue
        (ge_rows if rel == GE else eq_rows).append((coeffs, const))

    # columns: split variables (2*nvars), then one slack per inequality row
    total = 2 * nvars + len(ge_rows)

    def expand(coeffs):
        row = [_ZERO] * total
        for k, c in enumerate(coeffs):
            row[2 * k] = c
            row[2 * k + 1] = -c
        return row

    rows = []
    for s, (coeffs, const) in enumerate(ge_rows):
        # coeffs . x + const >= 0, rewritten with slack: coeffs . x - s = -const
        row = expand(coeffs)
        row[2 * nvars + s] = -_ONE
        rows.append((row, -const))
    for coeffs, const in eq_rows:
        rows.append((expand(coeffs), -const))

    if not rows:
        return True

    # phase one: artificial basis, normalise right-hand sides to >= 0
    m = len(rows)
    tableau = []
    basis = []
    for i, (row, rhs) in enumerate(rows):
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tableau.append(row + [_ZERO] * m + [rhs])
        basis.append(total + i)
    for i in range(m):
        tableau[i][total + i] = _ONE
    cost = [_ZERO] * total + [-_ONE] * m
    return _maximise(tableau, basis, cost) == 0

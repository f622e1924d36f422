"""Exact feasibility of affine constraint systems over the rationals.

Phase one of the simplex method with Bland's rule on a fraction-free
integer tableau.  Every caller states its rows in ints (a rational row
is scaled by the lcm of its denominators first), so every entry is an
integer throughout.  A tableau row is kept only up to a positive factor
(the true row is the stored one divided by its basic variable's
coefficient): a pivot replaces row i by p*row_i - f*row_r and divides it
by its content, and the ratio test compares right-hand side over pivot
entry by cross-multiplication, where those factors cancel.  Termination
is guaranteed by Bland's anticycling rule (Bland, 1977) and every
verdict is exact, so a True/False answer here is a proof, not an
approximation.  In ``sigma`` it decides the tameness of cone unions,
Newton vertices and whether a cone has a nonzero point; the tameness
of a free or principal module asks it nothing.

A constraint is (coeffs, const, rel) meaning coeffs . x + const REL 0
with rel one of ">=", "==", and every entry an int; a ``Fraction``
entry raises TypeError.  There are no strict inequalities: on a cone
"phi(v) > 0" is, after scaling v, the same as "phi(v) - 1 >= 0", which
is how callers state that a point is nonzero.

Artificial variables are kept for the rows that need them (Chvatal,
*Linear Programming*, ch. 8).  A ">=" row with const >= 0 holds at x = 0
and is written -coeffs . x + s = const with its slack s basic; every
"==" row and every ">=" row with const < 0 starts with an artificial
basic, and the phase-one cost sums only those rows.  A system with no
such row is feasible at x = 0, with no pivot.  Variables are free
(unrestricted in sign) and each is one tableau column, not a split pair
(ch. 11): a free column enters at most once, and its row, which then
only defines its value, is dropped; ``_phase_one`` gives the
termination argument.
"""

from __future__ import annotations

from math import gcd
from operator import index

GE = ">="
EQ = "=="


def _reduce(row):
    """row divided by the gcd of its entries (all entries integers)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _phase_one(rows, ncols, basis, nfree):
    """Maximise minus the sum of the artificials over integer rows.

    ``rows`` hold ncols integer coefficients and a right-hand side >= 0.
    ``basis[i]`` is row i's basic variable: a column below ncols whose
    entry in row i is positive and zero in every other row, or ncols + i
    for an artificial, whose column is not stored: an artificial that
    leaves the basis stays at 0, which does not change whether the
    system is feasible.  ``cost`` is the phase-one reduced-cost row over
    the real columns, up to a positive factor; it starts as the sum of
    the rows whose artificial is basic, and with no such row x = 0 is
    feasible.

    The first ``nfree`` columns are free variables, the rest are >= 0.
    The entering column is the first one whose reduced cost is positive,
    or nonzero for a free column (Bland); a free column with a negative
    cost enters with its sign flipped, which the pivot folds into p and
    f.  Once a free column is basic its row only defines that variable's
    value, so the row is dropped; the column is then zero in every row
    and in the cost, and never enters again.  So free columns make at
    most nfree pivots, after which Bland's rule alone ends the loop.  The
    objective is bounded above by 0, so the ratio test always finds a
    leaving row.  Returns True exactly when the optimum is 0, i.e. when
    every basic artificial ends at right-hand side 0.
    """
    art = [row for row, b in zip(rows, basis) if b >= ncols]
    if not art:
        return True
    cost = _reduce([sum(col) for col in zip(*art)][:ncols])
    while True:
        if not any(row[-1] for row, b in zip(rows, basis) if b >= ncols):
            return True
        entering = next((j for j, c in enumerate(cost)
                         if c > 0 or (c and j < nfree)), None)
        if entering is None:
            return False
        sign = 1 if cost[entering] > 0 else -1
        leaving = None
        for i, row in enumerate(rows):
            a = sign * row[entering]
            if a <= 0:
                continue
            if leaving is not None:
                # row[-1] / a against the best ratio; Bland's rule on ties
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                    continue
            leaving, best_a, best_b = i, a, row[-1]
        prow = rows[leaving]
        p = sign * prow[entering]
        for i, row in enumerate(rows):
            f = sign * row[entering]
            if i != leaving and f:
                rows[i] = _reduce([p * x - f * y for x, y in zip(row, prow)])
        f = sign * cost[entering]
        cost = _reduce([p * x - f * y for x, y in zip(cost, prow)])
        if entering < nfree:
            del rows[leaving], basis[leaving]
        else:
            basis[leaving] = entering


def feasible(constraints, nvars: int) -> bool:
    """Decide whether the constraint system has a rational solution."""
    ge_rows = []
    eq_rows = []
    for coeffs, const, rel in constraints:
        *coeffs, const = map(index, (*coeffs, const))
        if len(coeffs) != nvars:
            raise ValueError("constraint arity mismatch")
        if rel not in (GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        if not any(coeffs):
            if const < 0 or (rel == EQ and const != 0):
                return False
            continue
        (ge_rows if rel == GE else eq_rows).append((coeffs, const))

    # columns: the variables, then one slack per inequality row, then the
    # right-hand side, which is made >= 0; basis[i] is row i's slack, or
    # total + i for its artificial
    total = nvars + len(ge_rows)
    rows, basis = [], []
    for k, (coeffs, const) in enumerate(ge_rows):
        # coeffs . x + const >= 0, with slack s = coeffs . x + const
        row = coeffs + [0] * len(ge_rows) + [const]
        if const >= 0:
            # -coeffs . x + s = const: the slack starts basic
            row[:nvars] = [-c for c in coeffs]
            row[nvars + k] = 1
            basis.append(nvars + k)
        else:
            # coeffs . x - s = -const > 0: the artificial starts basic
            row[nvars + k] = -1
            row[-1] = -const
            basis.append(total + k)
        rows.append(_reduce(row))
    for coeffs, const in eq_rows:
        row = coeffs + [0] * len(ge_rows) + [-const]
        basis.append(total + len(rows))
        rows.append(_reduce([-x for x in row] if const > 0 else row))
    return _phase_one(rows, total, basis, nvars)

"""Exact feasibility of affine constraint systems over the rationals.

Phase one of the simplex method with Bland's rule on a fraction-free
integer tableau: one artificial variable per row, and the system is
feasible exactly when their sum can be driven to zero.  Every caller
states its rows in ints (a rational row is scaled by the lcm of its
denominators first), so every entry is an integer throughout.  A
tableau row is kept only up to a positive factor (the true row is the
stored one divided by its basic variable's coefficient): a pivot
replaces row i by p*row_i - f*row_r and divides it by its content, and
the ratio test compares right-hand side over pivot entry by
cross-multiplication, where those factors cancel.  Termination is
guaranteed by Bland's anticycling rule and every verdict is exact, so a
True/False answer here is a proof, not an approximation.

A constraint is (coeffs, const, rel) meaning coeffs . x + const REL 0
with rel one of ">=", "==", and every entry an int; a ``Fraction``
entry raises TypeError.  There are no strict inequalities: on a cone
"phi(v) > 0" is, after scaling v, the same as "phi(v) - 1 >= 0", which
is how callers state that a point is nonzero.  Variables are free
(unrestricted in sign); they are split internally into nonnegative
pairs.
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


def _phase_one(rows, ncols):
    """Maximise minus the sum of the artificials over integer rows.

    ``rows`` hold ncols integer coefficients and a right-hand side >= 0;
    row i starts with its artificial variable basic (index ncols + i).
    The artificial columns are not stored: an artificial that leaves the
    basis stays at 0, which does not change whether the system is
    feasible.  ``cost`` is the phase-one reduced-cost row over the real
    columns, up to a positive factor, and a column enters while its
    reduced cost is positive (first such column, Bland).  The objective
    is bounded above by 0, so the ratio test always finds a leaving row.
    Returns True exactly when the optimum is 0, i.e. when every basic
    artificial ends at right-hand side 0.
    """
    m = len(rows)
    basis = [ncols + i for i in range(m)]
    cost = _reduce([sum(col) for col in zip(*rows)][:ncols])
    while True:
        if not any(rows[i][-1] for i in range(m) if basis[i] >= ncols):
            return True
        entering = next((j for j, c in enumerate(cost) if c > 0), None)
        if entering is None:
            return False
        leaving = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a <= 0:
                continue
            if leaving is not None:
                # row[-1] / a against the best ratio; Bland's rule on ties
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                    continue
            leaving, best_a, best_b = i, a, row[-1]
        prow = rows[leaving]
        p = prow[entering]
        for i, row in enumerate(rows):
            f = row[entering]
            if i != leaving and f:
                rows[i] = _reduce([p * x - f * y for x, y in zip(row, prow)])
        f = cost[entering]
        cost = _reduce([p * x - f * y for x, y in zip(cost, prow)])
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

    # columns: split variables (2*nvars), then one slack per inequality
    # row, then the right-hand side
    total = 2 * nvars + len(ge_rows)
    rows = []
    for k, (coeffs, const) in enumerate(ge_rows + eq_rows):
        # coeffs . x + const >= 0, with slack: coeffs . x - s = -const
        row = [0] * (total + 1)
        for j, c in enumerate(coeffs):
            row[2 * j] = c
            row[2 * j + 1] = -c
        if k < len(ge_rows):
            row[2 * nvars + k] = -1
        row[-1] = -const
        # right-hand sides >= 0, so the artificial basis is feasible
        rows.append(_reduce([-x for x in row] if const > 0 else row))
    return _phase_one(rows, total)

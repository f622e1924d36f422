"""Reference rational elimination, products and Smith form for tests.

Plain Gauss-Jordan and Gaussian elimination and the dense triple-loop
product over ``Fraction`` entries, kept independent of the fraction-free
kernel and the sparse integer product in :mod:`nilhom.linalg` so that
tests and oracles can check those against them.  ``smith_normal_form``
is the library's former Smith reduction with its unimodular transforms,
the oracle for the diagonal-only routine that replaced it.
``merge_invariant_factors`` is the library's former merge, which walks
the whole chain for every factor.
``exterior_power_map`` takes every minor with its own ``det``, as the
library did before it expanded each size of minor from the one below.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from nilhom.linalg import IntMatrix, RatMatrix


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Dense product: every entry is a full sum of ``Fraction`` products."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    bt = [[Fraction(b.entries[i][j]) for i in range(b.rows)]
          for j in range(b.cols)]
    return RatMatrix([[sum((Fraction(x) * y for x, y in zip(row, col)),
                           Fraction(0)) for col in bt]
                      for row in a.entries], a.rows, b.cols)


def _gauss_jordan(work, nr, nc):
    """Reduce ``work`` in place on its first nc columns; return the pivots."""
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(nr):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank_kernel_image(m: RatMatrix):
    """``(rank, kernel_basis, image_basis)`` as in :mod:`nilhom.linalg`."""
    nr, nc = m.rows, m.cols
    work = [[Fraction(x) for x in r] for r in m.entries]
    pivots = _gauss_jordan(work, nr, nc)
    pivot_set = set(pivots)
    kernel = []
    for fc in (c for c in range(nc) if c not in pivot_set):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -work[ri][fc]
        kernel.append(tuple(v))
    image = [m.col(c) for c in pivots]
    return len(pivots), kernel, image


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Solve A X = B with free variables zero; ValueError if inconsistent."""
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    nr, nc, k = a.rows, a.cols, b.cols
    work = [[Fraction(x) for x in ar + br] for ar, br in zip(a.entries, b.entries)]
    pivots = _gauss_jordan(work, nr, nc)
    for i in range(len(pivots), nr):
        if any(work[i][nc + j] != 0 for j in range(k)):
            raise ValueError("inconsistent linear system")
    x = [[Fraction(0)] * k for _ in range(nc)]
    for ri, pc in enumerate(pivots):
        for j in range(k):
            x[pc][j] = work[ri][nc + j]
    return RatMatrix(x, nc, k)


def det(m) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    work = [[Fraction(x) for x in r] for r in m.entries]
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            out = -out
        pv = work[c][c]
        out *= pv
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return out


def exterior_power_map(m, k: int) -> RatMatrix:
    """Matrix of the k-th exterior power: the (I, J) entry is the minor
    of ``m`` on rows I and columns J, one determinant each."""
    row_idx = list(combinations(range(m.rows), k))
    col_idx = list(combinations(range(m.cols), k))
    return RatMatrix([[det(RatMatrix([[m.entries[i][j] for j in J] for i in I],
                                     k, k))
                       for J in col_idx] for I in row_idx],
                     len(row_idx), len(col_idx))


def smith_normal_form(m: IntMatrix):
    """Smith normal form with unimodular transforms: U * M * V = D.

    D is diagonal with nonnegative entries in a divisibility chain
    d1 | d2 | ... ; U and V have determinant +-1.
    """
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for rr in range(nr):
            a[rr][i] -= q * a[rr][j]
        for rr in range(nc):
            v[rr][i] -= q * v[rr][j]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for rr in range(nr):
                a[rr][t], a[rr][bj] = a[rr][bj], a[rr][t]
            for rr in range(nc):
                v[rr][t], v[rr][bj] = v[rr][bj], v[rr][t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        viol = None
        for i in range(t + 1, nr):
            if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, nc)):
                viol = i
                break
        if viol is not None:
            row_op(t, viol, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (IntMatrix(u, nr, nr),
            IntMatrix(a, nr, nc),
            IntMatrix(v, nc, nc))


def merge_invariant_factors(chain, factors):
    """Invariant factors of the sum of Z/d over ``chain`` and Z/f over
    ``factors``: each f walks the whole chain from the top down,
    replacing (d, f) with (lcm, gcd), and what is left above 1 is
    prepended."""
    out = list(chain)
    for f in factors:
        for i in range(len(out) - 1, -1, -1):
            out[i], f = lcm(out[i], f), gcd(out[i], f)
        if f > 1:
            out.insert(0, f)
    return tuple(out)

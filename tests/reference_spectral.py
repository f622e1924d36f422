"""Reference d2 and integral homology of the dense class-two page.

``d2_rows`` is the dense construction of d2 the library ran before it
held differentials as sparse rows: a grid of zeros that every term is
added into.  ``nonzero_rows`` reads a dense matrix back into the rows of
a ``SparseIntMatrix``, as the library's d2 o d2 check once did.  The
Smith reduction of whole page cells is as the library ran it before the
content blocks and before torsion was read off the incoming map alone;
kept so tests can check both against it.  ``class2_dims`` is the closed
form as the library took it before it read dimensions from the
Frobenius arms: each self-conjugate lambda rebuilt row by row, and the
hook-content formula multiplied out over its boxes.  ``class2_groups``
is the content grouping of the class-two labels as the library ran it
before it walked the contents generator by generator: every subset I
tried against every J.
"""

from bisect import bisect_left
from itertools import combinations, compress
from math import comb, prod

from reference_linalg import smith_normal_form, solve

from nilhom.groups import CentralExtension
from nilhom.linalg import IntMatrix, RatMatrix, SparseIntMatrix
from nilhom.spectral import Page, _cell_labels, _pair_images


def d2_rows(src, tgt, images):
    """Integer entries of d2 from the labels ``src`` to the labels ``tgt``,
    as a dense grid (see ``spectral._d2_rows`` for the terms)."""
    rows = {}
    for i, (I, J) in enumerate(tgt):
        rows.setdefault(I, {})[J] = i
    top = 1 + max((alpha for terms in images.values() for alpha, _ in terms),
                  default=-1)
    wedges, columns = {}, {}
    for col, (I, J) in enumerate(src):
        wedge = wedges.get(J)
        if wedge is None:
            wedge = wedges[J] = [
                None if alpha in J else (J[:b] + (alpha,) + J[b:], -1 if b % 2 else 1)
                for alpha in range(top) for b in (bisect_left(J, alpha),)]
        columns.setdefault(I, []).append((col, wedge))
    mat = [[0] * len(src) for _ in tgt]
    for I, cols in columns.items():
        for k in range(len(I)):
            for l in range(k + 1, len(I)):
                row_of = rows.get(I[:k] + I[k + 1:l] + I[l + 1:], {})
                sgn = 1 if (k + l) % 2 else -1
                for alpha, cval in images[(I[k], I[l])]:
                    value = sgn * cval
                    for col, wedge in cols:
                        hit = wedge[alpha]
                        if hit is not None:
                            J2, wedge_sgn = hit
                            mat[row_of[J2]][col] += wedge_sgn * value
    return mat


def d2_dense(ext: CentralExtension, p: int, q: int) -> IntMatrix:
    """The dense d2 out of cell (p, q) of an extension's page."""
    src = _cell_labels(ext.q_rank, ext.a_rank, p, q)
    tgt = _cell_labels(ext.q_rank, ext.a_rank, p - 2, q + 1)
    return IntMatrix(d2_rows(src, tgt, _pair_images(ext)), len(tgt), len(src))


def nonzero_rows(m):
    """Each row of the matrix ``m`` as its nonzero (column, entry) pairs."""
    return [list(compress(enumerate(row), row)) for row in m.entries]


def sparse(m) -> SparseIntMatrix:
    """The integer matrix ``m`` held as the nonzero entries of its rows."""
    return SparseIntMatrix(nonzero_rows(m), m.rows, m.cols)


def integral_homology(d_out: IntMatrix, d_in: IntMatrix):
    """Free rank and torsion of ker(d_out) / im(d_in) over the integers.

    The columns of V past the rank of the Smith form U d_out V span the
    integral kernel; the torsion is the Smith form of im(d_in) in that
    basis, its factors above 1 in divisibility order.
    """
    _, dd, vv = smith_normal_form(d_out)
    rank_out = sum(1 for i in range(min(dd.rows, dd.cols))
                   if dd.entries[i][i] != 0)
    kernel_cols = [vv.col(j) for j in range(rank_out, d_out.cols)]
    k = len(kernel_cols)
    if k == 0:
        return 0, ()
    kmat = RatMatrix.from_cols(kernel_cols, d_out.cols)
    x = solve(kmat, d_in.to_rat()).to_int()
    _, dx, _ = smith_normal_form(x)
    diag = [dx.entries[i][i] for i in range(min(dx.rows, dx.cols))]
    rank_in = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return k - rank_in, torsion


def integral_cell(page: Page, p: int, q: int):
    """Free rank and torsion of the integral ker/im at one cell."""
    return integral_homology(page.diff(p, q), page.diff(p + 2, q - 1))


def class2_dims(r: int):
    """Every cell (p, q) of the rational third page of free class two
    and rank r, mapped to the sum of dim S_lambda(Q^r) over the
    self-conjugate lambda = (a | a) with d arms summing to q, p = d."""
    dims = {(p, q): 0 for p in range(r + 1) for q in range(comb(r, 2) + 1)}
    for d in range(r + 1):
        for arms in combinations(range(r - 1, -1, -1), d):
            # lambda_i is a_i + i + 1 within the Durfee square; below it,
            # lambda being self-conjugate, the number of columns k whose
            # length a_k + k + 1 passes row i
            lam = [arms[i] + i + 1 if i < d
                   else sum(a + k >= i for k, a in enumerate(arms))
                   for i in range(arms[0] + 1 if d else 0)]
            boxes = [(i, j) for i, row in enumerate(lam) for j in range(row)]
            dims[(d, sum(arms))] += (
                prod(r + j - i for i, j in boxes)
                // prod(lam[i] - j + lam[j] - i - 1 for i, j in boxes))
    return dims


def class2_groups(r: int):
    """The labels (I, J) of the free class-two page of rank r with weakly
    decreasing content, as content -> (p, q) -> sorted labels."""
    pairs = list(combinations(range(r), 2))
    subsets = [(I, [int(i in I) for i in range(r)])
               for p in range(r + 1) for I in combinations(range(r), p)]
    groups = {}
    for q in range(len(pairs) + 1):
        for J in combinations(range(len(pairs)), q):
            base = [0] * r
            for alpha in J:
                i, j = pairs[alpha]
                base[i] += 1
                base[j] += 1
            if any(y > x + 1 for x, y in zip(base, base[1:])):
                continue
            for I, ind in subsets:
                c = tuple(x + y for x, y in zip(base, ind))
                if all(x >= y for x, y in zip(c, c[1:])):
                    groups.setdefault(c, {}).setdefault((len(I), q), []).append((I, J))
    return {c: {pq: sorted(labs) for pq, labs in cells.items()}
            for c, cells in groups.items()}

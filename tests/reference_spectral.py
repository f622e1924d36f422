"""Reference integral homology of the dense class-two page.

The Smith reduction of whole page cells, as the library ran it before
the content blocks and before torsion was read off the incoming map
alone; kept so tests can check both against it.
"""

from reference_linalg import smith_normal_form, solve

from nilhom.linalg import IntMatrix, RatMatrix
from nilhom.spectral import Page


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

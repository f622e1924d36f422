"""Reference integral homology of the dense class-two page.

The Smith reduction of whole page cells, as the library ran it before
the content blocks; kept so tests can check the block path against it.
"""

from nilhom.linalg import RatMatrix, smith_normal_form, solve
from nilhom.spectral import Page


def integral_cell(page: Page, p: int, q: int):
    """Free rank and torsion of the integral ker/im at one cell."""
    d_out = page.diff(p, q).to_int()
    d_in = page.diff(p + 2, q - 1).to_int()
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

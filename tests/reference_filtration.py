"""Reference induced homology actions, read off the whole equivariant page.

``induced_homology_action`` as the library ran it before the page was
cut at total degree j + 1 and before the cells of a degree were kept
apart: the equivariant page carries every cell, and degree deg is the
direct sum of the third-page cells (i, deg - i), one block-diagonal
matrix per generator.  Kept so tests can check the bounded, cell-by-cell
action against it, on the seeded actions of ``random_action``.
"""

from fractions import Fraction

from nilhom.filtration import _subquotient_action
from nilhom.groups import NilpotentAction
from nilhom.linalg import IntMatrix, RatMatrix
from nilhom.spectral import equivariant_page


def block_diag(mats) -> RatMatrix:
    """Direct sum of square or rectangular matrices, first one top left."""
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            out[r0 + i][c0:c0 + m.cols] = m.entries[i]
        r0 += m.rows
        c0 += m.cols
    return RatMatrix(out, rows, cols)


def direct_sum(cells, ngens: int) -> list:
    """One block-diagonal matrix per generator from a list of cells, each
    one matrix per generator; no cells give the 0 x 0 matrix."""
    return [block_diag(cell[gi] for cell in cells) for gi in range(ngens)]


def induced_homology_action(act, j: int):
    """Per degree 0..j, one matrix per generator on degree-q homology."""
    ngens = len(act.generators)
    out = [[RatMatrix.identity(1) for _ in range(ngens)]]
    if j == 0:
        return out
    epage = equivariant_page(act.target, act.generators)
    page = epage.page
    for deg in range(1, j + 1):
        cells = []
        for i in range(1, deg + 1):
            q = deg - i
            if page.cell_dim(i, q) == 0:
                continue
            cell = _subquotient_action(page.diff(i, q), page.diff(i + 2, q - 1),
                                       epage.actions[(i, q)])
            if cell is not None:
                cells.append(cell)
        out.append(direct_sum(cells, ngens))
    return out


def random_action(rng, spec) -> NilpotentAction:
    """One to three commuting automorphisms of the abelianisation.

    The first is a product of elementary matrices and sign flips, so it
    has determinant +-1 and usually eigenvalues off the unit circle; the
    others are its square and -1.
    """
    r = spec.rank
    g = IntMatrix.identity(r)
    for _ in range(2 * r):
        e = [[int(a == b) for b in range(r)] for a in range(r)]
        i, k = rng.sample(range(r), 2)
        e[i][k] = rng.randint(-2, 2)
        e[i][i] = rng.choice([1, -1])
        g = g * IntMatrix(e)
    gens = (g, g * g, -IntMatrix.identity(r))[:rng.randint(1, 3)]
    return NilpotentAction(spec, gens)

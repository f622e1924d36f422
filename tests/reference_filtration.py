"""Reference induced homology actions, read off the whole equivariant page.

``induced_homology_action`` as the library ran it before the page was
cut at total degree j + 1: the equivariant page carries every cell, and
degree deg reads the third-page cells (i, deg - i).  Kept so tests can
check the bounded page against it, on the seeded actions of
``random_action``.
"""

from nilhom.filtration import _subquotient_action
from nilhom.groups import NilpotentAction
from nilhom.linalg import IntMatrix, RatMatrix, block_diag
from nilhom.spectral import equivariant_page


def induced_homology_action(act, j: int):
    """Per degree 0..j, one matrix per generator on degree-q homology."""
    ngens = len(act.generators)
    out = [[RatMatrix.identity(1) for _ in range(ngens)]]
    if j == 0:
        return out
    epage = equivariant_page(act.target, act.generators)
    page = epage.page
    for deg in range(1, j + 1):
        blocks = [[] for _ in range(ngens)]
        for i in range(1, deg + 1):
            q = deg - i
            if page.cell_dim(i, q) == 0:
                continue
            cell = _subquotient_action(page.diff(i, q), page.diff(i + 2, q - 1),
                                       epage.actions[(i, q)])
            for gi, blk in enumerate(cell):
                blocks[gi].append(blk)
        out.append([block_diag(bl) if bl else RatMatrix.zero(0, 0)
                    for bl in blocks])
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

"""Reference induced homology actions, read off the whole equivariant page.

``induced_homology_action`` as the library ran it before the page was
cut at total degree j + 1 and before the cells of a degree were kept
apart: the equivariant page carries every cell, and degree deg is the
direct sum of the third-page cells (i, deg - i), one block-diagonal
matrix per generator.  Kept so tests can check the bounded, cell-by-cell
action against it, on the seeded actions of ``random_action``.

Also kept: ``filtration_certificate`` as it recursed once per class,
building the whole class-(c-1) certificate for every degree it read,
so tests can check the bottom-up table against it.
"""

from fractions import Fraction

from nilhom.filtration import (FiltrationCertificate, Layer, _subquotient_action,
                               tensor_degree_bound)
from nilhom.groups import FreeNilpotentSpec, NilpotentAction, witt_number
from nilhom.linalg import IntMatrix, RatMatrix, binomial
from nilhom.spectral import _class2_dims, equivariant_page


def filtration_certificate(spec, j: int) -> FiltrationCertificate:
    """The certificate by recursion through the lower-central pages: the
    top layer's page contributes cells (i, j-i), whose base factor is the
    class-(c-1) certificate in degree i, rebuilt for every i."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    r, c = spec.rank, spec.nil_class
    if j == 0:
        layers = (Layer(0, 1, ()),)
        return FiltrationCertificate(spec, 0, layers, 0, True, True)
    if c == 1:
        dim = binomial(r, j)
        layers = (Layer(j, dim, ()),) if dim else ()
        exact = True
    elif c == 2:
        cells = _class2_dims(r)
        layers = [Layer(2 * j - i, d, ((i, j - i),))
                  for i in range(1, min(j, r) + 1)
                  if (d := cells.get((i, j - i), 0))]
        exact = True
    else:
        layers = []
        w = witt_number(r, c)
        for i in range(max(1, j - w), j + 1):
            q = j - i
            lam = binomial(w, q)
            inner = filtration_certificate(FreeNilpotentSpec(r, c - 1), i)
            for lay in inner.layers:
                layers.append(Layer(lay.tensor_degree + c * q,
                                    lay.dimension * lam,
                                    ((i, q),) + lay.origin))
        exact = False
    layers = tuple(sorted(layers, key=lambda l: l.origin))
    bound = tensor_degree_bound(c, j)
    ok = all(0 <= l.tensor_degree <= bound for l in layers)
    return FiltrationCertificate(spec, j, layers, bound, ok, exact or j == 1)


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

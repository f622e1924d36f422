"""Constructive filtration certificates and nilpotent-action checks.

The rational homology of a nilpotent group of class c in degree j carries
a natural filtration whose layers are subquotients of tensor powers of
the abelianised group, with tensor degree at most c(j-1)+1.  The
certificates here make that bound inspectable: each layer records its
tensor degree, its dimension and the trace of page cells it came from.
For class <= 2 the page degenerates and the layer dimensions are exact;
for higher class they are second-page upper bounds and flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FreeNilpotentSpec, NilpotentAction, witt_number
from .linalg import (IntMatrix, RatMatrix, binomial, block_diag, image_matrix,
                     rank_kernel_image, require_commuting, require_matrices, solve)
from .spectral import _class2_e3, equivariant_page


def tensor_degree_bound(c: int, j: int) -> int:
    """Largest tensor degree a filtration layer can carry: c(j-1)+1.

    Degree zero homology is the ground field, so the bound there is 0.

    >>> tensor_degree_bound(2, 3)
    5
    """
    if c < 1 or j < 0:
        raise ValueError("need c >= 1 and j >= 0")
    return c * (j - 1) + 1 if j >= 1 else 0


@dataclass(frozen=True)
class Layer:
    """One filtration layer: tensor degree, dimension, page-cell trace."""

    tensor_degree: int
    dimension: int
    origin: tuple


@dataclass(frozen=True)
class FiltrationCertificate:
    spec: FreeNilpotentSpec
    j: int
    layers: tuple
    bound: int
    bound_satisfied: bool
    dimensions_exact: bool

    @property
    def total_dimension(self) -> int:
        return sum(l.dimension for l in self.layers)


def filtration_certificate(spec: FreeNilpotentSpec, j: int) -> FiltrationCertificate:
    """Certificate for the tensor-degree bound in homological degree j.

    Layers are enumerated by recursing through the lower-central pages:
    the page of the top lower-central layer contributes cells (i, j-i),
    whose base factor is handled by the class-(c-1) certificate and whose
    fibre factor is a subquotient of the c(j-i)-th tensor power.  Corner
    cells (0, j) are dropped since the degree-(2, q) differential is onto
    them.  Ties in the enumeration are broken by the lexicographic order
    of the origin traces.
    """
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
        e3 = _class2_e3(r)
        layers = []
        for i in range(1, j + 1):
            d = e3.get((i, j - i), 0)
            if d:
                layers.append(Layer(2 * j - i, d, ((i, j - i),)))
        exact = True
    else:
        layers = []
        for i in range(1, j + 1):
            q = j - i
            lam = binomial(witt_number(r, c), q)
            if lam == 0:
                continue
            inner = filtration_certificate(FreeNilpotentSpec(r, c - 1), i)
            for lay in inner.layers:
                layers.append(Layer(lay.tensor_degree + c * q,
                                    lay.dimension * lam,
                                    ((i, q),) + lay.origin))
        exact = False
    layers = tuple(sorted(layers, key=lambda l: l.origin))
    bound = tensor_degree_bound(c, j)
    ok = all(0 <= l.tensor_degree <= bound for l in layers)
    # degree one is the rationalised abelianisation for every class
    return FiltrationCertificate(spec, j, layers, bound, ok, exact or j == 1)


@dataclass(frozen=True)
class ActionNilpotencyReport:
    """Joint nilpotency verdict for a family of commuting operators.

    ``nilpotency_class`` is the least k such that every product of k
    factors (g_i - 1) vanishes, or None when the chain of joint images
    stabilises above zero.  ``image_dims`` records the descending chain.
    """

    operators: tuple
    nilpotent: bool
    nilpotency_class: object
    image_dims: tuple


def is_nilpotent_action(ops) -> ActionNilpotencyReport:
    """Decide whether commuting operators act nilpotently.

    The operators g_i act nilpotently exactly when the (g_i - 1) are
    jointly nilpotent; the class is read off the descending chain of sums
    of images, which must reach zero within dim steps.  Operators are
    ``RatMatrix`` or ``IntMatrix``; anything else raises TypeError.
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("need at least one operator")
    require_matrices(ops, "operators")
    n = ops[0].rows
    if any(g.shape != (n, n) for g in ops):
        raise ValueError("operators must be square matrices of equal size")
    require_commuting(ops, "operators")
    shifted = [g - RatMatrix.identity(n) for g in ops]
    span = RatMatrix.identity(n)
    dims = [n]
    while dims[-1] > 0:
        stacked_cols = []
        for t in shifted:
            prod = t * span
            stacked_cols.extend(prod.col(j) for j in range(prod.cols))
        nxt = image_matrix(RatMatrix.from_cols(stacked_cols, n))
        if nxt.cols == dims[-1]:
            return ActionNilpotencyReport(ops, False, None, tuple(dims))
        span = nxt
        dims.append(nxt.cols)
    return ActionNilpotencyReport(ops, True, max(len(dims) - 1, 1), tuple(dims))


def _subquotient_action(d_out: IntMatrix, d_in: IntMatrix, acts) -> list:
    """Actions induced on ker(d_out) / im(d_in) by compatible operators."""
    kernel = rank_kernel_image(d_out)[1]
    image = rank_kernel_image(d_in)[2]
    # extend the image basis to a basis of the kernel: the image columns
    # are independent, so the pivot columns past them are the greedy picks
    basis = rank_kernel_image(RatMatrix.from_cols(image + kernel, d_out.cols))[2]
    extension = basis[len(image):]
    if not extension:
        return [RatMatrix.zero(0, 0) for _ in acts]
    cmat = RatMatrix.from_cols(extension, d_out.cols)
    # one solve for every operator: their images sit side by side
    images = [(act * cmat).entries for act in acts]
    k = len(extension)
    coords = solve(RatMatrix.from_cols(basis, d_out.cols),
                   RatMatrix([sum((img[r] for img in images), ())
                              for r in range(d_out.cols)],
                             d_out.cols, k * len(acts)))
    return [RatMatrix([row[t * k:(t + 1) * k] for row in coords.entries[len(image):]])
            for t in range(len(acts))]


def induced_homology_action(act: NilpotentAction, j: int):
    """Matrices of the action induced on rational homology of ``act.target``
    in degrees 0..j.

    Entry q of the returned list holds one matrix per generator, acting
    on degree-q homology.  All degrees are computed on the third-page
    cells of one equivariant page, which is the whole homology for
    class <= 2; a higher class is refused by the page.  Degree deg reads
    the cells of total degree deg and the differentials into and out of
    them, so the page is built only up to total degree j + 1.  Degree
    zero always gives the identity on a line.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    ngens = len(act.generators)
    out = [[RatMatrix.identity(1) for _ in range(ngens)]]
    epage = equivariant_page(act.target, act.generators, max_degree=j + 1)
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

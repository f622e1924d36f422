"""Constructive filtration certificates and nilpotent-action checks.

The rational homology of a nilpotent group of class c in degree j carries
a natural filtration whose layers are subquotients of tensor powers of
the abelianised group, with tensor degree at most c(j-1)+1.  The
certificates here make that bound inspectable: each layer records its
tensor degree, its dimension and the trace of page cells it came from.
For class <= 2 the page degenerates, the layers are third-page cells
with exact dimensions, and an action is induced on each cell apart; for
higher class they are second-page upper bounds and flagged as such.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .groups import FreeNilpotentSpec, NilpotentAction, witt_number
from .linalg import (IntMatrix, RatMatrix, binomial, image_matrix,
                     rank_kernel_image, require_commuting, require_matrices, solve)
from .spectral import (_class2_dims, _class2_nonzero, _require_closed_form_rank,
                       equivariant_page)

# every class up to c is lifted in turn and has its Witt number computed,
# so a class of millions would run for hours instead of failing at once
MAX_CLASS = 1000
# rank 4, class 21, degree 5 (9,064 layers) is written in about a second;
# class 35 took 10 s and 909 MB, and class 1000 printed nothing in 20 s
MAX_LAYERS = 10000
# the count reads one entry per class and degree from class two up, each
# up to a thousand digits long: rank 2, class 1000 has about 2 * 10^6 at
# --j 2000, and the top degree of rank 2 has 0.93 * 10^6 at class 19
# (1.4 s) and 1.9 * 10^6 at class 20
MAX_COUNT_ENTRIES = 10 ** 6


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

    Layers are built bottom-up through the lower-central pages, one table
    of layers per degree.  Its first row is class two, whose layers are
    the third-page cells (i, j-i) of the closed form; corner cells (0, j)
    are dropped since the degree-(2, q) differential is onto them.  Class
    k lifts the whole table at once: in degree j its page has cells
    (i, q), q = j-i, whose base factor is the class-(k-1) row in degree i
    and whose fibre factor, C(W_k, q)-dimensional (W_k the k-th Witt
    number), is a subquotient of the kq-th tensor power.  So a lift adds
    kq to the tensor degree, multiplies the dimension by C(W_k, q) and
    prefixes (i, q) to the origin.  Class k reads its row only from
    degree j minus the Witt numbers above k (and at least 1), which keeps
    a huge j as cheap as a small one.  Layers come in the lexicographic
    order of their origin traces.  Class one is one binomial layer.  A
    class above ``MAX_CLASS`` is refused, and so is a certificate of more
    than ``MAX_LAYERS`` layers, counted by the same lifts before any
    layer is built: class k's count in degree i is a window sum of class
    k - 1's, read as a difference of its prefix sums.  A count of more
    than ``MAX_COUNT_ENTRIES`` (class, degree) entries is refused first.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    r, c = spec.rank, spec.nil_class
    if c > MAX_CLASS:
        raise ValueError(f"filtration certificates take class <= {MAX_CLASS}, "
                         f"got class {c}")
    if j == 0:
        return FiltrationCertificate(spec, 0, (Layer(0, 1, ()),), 0, True, True)
    if c == 1:
        layers = (Layer(j, d, ()),) if (d := binomial(r, j)) else ()
    else:
        witt = {k: witt_number(r, k) for k in range(3, c + 1)}
        low = {c: j}
        for k in range(c, 2, -1):
            low[k - 1] = max(1, low[k] - witt[k])
        _require_closed_form_rank(r)
        entries = sum(j - low[k] + 1 for k in range(2, c + 1))
        if entries > MAX_COUNT_ENTRIES:
            raise ValueError(f"counting the layers would read {entries} (class, "
                             f"degree) entries, above the limit of {MAX_COUNT_ENTRIES}")
        first = {i: [p for p in range(1, min(i, r) + 1) if _class2_nonzero(r, p, i - p)]
                 for i in range(low[2], j + 1)}
        # count[i - low[k]] is class k's count in degree i
        count = [len(ps) for ps in first.values()]
        for k in range(3, c + 1):
            sums, base = [0, *accumulate(count)], low[k - 1]
            count = [sums[i + 1 - base] - sums[max(1, i - witt[k]) - base]
                     for i in range(low[k], j + 1)]
        if count[-1] > MAX_LAYERS:
            raise ValueError(f"the certificate would have {count[-1]} layers, "
                             f"above the limit of {MAX_LAYERS}")
        cells = _class2_dims(r)
        table = {i: [Layer(2 * i - p, cells[(p, i - p)], ((p, i - p),)) for p in ps]
                 for i, ps in first.items()}
        for k in range(3, c + 1):
            # the fibre factor C(W_k, i - p) vanishes below p = i - W_k;
            # only the degrees that hold layers are read
            held = [p for p, row in table.items() if row]
            table = {i: [Layer(l.tensor_degree + k * (i - p),
                               l.dimension * binomial(witt[k], i - p),
                               ((p, i - p),) + l.origin)
                         for p in held[bisect_left(held, i - witt[k]):
                                       bisect_right(held, i)]
                         for l in table[p]]
                     for i in range(low[k], j + 1)}
        layers = tuple(table[j])
    bound = tensor_degree_bound(c, j)
    ok = all(0 <= l.tensor_degree <= bound for l in layers)
    # degree one is the rationalised abelianisation for every class
    return FiltrationCertificate(spec, j, layers, bound, ok, c <= 2 or j == 1)


@dataclass(frozen=True)
class ActionNilpotencyReport:
    """Joint nilpotency verdict for a family of commuting operators.

    ``nilpotency_class`` is the least k such that every product of k
    factors (g_i - 1) vanishes, or None when the chain of joint images
    stabilises above zero.  ``image_dims`` records the descending chain.
    """

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
            return ActionNilpotencyReport(False, None, tuple(dims))
        span = nxt
        dims.append(nxt.cols)
    return ActionNilpotencyReport(True, max(len(dims) - 1, 1), tuple(dims))


def _subquotient_action(d_out: IntMatrix, d_in: IntMatrix, acts) -> list:
    """Actions induced on ker(d_out) / im(d_in) by compatible operators,
    or None when the quotient is zero."""
    kernel = rank_kernel_image(d_out)[1]
    image = rank_kernel_image(d_in)[2]
    # extend the image basis to a basis of the kernel: the image columns
    # are independent, so the pivot columns past them are the greedy picks
    basis = rank_kernel_image(RatMatrix.from_cols(image + kernel, d_out.cols))[2]
    extension = basis[len(image):]
    if not extension:
        return None
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
    """Actions induced on rational homology of ``act.target`` in degrees
    0..j, one third-page cell at a time.

    Entry q holds the nonzero cells (i, q - i) in increasing i, each as
    one matrix per generator: the graded pieces of H_q, whose direct sum
    it is for class <= 2 (a higher class is refused by the page).
    Degree zero is one identity cell on a line, and a degree with no
    homology an empty list.  Cell (i, q) reads the differentials into
    and out of it, so the page is built only up to total degree j + 1.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    epage = equivariant_page(act.target, act.generators, max_degree=j + 1)
    page = epage.page
    out = [[[RatMatrix.identity(1) for _ in act.generators]]]
    for deg in range(1, j + 1):
        cells = (_subquotient_action(page.diff(i, deg - i),
                                     page.diff(i + 2, deg - i - 1),
                                     epage.actions[(i, deg - i)])
                 for i in range(1, min(deg, act.target.rank) + 1)
                 if page.cell_dim(i, deg - i))
        out.append([cell for cell in cells if cell is not None])
    return out

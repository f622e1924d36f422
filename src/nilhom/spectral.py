"""Homology spectral sequence pages for central extensions.

The second page of the extension A -> G -> Q with A central has cells
H_p(Q) tensor Lambda^q(A tensor Q); the degree-2 differential is the cap
product against the extension class, realised by the commutator pairing:

    x tensor (a_1 ^ ... ^ a_q)  |->  (rho cap x) ^ a_1 ^ ... ^ a_q,

extended to all p as the contraction of the pairing two-form, with the
sign (-1)^(k+l-1) on the (k, l) contraction (positions 1-based).  With
d2 the page is the Chevalley-Eilenberg complex of the rational Malcev
Lie algebra V + W (base V, centre W, bracket the pairing), so by Nomizu
(1954) E3 = E-infinity rationally and the third-page totals are the
Betti numbers of every extension here.  For free class two the integral
table is the integral third page, cell by cell; integral higher
differentials of other extensions are out of scope.

The rational third page of free class two is a closed form
(``_class2_dims``): by Sigg (J. Algebra 185, 1996) the homology of the
free two-step nilpotent Lie algebra is the sum of the Schur functors
S_lambda(Q^r) over the self-conjugate lambda with lambda_1 <= r, each in
one cell, and by Nomizu it is the rational homology of the group.  The
rational Betti numbers, the class-two filtration and ``h2_class2`` read
only it, one term per set of Frobenius arms, so they build no
differential.

The integral page needs the differentials.  The free class-two page is
graded by content, the multidegree in Z^r of a label, and d2 keeps it,
so it is computed block by block: one block per content up to the
permutations of the generators, counted once for every content in its
orbit.  One Smith form of each block differential's sparse rows gives
its rank and the torsion of its target cell; the dimensions from the
ranks are checked against the closed form.  Rank 6 takes about 5 s,
with blocks at most 810 wide against cells up to 128,700 wide.
``e2_page`` and ``ks_page`` still build the whole page, for ``pages``,
which prints it, and as the reference the blocks are tested against.
Equivariant pages use it only up to a total degree bound: a degree-j
scan reads cells of total degree at most j + 1.

A cell is its basis: the tuple of its labels (I, J), with I a strictly
increasing tuple of base generators and J one of centre generators, in
lexicographic order.  The whole page takes its labels from
``_cell_labels``.  One kernel, ``_d2_rows``, builds every d2, on cells
given as runs (I, Js), Js the J paired with I.  It indexes each target
run once and tables the wedges once per pair of runs and centre
generator: in a whole cell (``d2_central``) every I shares one Js, so
there is one table per generator, and ``_class2_blocks`` groups a
block's labels into runs.  A d2 is a ``SparseIntMatrix``, each row its
nonzero (column, entry) pairs: a column out of cell (p, q) has at most
C(p, 2)·a nonzeros (C(p, 2) for free class two), so no dense grid is
built for ``pages`` and its memory is bounded by the nonzeros.  Each
block is a ``Page`` on the labels of its content, so the page's shape
and d2 o d2 = 0 checks serve it.  Both page checks, d2 o d2 = 0 and the
equivariant one, take their products from ``linalg.row_products`` on
the rows' nonzero entries, one row at a time, in exact arithmetic.
``e3_dimensions`` and ``_class2_cells`` rank a differential by the Smith
form of its rows as they are; only ``Page.diff``, which hands it to the
filtration, takes ``dense()``.  The pairing is an integer matrix, so
every d2 is one too, and only the equivariant check multiplies
differentials by rational actions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby, product
from math import factorial, prod
from operator import ne

from .groups import (CentralExtension, FreeNilpotentSpec, NilpotentAction,
                     central_extension_of_class2, induced_action_on_quotient)
from .linalg import (IntMatrix, SparseIntMatrix, binomial,
                     exterior_power_map, kron, matrix_rank,
                     merge_invariant_factors, row_products,
                     smith_normal_form, solve)


class Page:
    """Graded cells with labelled bases and the degree-2 differentials.

    ``cells`` maps (p, q) to the cell's basis, a tuple of distinct (I, J)
    labels in lexicographic order, which fixes the rows and columns of
    every matrix on the page.  ``diffs`` maps (p, q) to d2 from cell
    (p, q) to cell (p-2, q+1) as a ``SparseIntMatrix``; a missing one is
    zero, and ``diff`` gives either as a dense ``IntMatrix``.  Each d2 is
    ``_d2_rows`` on runs, one shared tuple of J in a whole cell.
    Construction checks every type and shape, then that every consecutive
    pair of differentials composes to zero, row by row from the rows'
    nonzero entries (``row_products``), stopping at the first nonzero
    row.  ``jsonio`` writes a page straight into the ``pages`` document.
    """

    def __init__(self, cells, diffs):
        self.cells = dict(cells)
        self.diffs = dict(diffs)
        self._validate()

    def cell_dim(self, p, q) -> int:
        return len(self.cells.get((p, q), ()))

    def diff(self, p, q) -> IntMatrix:
        d = self.diffs.get((p, q))
        if d is None:
            return IntMatrix.zero(self.cell_dim(p - 2, q + 1), self.cell_dim(p, q))
        return d.dense()

    def _validate(self):
        for (p, q), d in self.diffs.items():
            if not isinstance(d, SparseIntMatrix):
                raise TypeError(f"differential at {(p, q)} must be a "
                                f"SparseIntMatrix, got {type(d).__name__}")
            want = (self.cell_dim(p - 2, q + 1), self.cell_dim(p, q))
            if d.shape != want:
                raise ValueError(f"differential at {(p, q)} has shape "
                                 f"{d.shape}, expected {want}")
        for (p, q), d in self.diffs.items():
            nxt = self.diffs.get((p - 2, q + 1))
            if nxt is not None and any(
                    map(any, row_products(nxt.terms, d.terms, d.cols))):
                raise ValueError(f"d2 o d2 != 0 out of cell {(p, q)}")


@dataclass(frozen=True)
class HomologyResult:
    """One homology degree of a free class-two group, cell by cell.

    ``integral_cells`` holds ((p, q), free_rank, torsion) for the cells
    with p + q = j: the integral third page, H_*(n_2(Z^r); Z) of the
    free two-step nilpotent Lie ring, cell by cell.  The free rank is the
    rational dimension, and ``rational_dimension`` is their sum.  The
    group's integral E-infinity page is a subquotient of these cells
    with the same free ranks; that it equals them is not claimed.
    ``invariant_factors`` gives the factors of the whole degree whenever
    at most one cell is nonzero, else None (zeros denote free summands,
    listed after the torsion factors).
    """

    j: int
    rational_dimension: int
    integral_cells: tuple
    invariant_factors: tuple


def _cell_labels(n, a, p, q):
    """The labels of cell (p, q) for base rank n and centre rank a: every
    (I, J) with |I| = p and |J| = q, in lexicographic order."""
    if p < 0 or q < 0 or p > n or q > a:
        return ()
    return tuple(product(combinations(range(n), p), combinations(range(a), q)))


@lru_cache(maxsize=None)
def _pair_images(ext: CentralExtension):
    """Each pair (i, j), i < j, of base generators mapped to the nonzero
    (alpha, value) terms of its commutator in the centre; cached, since
    ``d2_central`` asks for it once per cell."""
    P = ext.pairing.entries
    return {pair: [(alpha, P[alpha][pc]) for alpha in range(ext.a_rank)
                   if P[alpha][pc]]
            for pc, pair in enumerate(combinations(range(ext.q_rank), 2))}


def _runs(labels):
    """A cell's labels, in order, as runs (I, Js): Js the J paired with I."""
    return [(I, tuple(J for _, J in run))
            for I, run in groupby(labels, key=lambda label: label[0])]


def _wedges(Js, at, alpha):
    """Per J of ``Js`` without alpha: (at[J + alpha], offset of J, sign)."""
    table = []
    for col, J in enumerate(Js):
        b = bisect_left(J, alpha)
        if b == len(J) or J[b] != alpha:
            table.append((at[J[:b] + (alpha,) + J[b:]], col, -1 if b % 2 else 1))
    return table


def _d2_rows(src, tgt, images):
    """The rows of d2 from the cell ``src`` to the cell ``tgt``, both given
    as runs (``_runs``), each row as its nonzero (column, entry) pairs
    (``SparseIntMatrix.terms``).  ``images`` is the commutator pairing as
    ``_pair_images`` gives it.  The (k, l) contraction of (I, J) drops
    I[k] and I[l] and wedges alpha onto J, with the sign (-1)^(k+l-1)
    (positions 1-based) times the sign of moving alpha past the smaller
    entries of J.  Each target run is indexed once (keyed by identity),
    and the wedges are tabled (``_wedges``) on first use, once per source
    run, target run and alpha, so the loop over (I, k, l, alpha) only adds
    offsets.  ``tgt`` must hold every label a term lands on.

    Each term is appended to its row as it is found, with no grid: the
    target label (I minus {I[k], I[l]}, J plus alpha) fixes both the
    contracted pair and alpha, so an entry receives at most one term,
    and that term is nonzero (``images`` holds no zero value).  So no
    entry needs summing, and a row's terms come in the order of I, then
    (k, l), then alpha.
    """
    first, index, rows = {}, {}, 0
    for I, Js in tgt:
        if id(Js) not in index:
            index[id(Js)] = {J: i for i, J in enumerate(Js)}
        first[I] = (rows, index[id(Js)])
        rows += len(Js)
    terms = [[] for _ in range(rows)]
    tables, left, missing = {}, 0, (0, {})
    for I, Js in src:
        by_run = tables.setdefault(id(Js), {})
        for k in range(len(I)):
            for l in range(k + 1, len(I)):
                top, at = first.get(I[:k] + I[k + 1:l] + I[l + 1:], missing)
                sgn = 1 if (k + l) % 2 else -1
                by_alpha = by_run.setdefault(id(at), {})
                for alpha, cval in images[(I[k], I[l])]:
                    table = by_alpha.get(alpha)
                    if table is None:
                        table = by_alpha[alpha] = _wedges(Js, at, alpha)
                    value = sgn * cval
                    for off, col, wedge_sgn in table:
                        terms[top + off].append((left + col, wedge_sgn * value))
        left += len(Js)
    return terms


def d2_central(ext: CentralExtension, p: int, q: int) -> SparseIntMatrix:
    """Degree-2 differential of the page of a central extension, in the
    bases of ``_cell_labels``: ``_d2_rows`` on runs that share one tuple of
    J.  When either cell is empty (p < 2 or q >= a empties the target) the
    zero map of the correct shape is returned at once.
    """
    n, a = ext.q_rank, ext.a_rank
    rows = binomial(n, p - 2) * binomial(a, q + 1)
    cols = binomial(n, p) * binomial(a, q)
    if not rows or not cols:
        return SparseIntMatrix([[] for _ in range(rows)], rows, cols)
    Js, Js2 = tuple(combinations(range(a), q)), tuple(combinations(range(a), q + 1))
    src = [(I, Js) for I in combinations(range(n), p)]
    tgt = [(I, Js2) for I in combinations(range(n), p - 2)]
    return SparseIntMatrix(_d2_rows(src, tgt, _pair_images(ext)), rows, cols)


def e2_page(ext: CentralExtension, max_degree: int = None) -> Page:
    """Second page of a central extension, all cells and differentials.

    With ``max_degree`` set, only the cells with p + q <= max_degree and
    their differentials are built.  A differential lowers the total
    degree by one, so every kept differential lands in a kept cell and
    the page's checks cover all of them.
    """
    n, a = ext.q_rank, ext.a_rank
    kept = [(p, q) for p in range(n + 1) for q in range(a + 1)
            if max_degree is None or p + q <= max_degree]
    return Page({pq: _cell_labels(n, a, *pq) for pq in kept},
                {pq: d2_central(ext, *pq) for pq in kept})


@lru_cache(maxsize=None)
def ks_page(r: int) -> Page:
    """Cached whole class-two page of rank r."""
    return e2_page(central_extension_of_class2(FreeNilpotentSpec(r, 2)))


def e3_dimensions(page: Page):
    """Third-page dimensions ker/im for every cell of a page.

    The page of a central extension is the Chevalley-Eilenberg complex of
    its Malcev Lie algebra, so by Nomizu (1954) the third page is the
    rational limit, and the totals in degree j are the j-th Betti number.
    A rank is the length of the Smith form of a differential's rows.
    """
    ranks = {pq: len(smith_normal_form(d)) for pq, d in page.diffs.items()}
    return {(p, q): len(labels) - ranks.get((p, q), 0) - ranks.get((p + 2, q - 1), 0)
            for (p, q), labels in page.cells.items()}


def _orbit_size(content) -> int:
    """Number of distinct rearrangements, r! / prod(multiplicity!)."""
    return factorial(len(content)) // prod(
        factorial(m) for m in Counter(content).values())


@lru_cache(maxsize=None)
def _class2_blocks(r: int):
    """The free class-two page of rank r, one block per S_r orbit of content.

    The content of a label (I, J) counts generator i once for each time
    it lies in I and once for each commutator pair of J containing it.
    Contracting a pair of I into the commutator it spans keeps the
    content, so d2 is block-diagonal by content; permuting generators
    carries each block onto the block of the permuted content by a
    signed permutation, so only weakly decreasing contents are kept:
    for each J, a walk over the generators, one position at a time,
    extends only the partial I whose partial content stays weakly
    decreasing, so no other I is tried.  Returns (content, orbit, page)
    triples: ``page`` is the ``Page`` (so d2 o d2 = 0 is checked) on the
    labels of that content, in the whole page's cell order, and
    ``orbit`` counts the distinct permutations of the content.
    """
    # the pairing is the identity: centre generator alpha is [x_i, x_j]
    # for the alpha-th pair (i, j)
    pairs = list(combinations(range(r), 2))
    images = _pair_images(central_extension_of_class2(FreeNilpotentSpec(r, 2)))
    groups = {}
    for q in range(len(pairs) + 1):
        for J in combinations(range(len(pairs)), q):
            base = [0] * r
            for alpha in J:
                i, j = pairs[alpha]
                base[i] += 1
                base[j] += 1
            # adding 0 or 1 per generator cannot repair a larger step
            if any(y > x + 1 for x, y in zip(base, base[1:])):
                continue
            # the partial I, with their partial contents base + ind(I)
            walk = [((), ())]
            for i, x in enumerate(base):
                walk = [(I + (i,) * y, c + (x + y,)) for I, c in walk
                        for y in (0, 1) if not c or x + y <= c[-1]]
            for I, c in walk:
                groups.setdefault(c, {}).setdefault((len(I), q), []).append((I, J))
    blocks = []
    for content in sorted(groups, reverse=True):
        cells = {pq: tuple(sorted(labs)) for pq, labs in groups[content].items()}
        diffs = {pq: SparseIntMatrix(_d2_rows(_runs(src), _runs(tgt), images),
                                     len(tgt), len(src))
                 for pq, src in cells.items()
                 if (tgt := cells.get((pq[0] - 2, pq[1] + 1)))}
        blocks.append((content, _orbit_size(content), Page(cells, diffs)))
    return tuple(blocks)


# past these ranks the 2^r arm sets or the content blocks take minutes
MAX_CLOSED_FORM_RANK = 18
MAX_INTEGRAL_RANK = 6


def _require_closed_form_rank(r: int):
    if r > MAX_CLOSED_FORM_RANK:
        raise ValueError(f"the class-two closed form takes rank <= "
                         f"{MAX_CLOSED_FORM_RANK}, got rank {r}")


def _class2_nonzero(r: int, p: int, q: int) -> bool:
    """Whether cell (p, q) of ``_class2_dims(r)`` is nonzero, with no
    table: q must be a sum of p distinct arms in range(r), and those sums
    fill the interval from C(p, 2) to p(2r - p - 1)/2, which is empty
    for p > r."""
    return binomial(p, 2) <= q <= p * (2 * r - p - 1) // 2


@lru_cache(maxsize=None)
def _class2_dims(r: int):
    """Rational third page of the free class-two page of rank r, in
    closed form: every cell (p, q), 0 <= p <= r and 0 <= q <= C(r, 2),
    mapped to its dimension.

    By Sigg (J. Algebra 185, 1996) the homology of the free two-step
    nilpotent Lie algebra on Q^r is, as a GL_r-module, the sum of the
    S_lambda(Q^r) over the self-conjugate lambda with lambda_1 <= r; by
    Nomizu it is H_*(N_r; Q).  Such a lambda is its Frobenius
    coordinates (a | a), a set of arms a in range(r) (diagonal hooks
    2a + 1), so there are 2^r of them.  S_lambda has polynomial degree
    |lambda| = p + 2q and lies in the cell with p = d, the Durfee rank
    (the number of arms), so in (d, sum of the arms).  Its dimension,
    the hook-content formula read from the arms, is the product of
    C(r + a, 2a + 1) C(2a, a) over the arms times ((b - a)/(a + b + 1))^2
    over the pairs a < b.  A rank above ``MAX_CLOSED_FORM_RANK`` is refused.
    """
    _require_closed_form_rank(r)
    dims = {(p, q): 0 for p in range(r + 1) for q in range(binomial(r, 2) + 1)}
    single = [binomial(r + a, 2 * a + 1) * binomial(2 * a, a) for a in range(r)]
    for d in range(r + 1):
        for arms in combinations(range(r), d):
            pairs = list(combinations(arms, 2))
            dims[(d, sum(arms))] += (
                prod(single[a] for a in arms) * prod(b - a for a, b in pairs) ** 2
                // prod(a + b + 1 for a, b in pairs) ** 2)
    return dims


@lru_cache(maxsize=None)
def _class2_cells(r: int):
    """Integral third page of the free class-two page, from the blocks.

    Maps every cell (p, q), 0 <= p <= r and 0 <= q <= C(r, 2), to its
    rational dimension, which is also its integral free rank (universal
    coefficients), and its invariant factors above 1 in divisibility
    order.  One Smith form of each block differential's sparse rows
    gives its rank (the length) and the torsion of its target cell
    (p - 2, q + 1): for a cell C, C / ker(d_out) is im(d_out), free, so
    C / im(d_in) is ker(d_out) / im(d_in) plus a free summand, and both
    have the torsion of the Smith diagonal of d_in.  Each block counts
    once for every content in its orbit (a signed permutation is
    unimodular).  The dimensions from the ranks must equal Sigg's closed
    form with Nomizu (``_class2_dims``), cell by cell, or ValueError
    names the first cell that differs.  A rank above
    ``MAX_INTEGRAL_RANK`` is refused.
    """
    if r > MAX_INTEGRAL_RANK:
        raise ValueError(f"the integral class-two table takes rank <= "
                         f"{MAX_INTEGRAL_RANK}, got rank {r}")
    dims = {(p, q): 0 for p in range(r + 1) for q in range(binomial(r, 2) + 1)}
    torsion = {}
    for _, orbit, page in _class2_blocks(r):
        ranks = {}
        for (p, q), d in page.diffs.items():
            diag = smith_normal_form(d)
            ranks[(p, q)] = len(diag)
            cell = (p - 2, q + 1)
            torsion[cell] = merge_invariant_factors(
                torsion.get(cell, ()), [f for f in diag if f > 1] * orbit)
        for (p, q), labels in page.cells.items():
            dims[(p, q)] += orbit * (len(labels) - ranks.get((p, q), 0)
                                     - ranks.get((p + 2, q - 1), 0))
    closed = _class2_dims(r)
    for pq, dim in dims.items():
        if dim != closed[pq]:
            raise ValueError(f"cell {pq} has dimension {dim} from the blocks "
                             f"but {closed[pq]} by Sigg's closed form")
    return {pq: (dim, torsion.get(pq, ())) for pq, dim in dims.items()}


def homology_free_nilpotent_c2(r: int, j: int) -> HomologyResult:
    """Homology of the free nilpotent group of class two and rank r.

    The integral path: read from the third-page cells (p, j - p) of
    ``_class2_cells``, whose Smith forms give the torsion and whose
    dimensions are checked against Sigg's closed form, which with Nomizu
    is the rational homology.  These cells carry the whole answer here
    (the page degenerates); the corner cells (0, j), j > 0, die because
    the degree-(2, q) differential is onto, and no cell has p > r.  The
    factors of the whole degree are given whenever at most one cell is
    nonzero.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    table = _class2_cells(r)
    cells = tuple((pq, *table[pq]) for p in range(min(j, 1), min(j, r) + 1)
                  if (pq := (p, j - p)) in table)
    nonzero = [t + (0,) * free for _, free, t in cells if free or t]
    factors = (nonzero or [()])[0] if len(nonzero) <= 1 else None
    return HomologyResult(j, sum(free for _, free, _ in cells), cells, factors)


def betti_free_nilpotent_c2(r: int):
    """All rational Betti numbers, degree 0 through the Hirsch length,
    summed from the closed-form cells (``_class2_dims``)."""
    cells = _class2_dims(r)  # refuses a large rank before the list is sized
    betti = [0] * (r + binomial(r, 2) + 1)
    for (p, q), dim in cells.items():
        betti[p + q] += dim
    return betti


def h2_class2(spec: FreeNilpotentSpec):
    """Dimensions of the two graded pieces of degree-two homology.

    Returns (F1, F2/F1): the quotient of V tensor W by the Jacobi-type
    relations, and the kernel of the pairing on the exterior square.  The
    sum equals the second Betti number.
    """
    if spec.nil_class != 2:
        raise ValueError("only class two carries this two-step filtration")
    cells = _class2_dims(spec.rank)
    # rank 1 has neither cell: the group is Z
    return tuple(cells.get(pq, 0) for pq in ((1, 1), (2, 0)))


class EquivariantPage:
    """A page together with commuting action matrices on every cell.

    Each cell (p, q) carries the Kronecker product of the p-th exterior
    power of the base action and the q-th of the centre action, whose
    basis is the cell's labels in order; each exterior power is computed
    once per generator and degree.  The actions are ``IntMatrix`` when
    both the base and the centre action are: the base action of a free
    nilpotent group lies in GL_r(Z), its action on the weight-two layer
    is integral in the Hall basis, and exterior powers and Kronecker
    products of integer matrices are integer matrices.  A rational centre
    action (solved from a pairing) makes them ``RatMatrix``.  Only the
    cells the page holds get an action (all of them, or those up to the
    page's degree bound); the differentials are checked exactly to
    commute with every generator, and a failure names the offending
    cell.
    """

    def __init__(self, page: Page, v_action, w_action):
        self.page = page
        ps = {p for p, _ in page.cells}
        qs = {q for _, q in page.cells}
        v_ext = [{p: exterior_power_map(g, p) for p in ps} for g in v_action]
        w_ext = [{q: exterior_power_map(g, q) for q in qs} for g in w_action]
        self.actions = {(p, q): [kron(gv[p], gw[q])
                                 for gv, gw in zip(v_ext, w_ext)]
                        for (p, q) in page.cells}
        self._verify()

    def _verify(self):
        for (p, q), d in self.page.diffs.items():
            if d.rows == 0 or d.cols == 0:
                continue
            # a nonempty target is a cell of the page, so it has an action
            tgt = self.actions[(p - 2, q + 1)]
            for gi, (src_act, tgt_act) in enumerate(zip(self.actions[(p, q)], tgt)):
                if any(map(ne, row_products(d.terms, src_act.terms, d.cols),
                           row_products(tgt_act.terms, d.terms, d.cols))):
                    raise ValueError(
                        f"differential at cell {(p, q)} fails to commute "
                        f"with generator {gi}")


def _action_on_centre(ext: CentralExtension, gens):
    """Solve for the centre action forced by pairing equivariance."""
    pairing = ext.pairing
    if matrix_rank(pairing) < ext.a_rank:
        raise ValueError(
            "pairing is not rationally surjective, the induced action "
            "on the centre is not determined")
    out = []
    for g in gens:
        rhs = pairing * exterior_power_map(g, 2)
        ga = solve(pairing.transpose(), rhs.transpose()).transpose()
        # == is type-strict, and ga is rational where rhs is integral
        # for an integer g
        if not (ga * pairing - rhs).is_zero():
            raise ValueError("pairing is not equivariant under the action")
        out.append(ga)
    return out


def equivariant_page(source, gens, max_degree: int = None) -> EquivariantPage:
    """Equivariant page of a class <= 2 free nilpotent group or extension,
    under the base action matrices ``gens``.

    For a free nilpotent spec the matrices are checked once as a
    ``NilpotentAction`` on it, and the centre action is the one induced on
    the weight-two layer; for a central extension it is solved from
    pairing equivariance (requires a rationally surjective pairing).  With
    ``max_degree`` set, the page holds only the cells with
    p + q <= max_degree (see ``e2_page``).
    """
    v_act = list(gens)
    if isinstance(source, FreeNilpotentSpec):
        ext = central_extension_of_class2(source)
        act = NilpotentAction(source, v_act)
        if source.nil_class == 2:
            w_act = induced_action_on_quotient(act, 2)
        else:
            w_act = [IntMatrix.zero(0, 0) for _ in v_act]
    elif isinstance(source, CentralExtension):
        ext = source
        if any(g.shape != (ext.q_rank, ext.q_rank) for g in v_act):
            raise ValueError("action matrices must act on the base")
        w_act = _action_on_centre(ext, v_act)
    else:
        raise TypeError("source must be a FreeNilpotentSpec or CentralExtension")
    return EquivariantPage(e2_page(ext, max_degree=max_degree), v_act, w_act)

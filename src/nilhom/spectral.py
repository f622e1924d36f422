"""Homology spectral sequence pages for central extensions.

The second page of the extension A -> G -> Q with A central has cells
H_p(Q) tensor Lambda^q(A tensor Q); the degree-2 differential is the cap
product against the extension class, realised by the commutator pairing:

    x tensor (a_1 ^ ... ^ a_q)  |->  (rho cap x) ^ a_1 ^ ... ^ a_q,

extended to all p as the contraction of the pairing two-form, with the
sign (-1)^(k+l-1) on the (k, l) contraction (positions 1-based).  For a
free nilpotent group of class two the page degenerates at the third page
and assembles the full rational homology; the integral table is the
integral third page, cell by cell.  For a general central extension the
third page is reported as an upper bound only, since no closed-form
higher differential is available.

The free class-two page is graded by content, the multidegree in Z^r of
a label, and d2 keeps it, so it is computed block by block: one block
per content up to the permutations of the generators, whose ranks and
Smith forms count once for every content in its orbit.  The integral
free ranks are the rational dimensions (universal coefficients), so only
the torsion takes Smith forms, one per block differential.  Rank 5 takes
well under a second, with blocks at most 70 wide against cells up to
2520 wide.  ``e2_page`` and ``ks_page`` still build the dense page, for
``pages`` and as the reference the blocks are tested against.
Equivariant pages use it only up to a total degree bound: a degree-j
scan reads cells of total degree at most j + 1.

A cell is its basis: the tuple of its labels (I, J), with I a strictly
increasing tuple of base generators and J one of centre generators, in
lexicographic order.  The dense page and ``d2_central`` both take their
labels from ``_cell_labels``.  Each block is a ``Page`` on the labels
of its content, so the dense page's shape and d2 o d2 = 0 checks and
``e3_dimensions`` serve it.  The pairing is an integer matrix, so every
d2 is one too, and only the equivariant check multiplies differentials
by rational actions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .groups import (CentralExtension, FreeNilpotentSpec, NilpotentAction,
                     central_extension_of_class2, induced_action_on_quotient)
from .linalg import (IntMatrix, RatMatrix, binomial, exterior_power_map,
                     kron, matrix_rank, merge_invariant_factors,
                     smith_normal_form, solve)


class Page:
    """Graded cells with labelled bases and the degree-2 differentials.

    ``cells`` maps (p, q) to the cell's basis, a tuple of distinct (I, J)
    labels in lexicographic order, which fixes the rows and columns of
    every matrix on the page.  Differentials map cell (p, q) to cell
    (p-2, q+1).  Construction checks that shapes match and that
    consecutive differentials compose to zero.
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
        return d

    def _validate(self):
        for (p, q), d in self.diffs.items():
            want = (self.cell_dim(p - 2, q + 1), self.cell_dim(p, q))
            if d.shape != want:
                raise ValueError(f"differential at {(p, q)} has shape "
                                 f"{d.shape}, expected {want}")
        for (p, q), d in self.diffs.items():
            nxt = self.diffs.get((p - 2, q + 1))
            if nxt is not None and nxt.rows and d.cols:
                if not (nxt * d).is_zero():
                    raise ValueError(f"d2 o d2 != 0 out of cell {(p, q)}")


@dataclass(frozen=True)
class HomologyResult:
    """Rational dimension of one homology degree with cell provenance.

    ``provenance`` maps third-page cells (p, q) with p + q = j to their
    dimensions.  When the integral data is requested, ``integral_cells``
    maps cells to (free_rank, torsion) and ``invariant_factors`` gives the
    factors of the whole degree whenever a single cell carries it (zeros
    denote free summands, listed after the torsion factors).
    """

    j: int
    rational_dimension: int
    provenance: tuple
    invariant_factors: tuple = None
    integral_cells: tuple = None


def _cell_labels(n, a, p, q):
    """The labels of cell (p, q) for base rank n and centre rank a: every
    (I, J) with |I| = p and |J| = q, in lexicographic order."""
    if p < 0 or q < 0 or p > n or q > a:
        return ()
    return tuple((I, J) for I in combinations(range(n), p)
                 for J in combinations(range(a), q))


def _pair_images(ext: CentralExtension):
    """Each pair (i, j), i < j, of base generators mapped to the nonzero
    (alpha, value) terms of its commutator in the centre."""
    P = ext.pairing.entries
    return {pair: [(alpha, P[alpha][pc]) for alpha in range(ext.a_rank)
                   if P[alpha][pc]]
            for pc, pair in enumerate(combinations(range(ext.q_rank), 2))}


def _d2_rows(src, tgt, images):
    """Integer entries of d2 from the labels ``src`` to the labels ``tgt``.

    ``images`` is the commutator pairing as ``_pair_images`` gives it.  The
    (k, l) contraction of (I, J) drops I[k] and I[l] and wedges alpha onto
    J, with the sign (-1)^(k+l-1) (positions 1-based) times the sign of
    moving alpha past the smaller entries of J.  ``tgt`` must hold every
    label a term lands on.
    """
    pos = {lab: i for i, lab in enumerate(tgt)}
    mat = [[0] * len(src) for _ in tgt]
    for col, (I, J) in enumerate(src):
        p = len(I)
        for k in range(p):
            for l in range(k + 1, p):
                sgn = 1 if (k + l) % 2 == 1 else -1
                I2 = I[:k] + I[k + 1:l] + I[l + 1:]
                for alpha, cval in images[(I[k], I[l])]:
                    if alpha in J:
                        continue
                    before = sum(1 for jj in J if jj < alpha)
                    J2 = tuple(sorted(J + (alpha,)))
                    wedge_sgn = -1 if before % 2 else 1
                    mat[pos[(I2, J2)]][col] += sgn * wedge_sgn * cval
    return mat


def d2_central(ext: CentralExtension, p: int, q: int) -> IntMatrix:
    """Degree-2 differential of the page of a central extension.

    The matrix is stated in the canonical (subset, subset) bases.  For
    p < 2 or out-of-range targets the zero map of the correct shape is
    returned; empty cells give empty matrices.
    """
    n, a = ext.q_rank, ext.a_rank
    src = _cell_labels(n, a, p, q)
    tgt = _cell_labels(n, a, p - 2, q + 1)
    return IntMatrix(_d2_rows(src, tgt, _pair_images(ext)), len(tgt), len(src))


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
    """Cached dense class-two page of rank r."""
    return e2_page(central_extension_of_class2(FreeNilpotentSpec(r, 2)))


def e3_dimensions(page: Page):
    """Third-page dimensions ker/im for every cell of a page.

    For class-two free nilpotent groups this is the whole homology; for a
    general central extension it is only an upper bound for the limit.
    """
    ranks = {pq: matrix_rank(d) for pq, d in page.diffs.items()}
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
    signed permutation, so only weakly decreasing contents are kept.
    Returns (content, orbit, page) triples: ``page`` is the ``Page`` (so
    d2 o d2 = 0 is checked) on the labels of that content, in dense cell
    order, and ``orbit`` counts the distinct permutations of the content.
    """
    # the pairing is the identity: centre generator alpha is [x_i, x_j]
    # for the alpha-th pair (i, j)
    pairs = list(combinations(range(r), 2))
    images = _pair_images(central_extension_of_class2(FreeNilpotentSpec(r, 2)))
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
            # adding 0 or 1 per generator cannot repair a larger step
            if any(y > x + 1 for x, y in zip(base, base[1:])):
                continue
            for I, ind in subsets:
                c = tuple(x + y for x, y in zip(base, ind))
                if all(x >= y for x, y in zip(c, c[1:])):
                    groups.setdefault(c, {}).setdefault((len(I), q), []).append((I, J))
    blocks = []
    for content in sorted(groups, reverse=True):
        cells = {pq: tuple(sorted(labs)) for pq, labs in groups[content].items()}
        diffs = {pq: IntMatrix(_d2_rows(src, tgt, images), len(tgt), len(src))
                 for pq, src in cells.items()
                 if (tgt := cells.get((pq[0] - 2, pq[1] + 1)))}
        blocks.append((content, _orbit_size(content), Page(cells, diffs)))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _class2_e3(r: int):
    """Third-page dimensions of the free class-two page, from the blocks.

    Same keys and values as ``e3_dimensions(ks_page(r))``; each block's
    third page counts once per content in its orbit.
    """
    e3 = {(p, q): 0 for p in range(r + 1) for q in range(binomial(r, 2) + 1)}
    for _, orbit, page in _class2_blocks(r):
        for pq, dim in e3_dimensions(page).items():
            e3[pq] += orbit * dim
    return e3


@lru_cache(maxsize=None)
def _class2_torsion(r: int):
    """Torsion of the integral cells of the free class-two page.

    Maps each cell (p, q) with torsion to its invariant factors above 1,
    in divisibility order.  For a cell C, C / ker(d_out) is im(d_out), a
    submodule of a free module, so ker(d_out) is a direct summand of C
    with a free complement F.  As im(d_in) lies in ker(d_out),
    C / im(d_in) is ker(d_out) / im(d_in) plus F, and the two have the
    same torsion: the Smith diagonal of d_in above 1.  So the Smith form
    of each block differential is taken once and counts towards its
    target cell (p - 2, q + 1), once for every block of its orbit (a
    signed permutation is unimodular).  The free ranks are the rational
    dimensions of ``_class2_e3``, by the universal coefficient theorem.
    """
    torsion = {}
    for _, orbit, page in _class2_blocks(r):
        for (p, q), d in page.diffs.items():
            factors = tuple(f for f in smith_normal_form(d) if f > 1)
            if factors:
                cell = (p - 2, q + 1)
                torsion[cell] = merge_invariant_factors(torsion.get(cell, ()),
                                                        factors * orbit)
    return torsion


def homology_free_nilpotent_c2(r: int, j: int, integral: bool = False) -> HomologyResult:
    """Homology of the free nilpotent group of class two and rank r.

    Dimensions are assembled from the third-page cells, which carry the
    whole answer here (the page degenerates); the corner cells (0, j),
    j > 0, die because the degree-(2, q) differential is onto.  With
    ``integral`` set, each cell's free rank is its rational dimension and
    its torsion is read from ``_class2_torsion``; the factors of the
    whole degree are given whenever only one cell is nonzero.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    e3 = _class2_e3(r)
    cells = [(p, j - p) for p in range(min(j, 1), j + 1) if (p, j - p) in e3]
    prov = tuple((p, q, e3[(p, q)]) for p, q in cells)
    dim = sum(d for _, _, d in prov)
    factors = integral_cells = None
    if integral:
        tors = _class2_torsion(r)
        integral_cells = tuple((pq, e3[pq], tors.get(pq, ())) for pq in cells)
        nontrivial = [(t, free) for _, free, t in integral_cells if free or t]
        if len(nontrivial) <= 1:
            t, free = nontrivial[0] if nontrivial else ((), 0)
            factors = t + (0,) * free
    return HomologyResult(j, dim, prov, factors, integral_cells)


def betti_free_nilpotent_c2(r: int):
    """All rational Betti numbers, degree 0 through the Hirsch length."""
    h = r + binomial(r, 2)
    return [homology_free_nilpotent_c2(r, j).rational_dimension
            for j in range(h + 1)]


def h2_class2(spec: FreeNilpotentSpec):
    """Dimensions of the two graded pieces of degree-two homology.

    Returns (F1, F2/F1): the quotient of V tensor W by the Jacobi-type
    relations, and the kernel of the pairing on the exterior square.  The
    sum equals the second Betti number.
    """
    if spec.nil_class != 2:
        raise ValueError("only class two carries this two-step filtration")
    e3 = _class2_e3(spec.rank)
    return e3[(1, 1)], e3[(2, 0)]


class EquivariantPage:
    """A page together with commuting action matrices on every cell.

    Each cell (p, q) carries the Kronecker product of the p-th exterior
    power of the base action and the q-th of the centre action, whose
    basis is the cell's labels in order; each exterior power is computed
    once per generator and degree.  Only the cells the page holds get an
    action (all of them, or those up to the page's degree bound); the
    differentials are checked exactly to commute with every generator,
    and a failure names the offending cell.
    """

    def __init__(self, page: Page, v_action, w_action):
        self.page = page
        self.v_action = list(v_action)
        self.w_action = list(w_action)
        ps = {p for p, _ in page.cells}
        qs = {q for _, q in page.cells}
        v_ext = [{p: exterior_power_map(g, p) for p in ps} for g in self.v_action]
        w_ext = [{q: exterior_power_map(g, q) for q in qs} for g in self.w_action]
        self.actions = {(p, q): [kron(gv[p], gw[q])
                                 for gv, gw in zip(v_ext, w_ext)]
                        for (p, q) in page.cells}
        self._verify()

    def _verify(self):
        for (p, q), d in self.page.diffs.items():
            if d.rows == 0 or d.cols == 0:
                continue
            tgt = self.actions.get((p - 2, q + 1))
            if tgt is None:
                continue
            for gi, (src_act, tgt_act) in enumerate(zip(self.actions[(p, q)], tgt)):
                if d * src_act != tgt_act * d:
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
        if ga * pairing != rhs:
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
            w_act = [RatMatrix.zero(0, 0) for _ in v_act]
    elif isinstance(source, CentralExtension):
        ext = source
        if any(g.shape != (ext.q_rank, ext.q_rank) for g in v_act):
            raise ValueError("action matrices must act on the base")
        w_act = _action_on_centre(ext, v_act)
    else:
        raise TypeError("source must be a FreeNilpotentSpec or CentralExtension")
    return EquivariantPage(e2_page(ext, max_degree=max_degree), v_act, w_act)

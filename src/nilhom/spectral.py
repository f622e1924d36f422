"""Homology spectral sequence pages for central extensions over Q.

The second page of the extension A -> G -> Q with A central has cells
H_p(Q) tensor Lambda^q(A tensor Q); the degree-2 differential is the cap
product against the extension class, realised by the commutator pairing:

    x tensor (a_1 ^ ... ^ a_q)  |->  (rho cap x) ^ a_1 ^ ... ^ a_q,

extended to all p as the contraction of the pairing two-form, with the
sign (-1)^(k+l-1) on the (k, l) contraction (positions 1-based).  For a
free nilpotent group of class two the page degenerates at the third page
and assembles the full rational (and integral) homology; for a general
central extension the third page is reported as an upper bound only,
since no closed-form higher differential is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .groups import (AbelianFG, CentralExtension, FreeNilpotentSpec,
                     NilpotentAction, central_extension_of_class2,
                     induced_action_on_quotient)
from .linalg import (BasisIndex, IntMatrix, RatMatrix, binomial,
                     exterior_power_map, kron, matrix_rank,
                     smith_normal_form, solve)


@dataclass(frozen=True)
class Cell:
    p: int
    q: int
    dim: int
    basis: BasisIndex


class Page:
    """Graded cells with labelled bases and the degree-2 differentials.

    Differentials map cell (p, q) to cell (p-2, q+1).  Construction checks
    that shapes match and that consecutive differentials compose to zero.
    """

    def __init__(self, n, a, cells, diffs):
        self.n = n
        self.a = a
        self.cells = dict(cells)
        self.diffs = dict(diffs)
        self.degree_bound = n + a
        self._validate()

    def cell_dim(self, p, q) -> int:
        cell = self.cells.get((p, q))
        return cell.dim if cell else 0

    def diff(self, p, q) -> RatMatrix:
        d = self.diffs.get((p, q))
        if d is None:
            return RatMatrix.zero(self.cell_dim(p - 2, q + 1), self.cell_dim(p, q))
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

    def __repr__(self):
        return f"Page(n={self.n}, a={self.a}, {len(self.cells)} cells)"


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
    if p < 0 or q < 0 or p > n or q > a:
        return []
    return [(I, J) for I in combinations(range(n), p)
            for J in combinations(range(a), q)]


def abelian_homology(group: AbelianFG, j: int) -> HomologyResult:
    """Rational homology of a f.g. abelian group: an exterior power.

    Torsion is rationally invisible, so only the free rank enters.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    dim = binomial(group.rank, j)
    return HomologyResult(j, dim, ((j, 0, dim),) if dim else ())


def d2_central(ext: CentralExtension, p: int, q: int) -> RatMatrix:
    """Degree-2 differential of the page of a central extension.

    The matrix is stated in the canonical (subset, subset) bases.  For
    p < 2 or out-of-range targets the zero map of the correct shape is
    returned; empty cells give empty matrices.
    """
    n, a = ext.q.rank, ext.a.rank
    src = _cell_labels(n, a, p, q)
    tgt = _cell_labels(n, a, p - 2, q + 1)
    mat = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
    if p >= 2 and tgt and src:
        tgt_pos = {lab: i for i, lab in enumerate(tgt)}
        pair_pos = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
        P = ext.pairing.entries
        for col, (I, J) in enumerate(src):
            for k in range(p):
                for l in range(k + 1, p):
                    sgn = 1 if (k + l) % 2 == 1 else -1
                    I2 = I[:k] + I[k + 1:l] + I[l + 1:]
                    pc = pair_pos[(I[k], I[l])]
                    for alpha in range(a):
                        cval = P[alpha][pc]
                        if cval == 0 or alpha in J:
                            continue
                        before = sum(1 for jj in J if jj < alpha)
                        J2 = tuple(sorted(J + (alpha,)))
                        row = tgt_pos[(I2, J2)]
                        wedge_sgn = -1 if before % 2 else 1
                        mat[row][col] += sgn * wedge_sgn * cval
    return RatMatrix(mat, len(tgt), len(src))


def e2_page(ext: CentralExtension) -> Page:
    """Second page of a central extension, all cells and differentials."""
    n, a = ext.q.rank, ext.a.rank
    cells = {}
    diffs = {}
    for p in range(n + 1):
        for q in range(a + 1):
            basis = BasisIndex.pairs(BasisIndex.exterior(n, p),
                                     BasisIndex.exterior(a, q))
            cells[(p, q)] = Cell(p, q, binomial(n, p) * binomial(a, q), basis)
            diffs[(p, q)] = d2_central(ext, p, q)
    return Page(n, a, cells, diffs)


@lru_cache(maxsize=None)
def _ks_data(r: int):
    page = e2_page(central_extension_of_class2(FreeNilpotentSpec(r, 2)))
    return page, e3_dimensions(page)


def ks_page(r: int) -> Page:
    """Cached class-two page of rank r."""
    return _ks_data(r)[0]


def e3_dimensions(page: Page):
    """Third-page dimensions ker/im for every cell of a page.

    For class-two free nilpotent groups this is the whole homology; for a
    general central extension it is only an upper bound for the limit.
    """
    ranks = {pq: matrix_rank(d) for pq, d in page.diffs.items()}
    return {(p, q): cell.dim - ranks.get((p, q), 0) - ranks.get((p + 2, q - 1), 0)
            for (p, q), cell in page.cells.items()}


def _integral_cell(page: Page, p: int, q: int):
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


def homology_free_nilpotent_c2(r: int, j: int, integral: bool = False) -> HomologyResult:
    """Homology of the free nilpotent group of class two and rank r.

    Dimensions are assembled from the third-page cells, which carry the
    whole answer here (the page degenerates); the corner cells (0, j) die
    because the degree-(2, q) differential is onto.  With ``integral``
    set, invariant factors are computed per cell by Smith reduction, and
    for the whole degree whenever only one cell is nonzero.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    page, e3 = _ks_data(r)
    if j == 0:
        return HomologyResult(0, 1, ((0, 0, 1),), (0,) if integral else None,
                              (((0, 0), 1, ()),) if integral else None)
    cells = [(i, j - i) for i in range(1, j + 1)]
    prov = tuple((p, q, e3[(p, q)]) for (p, q) in cells if (p, q) in e3)
    dim = sum(d for _, _, d in prov)
    factors = None
    integral_cells = None
    if integral:
        integral_cells = []
        for (p, q) in cells:
            if (p, q) not in page.cells or page.cell_dim(p, q) == 0:
                continue
            free, torsion = _integral_cell(page, p, q)
            integral_cells.append(((p, q), free, torsion))
        nontrivial = [c for c in integral_cells if c[1] > 0 or c[2]]
        if len(nontrivial) == 0:
            factors = ()
        elif len(nontrivial) == 1:
            _, free, torsion = nontrivial[0]
            factors = torsion + (0,) * free
        integral_cells = tuple(integral_cells)
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
    _, e3 = _ks_data(spec.rank)
    return e3[(1, 1)], e3[(2, 0)]


class EquivariantPage:
    """A page together with commuting action matrices on every cell.

    Cell (p, q) carries the exterior powers of the base and centre
    actions; the differentials are checked exactly to commute with every
    generator, and a failure names the offending cell.
    """

    def __init__(self, page: Page, v_action, w_action):
        self.page = page
        self.v_action = list(v_action)
        self.w_action = list(w_action)
        self.actions = {}
        for (p, q) in page.cells:
            mats = [kron(exterior_power_map(gv, p), exterior_power_map(gw, q))
                    for gv, gw in zip(self.v_action, self.w_action)]
            self.actions[(p, q)] = mats
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
    pairing = ext.pairing.to_rat()
    if matrix_rank(pairing) < ext.a.rank:
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


def equivariant_page(source, act) -> EquivariantPage:
    """Equivariant page of a class <= 2 free nilpotent group or extension.

    For a free nilpotent spec the centre action is the one induced on the
    weight-two layer; for a central extension it is solved from pairing
    equivariance (requires a rationally surjective pairing).
    """
    gens = act.generators if isinstance(act, NilpotentAction) else list(act)
    if isinstance(source, FreeNilpotentSpec):
        if source.nil_class > 2:
            raise ValueError("equivariant pages need class <= 2")
        if not isinstance(act, NilpotentAction) or act.target != source:
            act = NilpotentAction(source, tuple(gens))
        ext = central_extension_of_class2(source)
        v_act = [g.to_rat() for g in act.generators]
        if source.nil_class == 2:
            w_act = [g.to_rat() for g in induced_action_on_quotient(act, 2)]
        else:
            w_act = [RatMatrix.zero(0, 0) for _ in v_act]
    elif isinstance(source, CentralExtension):
        ext = source
        v_act = []
        for g in gens:
            gr = g.to_rat() if isinstance(g, IntMatrix) else g
            if gr.shape != (ext.q.rank, ext.q.rank):
                raise ValueError("action matrices must act on the base")
            v_act.append(gr)
        w_act = _action_on_centre(ext, v_act)
    else:
        raise TypeError("source must be a FreeNilpotentSpec or CentralExtension")
    return EquivariantPage(e2_page(ext), v_act, w_act)

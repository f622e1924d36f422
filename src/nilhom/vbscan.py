"""Finite-index homology scans through Koszul complexes.

The homology of Z^n with coefficients in a finite-dimensional module is
the homology of the Koszul complex on the commuting operators g_i - 1.
Scanning the power subgroups (Z^n)^m = (mZ)^n replaces every generator
by its m-th power, and the per-degree totals reproduce, at desk scale,
the boundedness phenomenon behind finite virtual Betti numbers.  All
dimensions are exact; reports state the observed supremum over the
scanned range, never a mathematical supremum.  A scan reads no
tameness: the hypothesis reports, which tie tameness to the
boundedness theorem, are in ``sigma``.

The coefficients H_q(N, Q) are taken one module per third-page cell
(i, q - i), the graded pieces of H_q; Koszul homology is additive over
direct sums, so it is summed over the cells of a degree.

A scan needs the homology only at the divisors of one period.  Split a
module over the algebraic closure into joint generalised eigenspaces.
Where some eigenvalue lambda_i has lambda_i^m != 1, g_i^m - 1 is
invertible and the Koszul complex there is exact.  Otherwise every
g_i^m - 1 is N_i times a unit commuting with everything, N_i nilpotent,
and the homology does not depend on m.  So row m equals row gcd(m, L),
where L is the lcm of the root-of-unity orders of the eigenvalues; an
order d shows as the cyclotomic polynomial Phi_d dividing a
characteristic polynomial.  Orders above the scanned range divide no
scanned m and are left out of L.  Rows and the observed supremum still
cover m = 1..m_max and power subgroups only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .filtration import induced_homology_action
from .groups import NilpotentAction
from .linalg import (IntMatrix, RatMatrix, binomial, integral_row,
                     matrix_rank, require_commuting, require_matrices)

# (j + 1) entries in each of m_max rows; a larger scan can run for minutes
MAX_SCAN_ENTRIES = 10 ** 6


@dataclass(frozen=True)
class QModuleFD:
    """Finite-dimensional rational representation of Z^n.

    Generators are ``RatMatrix`` or ``IntMatrix``; they must be
    invertible and pairwise commuting, both checked exactly at
    construction.
    """

    dim: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        require_matrices(gens, "generators")
        for g in gens:
            if g.shape != (self.dim, self.dim):
                raise ValueError("generators must be square of the module dimension")
            if matrix_rank(g) != self.dim:
                raise ValueError("generators must be invertible")
        require_commuting(gens, "generators")

    @property
    def n(self) -> int:
        return len(self.generators)


def _scaled(mats):
    """The lcm s of the denominators in ``mats``, and s times each as int rows."""
    s = lcm(1, *(x.denominator for g in mats for row in g.entries for x in row))
    return s, [[[x.numerator * (s // x.denominator) for x in row]
                for row in g.entries] for g in mats]


def _koszul_differential(module: QModuleFD, p: int) -> IntMatrix:
    """Differential C_p -> C_{p-1} of the Koszul complex on the g_i - 1,
    times s, the lcm of the denominators of all generators.

    Block (J, I) with J = I minus its t-th index is (-1)^t s (g_{I[t]} - 1),
    built from integer rows; no other term lands there.  Scaling the
    whole matrix keeps its rank, which is all ``koszul_homology`` reads.
    """
    n, d = module.n, module.dim
    s, shifted = _scaled(module.generators)
    for blk in shifted:
        for i, row in enumerate(blk):
            row[i] -= s
    signed = [(blk, [[-x for x in row] for row in blk]) for blk in shifted]
    src = list(combinations(range(n), p))
    tgt = list(combinations(range(n), p - 1))
    tgt_pos = {I: i for i, I in enumerate(tgt)}
    mat = [[0] * (len(src) * d) for _ in range(len(tgt) * d)]
    for ci, I in enumerate(src):
        c0 = ci * d
        for t in range(p):
            r0 = tgt_pos[I[:t] + I[t + 1:]] * d
            for i, row in enumerate(signed[I[t]][t % 2]):
                mat[r0 + i][c0:c0 + d] = row
    return IntMatrix(mat, len(tgt) * d, len(src) * d)


def koszul_homology(module: QModuleFD, p: int) -> int:
    """Dimension of H_p(Z^n, module), exact.

    >>> triv = QModuleFD(1, (RatMatrix.identity(1), RatMatrix.identity(1)))
    >>> [koszul_homology(triv, p) for p in range(3)]
    [1, 2, 1]
    """
    n, d = module.n, module.dim
    if p < 0 or p > n or d == 0:
        return 0
    dim_p = d * binomial(n, p)
    rank_out = matrix_rank(_koszul_differential(module, p)) if p >= 1 else 0
    rank_in = matrix_rank(_koszul_differential(module, p + 1)) if p + 1 <= n else 0
    return dim_p - rank_out - rank_in


def power_subgroup(module: QModuleFD, m: int) -> QModuleFD:
    """Same space, generators raised to the m-th power."""
    if m < 1:
        raise ValueError("power must be >= 1")
    return QModuleFD(module.dim, tuple(g ** m for g in module.generators))


def _poly_divmod(num, den):
    """Quotient and remainder of ``num`` by the monic ``den``; polynomials
    are coefficient lists, lowest degree first."""
    num = list(num)
    k = len(den) - 1
    quo = [0] * max(len(num) - k, 0)
    for top in range(len(num) - 1, k - 1, -1):
        c = quo[top - k] = num[top]
        if c:
            for i, x in enumerate(den):
                num[top - k + i] -= c * x
    return quo, num[:k]


def _cyclotomics(limit: int, dim: int) -> dict:
    """Cyclotomic polynomials Phi_d for every d <= limit with phi(d) <= dim.

    Phi_d is x^d - 1 divided exactly by Phi_e for the proper divisors e
    of d; phi(e) <= phi(d), so those are already in the table.
    """
    out = {}
    for d in range(1, limit + 1):
        if sum(gcd(k, d) == 1 for k in range(d)) > dim:
            continue
        phi = [-1] + [0] * (d - 1) + [1]
        for e, cyc in out.items():
            if d % e == 0:
                phi = _poly_divmod(phi, cyc)[0]
        out[d] = phi
    return out


def _charpoly(g: RatMatrix) -> list:
    """Coefficients of det(kI - g), lowest degree first.

    Berkowitz's division-free recurrence (Inf. Proc. Letters 18, 1984)
    on h = s g, s the common denominator of g: from the bottom row up,
    the polynomial of the trailing block at row i is the lower-triangular
    Toeplitz matrix on 1, -h_ii, -R C, -R M C, ... times that of M, the
    block below, with R and C the rest of row and column i.  The
    coefficient of k^i is that of y^i in det(yI - h) over s^(dim - i).
    """
    s, (h,) = _scaled([g])
    poly = [1]
    for i in reversed(range(g.rows)):
        row, block = h[i][i + 1:], [r[i + 1:] for r in h[i + 1:]]
        col, toeplitz = [r[i] for r in h[i + 1:]], [1, -h[i][i]]
        for _ in poly[1:]:
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(r, col)) for r in block]
        poly = [sum(toeplitz[t - u] * c for u, c in enumerate(poly[:t + 1]))
                for t in range(len(poly) + 1)]
    return [Fraction(a, s ** i) for i, a in enumerate(poly)][::-1]


def _scan_period(modules, m_max: int) -> int:
    """Least common multiple of the root-of-unity orders d <= m_max of
    the generators' eigenvalues.

    An order d shows as Phi_d dividing a characteristic polynomial, and
    phi(d) <= dim bounds the candidates, as does d <= 2 dim^2 + 2 (since
    phi(d) >= sqrt(d / 2)).  Orders above m_max divide no scanned m and
    are left out.  Each test runs in Z[x]: Phi_d is monic and primitive,
    so by Gauss's lemma it divides a rational f exactly when it divides
    the integer polynomial D f, D the lcm of f's denominators, and the
    division by a monic integer polynomial never leaves the integers.
    """
    dim = max((mod.dim for mod in modules), default=0)
    cyclo = _cyclotomics(min(m_max, 2 * dim * dim + 2), dim)
    polys = [integral_row(_charpoly(g))[0]
             for mod in modules for g in mod.generators]
    return lcm(1, *(d for d, phi in cyclo.items()
                    if any(not any(_poly_divmod(f, phi)[1]) for f in polys)))


@dataclass(frozen=True)
class ScanRow:
    m: int
    by_p: tuple
    total: int


@dataclass(frozen=True)
class ScanReport:
    """Per-m table of total twisted homology dimensions in one degree.

    ``period`` is the L of the module docstring: every row m equals row
    gcd(m, L).  It is not part of the JSON report.
    """

    j: int
    m_max: int
    rows: tuple
    observed_sup: int
    period: int


def _narrowed(mats) -> tuple:
    """A cell's ``RatMatrix`` generators as ``IntMatrix`` when all of
    them are integral, else as given."""
    try:
        return tuple(g.to_int() for g in mats)
    except ValueError:
        return tuple(mats)


def vb_scan(act: NilpotentAction, j: int, m_max: int) -> ScanReport:
    """Scan sum_p dim H_p((Z^n)^m, H_{j-p}(N, Q)) for m = 1..m_max, where
    N is ``act.target``.

    Needs class <= 2 so the coefficient modules, one per third-page
    cell, are computable from the degenerate page; a higher class is
    refused there.  A cell whose generator matrices are all integral
    becomes an ``IntMatrix`` module, so its checks, powers,
    characteristic polynomials and Koszul ranks run in ints.  Only power
    subgroups are scanned; the report records the observed supremum over
    the range.  Row m is computed at gcd(m, L), once per distinct value,
    where L is the period of the module docstring (``ScanReport.period``).
    More than ``MAX_SCAN_ENTRIES`` entries, (j + 1) * m_max, are refused.
    """
    if j < 0 or m_max < 1 or (j + 1) * m_max > MAX_SCAN_ENTRIES:
        raise ValueError(f"a scan needs j >= 0, m_max >= 1 and (j + 1) * m_max "
                         f"<= {MAX_SCAN_ENTRIES}, got j = {j} and m_max = {m_max}")
    if not act.generators:
        raise ValueError("scan needs at least one acting generator")
    n = len(act.generators)
    # one module per third-page cell, in the degrees whose Koszul degree
    # j - q can carry homology
    cells = {q: [QModuleFD(mats[0].rows, _narrowed(mats)) for mats in degree]
             for q, degree in enumerate(induced_homology_action(act, j))
             if j - q <= n}
    period = _scan_period([mod for mods in cells.values() for mod in mods], m_max)
    by_gcd = {}
    rows = []
    for m in range(1, m_max + 1):
        g = gcd(m, period)
        if g not in by_gcd:
            by_gcd[g] = tuple(
                sum(koszul_homology(power_subgroup(mod, g), p)
                    for mod in cells.get(j - p, ())) for p in range(j + 1))
        by_p = by_gcd[g]
        rows.append(ScanRow(m, by_p, sum(by_p)))
    sup = max(r.total for r in rows)
    return ScanReport(j, m_max, tuple(rows), sup, period)


def hirsch_bound(h: int, j: int) -> int:
    """Binomial bound on rational Betti numbers from the Hirsch length.

    >>> hirsch_bound(4, 2)
    6
    """
    if h < 0 or j < 0:
        raise ValueError("need h, j >= 0")
    return binomial(h, j)


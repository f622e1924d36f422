"""Reference power-subgroup scan and Koszul differential.

``scan_rows`` is the scan as the library ran it before rows were read
off gcd(m, L): each step multiplies every generator of each used
coefficient module once more by its first power and takes the Koszul
homology afresh, so entries grow like lambda^m.  ``koszul_differential``
is the Koszul matrix as the library built it before the integer
assembly, entry by entry in ``Fraction``.  Kept so tests can check the
period argument of ``nilhom.vbscan.vb_scan``, its sum over the cells of
a degree, and the integer ``_koszul_differential`` against them: the
scan takes one module per degree, the direct sum of its cells, from
``reference_filtration.induced_homology_action``.  ``charpoly`` is the
characteristic polynomial as the library took it before Berkowitz's
recurrence: one determinant per node, then Newton interpolation.
``scan_period`` is the period as the library read it before the
divisibility tests ran in Z[x]: each cyclotomic polynomial divides the
characteristic polynomial with its ``Fraction`` coefficients.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from nilhom.linalg import RatMatrix
from nilhom.vbscan import (QModuleFD, ScanRow, _cyclotomics, _poly_divmod,
                           koszul_homology)

from reference_filtration import induced_homology_action
from reference_linalg import det


def koszul_differential(module: QModuleFD, p: int) -> RatMatrix:
    """Differential C_p -> C_{p-1} of the Koszul complex on the g_i - 1."""
    n, d = module.n, module.dim
    shifted = [g - RatMatrix.identity(d) for g in module.generators]
    src = list(combinations(range(n), p))
    tgt = list(combinations(range(n), p - 1))
    tgt_pos = {I: i for i, I in enumerate(tgt)}
    mat = [[Fraction(0)] * (len(src) * d) for _ in range(len(tgt) * d)]
    for ci, I in enumerate(src):
        for t in range(p):
            J = I[:t] + I[t + 1:]
            sgn = -1 if t % 2 else 1
            block = shifted[I[t]]
            r0 = tgt_pos[J] * d
            c0 = ci * d
            for i in range(d):
                for j in range(d):
                    mat[r0 + i][c0 + j] += sgn * block.entries[i][j]
    return RatMatrix(mat, len(tgt) * d, len(src) * d)


def scan_rows(act, j: int, m_max: int) -> tuple:
    """Rows of the degree-j scan for m = 1..m_max."""
    n = len(act.generators)
    modules = {}
    for q, mats in enumerate(induced_homology_action(act, j)):
        if mats[0].rows:
            modules[q] = QModuleFD(mats[0].rows, tuple(mats))
    powers = {q: mod for q, mod in modules.items() if j - q <= n}
    rows = []
    for m in range(1, m_max + 1):
        if m > 1:
            powers = {q: QModuleFD(mod.dim, tuple(
                          g * g1 for g, g1 in zip(mod.generators,
                                                  modules[q].generators)))
                      for q, mod in powers.items()}
        by_p = tuple(koszul_homology(powers[j - p], p) if j - p in powers else 0
                     for p in range(j + 1))
        rows.append(ScanRow(m, by_p, sum(by_p)))
    return tuple(rows)


def charpoly(g: RatMatrix) -> list:
    """Coefficients of det(kI - g), lowest degree first.

    With s the common denominator of g, det(yI - sg) is evaluated at
    y = 0..dim, one determinant each, and interpolated by Newton's
    divided differences on those nodes; the coefficient of y^i is
    s^(dim - i) times that of k^i.
    """
    dim = g.rows
    s = lcm(*(x.denominator for row in g.entries for x in row))
    h = [[x.numerator * (s // x.denominator) for x in row] for row in g.entries]
    c = [det(RatMatrix([[y - x if i == t else -x for t, x in enumerate(row)]
                        for i, row in enumerate(h)], dim, dim))
         for y in range(dim + 1)]
    for level in range(1, dim + 1):
        for i in range(dim, level - 1, -1):
            c[i] = (c[i] - c[i - 1]) / level
    poly = [c[dim]]
    for i in range(dim - 1, -1, -1):
        # poly * (y - i) + c[i]
        poly = ([c[i] - i * poly[0]]
                + [lo - i * hi for hi, lo in zip(poly[1:], poly)] + [poly[-1]])
    return [a / s ** (dim - i) for i, a in enumerate(poly)]


def scan_period(modules, m_max: int) -> int:
    """lcm of the orders d <= m_max (with phi(d) <= dim and d <= 2 dim^2 + 2)
    whose Phi_d divides some generator's ``charpoly`` over Q."""
    dim = max((mod.dim for mod in modules), default=0)
    cyclo = _cyclotomics(min(m_max, 2 * dim * dim + 2), dim)
    polys = [charpoly(g) for mod in modules for g in mod.generators]
    return lcm(1, *(d for d, phi in cyclo.items()
                    if any(not any(_poly_divmod(f, phi)[1]) for f in polys)))

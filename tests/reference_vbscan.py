"""Reference power-subgroup scan and Koszul differential.

``scan_rows`` is the scan as the library ran it before rows were read
off gcd(m, L): each step multiplies every generator of each used
coefficient module once more by its first power and takes the Koszul
homology afresh, so entries grow like lambda^m.  ``koszul_differential``
is the Koszul matrix as the library built it before the integer
assembly, entry by entry in ``Fraction``.  Kept so tests can check the
period argument of ``nilhom.vbscan.vb_scan`` and the integer
``_koszul_differential`` against them.
"""

from fractions import Fraction
from itertools import combinations

from nilhom.filtration import induced_homology_action
from nilhom.linalg import RatMatrix
from nilhom.vbscan import QModuleFD, ScanRow, koszul_homology


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

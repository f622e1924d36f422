"""Reference power-subgroup scan: every m from 1 to m_max by running powers.

The scan as the library ran it before rows were read off gcd(m, L):
each step multiplies every generator of each used coefficient module
once more by its first power and takes the Koszul homology afresh, so
entries grow like lambda^m.  Kept so tests can check the period
argument of ``nilhom.vbscan.vb_scan`` against it.
"""

from nilhom.filtration import induced_homology_action
from nilhom.vbscan import QModuleFD, ScanRow, koszul_homology


def scan_rows(spec, act, j: int, m_max: int) -> tuple:
    """Rows of the degree-j scan for m = 1..m_max."""
    n = len(act.generators)
    modules = {}
    for q, mats in enumerate(induced_homology_action(spec, act, j)):
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

"""Finite-index homology scans through Koszul complexes.

The homology of Z^n with coefficients in a finite-dimensional module is
the homology of the Koszul complex on the commuting operators g_i - 1.
Scanning the power subgroups (Z^n)^m = (mZ)^n replaces every generator
by its m-th power, and the per-degree totals reproduce, at desk scale,
the boundedness phenomenon behind finite virtual Betti numbers.  All
dimensions are exact; reports state the observed supremum over the
scanned range, never a mathematical supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .filtration import induced_homology_action
from .groups import FreeNilpotentSpec, NilpotentAction
from .linalg import RatMatrix, binomial, matrix_rank, require_commuting
from .sigma import ConeUnion, _least_failing_m, tame_requirement


@dataclass(frozen=True)
class QModuleFD:
    """Finite-dimensional rational representation of Z^n.

    Generators must be invertible and pairwise commuting; both are
    checked exactly at construction.
    """

    dim: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not isinstance(g, RatMatrix) or g.shape != (self.dim, self.dim):
                raise ValueError("generators must be square of the module dimension")
            if matrix_rank(g) != self.dim:
                raise ValueError("generators must be invertible")
        require_commuting(gens, "generators")

    @property
    def n(self) -> int:
        return len(self.generators)


def _koszul_differential(module: QModuleFD, p: int) -> RatMatrix:
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


@dataclass(frozen=True)
class ScanRow:
    m: int
    by_p: tuple
    total: int


@dataclass(frozen=True)
class ScanReport:
    """Per-m table of total twisted homology dimensions in one degree."""

    j: int
    m_max: int
    rows: tuple
    observed_sup: int


def vb_scan(spec: FreeNilpotentSpec, act: NilpotentAction, j: int,
            m_max: int) -> ScanReport:
    """Scan sum_p dim H_p((Z^n)^m, H_{j-p}(N, Q)) for m = 1..m_max.

    Needs class <= 2 so the coefficient modules and their actions are
    computable from the degenerate page.  Only power subgroups are
    scanned; the report records the observed supremum over the range.
    """
    if spec.nil_class > 2:
        raise ValueError("scans need class <= 2")
    if j < 0 or m_max < 1:
        raise ValueError("need j >= 0 and m_max >= 1")
    if not act.generators:
        raise ValueError("scan needs at least one acting generator")
    n = len(act.generators)
    modules = {}
    for q in range(j + 1):
        mats = induced_homology_action(spec, act, q)
        dim = mats[0].rows if mats else 0
        if dim:
            modules[q] = QModuleFD(dim, tuple(mats))
    # powers[q] is module q restricted to the m-th power subgroup, kept
    # only where the Koszul degree j - q can carry homology; each step
    # multiplies every generator once more by its first power
    powers = {q: mod for q, mod in modules.items() if j - q <= n}
    rows = []
    for m in range(1, m_max + 1):
        if m > 1:
            powers = {q: QModuleFD(mod.dim, tuple(
                          g * g1 for g, g1 in zip(mod.generators,
                                                  modules[q].generators)))
                      for q, mod in powers.items()}
        by_p = [koszul_homology(powers[j - p], p) if j - p in powers else 0
                for p in range(j + 1)]
        rows.append(ScanRow(m, tuple(by_p), sum(by_p)))
    sup = max(r.total for r in rows)
    return ScanReport(j, m_max, tuple(rows), sup)


def hirsch_bound(h: int, j: int) -> int:
    """Binomial bound on rational Betti numbers from the Hirsch length.

    >>> hirsch_bound(4, 2)
    6
    """
    if h < 0 or j < 0:
        raise ValueError("need h, j >= 0")
    return binomial(h, j)


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict of the tameness hypothesis behind the boundedness theorem."""

    c: int
    n: int
    requirement: int
    holds: bool
    fails_at_m: object
    guaranteed: object


def hypothesis_report(c: int, n: int, sc: ConeUnion) -> HypothesisReport:
    """Check 2(c(n-1)+1)-tameness of a complement and report coverage.

    When the hypothesis holds the virtual Betti numbers are guaranteed
    finite in degrees 0..n; otherwise the least failing tameness degree
    is reported (failures are upward closed).
    """
    req = tame_requirement(c, n)
    fails_at = _least_failing_m(sc, req)
    if fails_at is None:
        return HypothesisReport(c, n, req, True, None,
                                f"vb_j finite for 0 <= j <= {n}")
    return HypothesisReport(c, n, req, False, fails_at, None)

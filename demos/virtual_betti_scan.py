#!/usr/bin/env python3
"""Finite-index Betti scans and the tameness hypothesis report.

The scan fixes a free nilpotent group with an action of Z^n on it and
tabulates, for each power subgroup index m, the total twisted homology
dimension in one degree.  Bounded rows are the desk-scale shadow of
finite virtual Betti numbers.  The hypothesis report ties the same
conclusion to an exact tameness check on the complement.
"""

from nilhom import (ConeUnion, FreeNilpotentSpec, NilpotentAction,
                    full_sphere, hirsch_bound, hypothesis_report, vb_scan)
from nilhom.linalg import IntMatrix


def main():
    spec = FreeNilpotentSpec(2, 2)
    anosov = IntMatrix([[2, 1], [1, 1]])
    act = NilpotentAction(spec, (anosov,))
    print("== Heisenberg group twisted by an Anosov automorphism ==")
    print("generator on the abelianisation:", [list(r) for r in anosov.entries])
    for j in range(4):
        report = vb_scan(act, j, 16)
        row = [r.total for r in report.rows]
        print(f"degree {j}: totals over m = 1..16: {row}  "
              f"(observed sup {report.observed_sup})")

    print("\n== trivial action for contrast ==")
    triv = NilpotentAction(spec, (IntMatrix.identity(2),))
    for j in range(3):
        report = vb_scan(triv, j, 8)
        print(f"degree {j}: totals {[r.total for r in report.rows]}")

    print("\n== hypothesis reports ==")
    rep = hypothesis_report(2, 3, ConeUnion(3, ()))
    print(f"finite-dimensional module, c = 2, n = 3: requirement "
          f"{rep.requirement}, holds = {rep.holds}: {rep.guaranteed}")
    rep = hypothesis_report(1, 1, full_sphere(1))
    print(f"lamplighter shape, c = 1, n = 1: requirement {rep.requirement}, "
          f"holds = {rep.holds}, fails at m = {rep.fails_at_m}")

    print("\n== Hirsch-length bound C(h, j) ==")
    for h in (3, 4, 6):
        print(f"h = {h}:", [hirsch_bound(h, j) for j in range(h + 1)])


if __name__ == "__main__":
    main()

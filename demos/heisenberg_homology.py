#!/usr/bin/env python3
"""Homology of free nilpotent groups of class two, from the page down.

Walks through the discrete Heisenberg group: the second page of its
central extension, the degree-two differentials, the third-page cells
that assemble the Betti numbers, and the integral invariant factors.
"""

from nilhom import (FreeNilpotentSpec, betti_free_nilpotent_c2,
                    e3_dimensions, h2_class2, homology_free_nilpotent_c2,
                    ks_page)


def main():
    print("== Heisenberg group: rank 2, class 2 ==")
    page = ks_page(2)
    print("second-page cell dimensions (p, q) -> dim:")
    for (p, q) in sorted(page.cells):
        dim = page.cell_dim(p, q)
        if dim:
            print(f"  ({p}, {q}) -> {dim}")

    print("\nthe key differential out of (2, 0), e1^e2 |-> [x1, x2]:")
    print("  matrix:", [[str(x) for x in row]
                        for row in page.diff(2, 0).entries])

    print("\nthird-page dimensions (only the surviving cells):")
    for (p, q), dim in sorted(e3_dimensions(page).items()):
        if dim:
            print(f"  ({p}, {q}) -> {dim}")

    print("\nBetti numbers b_0..b_3:", betti_free_nilpotent_c2(2))
    print("integral invariant factors (0 = free summand):")
    for j in range(4):
        res = homology_free_nilpotent_c2(2, j)
        print(f"  H_{j}: {list(res.invariant_factors)}")

    print("\n== larger ranks ==")
    for r in (3, 4):
        print(f"rank {r}:", betti_free_nilpotent_c2(r))
    print("\ndegree-two graded pieces (relations quotient, pairing kernel):")
    for r in (2, 3, 4):
        print(f"  rank {r}:", h2_class2(FreeNilpotentSpec(r, 2)))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Polyhedral complements on the valuation sphere and m-tameness.

Three standard fixtures: a module where every direction is good, the
free module where none is (the lamplighter shape), and the planar module
cut out by 1 + t + s whose complement is three rays, tame at level two
but not at level three.
"""

from nilhom import (CyclicModuleSpec, LaurentPoly, ValuationVector,
                    full_sphere, m_tame, newton_polytope,
                    sigma_complement_principal, sigma_witness_search,
                    tensor_power_fg_check)


def describe(sc):
    if not sc.cones:
        return "empty"
    out = []
    for cone in sc.cones:
        bits = [f"<{list(r)}, v> = 0" for r in cone.eqs]
        bits += [f"<{list(r)}, v> >= 0" for r in cone.ineqs]
        out.append("{" + ", ".join(bits) + "}")
    return " union ".join(out)


def main():
    t_minus_2 = LaurentPoly(1, {(1,): 1, (0,): -2})
    print("== f = t - 2 (a line with an interesting action) ==")
    print("newton polytope vertices:", newton_polytope(t_minus_2))
    sc = sigma_complement_principal(t_minus_2)
    print("complement:", describe(sc))
    print("m-tame for m = 2..12:",
          all(m_tame(sc, m) for m in range(2, 13)))
    spec = CyclicModuleSpec(1, (t_minus_2,))
    for v in (1, -1):
        w = sigma_witness_search(spec, ValuationVector((v,)), 4)
        print(f"witness in direction {v:+d}:", w.poly)
    print("tensor square finitely generated?",
          tensor_power_fg_check(spec, 2))

    print("\n== free module of rank one (lamplighter shape) ==")
    sphere = full_sphere(1)
    print("complement: the whole sphere")
    print("2-tame?", m_tame(sphere, 2))
    print("tensor square finitely generated?",
          tensor_power_fg_check(CyclicModuleSpec(1, ()), 2))

    print("\n== f = 1 + t + s in two variables ==")
    triangle = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    print("newton polytope vertices:", sorted(newton_polytope(triangle)))
    sc = sigma_complement_principal(triangle)
    print("complement:", describe(sc))
    print("2-tame?", m_tame(sc, 2), " 3-tame?", m_tame(sc, 3))
    triple = [(0, 1), (1, 0), (-1, -1)]
    print("zero-sum triple in the complement:", triple,
          "sums to", tuple(map(sum, zip(*triple))))
    print("tensor cube finitely generated?",
          tensor_power_fg_check(CyclicModuleSpec(2, (triangle,)), 3))


if __name__ == "__main__":
    main()

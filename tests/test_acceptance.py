"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every check is exact; the stated wall-clock budgets are asserted where the
criterion fixes one.
"""

import random
import time
from fractions import Fraction
from math import comb

from nilhom.filtration import (filtration_certificate, induced_homology_action,
                               is_nilpotent_action, tensor_degree_bound)
from nilhom.groups import CentralExtension, FreeNilpotentSpec, NilpotentAction
from nilhom.linalg import IntMatrix, RatMatrix, rank_kernel_image
from nilhom.sigma import (Cone, ConeUnion, LaurentPoly, ValuationVector,
                          full_sphere, m_tame, sigma_complement_principal,
                          tame_requirement)
from nilhom.spectral import (betti_free_nilpotent_c2, e2_page, e3_dimensions,
                             homology_free_nilpotent_c2, ks_page)
from nilhom.vbscan import (QModuleFD, hirsch_bound, hypothesis_report,
                           koszul_homology, power_subgroup, vb_scan)

import reference_linalg as ref

ANOSOV = IntMatrix([[2, 1], [1, 1]])


def _verdict(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_heisenberg_betti():
    t0 = time.monotonic()
    betti = betti_free_nilpotent_c2(2)
    elapsed = time.monotonic() - t0
    # oracle: rank-nullity on the explicit degree-two differentials with the
    # reference Fraction elimination, then Euler characteristic and duality
    page = ks_page(2)
    ranks = {pq: ref.rank_kernel_image(d)[0] for pq, d in page.diffs.items()}
    oracle = [1]
    for j in range(1, 4):
        total = 0
        for i in range(1, j + 1):
            total += page.cell_dim(i, j - i) - ranks.get((i, j - i), 0) \
                - ranks.get((i + 2, j - i - 1), 0)
        oracle.append(total)
    ok = (betti == [1, 2, 2, 1] == oracle
          and sum((-1) ** j * b for j, b in enumerate(betti)) == 0
          and betti == betti[::-1]
          and elapsed < 1.0)
    _verdict(1, ok, f"betti(free nilpotent 2,2) = {betti} in {elapsed:.3f}s")


def test_criterion_02_ks_degeneration_consistency():
    t0 = time.monotonic()
    ok = True
    for r in (2, 3):
        h = r + comb(r, 2)
        betti = betti_free_nilpotent_c2(r)
        ok = ok and sum((-1) ** j * b for j, b in enumerate(betti)) == 0
        ok = ok and all(betti[j] == betti[h - j] for j in range(h + 1))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _verdict(2, ok, f"Euler = 0 and duality for r = 2, 3 in {elapsed:.2f}s")


def test_criterion_03_differential_laws():
    rng = random.Random(103)
    ok = True
    count = 0
    while count < 100:
        n = rng.randint(1, 4)
        a = rng.randint(1, 3)
        pairing = IntMatrix([[rng.randint(-3, 3) for _ in range(comb(n, 2))]
                             for _ in range(a)])
        ext = CentralExtension(n, a, pairing)
        page = e2_page(ext)  # construction verifies shapes
        for (p, q), d in page.diffs.items():
            nxt = page.diff(p - 2, q + 1)
            if nxt.rows and d.cols and not (nxt * d).is_zero():
                ok = False
        count += 1
    for r in range(2, 5):
        page = ks_page(r)
        for (p, q), d in page.diffs.items():
            nxt = page.diff(p - 2, q + 1)
            if nxt.rows and d.cols and not (nxt * d).is_zero():
                ok = False
    _verdict(3, ok, "d2 o d2 = 0 on 100 random extensions and KS pages r <= 4")


def test_criterion_04_surjectivity_and_dead_corner():
    rng = random.Random(104)
    ok = True
    cases = 0
    while cases < 100:
        n = rng.randint(1, 4)
        a = rng.randint(1, 3)
        pairing = IntMatrix([[rng.randint(-3, 3) for _ in range(comb(n, 2))]
                             for _ in range(a)])
        if pairing.rank() < a:
            continue
        cases += 1
        ext = CentralExtension(n, a, pairing)
        page = e2_page(ext)
        e3 = e3_dimensions(page)
        for q in range(min(a, 4) + 1):
            d = page.diff(2, q)
            if d.rows and rank_kernel_image(d)[0] != d.rows:
                ok = False
            if q >= 1 and e3.get((0, q), 0) != 0:
                ok = False
    _verdict(4, ok, "surjective pairing forces onto d2 at (2,q) and kills (0,q)"
                    f" on {cases} cases")


def test_criterion_05_filtration_bound_and_sums():
    ok = True
    for r in range(1, 4):
        for c in range(1, 4):
            for j in range(5):
                cert = filtration_certificate(FreeNilpotentSpec(r, c), j)
                if not cert.bound_satisfied:
                    ok = False
                bound = tensor_degree_bound(c, j)
                if any(not 0 <= l.tensor_degree <= bound for l in cert.layers):
                    ok = False
                if c <= 2:
                    expect = comb(r, j) if c == 1 else \
                        homology_free_nilpotent_c2(r, j).rational_dimension
                    if cert.total_dimension != expect:
                        ok = False
    _verdict(5, ok, "layer degrees within c(j-1)+1 for r,c <= 3, j <= 4; "
                    "sums match Betti numbers for c <= 2")


def test_criterion_06_sharpness_evidence():
    ok = True
    for j in (1, 2, 3):
        # rank 3 keeps the (1, j-1) cell alive through degree 3
        cert = filtration_certificate(FreeNilpotentSpec(3, 2), j)
        first = [l for l in cert.layers if l.origin and l.origin[0] == (1, j - 1)]
        if not first or first[0].tensor_degree != 2 * j - 1 \
                or first[0].dimension == 0:
            ok = False
    _verdict(6, ok, "first-layer witness has degree exactly 2j-1 and "
                    "nonzero dimension for j <= 3")


def test_criterion_07_sigma_fixtures():
    t0 = time.monotonic()
    t_minus_2 = LaurentPoly(1, {(1,): 1, (0,): -2})
    sc1 = sigma_complement_principal(t_minus_2)
    ok = not sc1.cones
    ok = ok and all(m_tame(sc1, m) for m in range(2, 13))
    t1 = time.monotonic() - t0

    t0 = time.monotonic()
    ok = ok and not m_tame(full_sphere(1), 2)
    t2 = time.monotonic() - t0

    t0 = time.monotonic()
    triangle = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    sc3 = sigma_complement_principal(triangle)
    ok = ok and m_tame(sc3, 2) and not m_tame(sc3, 3)
    triple = [(0, 1), (1, 0), (-1, -1)]
    ok = ok and all(sc3.contains(ValuationVector(t)) for t in triple)
    ok = ok and tuple(map(sum, zip(*triple))) == (0, 0)
    t3 = time.monotonic() - t0
    ok = ok and max(t1, t2, t3) < 1.0
    _verdict(7, ok, f"(t-2) empty and 12-tame ({t1:.2f}s); lamplighter not "
                    f"2-tame ({t2:.2f}s); triangle 2-tame not 3-tame ({t3:.2f}s)")


def test_criterion_08_tameness_laws():
    t0 = time.monotonic()
    rng = random.Random(108)
    ok = True
    for _ in range(50):
        n = rng.choice([2, 2, 3])
        cones = []
        for _ in range(rng.randint(1, 3)):
            ineqs = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(rng.randint(1, 2))]
            cones.append(Cone(n, ineqs))
        sc = ConeUnion(n, cones)
        verdicts = {m: m_tame(sc, m) for m in range(2, 7)}
        for m in range(3, 7):
            if verdicts[m] and not verdicts[m - 1]:
                ok = False
        antipodal = any(
            Cone(n, ci.ineqs + tuple(tuple(-x for x in row) for row in cj.ineqs),
                 ci.eqs + cj.eqs).has_nonzero_point()
            for ci in cones for cj in cones)
        if verdicts[2] != (not antipodal):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _verdict(8, ok, f"m-tame monotone for m = 3..6 and 2-tame iff no "
                    f"antipodal pair, 50 unions in {elapsed:.2f}s")


def _random_unipotent_family(rng, r, count):
    n = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            n[i][j] = rng.randint(-1, 1)
    nil = IntMatrix(n).to_rat()
    s = RatMatrix.identity(r)
    for _ in range(3):
        i, j = rng.sample(range(r), 2)
        e = [[int(x == y) for y in range(r)] for x in range(r)]
        e[i][j] = rng.randint(-1, 1)
        s = s * RatMatrix(e)
    from nilhom.linalg import solve
    sinv = solve(s, RatMatrix.identity(r))
    gens = []
    for _ in range(count):
        g = RatMatrix.identity(r)
        p = nil
        for _ in range(r):
            g = g + rng.randint(-1, 1) * p
            p = p * nil
        gens.append((s * g * sinv).to_int())
    return tuple(gens)


def test_criterion_09_nilpotent_action_desk_check():
    rng = random.Random(109)
    ok = True
    for _ in range(20):
        r = rng.choice([2, 3])
        c = rng.choice([1, 2])
        spec = FreeNilpotentSpec(r, c)
        act = NilpotentAction(spec, _random_unipotent_family(rng, r, rng.randint(1, 2)))
        for mats in induced_homology_action(act, 3):
            if mats[0].rows == 0:
                continue
            if not is_nilpotent_action(mats).nilpotent:
                ok = False
    _verdict(9, ok, "20 random unipotent actions act nilpotently on H_j, j <= 3")


def test_criterion_10_scan_boundedness():
    t0 = time.monotonic()
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (ANOSOV,))
    ok = True
    expected = {0: 1, 1: 1, 2: 0, 3: 1}
    for j in range(4):
        report = vb_scan(act, j, 64)
        totals = {row.total for row in report.rows}
        if totals != {expected[j]}:
            ok = False
    # trivial-action fixture against the closed form d * C(n, p)
    for n in (1, 2):
        for d in (1, 2, 3):
            mod = QModuleFD(d, tuple(RatMatrix.identity(d) for _ in range(n)))
            for m in (1, 3, 8):
                powered = power_subgroup(mod, m)
                for p in range(n + 1):
                    if koszul_homology(powered, p) != d * comb(n, p):
                        ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _verdict(10, ok, f"Anosov scan constant per degree over m <= 64 and "
                     f"trivial scans match d*C(n,p), {elapsed:.2f}s")


def test_criterion_11_hypothesis_reports():
    ok = True
    for c in range(1, 4):
        for n in range(1, 5):
            rep = hypothesis_report(c, n, ConeUnion(n, ()))
            if not (rep.holds and rep.requirement == tame_requirement(c, n)
                    and rep.guaranteed == f"vb_j finite for 0 <= j <= {n}"):
                ok = False
    lamp = hypothesis_report(1, 1, full_sphere(1))
    ok = ok and not lamp.holds and lamp.fails_at_m == 2 and lamp.requirement == 2
    _verdict(11, ok, "Abels-style empty complement holds for c <= 3, n <= 4; "
                     "lamplighter fails at m = 2")


def test_criterion_12_hirsch_bound():
    ok = hirsch_bound(3, 1) == 3 and hirsch_bound(4, 2) == 6
    for h in range(11):
        for j in range(h + 2):
            if hirsch_bound(h, j) != comb(h, j):
                ok = False
    _verdict(12, ok, "hirsch bound reproduces C(h, j) for h <= 10")

import random
from fractions import Fraction
from math import comb

import pytest

import reference_filtration as ref_filtration
import reference_vbscan as ref
from nilhom.filtration import induced_homology_action, is_nilpotent_action
from nilhom.groups import FreeNilpotentSpec, NilpotentAction
from nilhom.linalg import IntMatrix, RatMatrix, det, matrix_rank, solve
from nilhom.sigma import Cone, ConeUnion, full_sphere, hypothesis_report
from nilhom.vbscan import (QModuleFD, _charpoly, _cyclotomics,
                           _koszul_differential, _narrowed, _scan_period,
                           hirsch_bound, koszul_homology, power_subgroup,
                           vb_scan)

ANOSOV = IntMatrix([[2, 1], [1, 1]])


def trivial_module(dim, n):
    return QModuleFD(dim, tuple(RatMatrix.identity(dim) for _ in range(n)))


def test_koszul_trivial_action_closed_form():
    mod = trivial_module(1, 2)
    assert [koszul_homology(mod, p) for p in range(3)] == [1, 2, 1]
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            mod = trivial_module(d, n)
            for p in range(n + 1):
                assert koszul_homology(mod, p) == d * comb(n, p)


def test_koszul_invertible_shift_vanishes():
    by_two = QModuleFD(1, (RatMatrix([[2]]),))
    assert koszul_homology(by_two, 0) == 0
    assert koszul_homology(by_two, 1) == 0
    anosov = QModuleFD(2, (ANOSOV.to_rat(),))
    # g - 1 is invertible: det(g - 1) = -1
    assert det(ANOSOV.to_rat() - RatMatrix.identity(2)) != 0
    assert koszul_homology(anosov, 0) == 0
    assert koszul_homology(anosov, 1) == 0


def test_koszul_euler_characteristic_zero():
    rng = random.Random(23)
    for _ in range(10):
        d = rng.randint(1, 3)
        n = rng.randint(1, 3)
        base = RatMatrix([[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                          for _ in range(d)])
        g = base if det(base) != 0 else RatMatrix.identity(d)
        gens = tuple(g ** k for k in range(1, n + 1))  # powers commute
        mod = QModuleFD(d, gens)
        chi = sum((-1) ** p * koszul_homology(mod, p) for p in range(n + 1))
        assert chi == 0


def _polynomial_module(rng, d, n, den):
    """Module on Q^d with n generators that are polynomials in one
    rational matrix whose entries have denominators dividing ``den``."""
    base = RatMatrix([[Fraction(rng.randint(-4, 4), rng.choice([1, den]))
                       for _ in range(d)] for _ in range(d)])
    gens = []
    while len(gens) < n:
        c = [Fraction(rng.randint(-3, 3), rng.choice([1, den])) for _ in range(3)]
        g = RatMatrix.identity(d) * c[0] + base * c[1] + base * base * c[2]
        if det(g) != 0:
            gens.append(g)
    return QModuleFD(d, tuple(gens))


@pytest.mark.parametrize("den", [2, 3, 6])
def test_integer_koszul_differential_is_a_scaled_reference(den):
    rng = random.Random(50 + den)
    for _ in range(8):
        n = rng.randint(1, 3)
        mod = _polynomial_module(rng, rng.randint(1, 3), n, den)
        # a unipotent generator gives homology; its shift is nilpotent
        for m in (mod, QModuleFD(mod.dim, mod.generators[:-1] + (
                RatMatrix.identity(mod.dim),))):
            ranks = {}
            for p in range(1, n + 2):
                fast = _koszul_differential(m, p)
                slow = ref.koszul_differential(m, p)
                assert isinstance(fast, IntMatrix)
                assert fast.shape == slow.shape
                ranks[p] = matrix_rank(slow)
                assert matrix_rank(fast) == ranks[p], (m, p)
                # one common scale s > 0 for the whole matrix
                scales = {Fraction(x, y) for rf, rs in zip(fast.entries, slow.entries)
                          for x, y in zip(rf, rs) if y}
                assert len(scales) <= 1 and all(s > 0 for s in scales)
                assert all(x == 0 for rf, rs in zip(fast.entries, slow.entries)
                           for x, y in zip(rf, rs) if not y)
            for p in range(n + 2):
                want = (m.dim * comb(n, p) - ranks.get(p, 0)
                        - ranks.get(p + 1, 0)) if p <= n else 0
                assert koszul_homology(m, p) == want, (m, p)


def test_integer_generators_match_rational_ones():
    rot = IntMatrix([[0, -1], [1, 0]])
    for g in (ANOSOV, rot):
        for m in (1, 2, 4):
            ints = power_subgroup(QModuleFD(2, (g, IntMatrix.identity(2))), m)
            rats = power_subgroup(QModuleFD(2, (g.to_rat(),
                                                RatMatrix.identity(2))), m)
            assert all(isinstance(x, IntMatrix) for x in ints.generators)
            assert [koszul_homology(ints, p) for p in range(3)] == \
                [koszul_homology(rats, p) for p in range(3)]
        assert _charpoly(g) == _charpoly(g.to_rat())
    # the rotation has order four: H_0 of its fourth power is everything
    assert koszul_homology(power_subgroup(QModuleFD(2, (rot,)), 4), 0) == 2
    with pytest.raises(ValueError, match="square of the module dimension"):
        QModuleFD(3, (ANOSOV,))
    # the same type check guards every entry point taking operators
    for call in (lambda: QModuleFD(1, ([[1]],)),
                 lambda: is_nilpotent_action([[[1]]])):
        with pytest.raises(TypeError, match="RatMatrix or IntMatrix, got list"):
            call()


def test_koszul_out_of_range():
    mod = trivial_module(2, 2)
    assert koszul_homology(mod, 3) == 0
    assert koszul_homology(mod, -1) == 0


def test_power_subgroup():
    mod = QModuleFD(1, (RatMatrix([[2]]),))
    assert power_subgroup(mod, 3).generators[0] == RatMatrix([[8]])
    assert power_subgroup(mod, 1).generators == mod.generators
    assert power_subgroup(power_subgroup(mod, 2), 3) == power_subgroup(mod, 6)
    with pytest.raises(ValueError):
        power_subgroup(mod, 0)


def test_qmodule_validation():
    with pytest.raises(ValueError):
        QModuleFD(2, (RatMatrix([[1, 0], [0, 0]]),))
    a = RatMatrix([[1, 1], [0, 1]])
    b = RatMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        QModuleFD(2, (a, b))


def test_vb_scan_heisenberg_anosov():
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (ANOSOV,))
    expected_totals = {0: 1, 1: 1, 2: 0, 3: 1}
    for j, expect in expected_totals.items():
        report = vb_scan(act, j, 8)
        assert all(row.total == expect for row in report.rows), j
        assert report.observed_sup == expect


def test_vb_scan_trivial_action():
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (IntMatrix.identity(2),))
    report = vb_scan(act, 1, 5)
    # coinvariants of H_1 (dim 2) plus H_1 of the line (dim 1)
    assert all(row.total == 3 for row in report.rows)


def test_vb_scan_root_of_unity_bounded_by_universal_power():
    # order-four action: entries oscillate with period four but stay below
    # the value at the universal power lcm(1..8) = 840
    spec = FreeNilpotentSpec(2, 2)
    rot = IntMatrix([[0, -1], [1, 0]])
    act = NilpotentAction(spec, (rot,))
    report = vb_scan(act, 1, 64)
    totals = [row.total for row in report.rows]
    assert set(totals) == {1, 3}
    assert all(t == (3 if row.m % 4 == 0 else 1)
               for t, row in zip(totals, report.rows))
    from nilhom.filtration import induced_homology_action
    [mats] = induced_homology_action(act, 1)[1]
    mod = QModuleFD(2, tuple(mats))
    at_840 = koszul_homology(power_subgroup(mod, 840), 0) + 1
    assert report.observed_sup <= at_840 == 3


def _padded(block, sign):
    return IntMatrix([block[0] + [0], block[1] + [0], [0, 0, sign]])


@pytest.mark.parametrize("spec, gens, m_max", [
    (FreeNilpotentSpec(2, 2), (ANOSOV,), 40),
    # commuting pair on rank 3: the square of a Fibonacci block padded by
    # +1, and the block itself padded by -1
    (FreeNilpotentSpec(3, 2),
     (_padded([[2, 1], [1, 1]], 1), _padded([[1, 1], [1, 0]], -1)), 8),
])
def test_vb_scan_matches_power_subgroups_from_scratch(spec, gens, m_max):
    act = NilpotentAction(spec, gens)
    for j in (1, 2, 3):
        # one module per degree, the direct sum of its cells
        modules = {}
        for q, mats in enumerate(ref_filtration.induced_homology_action(act, j)):
            if mats[0].rows:
                modules[q] = QModuleFD(mats[0].rows, tuple(mats))
        report = vb_scan(act, j, m_max)
        assert [row.m for row in report.rows] == list(range(1, m_max + 1))
        for row in report.rows:
            want = tuple(
                koszul_homology(power_subgroup(modules[j - p], row.m), p)
                if j - p in modules else 0 for p in range(j + 1))
            assert row.by_p == want, (j, row.m)
            assert row.total == sum(want)


def _diag(*blocks):
    """Block-diagonal integer matrix."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(row)] = row
        k += len(b)
    return IntMatrix(out)


ROT3 = [[0, -1], [1, -1]]
ROT4 = [[0, -1], [1, 0]]
ROT6 = [[1, -1], [1, 0]]
NEG_JORDAN = [[-1, -1], [0, -1]]
HYPERBOLIC = [[2, 1], [1, 1]]


@pytest.mark.parametrize("rank, gens, m_max, js, period", [
    (2, (IntMatrix(HYPERBOLIC),), 64, (1, 2, 3), 1),
    (2, (IntMatrix(ROT4),), 64, (1, 2, 3), 4),
    (2, (IntMatrix(ROT6),), 64, (1, 2, 3), 6),
    # order 6 exceeds m_max, so it divides no scanned m and is left out
    (2, (IntMatrix(ROT6),), 5, (1, 2, 3), 1),
    (3, (_diag(ROT3, [[1]]),), 64, (1, 2), 3),
    (3, (_diag(ROT4, [[-1]]),), 64, (1, 2), 4),
    (3, (_diag(ROT6, [[1]]),), 64, (1, 2), 6),
    (3, (_diag(NEG_JORDAN, [[1]]),), 64, (1, 2), 2),
    (3, (_diag(HYPERBOLIC, [[-1]]),), 64, (1, 2), 2),
    # n = 2: the pair of the benchmark scans, and mixed commuting pairs
    (3, (_diag(HYPERBOLIC, [[1]]), _diag([[1, 1], [1, 0]], [[-1]])), 64, (1, 2), 2),
    (3, (_diag(ROT3, [[1]]), _diag([[1, 0], [0, 1]], [[-1]])), 64, (1, 2), 6),
    (3, (_diag(NEG_JORDAN, [[1]]), _diag([[1, 2], [0, 1]], [[-1]])), 64, (1, 2), 2),
], ids=["hyperbolic", "rot4", "rot6", "rot6-short", "rot3+1", "rot4-1",
        "rot6+1", "negjordan+1", "hyperbolic-1", "pair3", "rot3,-1",
        "negjordan,jordan2"])
def test_vb_scan_agrees_with_running_powers(rank, gens, m_max, js, period):
    spec = FreeNilpotentSpec(rank, 2)
    act = NilpotentAction(spec, gens)
    for j in js:
        report = vb_scan(act, j, m_max)
        assert report.period == period, j
        assert report.rows == ref.scan_rows(act, j, m_max), j
        assert report.observed_sup == max(row.total for row in report.rows)


@pytest.mark.parametrize("rank, count, js, m_max", [
    (2, 6, (1, 2, 3), 12), (3, 4, (1, 2, 3), 12), (4, 1, (2,), 6)])
def test_vb_scan_matches_the_assembled_reference(rank, count, js, m_max):
    # seeded actions: the scan over the cells of each degree against
    # running powers of their direct sum, read off the whole page
    rng = random.Random(rank)
    spec = FreeNilpotentSpec(rank, 2)
    for _ in range(count):
        act = ref_filtration.random_action(rng, spec)
        n = len(act.generators)
        summed = ref_filtration.induced_homology_action(act, max(js))
        for j in js:
            report = vb_scan(act, j, m_max)
            assert report.rows == ref.scan_rows(act, j, m_max), (act, j)
            modules = [QModuleFD(mats[0].rows, tuple(mats))
                       for q, mats in enumerate(summed[:j + 1])
                       if mats[0].rows and j - q <= n]
            assert report.period == _scan_period(modules, m_max), (act, j)


def test_rank4_scan_keeps_a_rational_cell():
    # ranks 2 and 3 have given integral cells only; at rank 4 the cell
    # basis can carry denominators, here 2 on the 36-dimensional degree-3
    # cell, which the scan then runs on RatMatrix generators
    gen = IntMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 3]])
    act = NilpotentAction(FreeNilpotentSpec(4, 2), (gen,))
    rational = [(mats[0].rows, max(x.denominator for row in mats[0].entries
                                   for x in row))
                for mats in induced_homology_action(act, 3)[3]
                if type(_narrowed(mats)[0]) is RatMatrix]
    assert rational == [(36, 2)]
    assert vb_scan(act, 3, 6).rows == ref.scan_rows(act, 3, 6)


def _random_block(rng, n):
    """Module of dimension 1..3 on n generators: signed or scaled powers
    of one unipotent or finite-order matrix, conjugated by a unimodular
    one, so the generators commute and the module often has homology."""
    d = rng.randint(1, 3)
    if d == 2 and rng.random() < 0.5:
        base = IntMatrix(rng.choice([ROT3, ROT4, ROT6]))
    else:
        base = IntMatrix([[1 if a == b else rng.randint(-1, 1) if b > a else 0
                           for b in range(d)] for a in range(d)])
    s = IntMatrix.identity(d)
    for _ in range(d if d > 1 else 0):
        e = [[int(a == b) for b in range(d)] for a in range(d)]
        a, b = rng.sample(range(d), 2)
        e[a][b] = rng.randint(-1, 1)
        s = s * IntMatrix(e)
    base = (s * base).to_rat() * solve(s.to_rat(), RatMatrix.identity(d))
    gens = tuple(base ** rng.randint(0, 2) * rng.choice([1, 1, -1, 2, Fraction(1, 3)])
                 for _ in range(n))
    return QModuleFD(d, gens)


def test_koszul_homology_and_period_are_additive_over_direct_sums():
    rng = random.Random(23)
    nonzero = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        blocks = [_random_block(rng, n) for _ in range(rng.randint(1, 3))]
        whole = QModuleFD(sum(b.dim for b in blocks), tuple(
            ref_filtration.direct_sum([b.generators for b in blocks], n)))
        for p in range(n + 1):
            got = koszul_homology(whole, p)
            assert got == sum(koszul_homology(b, p) for b in blocks), p
            nonzero += got > 0
        # Phi_d is irreducible: it divides a block-diagonal characteristic
        # polynomial exactly when it divides a block's
        for m_max in (4, 12):
            assert _scan_period(blocks, m_max) == _scan_period([whole], m_max)
    assert nonzero >= 20


def test_scan_period_divides_in_the_integers():
    # Gauss's lemma: Phi_d divides a rational f exactly when it divides
    # D f in Z[x]; the oracle divides f with its Fraction coefficients
    quarter_half = QModuleFD(3, (RatMatrix([[0, -1, 0], [1, 0, 0],
                                            [0, 0, "1/2"]]),))
    half = QModuleFD(1, (RatMatrix([["1/2"]]),))
    for m_max in (4, 12):
        for mod, want in ((quarter_half, 4), (half, 1)):
            assert _scan_period([mod], m_max) == want
            assert ref.scan_period([mod], m_max) == want
    rng = random.Random(25)
    periods = set()
    for _ in range(60):
        n = rng.randint(1, 2)
        blocks = [_random_block(rng, n) for _ in range(rng.randint(1, 3))]
        whole = QModuleFD(sum(b.dim for b in blocks), tuple(
            ref_filtration.direct_sum([b.generators for b in blocks], n)))
        for m_max in (4, 12):
            got = _scan_period([whole], m_max)
            assert got == ref.scan_period([whole], m_max), (whole, m_max)
        if any(c.denominator > 1 for g in whole.generators for c in _charpoly(g)):
            periods.add(got)
    # non-integral polynomials, both with and without a cyclotomic factor
    assert 1 in periods and len(periods) > 1


def test_integral_cells_scan_like_their_rational_twins():
    # fifteen seeded actions: each cell module as vb_scan hands it over
    # (IntMatrix when integral) and as a RatMatrix module give the same
    # Koszul rows and the same period
    rng = random.Random(26)
    narrowed = 0
    for rank, count in ((2, 8), (3, 7)):
        spec = FreeNilpotentSpec(rank, 2)
        for _ in range(count):
            act = ref_filtration.random_action(rng, spec)
            n = len(act.generators)
            for cells in induced_homology_action(act, 3):
                rats = [QModuleFD(mats[0].rows, tuple(mats)) for mats in cells]
                ints = [QModuleFD(mats[0].rows, _narrowed(mats)) for mats in cells]
                narrowed += sum(type(mod.generators[0]) is IntMatrix for mod in ints)
                assert _scan_period(ints, 12) == _scan_period(rats, 12), act
                for m in range(1, 7):
                    for r_mod, i_mod in zip(rats, ints):
                        r_pow, i_pow = power_subgroup(r_mod, m), power_subgroup(i_mod, m)
                        assert [koszul_homology(i_pow, p) for p in range(n + 1)] == \
                            [koszul_homology(r_pow, p) for p in range(n + 1)], (act, m)
    assert narrowed >= 15
    # one rational generator keeps the whole cell rational
    cell = (RatMatrix([[1]]), RatMatrix([["1/2"]]))
    assert _narrowed(cell) == cell
    assert _narrowed(cell[:1]) == (IntMatrix([[1]]),)


def test_cyclotomic_polynomials_closed_forms():
    closed = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1] * 5,
              6: [1, -1, 1], 7: [1] * 7, 8: [1, 0, 0, 0, 1],
              9: [1, 0, 0, 1, 0, 0, 1], 10: [1, -1, 1, -1, 1], 11: [1] * 11,
              12: [1, 0, -1, 0, 1]}
    assert _cyclotomics(12, 10) == closed
    # only orders whose Phi_d has degree phi(d) <= dim are candidates
    assert _cyclotomics(12, 4) == {d: f for d, f in closed.items()
                                   if len(f) - 1 <= 4}


def test_charpoly_evaluates_to_the_determinant():
    rng = random.Random(41)
    for trial in range(40):
        d = rng.randint(1, 5)
        # integer matrices on even trials, rational ones on odd trials
        g = RatMatrix([[Fraction(rng.randint(-4, 4),
                                 rng.randint(1, 5) if trial % 2 else 1)
                        for _ in range(d)] for _ in range(d)])
        f = _charpoly(g)
        assert len(f) == d + 1 and f[-1] == 1
        for k in (Fraction(-7, 2), -3, 0, 2, Fraction(11, 3), 9):
            value = sum(c * Fraction(k) ** i for i, c in enumerate(f))
            assert value == det(RatMatrix.identity(d) * k - g), (g, k)


def test_charpoly_matches_interpolation_by_determinants():
    rng = random.Random(24)
    for trial in range(330):
        d = trial % 9
        if trial % 3:
            g = RatMatrix([[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
                            for _ in range(d)] for _ in range(d)], d, d)
        else:
            g = IntMatrix([[rng.randint(-3, 3) for _ in range(d)]
                           for _ in range(d)], d, d)
        assert _charpoly(g) == ref.charpoly(g), g


def test_vb_scan_rejects_class3():
    spec = FreeNilpotentSpec(2, 3)
    act = NilpotentAction(spec, (IntMatrix.identity(2),))
    for j in (0, 1):
        with pytest.raises(ValueError, match="class <= 2"):
            vb_scan(act, j, 2)


def test_subquotient_dimension_bookkeeping():
    # upper triangular module W with invariant line U: the coinvariants of
    # the sub are bounded by those of the whole plus H_1 of the quotient
    rng = random.Random(37)
    for _ in range(12):
        a = rng.choice([1, 2, 3])
        c = rng.choice([1, 2])
        b = rng.randint(-2, 2)
        w = QModuleFD(2, (RatMatrix([[a, b], [0, c]]),))
        u = QModuleFD(1, (RatMatrix([[a]]),))
        wu = QModuleFD(1, (RatMatrix([[c]]),))
        for m in (1, 2, 3):
            h0_u = koszul_homology(power_subgroup(u, m), 0)
            h0_w = koszul_homology(power_subgroup(w, m), 0)
            h1_q = koszul_homology(power_subgroup(wu, m), 1)
            assert h0_u <= h0_w + h1_q


def test_hirsch_bound():
    assert hirsch_bound(3, 1) == 3
    assert hirsch_bound(4, 2) == 6
    for h in range(11):
        assert hirsch_bound(h, 0) == 1
        for j in range(h + 2):
            assert hirsch_bound(h, j) == comb(h, j)


def test_hypothesis_report_empty_complement():
    rep = hypothesis_report(2, 3, ConeUnion(3, ()))
    assert rep.requirement == 10 and rep.holds
    assert rep.guaranteed == "vb_j finite for 0 <= j <= 3"


def test_hypothesis_report_lamplighter():
    rep = hypothesis_report(1, 1, full_sphere(1))
    assert rep.requirement == 2 and not rep.holds
    assert rep.fails_at_m == 2


def test_hypothesis_report_nontame_union():
    sc = ConeUnion(1, (Cone(1, [[1]]), Cone(1, [[-1]])))
    rep = hypothesis_report(2, 2, sc)
    assert not rep.holds and rep.fails_at_m == 2

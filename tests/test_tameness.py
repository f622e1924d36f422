"""The m-tameness subset search against the multiset reference.

``reference_tameness.m_tame`` asks one LP with strict inequalities per
multiset of m cones; ``nilhom.sigma`` asks one LP with phi(v) - 1 >= 0
per set of at most n + 1 distinct cones.  The seeded unions mix wedges
(some with an equality row), rays and lines in one to three variables.
"""

import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

import reference_tameness as ref
from nilhom import lp
from nilhom.filtration import tensor_degree_bound
from nilhom.sigma import (Cone, ConeUnion, _cone_points, hypothesis_report,
                          m_tame, tame_requirement)


def _ray_eqs(r):
    """n - 1 independent rows orthogonal to the nonzero vector r."""
    i0 = next(i for i, x in enumerate(r) if x)
    return [[r[i0] if i == j else (-r[j] if i == i0 else 0)
             for i in range(len(r))] for j in range(len(r)) if j != i0]


def _ray(r):
    return Cone(len(r), [r], _ray_eqs(r))


def _random_cone(rng, n):
    kind = rng.choice(["wedge", "ray", "ray", "line"])
    if kind == "wedge":
        ineqs = [[rng.randint(-2, 2) for _ in range(n)]
                 for _ in range(rng.randint(1, 2))]
        eqs = [[rng.randint(-1, 1) for _ in range(n)]
               for _ in range(rng.randint(0, 1))]
        return Cone(n, ineqs, eqs)
    r = [0] * n
    while not any(r):
        r = [rng.randint(-1, 1) for _ in range(n)]
    return _ray(r) if kind == "ray" else Cone(n, [], _ray_eqs(r))


def _seeded_unions():
    rng = random.Random(28)
    unions = []
    for _ in range(38):
        n = rng.randint(1, 3)
        unions.append(ConeUnion(n, [_random_cone(rng, n)
                                    for _ in range(rng.randint(1, 3))]))
    # failures at exactly n + 1: opposite rays on the line, and three
    # planar rays spanning the plane positively
    unions.append(ConeUnion(1, [_ray([1]), _ray([-1])]))
    unions.append(ConeUnion(2, [_ray([1, 0]), _ray([0, 1]), _ray([-1, -1])]))
    # cones that meet only the origin enter the subset search unfiltered:
    # a tame union and one failing at m = 3
    unions.append(ConeUnion(2, [Cone(2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
                                _ray([1, 0]), _ray([0, 1])]))
    unions.append(ConeUnion(2, [Cone(2, [], [[1, 0], [0, 1]]), _ray([1, 0]),
                                _ray([0, 1]), _ray([-1, -1])]))
    return unions


UNIONS = _seeded_unions()


def test_subset_search_matches_multiset_reference():
    least_seen = set()
    for sc in UNIONS:
        verdicts = {m: ref.m_tame(sc, m) for m in range(2, 6)}
        assert {m: m_tame(sc, m) for m in range(2, 6)} == verdicts, sc.cones
        # The reference runs for m <= 5 only: each further m costs seconds
        # on a tame union in three variables.  Every union has n + 1 < 5,
        # so m = 5 checks against the reference that the verdict is flat
        # past n + 1, which is what the reports with requirement > 5 use.
        least = next((m for m in range(2, 6) if not verdicts[m]), None)
        least_seen.add((sc.nvars, least))
        for c in (1, 2):
            for n in (1, 2, 3):
                req = tame_requirement(c, n)
                rep = hypothesis_report(c, n, sc)
                want = least if least is not None and least <= req else None
                assert rep.fails_at_m == want, (sc.cones, c, n)
                assert rep.holds == (want is None)
    # tame unions and failures at m = 2 in every dimension, and at m = 3
    assert {(n, least) for n in (1, 2, 3) for least in (None, 2)} <= least_seen
    assert (2, 3) in least_seen


def test_tameness_flat_past_n_plus_one():
    for sc in UNIONS:
        flat = m_tame(sc, sc.nvars + 1)
        for m in range(sc.nvars + 2, sc.nvars + 5):
            assert m_tame(sc, m) == flat


def test_four_rays_fail_exactly_at_four():
    # any three of the rays are linearly independent, all four sum to 0
    sc = ConeUnion(3, [_ray(list(r)) for r in
                       [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]])
    assert m_tame(sc, 2) and m_tame(sc, 3)
    for m in range(4, 9):
        assert not m_tame(sc, m)
    rep = hypothesis_report(2, 2, sc)
    assert rep.requirement == 6 and not rep.holds and rep.fails_at_m == 4


def _integer_systems(rng):
    for _ in range(300):
        nvars = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [Fraction(rng.randint(-3, 3)) if rng.random() < 0.7
                      else Fraction(0) for _ in range(nvars)]
            cons.append((coeffs, Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                         rng.choice([lp.GE, lp.GE, lp.EQ])))
        yield cons, nvars


def _fraction(rng, denominators=(2, 3, 6)):
    return Fraction(rng.randint(-6, 6), rng.choice(denominators))


def _rational_systems(rng):
    # denominators 2, 3 and 6 on >= rows: each row is scaled by its own lcm,
    # and the slack column stays -1 after the scaling
    for _ in range(200):
        nvars = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [_fraction(rng) if rng.random() < 0.7 else Fraction(0)
                      for _ in range(nvars)]
            cons.append((coeffs, _fraction(rng),
                         rng.choice([lp.GE, lp.GE, lp.GE, lp.EQ])))
        yield cons, nvars


def _degenerate_systems(rng):
    # repeated rows, opposite rows and zero constants: ties in the ratio
    # test and artificials that stay basic at 0
    for _ in range(200):
        nvars = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 6)):
            if cons and rng.random() < 0.4:
                coeffs, const, rel = rng.choice(cons)
                if rng.random() < 0.5:
                    coeffs, const = [-c for c in coeffs], -const
                cons.append((coeffs, const, rel))
                continue
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(nvars)]
            const = Fraction(0) if rng.random() < 0.6 else _fraction(rng, (1, 2))
            cons.append((coeffs, const, rng.choice([lp.GE, lp.GE, lp.EQ])))
        yield cons, nvars


def _cone_set_systems(rng):
    # up to 12 variables and about 20 rows, as for a set of four cones in
    # three variables: sparse homogeneous rows per block of variables, one
    # phi(v) - 1 >= 0 row per block, and the blocks summing to zero
    n = 3
    for _ in range(40):
        k = rng.randint(2, 4)
        nvars = n * k
        cons = []
        for slot in range(k):
            for _ in range(rng.randint(2, 3)):
                row = [Fraction(0)] * nvars
                for i in range(n):
                    row[slot * n + i] = Fraction(rng.randint(-2, 2))
                cons.append((row, Fraction(0), rng.choice([lp.GE, lp.GE, lp.EQ])))
            phi = [Fraction(0)] * nvars
            for i in range(n):
                phi[slot * n + i] = _fraction(rng, (1, 2, 3))
            cons.append((phi, Fraction(-1), lp.GE))
        for i in range(n):
            row = [Fraction(0)] * nvars
            for slot in range(k):
                row[slot * n + i] = Fraction(1)
            cons.append((row, Fraction(0), lp.EQ))
        yield cons, nvars


def _negative_point_systems(rng):
    # mostly "==" rows through a point with negative coordinates, and rows
    # x_i <= c with c <= 0: the free columns must enter with their sign
    # flipped, and their rows are dropped; one constant in four is moved
    # off the point
    for _ in range(200):
        nvars = rng.randint(1, 5)
        point = [Fraction(rng.randint(-5, -1), rng.randint(1, 2))
                 for _ in range(nvars)]
        cons = []
        for _ in range(rng.randint(1, nvars + 2)):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(nvars)]
            const = -sum(c * x for c, x in zip(coeffs, point))
            if rng.random() < 0.25:
                const += rng.choice([-1, 1])
            cons.append((coeffs, const, lp.EQ))
        for _ in range(rng.randint(0, 2)):
            coeffs = [Fraction(0)] * nvars
            coeffs[rng.randrange(nvars)] = Fraction(-1)
            cons.append((coeffs, Fraction(rng.randint(-6, 0)), lp.GE))
        yield cons, nvars


def _random_pointed_cone(rng, n):
    """A ray through a nonzero point of [-2, 2]^n, or a wedge of two or
    three inequality rows."""
    if rng.random() < 0.6:
        r = [0] * n
        while not any(r):
            r = [rng.randint(-2, 2) for _ in range(n)]
        return _ray(r)
    return Cone(n, [[rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(rng.randint(2, 3))])


def _cone_choice_systems(rng):
    # the LP the subset search asks of a set of k <= 5 cones in three
    # variables: a point phi_c(v_c) >= 1 in each cone and the points
    # summing to zero
    n = 3
    for _ in range(60):
        k = rng.randint(2, 5)
        cones = [_random_pointed_cone(rng, n) for _ in range(k)]
        sums = [(((0,) * i + (1,) + (0,) * (n - i - 1)) * k, 0, lp.EQ)
                for i in range(n)]
        yield ([([Fraction(c) for c in coeffs], Fraction(const), rel)
                for coeffs, const, rel in _cone_points(cones) + sums], n * k)


def _scaled_to_integers(cons):
    """Each row times the lcm of its denominators, with int entries."""
    out = []
    for coeffs, const, rel in cons:
        s = lcm(const.denominator, *(c.denominator for c in coeffs))
        out.append(([int(c * s) for c in coeffs], int(const * s), rel))
    return out


def test_ge_eq_systems_match_reference_lp():
    # family, seed, and a count that each verdict must exceed; every
    # system is asked with its rows scaled to ints, and its Fraction rows
    # must be refused
    for family, seed, least in ((_integer_systems, 7, 50),
                                (_rational_systems, 11, 49),
                                (_degenerate_systems, 12, 29),
                                (_cone_set_systems, 13, 9),
                                (_negative_point_systems, 15, 79),
                                (_cone_choice_systems, 16, 19)):
        outcomes = {True: 0, False: 0}
        for cons, nvars in family(random.Random(seed)):
            want = ref.feasible(cons, nvars)
            with pytest.raises(TypeError):
                lp.feasible(cons, nvars)
            assert lp.feasible(_scaled_to_integers(cons), nvars) == want, cons
            outcomes[want] += 1
        assert min(outcomes.values()) > least, (family.__name__, outcomes)


def test_rows_that_hold_at_the_origin_need_no_pivot(monkeypatch):
    # ">=" rows with const >= 0 start with their slacks basic: x = 0 is
    # feasible, and the only content reductions are one per stored row
    calls = 0
    reduce = lp._reduce

    def counted(row):
        nonlocal calls
        calls += 1
        return reduce(row)

    monkeypatch.setattr(lp, "_reduce", counted)
    rng = random.Random(14)
    for _ in range(200):
        nvars = rng.randint(1, 5)
        cons = [([Fraction(rng.randint(-3, 3)) for _ in range(nvars)],
                 Fraction(rng.randint(0, 6), rng.randint(1, 3)), lp.GE)
                for _ in range(rng.randint(1, 6))]
        assert ref.feasible(cons, nvars)
        ints = _scaled_to_integers(cons)
        calls = 0
        assert lp.feasible(ints, nvars)
        assert calls == sum(1 for coeffs, _, _ in ints if any(coeffs))


# primitive integer points with z >= 1; CI asks `tame --m 6` of the
# union of all 13 rays as a whole process
Z_RAYS = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1),
          (-1, 1, 1), (1, -1, 1), (-1, -1, 1), (2, 1, 1), (1, 2, 1), (-2, 1, 2),
          (1, -2, 3))


@pytest.mark.parametrize("k", [5, 13])
def test_a_ray_union_asks_one_lp_per_cone_set(monkeypatch, k):
    # rays in the open half space z > 0 have no nonzero vectors summing to
    # zero, so the union is tame at every m and the search asks every set
    # of 2, 3 and 4 = n + 1 distinct cones
    calls = []
    feasible = lp.feasible

    def recording(cons, nvars):
        calls.append(nvars)
        return feasible(cons, nvars)

    monkeypatch.setattr(lp, "feasible", recording)
    assert all(gcd(*p) == 1 and p[2] >= 1 for p in Z_RAYS)
    sc = ConeUnion(3, [_ray(list(p)) for p in Z_RAYS[:k]])
    assert len(sc.cones) == k
    assert m_tame(sc, 6)
    assert len(calls) == comb(k, 2) + comb(k, 3) + comb(k, 4)


# Beale's cycling example as a phase-one tableau, columns reordered: the
# first two rows are its degenerate constraints (right-hand side 0) and
# the third, the only row with a positive right-hand side, is its
# objective.  Breaking ratio ties by the largest basic index instead of
# the smallest cycles here through six degenerate pivots.
_BEALE_ROWS = ((0, 36, 4, -32, 1, -4, 0),
               (2, 6, 0, -24, 1, -1, 0),
               (0, -24, 0, -80, 3, 2, 4))


def test_blands_leaving_rule_ends_a_cycling_tableau(monkeypatch):
    calls = 0
    reduce = lp._reduce

    def counted(row):
        nonlocal calls
        calls += 1
        assert calls < 1000, "phase one is cycling"
        return reduce(row)

    monkeypatch.setattr(lp, "_reduce", counted)
    # the same system as constraints: rows . x = rhs with x >= 0
    cons = [([Fraction(c) for c in row[:-1]], Fraction(-row[-1]), lp.EQ)
            for row in _BEALE_ROWS]
    cons += [([Fraction(int(i == j)) for i in range(6)], Fraction(0), lp.GE)
             for j in range(6)]
    want = ref.feasible(cons, 6)
    assert want
    assert lp._phase_one([list(row) for row in _BEALE_ROWS], 6, [6, 7, 8], 0) == want


def test_tame_requirement_is_twice_the_tensor_degree_bound():
    for c in range(1, 7):
        for n in range(1, 7):
            assert tame_requirement(c, n) == 2 * tensor_degree_bound(c, n)

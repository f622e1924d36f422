import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import reference_tameness as ref
from nilhom import sigma
from nilhom.sigma import (Cone, ConeUnion, CyclicModuleSpec, LaurentPoly,
                          ValuationVector, _closure_certifies,
                          _least_failing_m, full_sphere, least_failing_m,
                          m_tame, newton_polytope,
                          sigma_complement, sigma_complement_principal,
                          sigma_witness_search, tame_requirement,
                          tensor_power_fg_check)


def poly(nvars, terms):
    return LaurentPoly(nvars, terms)


T_MINUS_2 = poly(1, {(1,): 1, (0,): -2})
TRIANGLE = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def test_laurent_arithmetic():
    f = T_MINUS_2
    assert (f * f).coeff((2,)) == 1
    assert (f * f).coeff((1,)) == -4
    assert (f - f).is_zero()
    u = LaurentPoly.monomial(1, (5,), Fraction(1, 3))
    assert (u * f).support == ((5,), (6,))


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), 2.9])
def test_laurent_exponents_refuse_non_integers(bad):
    # int() would truncate the exponent to 1, 0 or 2
    with pytest.raises(TypeError):
        LaurentPoly(1, {(bad,): 1})


def test_newton_polytope():
    assert newton_polytope(LaurentPoly.monomial(2, (3, -1))) == [(3, -1)]
    assert sorted(newton_polytope(TRIANGLE)) == [(0, 0), (0, 1), (1, 0)]
    segment = poly(1, {(0,): 1, (1,): 1, (2,): 1})
    assert sorted(newton_polytope(segment)) == [(0,), (2,)]
    with pytest.raises(ValueError):
        newton_polytope(LaurentPoly(1, {}))


def _support_with_non_vertices(rng, n):
    """Up to five random points in n variables, scaled by 6, plus
    midpoints of pairs (3a + 3b) and centroids of triples (2a + 2b + 2c)
    of them: points on edges or inside, never vertices.  Returns the
    support and the added points that are not among the scaled ones."""
    base = sorted({tuple(rng.randint(-2, 2) for _ in range(n))
                   for _ in range(rng.randint(1, 5))})
    pts = {tuple(6 * x for x in p) for p in base}
    inner = set()
    for k in (2, 3):
        for _ in range(rng.randint(0, 2) if len(base) >= k else 0):
            chosen = rng.sample(base, k)
            inner.add(tuple((6 // k) * sum(col) for col in zip(*chosen)))
    return pts | inner, inner - pts


def test_newton_vertices_match_the_convex_combination_reference():
    rng = random.Random(20)
    non_vertices = 0
    for _ in range(150):
        n = rng.randint(0, 3)
        support, inner = _support_with_non_vertices(rng, n)
        f = poly(n, {e: rng.choice([1, -2, Fraction(1, 3)]) for e in support})
        verts = newton_polytope(f)
        assert verts == ref.newton_polytope(f), sorted(support)
        assert not inner & set(verts)
        non_vertices += len(support) - len(verts)
    assert non_vertices >= 100


def test_newton_polytope_asks_one_lp_in_nvars_per_point(monkeypatch):
    from nilhom import lp
    calls = []
    feasible = lp.feasible

    def recording(cons, nvars):
        calls.append(nvars)
        return feasible(cons, nvars)

    monkeypatch.setattr(lp, "feasible", recording)
    square = poly(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (2, 2): 1, (1, 1): 1})
    assert newton_polytope(square) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert calls == [2] * 5


def test_sigma_complement_t_minus_2_empty():
    assert not sigma_complement_principal(T_MINUS_2).cones


def test_sigma_complement_triangle_rays():
    sc = sigma_complement_principal(TRIANGLE)
    assert len(sc.cones) == 3
    rays = [(0, 1), (1, 0), (-1, -1)]
    for ray in rays:
        assert sc.contains(ValuationVector(ray)), ray
    for off in [(1, 1), (-1, 0), (0, -1), (2, 1)]:
        assert not sc.contains(ValuationVector(off)), off


def test_sigma_complement_min_attained_twice_grid_oracle():
    # brute force over a grid of rational directions: membership must agree
    # with the minimum of v over the support being attained at >= 2 points
    for f in (T_MINUS_2, TRIANGLE, poly(2, {(2, 0): 1, (0, 2): -3, (1, 1): 5})):
        n = f.nvars
        grid = range(-3, 4)
        pts = f.support
        import itertools
        for v in itertools.product(grid, repeat=n):
            if all(x == 0 for x in v):
                continue
            vals = [sum(a * b for a, b in zip(v, p)) for p in pts]
            lo = min(vals)
            expected = vals.count(lo) >= 2
            got = sigma_complement_principal(f).contains(ValuationVector(v))
            assert got == expected, (f, v)


def test_sigma_unit_invariance():
    rng = random.Random(13)
    for f in (T_MINUS_2, TRIANGLE):
        sc = sigma_complement_principal(f)
        for _ in range(5):
            shift = tuple(rng.randint(-4, 4) for _ in range(f.nvars))
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            unit = LaurentPoly.monomial(f.nvars, shift, scale)
            assert sigma_complement_principal(unit * f) == sc


def test_witness_search_agrees_with_complement():
    spec = CyclicModuleSpec(1, (T_MINUS_2,))
    for v in (1, -1, 2):
        w = sigma_witness_search(spec, ValuationVector((v,)), 3)
        assert w is not None
        vals = [sum(a * b for a, b in zip((v,), e)) for e in w.poly.support]
        assert vals.count(min(vals)) == 1
    tri_spec = CyclicModuleSpec(2, (TRIANGLE,))
    w = sigma_witness_search(tri_spec, ValuationVector((1, 2)), 2)
    assert w is not None and w.minimal_exponent is not None
    # inside the complement no witness can exist at any bound
    assert sigma_witness_search(tri_spec, ValuationVector((0, 1)), 3) is None


def test_witness_grid_agreement_with_complement():
    # on a grid of directions: a witness exists iff the direction is
    # outside the complement (the minimum is attained once)
    import itertools
    for f in (T_MINUS_2, TRIANGLE):
        sc = sigma_complement_principal(f)
        spec = CyclicModuleSpec(f.nvars, (f,))
        for v in itertools.product(range(-2, 3), repeat=f.nvars):
            if all(x == 0 for x in v):
                continue
            vv = ValuationVector(v)
            witness = sigma_witness_search(spec, vv, 2)
            assert (witness is None) == sc.contains(vv), (f, v)


def test_witness_search_free_module_unknown():
    spec = CyclicModuleSpec(1, ())
    for v in (1, -1):
        assert sigma_witness_search(spec, ValuationVector((v,)), 6) is None


def test_witness_combination_reassembles():
    spec = CyclicModuleSpec(2, (TRIANGLE,))
    w = sigma_witness_search(spec, ValuationVector((1, 2)), 2)
    rebuilt = LaurentPoly(2, {})
    for (gi, shift), coeff in w.combination:
        rebuilt = rebuilt + LaurentPoly.monomial(2, shift, coeff) * spec.ideal[gi]
    assert rebuilt == w.poly


def _direction(rng, n):
    v = (0,) * n
    while not any(v):
        v = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))
                  for _ in range(n))
    return ValuationVector(v)


def _point(rng, n):
    return tuple(rng.randint(-2, 2) for _ in range(n))


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _tied_pair(rng, v):
    """Two exponents a, a + w with <v, a> = <v, a + w>, w != 0."""
    n = len(v.v)
    i, j = rng.sample(range(n), 2)
    if not (v.v[i] or v.v[j]):
        i = next(k for k, x in enumerate(v.v) if x)
    scale = v.v[i].denominator * v.v[j].denominator
    w = [0] * n
    w[i], w[j] = int(v.v[j] * scale), -int(v.v[i] * scale)
    a = _point(rng, n)
    return a, tuple(x + y for x, y in zip(a, w))


def _random_witness_case(rng):
    """(spec, direction, degree bound); a share can have no witness at all.

    The free module and a principal ideal whose generator attains its
    minimal v-value twice (a direction inside the complement) have no
    witness at any bound.  Generators that share one tied pair of terms
    need a combination of rows before a witness appears.  Generators in
    two variables whose least terms lie on one line x = x0, with v along
    the x axis, often find their first witness only in a shifted row,
    so the order of the shifts inside a shell decides which one.  The
    rest are 1-3 random generators with rational coefficients.
    """
    n = rng.randint(1, 3)
    v = _direction(rng, n)
    bound = rng.randint(0, 2 if n < 3 else 1)
    kind = rng.random()
    if kind < 0.2:
        v = ValuationVector((_coeff(rng) ** 2, 0))
        gens = []
        for _ in range(rng.randint(2, 3)):
            x0 = rng.randint(-1, 1)
            terms = {(x0, rng.randint(-1, 1)): _coeff(rng) for _ in range(3)}
            for _ in range(rng.randint(0, 2)):
                terms[(x0 + rng.randint(1, 2), rng.randint(-1, 1))] = _coeff(rng)
            gens.append(LaurentPoly(2, terms))
        return CyclicModuleSpec(2, tuple(gens)), v, rng.randint(1, 2)
    if kind < 0.3:
        return CyclicModuleSpec(n, ()), v, bound
    if kind < 0.7 and n >= 2:
        a, b = _tied_pair(rng, v)
        ca, cb = _coeff(rng), _coeff(rng)
        gens = []
        for _ in range(1 if kind < 0.45 else rng.randint(2, 3)):
            terms = {a: ca, b: cb}
            for _ in range(rng.randint(0, 2)):
                p = _point(rng, n)
                if v.pair(p) > v.pair(a):
                    terms[p] = _coeff(rng)
            gens.append(LaurentPoly(n, terms))
        return CyclicModuleSpec(n, tuple(gens)), v, bound
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {_point(rng, n): _coeff(rng) for _ in range(rng.randint(1, 4))}
        gens.append(LaurentPoly(n, terms))
    return CyclicModuleSpec(n, tuple(gens)), v, bound


def test_witness_search_matches_full_elimination_reference():
    rng = random.Random(41)
    outcomes = {True: 0, False: 0}
    for _ in range(360):
        spec, v, bound = _random_witness_case(rng)
        want = ref.sigma_witness_search(spec, v, bound)
        w = sigma_witness_search(spec, v, bound)
        assert w == want, (spec, v, bound)
        outcomes[want is not None] += 1
        if w is None:
            continue
        # the combination must rebuild poly exactly: the reduction divides
        # vector and combination by one common content
        rebuilt = LaurentPoly(spec.nvars, {})
        for (gi, shift), coeff in w.combination:
            rebuilt = rebuilt + LaurentPoly.monomial(spec.nvars, shift, coeff) \
                * spec.ideal[gi]
        assert rebuilt == w.poly, (spec, v, bound)
    assert min(outcomes.values()) >= 50, outcomes
    # the search builds a shift of the first generator only when a later
    # row reads it: cases whose first generator is tied check that path
    kinds = {}
    for _ in range(150):
        spec, v, bound = _tied_first_case(rng)
        w = sigma_witness_search(spec, v, bound)
        assert w == ref.sigma_witness_search(spec, v, bound), (spec, v, bound)
        later = w is not None and any(gi for (gi, _), _ in w.combination)
        kind = (spec.nvars, "none" if w is None else "later" if later else "first")
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get((1, "first"), 0) >= 30, kinds
    for n in (2, 3):
        assert kinds.get((n, "later"), 0) >= 20, kinds
        assert kinds.get((n, "none"), 0) >= 10, kinds


def _tied_first_case(rng):
    """(spec, direction, degree bound <= 2) with two or three generators,
    the first attaining its minimal v-value twice when n >= 2.

    In n = 1 a nonzero direction separates any two exponents, so there
    the first generator is its own witness at shift 0.  A later
    generator is a multiple h g_0 (if every one is, the ideal is (g_0)
    and no witness exists), one more generator on g_0's tied pair with
    fresh coefficients, or random.
    """
    n = rng.randint(1, 3)
    v = _direction(rng, n)
    if n == 1:
        first = {_point(rng, n): _coeff(rng) for _ in range(rng.randint(1, 3))}
    else:
        a, b = _tied_pair(rng, v)
        first = {a: _coeff(rng), b: _coeff(rng)}
        for _ in range(rng.randint(0, 2)):
            p = _point(rng, n)
            if v.pair(p) > v.pair(a):
                first[p] = _coeff(rng)
    gens = [LaurentPoly(n, first)]
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        if kind < 0.5:
            h = {_point(rng, n): _coeff(rng) for _ in range(rng.randint(1, 2))}
            gens.append(LaurentPoly(n, h) * gens[0])
        elif kind < 0.7 and n >= 2:
            gens.append(LaurentPoly(n, {a: _coeff(rng), b: _coeff(rng)}))
        else:
            gens.append(LaurentPoly(n, {_point(rng, n): _coeff(rng)
                                        for _ in range(rng.randint(1, 3))}))
    return CyclicModuleSpec(n, tuple(gens)), v, rng.randint(0, 2)


# the supports of the tameness benchmark's witness.i1 (perfbench/workloads.py)
# with unit coefficients: generator 0, 1 + xy + z, ties at v-value 0 in the
# direction (-1, 1, 2), and generator 1, x + y + z, reduces against three of
# generator 0's shifts before its row at shift 0 is a witness
I1 = CyclicModuleSpec(3, (poly(3, {(0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1}),
                          poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})))
I1_DIRECTION = ValuationVector((-1, 1, 2))


def test_witness_search_builds_only_the_first_generator_shifts_it_reads(monkeypatch):
    reduce, calls, read = sigma._sparse_reduce, [], []

    def counting(vec, combo, pivot, key=None):
        calls.append(combo)

        def reading(lead):
            got = pivot(lead)
            if got is not None:
                read.append(got)  # kept alive, so ids stay distinct
            return got
        return reduce(vec, combo, reading, key)

    monkeypatch.setattr(sigma, "_sparse_reduce", counting)
    w = sigma_witness_search(I1, I1_DIRECTION, 3)
    # generator 0's 343 rows are counted, not reduced: the one reduction is
    # generator 1's row at shift 0, and it reads three shifts of generator 0
    assert calls == [{(1, (0, 0, 0)): 1}]
    built = {id(p) for p in read if all(gi == 0 for gi, _ in p[1])}
    assert len(built) == 3 and len(read) == 3
    assert w.combination == (((0, (1, 0, 0)), 1), ((0, (2, 1, 0)), -1),
                             ((0, (3, 2, 0)), 1), ((1, (0, 0, 0)), -1))
    assert w == ref.sigma_witness_search(I1, I1_DIRECTION, 3)


def test_witness_search_counts_the_first_generator_rows_against_the_limit(monkeypatch):
    # two generators, a limit between one and two generators' rows: the
    # first generator's rows count in full though none is built, so the
    # answer appears exactly when the limit admits the row that finds it
    def outcome(spec, v, d, limit):
        monkeypatch.setattr(sigma, "MAX_WITNESS_ROWS", limit)
        try:
            return sigma_witness_search(spec, v, d)
        except ValueError as err:
            assert str(err) == (f"the witness search at degree bound {d} passed "
                                f"its limit of {limit} rows")
            return "refused"

    # witness.i1: generator 1's first row, the 344th, is the witness
    want = sigma_witness_search(I1, I1_DIRECTION, 3)
    for limit in range(343 - 2, 2 * 343 + 1):
        got = outcome(I1, I1_DIRECTION, 3, limit)
        assert got == ("refused" if limit < 344 else want), limit
    # the ideal (TRIANGLE) given by TRIANGLE and (x - 2y) TRIANGLE, in a
    # direction of its complement: no witness, and all 2 * 49 rows count
    spec = CyclicModuleSpec(2, (TRIANGLE, poly(2, {(1, 0): 1, (0, 1): -2}) * TRIANGLE))
    v = ValuationVector((0, 1))
    for limit in range(49 - 2, 2 * 49 + 2):
        got = outcome(spec, v, 3, limit)
        assert got == ("refused" if limit < 98 else None), limit


def test_a_first_generator_witness_ignores_the_row_limit(monkeypatch):
    # 2 + x - y + z has its unique v-minimum at the origin for v = (1, 2, 3):
    # the search returns it at shift 0 before it counts any other row,
    # even where one generator's (2d + 1)^3 rows are far above the limit
    f = poly(3, {(0, 0, 0): 2, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1})
    spec = CyclicModuleSpec(3, (f,) + I1.ideal)
    v = ValuationVector((1, 2, 3))
    monkeypatch.setattr(sigma, "MAX_WITNESS_ROWS", 1)
    w = sigma_witness_search(spec, v, 10 ** 6)
    assert w.combination == (((0, (0, 0, 0)), Fraction(1, 2)),)
    assert w.minimal_exponent == (0, 0, 0)


def test_witness_search_stops_in_the_first_shell():
    # 2 + x - y + z has its unique v-minimum 0 at the origin for v = (1, 2, 3),
    # so the generator at shift 0 is the witness; the 121^3 shifts of bound 60
    # must never be built
    f = poly(3, {(0, 0, 0): 2, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1})
    spec = CyclicModuleSpec(3, (f,))
    v = ValuationVector((1, 2, 3))
    w = sigma_witness_search(spec, v, 0)
    assert w is not None and w.minimal_exponent == (0, 0, 0)
    assert sigma_witness_search(spec, v, 60) == w


def test_witness_search_refuses_past_its_row_limit(monkeypatch):
    # inside the complement the search runs to its bound: (2d + 1)^2 rows
    # for one generator in two variables, 49 at d = 3
    spec = CyclicModuleSpec(2, (TRIANGLE,))
    v = ValuationVector((0, 1))
    monkeypatch.setattr(sigma, "MAX_WITNESS_ROWS", 49)
    assert sigma_witness_search(spec, v, 3) is None
    monkeypatch.setattr(sigma, "MAX_WITNESS_ROWS", 48)
    with pytest.raises(ValueError, match="degree bound 3 passed its limit of 48 rows"):
        sigma_witness_search(spec, v, 3)
    # a search that stops early takes any bound
    w = sigma_witness_search(spec, ValuationVector((1, 2)), 10 ** 9)
    assert w == sigma_witness_search(spec, ValuationVector((1, 2)), 2)


def test_has_nonzero_point_matches_strict_reference():
    rng = random.Random(7)
    cones = [Cone(2), Cone(3, [], [[1, 0, 0], [0, 1, 0]]),
             Cone(2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
             Cone(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1]])]
    for _ in range(200):
        n = rng.randint(1, 3)
        cones.append(Cone(n, [[rng.randint(-2, 2) for _ in range(n)]
                              for _ in range(rng.randint(0, 4))],
                          [[rng.randint(-1, 1) for _ in range(n)]
                           for _ in range(rng.randint(0, 1))]))
    seen = set()
    for c in cones:
        got = c.has_nonzero_point()
        assert got == ref.has_nonzero_point(c), c.key()
        seen.add((c.lineality_dim() > 0, got))
    # cones with a line, pointed cones, and cones meeting only the origin
    assert seen == {(True, True), (False, True), (False, False)}


def test_m_tame_empty_union():
    empty = ConeUnion(2, ())
    for m in range(2, 7):
        assert m_tame(empty, m)


def test_m_tame_lamplighter():
    # full sphere in one variable, and the same set as two explicit rays
    assert not m_tame(full_sphere(1), 2)
    rays = ConeUnion(1, (Cone(1, [[1]]), Cone(1, [[-1]])))
    assert not m_tame(rays, 2)


def test_m_tame_triangle():
    sc = sigma_complement_principal(TRIANGLE)
    assert m_tame(sc, 2)
    assert not m_tame(sc, 3)
    # explicit zero-sum triple witnessing the failure
    triple = [(0, 1), (1, 0), (-1, -1)]
    assert all(sc.contains(ValuationVector(t)) for t in triple)
    assert tuple(sum(c) for c in zip(*triple)) == (0, 0)


def test_m_tame_monotone_randomized():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.choice([2, 3])
        cones = []
        for _ in range(rng.randint(1, 3)):
            ineqs = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(rng.randint(1, 2))]
            cones.append(Cone(n, ineqs))
        sc = ConeUnion(n, cones)
        verdicts = {m: m_tame(sc, m) for m in range(2, 6)}
        for m in range(3, 6):
            if verdicts[m]:
                assert verdicts[m - 1], (cones, m)


def test_two_tame_iff_no_antipodal_pair():
    # oracle: the antipodal pairs of (C_i, C_j) form the cone C_i meet -C_j,
    # so an antipodal pair exists iff that cone has a nonzero point
    rng = random.Random(31)
    for _ in range(25):
        n = 2
        cones = []
        for _ in range(rng.randint(1, 3)):
            ineqs = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(rng.randint(1, 2))]
            cones.append(Cone(n, ineqs))
        sc = ConeUnion(n, cones)
        antipodal = any(
            Cone(n, ci.ineqs + tuple(tuple(-x for x in r) for r in cj.ineqs),
                 ci.eqs + cj.eqs).has_nonzero_point()
            for ci in cones for cj in cones)
        assert m_tame(sc, 2) == (not antipodal)


def _lp_least(f):
    return _least_failing_m(sigma_complement_principal(f), f.nvars + 2)


def test_principal_least_failing_m_named_polygons():
    # (expected, support): monomials, collinear supports, points inside an
    # edge or inside the polygon, hexagons (parallel edges) and polygons
    # with no parallel edges
    cases = [
        (None, [(3, -1)]),
        (None, [(0,), (1,), (5,)]),
        (2, [(0, 0), (1, 1), (3, 3)]),
        (2, [(0, 0), (2, 1), (4, 2), (-2, -1)]),
        (3, [(0, 0), (1, 0), (0, 1)]),
        (3, [(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)]),
        (3, [(0, 0), (3, 0), (0, 3), (1, 1)]),
        (3, [(0, 0), (2, 0), (3, 2), (0, 1), (1, 1)]),
        (2, [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]),
        (2, [(0, 0), (2, 0), (4, 2), (4, 4), (2, 4), (0, 2), (2, 2)]),
        (2, [(0, 0), (1, 0), (1, 1), (0, 1)]),
        (3, [(0, 0), (1, 0), (2, 1), (1, 3), (0, 1)]),
        (2, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (2, [(0, 0, 0), (1, 2, 3)]),
        (2, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
             (0, 0, 0, 1)]),
    ]
    for expected, support in cases:
        f = poly(len(support[0]), {e: 1 for e in support})
        assert least_failing_m(CyclicModuleSpec(f.nvars, (f,))) == expected \
            == _lp_least(f), support


def test_principal_least_failing_m_matches_the_lp_search():
    rng = random.Random(34)
    seen = set()
    for n, trials, radius in ((1, 20, 3), (2, 70, 3), (3, 30, 2), (4, 20, 1)):
        for k in range(trials):
            # every third support has points inside an edge or the hull
            if k % 3 == 0:
                support, _ = _support_with_non_vertices(rng, n)
            else:
                support = {tuple(rng.randint(-radius, radius) for _ in range(n))
                           for _ in range(rng.randint(1, 7))}
            f = poly(n, {e: rng.choice([1, -2, Fraction(1, 3)]) for e in support})
            got = least_failing_m(CyclicModuleSpec(n, (f,)))
            assert got == _lp_least(f), sorted(support)
            seen.add((n, got))
    assert seen >= {(1, None), (2, None), (2, 2), (2, 3), (3, None), (3, 2),
                    (4, None), (4, 2)}


def test_least_failing_m_of_free_and_non_principal_modules():
    # the whole sphere holds v and -v once n >= 1; n = 0 has no direction
    assert least_failing_m(CyclicModuleSpec(0, ())) is None
    for n in (1, 2, 3):
        assert least_failing_m(CyclicModuleSpec(n, ())) == 2 \
            == _least_failing_m(full_sphere(n), n + 2)
    with pytest.raises(ValueError, match="only the witness semidecision"):
        least_failing_m(CyclicModuleSpec(2, (TRIANGLE, TRIANGLE)))


def test_tame_requirement_values():
    assert tame_requirement(1, 1) == 2
    assert tame_requirement(2, 2) == 6
    assert tame_requirement(3, 1) == 2


def test_tensor_power_fg_fixtures():
    spec_t2 = CyclicModuleSpec(1, (T_MINUS_2,))
    assert tensor_power_fg_check(spec_t2, 2, 4) == "yes"
    lamplighter = CyclicModuleSpec(1, ())
    assert tensor_power_fg_check(lamplighter, 2, 2) == "no_witness"
    tri = CyclicModuleSpec(2, (TRIANGLE,))
    assert tensor_power_fg_check(tri, 3, 1) == "no_witness"


def test_tensor_power_fg_refutes_with_no_lp(monkeypatch):
    # free and principal modules are refuted by least_failing_m alone
    def refuse(cons, nvars):
        raise AssertionError("tensor_power_fg_check asked an LP")

    monkeypatch.setattr(sigma.lp, "feasible", refuse)
    assert tensor_power_fg_check(CyclicModuleSpec(1, ()), 2, 2) == "no_witness"
    tri = CyclicModuleSpec(2, (TRIANGLE,))
    assert tensor_power_fg_check(tri, 3, 1) == "no_witness"


def test_tensor_power_fg_finite_dimensional_yes():
    golden = CyclicModuleSpec(1, (poly(1, {(2,): 1, (1,): -1, (0,): -1}),))
    assert tensor_power_fg_check(golden, 2, 3) == "yes"


def test_tensor_power_fg_unknown_is_honest():
    # 2-tame but the bounded closure box is too small to certify
    tri = CyclicModuleSpec(2, (TRIANGLE,))
    assert tensor_power_fg_check(tri, 2, 0) == "unknown"


def test_tensor_power_fg_rejects_a_negative_degree_bound():
    # an empty search box would read as an inconclusive "unknown"
    with pytest.raises(ValueError, match="degree bound"):
        tensor_power_fg_check(CyclicModuleSpec(2, (TRIANGLE,)), 2, -1)


def _random_closure_case(rng):
    """(spec, m, degree bound): one or two generators of 1-3 terms with
    rational coefficients in n = 1 or 2 variables.  A second generator is
    sometimes a rational multiple of a monomial shift of the first, a
    principal ideal in two generators whose translates are dependent."""
    n, m = rng.choice((1, 2)), rng.choice((2, 3))
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {tuple(rng.randint(-1, 1) for _ in range(n)): _coeff(rng)
                 for _ in range(rng.randint(1, 3))}
        gens.append(LaurentPoly(n, terms))
    if len(gens) == 2 and rng.random() < 0.4:
        gens[1] = LaurentPoly.monomial(n, _point(rng, n), _coeff(rng)) * gens[0]
    bound = rng.randint(0, 3) if n == 1 else rng.randint(0, 1)
    return CyclicModuleSpec(n, tuple(gens)), m, bound


def test_closure_certificate_matches_fraction_reference():
    rng = random.Random(43)
    outcomes = {(k, certified): 0 for k in (1, 2) for certified in (True, False)}
    for _ in range(60):
        spec, m, bound = _random_closure_case(rng)
        want = ref.closure_certifies(spec, m, bound)
        assert _closure_certifies(spec, m, bound) == want, (spec, m, bound)
        outcomes[len(spec.ideal), want] += 1
    assert min(outcomes.values()) >= 3, outcomes


def test_sigma_complement_spec_level():
    assert sigma_complement(CyclicModuleSpec(1, ())) == full_sphere(1)
    assert not sigma_complement(CyclicModuleSpec(1, (T_MINUS_2,))).cones
    two_gen = CyclicModuleSpec(1, (T_MINUS_2, poly(1, {(1,): 1, (0,): -3})))
    with pytest.raises(ValueError):
        sigma_complement(two_gen)


def test_cyclic_module_validation():
    with pytest.raises(ValueError):
        CyclicModuleSpec(1, (LaurentPoly(1, {}),))
    with pytest.raises(ValueError):
        CyclicModuleSpec(2, (T_MINUS_2,))


def test_negative_nvars_is_refused():
    with pytest.raises(ValueError, match="nvars must be nonnegative, got -1"):
        CyclicModuleSpec(-1, ())
    with pytest.raises(ValueError, match="nvars must be nonnegative, got -3"):
        ConeUnion(-3, ())
    with pytest.raises(ValueError, match="nvars must be nonnegative, got -1"):
        LaurentPoly(-1, {})
    # no variables is a legal, if degenerate, module, sphere and polynomial
    assert CyclicModuleSpec(0, ()).nvars == 0
    assert not ConeUnion(0, ()).cones
    assert LaurentPoly(0, {(): 3}).coeff(()) == 3


def test_canonical_rows_are_primitive_integer_vectors():
    cone = Cone(3, [[2, 4, 0], ["1/2", "1/3", "-5/6"], [0, 0, 0]],
                [[-6, 3, 0], [0, 0, "7/2"]])
    assert cone.ineqs == ((1, 2, 0), (3, 2, -5))
    # an equation and its negative are one row, the lesser one kept
    assert cone.eqs == ((-2, 1, 0), (0, 0, -1))


def _disguise(rng, n, rows, eqs):
    """Rows of the same cone as ``rows``: each rescaled by a positive
    rational (an equation also negated at random), some repeated, a zero
    row added, in random order, entries as ints, Fractions or strings."""
    out = [[0] * n]
    for row in rows + rows[:rng.randint(0, len(rows))]:
        s = rng.choice([1, Fraction(rng.randint(1, 6), rng.randint(1, 6))])
        if eqs and rng.random() < 0.5:
            s = -s
        out.append([rng.choice([x * s, str(x * s)]) for x in row])
    rng.shuffle(out)
    return out


def test_cone_rows_match_reference_canonical_form():
    rng = random.Random(2024)
    seen_strings = False
    for _ in range(100):
        n = rng.randint(1, 4)
        cones = []
        for _ in range(rng.randint(1, 4)):
            base = [[[rng.randint(-3, 3) for _ in range(n)]
                     for _ in range(rng.randint(0, 3))] for _ in range(2)]
            ineqs, eqs = (_disguise(rng, n, rows, is_eq)
                          for rows, is_eq in zip(base, (False, True)))
            seen_strings |= "1/2" in str(ineqs + eqs)
            cone = Cone(n, ineqs, eqs)
            as_fractions = SimpleNamespace(
                nvars=n, ineqs=[[Fraction(x) for x in r] for r in ineqs],
                eqs=[[Fraction(x) for x in r] for r in eqs])
            assert cone.key() == ref.canonical(as_fractions), (ineqs, eqs)
            assert all(type(x) is int for r in cone.ineqs + cone.eqs for x in r)
            twin = Cone(n, _disguise(rng, n, base[0], False),
                        _disguise(rng, n, base[1], True))
            assert twin == cone and hash(twin) == hash(cone)
            cones += [cone, twin]
        rng.shuffle(cones)
        union = ConeUnion(n, cones)
        ordered = ConeUnion(n, sorted(set(cones), key=Cone.key))
        assert union == ordered
        want = sorted({ref.canonical(c) for c in cones})
        assert [c.key() for c in union.cones] == want
        assert [hash(c) for c in union.cones] == [hash(c) for c in ordered.cones]
    assert seen_strings

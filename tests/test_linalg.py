import random
from fractions import Fraction
from itertools import chain, product
from math import comb, gcd

import pytest

from nilhom.filtration import is_nilpotent_action
from nilhom.groups import FreeNilpotentSpec, NilpotentAction
from nilhom.linalg import (IntMatrix, RatMatrix, SparseIntMatrix, det,
                           exterior_power_map, image_matrix, kernel_matrix,
                           kron, matrix_rank, merge_invariant_factors,
                           rank_kernel_image, require_commuting,
                           row_products, smith_normal_form, solve,
                           tensor_power_map)
from nilhom.vbscan import QModuleFD

import reference_linalg as ref


def rand_rat_matrix(rng, rows, cols, span=4):
    return RatMatrix([[Fraction(rng.randint(-span, span)) for _ in range(cols)]
                      for _ in range(rows)])


def test_rank_kernel_identity():
    rank, kernel, image = rank_kernel_image(RatMatrix.identity(3))
    assert rank == 3 and kernel == [] and len(image) == 3


def test_rank_kernel_zero():
    rank, kernel, _ = rank_kernel_image(RatMatrix.zero(2, 2))
    assert rank == 0
    assert len(kernel) == 2


def test_rank_kernel_proportional_rows():
    rank, kernel, _ = rank_kernel_image(RatMatrix([[1, 2], [2, 4]]))
    assert rank == 1
    assert kernel == [(Fraction(-2), Fraction(1))]


def test_rank_nullity_random():
    rng = random.Random(0)
    for _ in range(40):
        m = rand_rat_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        rank, kernel, image = rank_kernel_image(m)
        assert rank + len(kernel) == m.cols
        assert len(image) == rank
        for v in kernel:
            prod = m * RatMatrix.from_cols([v], m.cols)
            assert prod.is_zero()


def test_solve_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        a = rand_rat_matrix(rng, 4, 3)
        x = rand_rat_matrix(rng, 3, 2)
        b = a * x
        x2 = solve(a, b)
        assert a * x2 == b
    with pytest.raises(ValueError):
        solve(RatMatrix.zero(2, 2), RatMatrix([[1], [0]]))


def _rand_rat_entries(rng, rows, cols, den):
    return [[Fraction(0) if rng.random() < 0.3
             else Fraction(rng.randint(-5, 5), rng.randint(1, den))
             for _ in range(cols)] for _ in range(rows)]


def _differential_case(rng):
    """A random rational matrix of shape up to 7 x 7: integral or not,
    possibly rank-deficient, possibly with zeroed rows and columns."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    den = rng.choice((1, 1, 2, 6))
    if rows and cols and rng.random() < 0.4:
        k = rng.randint(0, min(rows, cols) - 1)
        left = RatMatrix(_rand_rat_entries(rng, rows, k, den), rows, k)
        right = RatMatrix(_rand_rat_entries(rng, k, cols, den), k, cols)
        grid = [list(r) for r in (left * right).entries]
    else:
        grid = _rand_rat_entries(rng, rows, cols, den)
    for i in range(rows):
        if rng.random() < 0.15:
            grid[i] = [Fraction(0)] * cols
    for j in range(cols):
        if rng.random() < 0.15:
            for row in grid:
                row[j] = Fraction(0)
    return RatMatrix(grid, rows, cols)


def test_elimination_matches_fraction_reference():
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        m = _differential_case(rng)
        rank, kernel, image = ref.rank_kernel_image(m)
        assert rank_kernel_image(m) == (rank, kernel, image)
        assert matrix_rank(m) == rank
        assert kernel_matrix(m) == RatMatrix.from_cols(kernel, m.cols)
        assert image_matrix(m) == RatMatrix.from_cols(image, m.rows)
        if m.rows == m.cols:
            assert det(m) == ref.det(m)
        if all(x.denominator == 1 for row in m.entries for x in row):
            assert m.to_int().rank() == rank
            if m.rows == m.cols:
                assert m.to_int().det() == ref.det(m)
        k = rng.randint(0, 3)
        x = RatMatrix(_rand_rat_entries(rng, m.cols, k, 3), m.cols, k)
        arbitrary = RatMatrix(_rand_rat_entries(rng, m.rows, k, 2), m.rows, k)
        for b in (m * x, arbitrary):
            try:
                want = ref.solve(m, b)
            except ValueError:
                outcomes[False] += 1
                with pytest.raises(ValueError):
                    solve(m, b)
            else:
                outcomes[True] += 1
                assert solve(m, b) == want
    # both consistent and inconsistent systems were exercised
    assert min(outcomes.values()) > 50


BIG = 2 ** 64 + 13


def _product_factor(rng, rows, cols, den_of):
    """A rational matrix whose entry (i, j) has a denominator dividing
    den_of(i, j), with zeros, negatives, entries above 2**64, and some
    rows and columns zeroed."""
    grid = [[Fraction(0) if rng.random() < 0.3
             else Fraction(rng.choice((rng.randint(-9, 9), -BIG, BIG * 3)),
                           rng.choice((1, den_of(i, j))))
             for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        if rng.random() < 0.15:
            grid[i] = [Fraction(0)] * cols
    for j in range(cols):
        if rng.random() < 0.15:
            for row in grid:
                row[j] = Fraction(0)
    return RatMatrix(grid, rows, cols)


def test_products_match_dense_fraction_reference():
    rng = random.Random(2025)
    dens = (1, 2, 3, 4, 6, 35, BIG)
    # 200 seeded shapes, then every shape with sides 0, 1 and 2, so that
    # each empty side meets each other side
    shapes = chain(((rng.randint(0, 7) for _ in range(3)) for _ in range(200)),
                   product(range(3), repeat=3))
    for r, k, c in shapes:
        # the left factor's denominators vary by row, the right's by column
        row_den = [rng.choice(dens) for _ in range(r)]
        col_den = [rng.choice(dens) for _ in range(c)]
        a = _product_factor(rng, r, k, lambda i, j: row_den[i])
        b = _product_factor(rng, k, c, lambda i, j: col_den[j])
        assert a * b == ref.matmul(a, b)
        ai = IntMatrix([[x.numerator for x in row] for row in a.entries], r, k)
        bi = IntMatrix([[x.numerator for x in row] for row in b.entries], k, c)
        assert ai * bi == ref.matmul(ai.to_rat(), bi.to_rat()).to_int()
        # mixed factors give a rational product
        assert ai * b == ref.matmul(ai.to_rat(), b)
        assert a * bi == ref.matmul(a, bi.to_rat())
        g = _product_factor(rng, r, r, lambda i, j: rng.choice(dens))
        want = RatMatrix.identity(r)
        for e in range(4):
            assert g ** e == want
            want = ref.matmul(want, g)


def test_row_products_match_the_dense_reference():
    rng = random.Random(33)
    dens = (1, 2, 3, 4, 6, 35, BIG)
    for _ in range(150):
        r, k, c = (rng.randint(0, 6) for _ in range(3))
        a = _product_factor(rng, r, k, lambda i, j: rng.choice(dens))
        b = _product_factor(rng, k, c, lambda i, j: rng.choice(dens))
        ai, bi = (IntMatrix([[x.numerator for x in row] for row in m.entries],
                            m.rows, m.cols) for m in (a, b))
        for x, y in ((a, b), (ai, bi), (ai, b)):
            want = [list(row) for row in ref.matmul(x, y).entries]
            # the left rows once as their nonzero pairs, once with the
            # zeros that _product_factor puts in
            for left in (x.terms, map(enumerate, x.entries)):
                assert list(row_products(left, y.terms, c)) == want


def test_dense_terms_are_the_sparse_terms():
    rng = random.Random(34)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        grid = [[rng.choice((0, 0, 1, -3, BIG)) for _ in range(cols)]
                for _ in range(rows)]
        m = IntMatrix(grid, rows, cols)
        terms = [[(j, x) for j, x in enumerate(row) if x] for row in grid]
        sparse = SparseIntMatrix(terms, rows, cols)
        assert m.terms == sparse.terms
        assert m.to_rat().terms == sparse.terms
        assert SparseIntMatrix(m.terms, rows, cols).dense() == m


def test_snf_reorders_divisors():
    m = IntMatrix([[3, 0], [0, 1]])
    assert smith_normal_form(m) == (1, 3)
    _, d, _ = ref.smith_normal_form(m)
    assert d.entries == ((1, 0), (0, 3))


def test_snf_minor_gcd_oracle():
    m = IntMatrix([[2, 4], [6, 8]])
    d = smith_normal_form(m)
    # independent oracle: d1 is the gcd of the entries, d1*d2 = |det|
    g = 0
    for row in m.entries:
        for x in row:
            g = gcd(g, abs(x))
    assert d[0] == g == 2
    assert d[0] * d[1] == abs(m.det()) == 8


def test_snf_zero_matrix():
    assert smith_normal_form(IntMatrix.zero(2, 3)) == ()
    assert smith_normal_form(IntMatrix.zero(0, 3)) == ()
    u, d, v = ref.smith_normal_form(IntMatrix.zero(2, 3))
    assert d.is_zero()
    assert u == IntMatrix.identity(2)
    assert v == IntMatrix.identity(3)


def test_snf_random_properties():
    # the transform version (reference) satisfies U M V = D with U, V
    # unimodular; the library's factors are its nonzero diagonal
    rng = random.Random(2)
    unit_then_core = 0
    for trial in range(100):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(nc)]
                       for _ in range(nr)])
        if 30 <= trial < 60:
            # a product through a narrow middle: low rank, larger factors
            k = rng.randint(1, 3)
            left = IntMatrix([[rng.randint(-3, 3) for _ in range(k)]
                              for _ in range(nr)])
            right = IntMatrix([[rng.randint(-3, 3) * rng.choice((1, 2, 3))
                                for _ in range(nc)] for _ in range(k)])
            m = left * right
        elif trial >= 60:
            # {-1, 0, 1}-heavy factors with some middle rows scaled: unit
            # pivots come first and leave a core of larger factors
            nr, nc, k = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 5)
            left = IntMatrix([[rng.choice((-1, 0, 0, 1)) for _ in range(k)]
                              for _ in range(nr)])
            right = IntMatrix([[rng.choice((-1, 0, 0, 1)) * scale
                                for _ in range(nc)]
                               for scale in rng.choices((1, 1, 2, 3), k=k)])
            m = left * right
        u, d, v = ref.smith_normal_form(m)
        assert u * m * v == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entries[i][j] == 0
        factors = smith_normal_form(m)
        assert factors == tuple(x for x in diag if x)
        assert len(factors) == matrix_rank(m)
        unit_then_core += trial >= 60 and factors[:1] == (1,) and factors[-1] > 1
    assert unit_then_core >= 10


def _sparse_snf_cases(rng):
    """Seeded ``SparseIntMatrix`` inputs for the Smith form: the shapes
    with no entry at all, then matrices with non-unit entries, empty rows
    and columns, no unit anywhere, and products through a narrow middle
    whose units leave a core of larger factors."""
    for nr, nc in ((0, 0), (0, 4), (4, 0), (3, 5), (6, 2)):
        yield SparseIntMatrix([[] for _ in range(nr)], nr, nc)
    for trial in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        kind = trial % 3
        if kind == 0:
            # sparse, entries of any size, some rows and columns empty
            values = (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)
            grid = [[rng.choice(values) if rng.random() < 0.35 else 0
                     for _ in range(nc)] for _ in range(nr)]
        elif kind == 1:
            # no unit anywhere: every entry a nonzero multiple of 2 or 3
            grid = [[rng.choice((2, 3)) * rng.randint(-3, 3)
                     if rng.random() < 0.5 else 0 for _ in range(nc)]
                    for _ in range(nr)]
        else:
            k = rng.randint(1, 4)
            left = IntMatrix([[rng.choice((-1, 0, 0, 1)) for _ in range(k)]
                              for _ in range(nr)])
            right = IntMatrix([[rng.choice((-1, 0, 0, 1)) * scale
                                for _ in range(nc)]
                               for scale in rng.choices((1, 2, 3, 5), k=k)])
            grid = (left * right).entries
        terms = [[(j, x) for j, x in enumerate(row) if x] for row in grid]
        for row in terms:
            rng.shuffle(row)  # a row's pairs come in any order
        yield SparseIntMatrix(terms, nr, nc)


def test_sparse_snf_matches_the_transform_reference():
    # the same factors from the sparse rows and from the dense matrix,
    # and they are the reference's nonzero diagonal
    rng = random.Random(3)
    seen = {"no unit": 0, "core": 0, "zero": 0}
    for m in _sparse_snf_cases(rng):
        dense, terms = m.dense(), [list(row) for row in m.terms]
        _, d, _ = ref.smith_normal_form(dense)
        want = tuple(x for i, row in enumerate(d.entries)
                     for j, x in enumerate(row) if i == j and x)
        assert smith_normal_form(m) == want, m.terms
        assert m.terms == terms  # the input rows are read, not reduced
        assert smith_normal_form(dense) == want, dense
        seen["no unit"] += bool(want) and want[0] > 1
        seen["core"] += len(want) > 1 and want[0] == 1 and want[-1] > 1
        seen["zero"] += not want
    assert min(seen.values()) >= 10, seen


def test_exterior_top_is_determinant():
    m = RatMatrix([[1, 2], [3, 4]])
    top = exterior_power_map(m, 2)
    assert top.shape == (1, 1)
    assert top.entries[0][0] == det(m)


def test_exterior_identity_and_diag():
    for k in range(4):
        e = exterior_power_map(RatMatrix.identity(3), k)
        assert e == RatMatrix.identity(comb(3, k))
    d = exterior_power_map(RatMatrix([[2, 0], [0, 3]]), 1)
    assert d == RatMatrix([[2, 0], [0, 3]])


def test_exterior_beyond_dimension_is_empty():
    e = exterior_power_map(RatMatrix.identity(2), 3)
    assert e.shape == (0, 0)


def test_exterior_functorial():
    rng = random.Random(3)
    for _ in range(15):
        m = rand_rat_matrix(rng, 3, 3, 2)
        n = rand_rat_matrix(rng, 3, 3, 2)
        assert exterior_power_map(m * n, 2) == \
            exterior_power_map(m, 2) * exterior_power_map(n, 2)


def test_exterior_power_matches_one_determinant_per_minor():
    # every shape up to 5 x 5, empty sides included; entries are often
    # zero, and one matrix per shape has a zero row and a zero column
    rng = random.Random(24)
    for rows in range(6):
        for cols in range(6):
            ints = IntMatrix([[rng.choice((0, 0, 1, -1, 2, -3))
                               for _ in range(cols)] for _ in range(rows)],
                             rows, cols)
            grid = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                     for _ in range(cols)] for _ in range(rows)]
            rats = RatMatrix(grid, rows, cols)
            if rows and cols:
                zi, zj = rng.randrange(rows), rng.randrange(cols)
                grid = [[0 if i == zi or j == zj else x
                         for j, x in enumerate(row)] for i, row in enumerate(grid)]
            holed = RatMatrix(grid, rows, cols)
            for m in (ints, rats, holed):
                for k in range(7):
                    got = exterior_power_map(m, k)
                    want = ref.exterior_power_map(m, k)
                    # the minors of an integer matrix come as an IntMatrix
                    if m is ints:
                        want = want.to_int()
                    assert got == want, (m, k)
                    assert got.shape == (comb(rows, k), comb(cols, k))


def test_tensor_power_basics():
    assert tensor_power_map(RatMatrix([[5]]), 0) == RatMatrix([[1]])
    d = tensor_power_map(RatMatrix([[2, 0], [0, 3]]), 2)
    assert [d.entries[i][i] for i in range(4)] == [4, 6, 6, 9]
    m = RatMatrix([[1, 2], [3, 4]])
    assert tensor_power_map(m, 1) == m


def test_tensor_functorial_oracle():
    # direct multiplication oracle: (MN) tensor (MN) == (M tensor M)(N tensor N)
    rng = random.Random(4)
    for _ in range(15):
        m = rand_rat_matrix(rng, 2, 2, 3)
        n = rand_rat_matrix(rng, 2, 2, 3)
        assert tensor_power_map(m * n, 2) == \
            tensor_power_map(m, 2) * tensor_power_map(n, 2)


def test_kron_block_structure():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([[0, 5], [6, 7]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert k.entries[0][1] == 5          # a[0][0] * b[0][1]
    assert k.entries[2][0] == 0          # a[1][0] * b[0][0]
    assert k.entries[3][3] == 28         # a[1][1] * b[1][1]


def test_int_matrix_rank_and_det():
    m = IntMatrix([[2, 4], [6, 8]])
    assert m.det() == -8
    assert m.rank() == 2
    assert IntMatrix([[1, 2], [2, 4]]).rank() == 1
    assert IntMatrix.zero(3, 2).rank() == 0


def test_matrix_power():
    g = RatMatrix([[2, 1], [1, 1]])
    assert g ** 0 == RatMatrix.identity(2)
    assert g ** 3 == g * g * g


MERGES = [((2,), (3,), (6,)),
          ((2, 4), (2,), (2, 2, 4)),
          ((3, 3), (3,), (3, 3, 3)),
          ((), (), ())]


@pytest.mark.parametrize("chain,factors,want", MERGES)
def test_merge_invariant_factors(chain, factors, want):
    assert merge_invariant_factors(chain, factors) == want


def test_merge_cases_reject_sorted_concatenation():
    # (2) + (3) is Z/6: concatenating and sorting the factors is wrong
    assert any(tuple(sorted(a + b)) != want for a, b, want in MERGES)


def test_merge_matches_smith_form_of_the_diagonal():
    rng = random.Random(55)
    for _ in range(200):
        factors = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 18])
                   for _ in range(rng.randint(0, 5))]
        cut = rng.randint(0, len(factors))
        chain = merge_invariant_factors((), factors[:cut])
        n = len(factors)
        diag = IntMatrix([[factors[i] if i == j else 0 for j in range(n)]
                          for i in range(n)], n, n)
        want = tuple(x for x in smith_normal_form(diag) if x > 1)
        assert merge_invariant_factors(chain, factors[cut:]) == want, factors


def test_merge_long_chains_match_the_old_loop():
    # chains thousands long, as the rank-6 integral cells give: the merge
    # that starts below the multiples of f equals the whole-chain walk
    rng = random.Random(56)
    for pool in ((3, 3, 3, 15), (2, 4, 6, 12, 8), (2, 3, 5, 7, 30)):
        factors = [rng.choice(pool) for _ in range(rng.randint(500, 1500))]
        cut = rng.randint(0, len(factors))
        chain = ref.merge_invariant_factors((), factors[:cut])
        assert merge_invariant_factors(chain, factors[cut:]) \
            == ref.merge_invariant_factors(chain, factors[cut:])
    for _ in range(2000):
        factors = [rng.choice((2, 3, 4, 5, 6, 9, 10, 12, 15, 18, 30, 45))
                   for _ in range(rng.randint(0, 12))]
        cut = rng.randint(0, len(factors))
        chain = ref.merge_invariant_factors((), factors[:cut])
        assert merge_invariant_factors(chain, factors[cut:]) \
            == ref.merge_invariant_factors(chain, factors[cut:]), factors


@pytest.mark.parametrize("kind", [RatMatrix, IntMatrix])
def test_constructors_and_transpose_keep_the_type(kind):
    ring = Fraction if kind is RatMatrix else int
    i3 = kind.identity(3)
    assert type(i3) is kind
    assert i3.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kind.identity(0).shape == (0, 0)
    z = kind.zero(2, 3)
    assert type(z) is kind and z.is_zero() and z.shape == (2, 3)
    assert kind.zero(2, 0).entries == ((), ())
    m = kind.from_cols([(1, 2), (3, 4), (5, 6)], 2)
    assert type(m) is kind and m.entries == ((1, 3, 5), (2, 4, 6))
    assert all(type(x) is ring for row in m.entries for x in row)
    assert kind.from_cols([], 2).shape == (2, 0)
    with pytest.raises(ValueError, match="column length mismatch"):
        kind.from_cols([(1,)], 2)
    t = m.transpose()
    assert type(t) is kind and t.entries == ((1, 2), (3, 4), (5, 6))
    assert t.transpose() == m
    assert kind.zero(0, 3).transpose().shape == (3, 0)


def test_matrix_types_are_distinct_and_hashable():
    r, i = RatMatrix([[1]]), IntMatrix([[1]])
    assert r != i and i != r
    assert len({r, i, RatMatrix([["2/2"]]), IntMatrix([[1]])}) == 2
    assert r == i.to_rat() and i == r.to_int()


def test_scalar_products_and_sums_keep_the_type():
    m = IntMatrix([[1, -2]])
    assert 3 * m == m * 3 == IntMatrix([[3, -6]])
    assert RatMatrix([[1, -2]]) * Fraction(1, 2) == RatMatrix([["1/2", -1]])
    assert type(2 * RatMatrix([[1]])) is RatMatrix
    with pytest.raises(TypeError):
        m * Fraction(1, 2)
    assert m + m == IntMatrix([[2, -4]]) and -m == IntMatrix([[-1, 2]])
    assert m - m == IntMatrix.zero(1, 2)
    # a rational operand makes the sum rational, as in products
    assert m + m.to_rat() == m.to_rat() + m == RatMatrix([[2, -4]])


def test_integer_powers_stay_integral(monkeypatch):
    rng = random.Random(88)
    cases = []
    for _ in range(40):
        n = rng.randint(0, 4)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                      n, n)
        cases.append((m, [(m.to_rat() ** k).to_int() for k in range(6)]))

    def no_round_trip(self):
        raise AssertionError("integer power went through the rationals")
    monkeypatch.setattr(IntMatrix, "to_rat", no_round_trip)
    for m, want in cases:
        for k in range(6):
            got = m ** k
            assert type(got) is IntMatrix and got == want[k]
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) ** 2


def test_graded_maps_keep_integer_input_integral():
    # every shape up to 4 x 4, empty sides included: exterior and tensor
    # powers for k = 0..5 and the Kronecker product of every pair, each
    # against the same map of the rational twin (== is type-strict)
    rng = random.Random(25)
    ints = [IntMatrix([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)],
                      r, c) for r in range(5) for c in range(5)]
    for m in ints:
        for k in range(6):
            want = exterior_power_map(m.to_rat(), k)
            assert type(want) is RatMatrix
            assert exterior_power_map(m, k) == want.to_int(), (m, k)
            # the rational twins of the 3 x 4, 4 x 3 and 4 x 4 fifth
            # powers (up to 4^10 entries) take seconds
            if (m.rows * m.cols) ** k <= 4 ** 8:
                want = tensor_power_map(m.to_rat(), k)
                assert type(want) is RatMatrix
                assert tensor_power_map(m, k) == want.to_int(), (m, k)
    for a in ints:
        for b in ints:
            want = kron(a.to_rat(), b.to_rat())
            assert type(want) is RatMatrix
            assert kron(a, b) == want.to_int(), (a, b)
            # one rational factor makes the product rational
            assert kron(a, b.to_rat()) == kron(a.to_rat(), b) == want


@pytest.mark.parametrize("bad", [Fraction(1, 2), 2.9])
def test_integer_matrix_refuses_non_integers(bad):
    # int() would truncate these to 0 and 2
    with pytest.raises(TypeError):
        IntMatrix([[bad, 2]])


def test_commutation_check_keeps_each_callers_wording():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    require_commuting([a, a * a, IntMatrix.identity(2)], "these")
    with pytest.raises(ValueError, match="^these must pairwise commute$"):
        require_commuting([a, IntMatrix.identity(2), b], "these")
    ra, rb = a.to_rat(), b.to_rat()
    for build, what in [
            (lambda: NilpotentAction(FreeNilpotentSpec(2, 2), (a, b)),
             "generator matrices"),
            (lambda: QModuleFD(2, (ra, rb)), "generators"),
            (lambda: is_nilpotent_action([ra, rb]), "operators")]:
        with pytest.raises(ValueError, match=f"^{what} must pairwise commute$"):
            build()

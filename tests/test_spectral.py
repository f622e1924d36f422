import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from nilhom.groups import (CentralExtension, FreeNilpotentSpec,
                           central_extension_of_class2)
from nilhom.jsonio import frac_str
from nilhom.linalg import (IntMatrix, RatMatrix, SparseIntMatrix,
                           matrix_rank, rank_kernel_image, smith_normal_form)
from nilhom.spectral import (EquivariantPage, Page, _cell_labels,
                             _class2_blocks, _composes_to_zero, _d2_rows,
                             _pair_images, betti_free_nilpotent_c2,
                             d2_central, e2_page,
                             e3_dimensions, equivariant_page, h2_class2,
                             homology_free_nilpotent_c2, ks_page)

import reference_filtration as ref_filtration
import reference_linalg as ref
import reference_spectral as ref_spectral
from reference_jsonio import dumps
from reference_spectral import nonzero_rows, sparse

HEISENBERG = central_extension_of_class2(FreeNilpotentSpec(2, 2))


def random_extension(rng, n_max=4, a_max=3):
    n = rng.randint(1, n_max)
    a = rng.randint(1, a_max)
    pairing = IntMatrix([[rng.randint(-2, 2) for _ in range(comb(n, 2))]
                         for _ in range(a)])
    return CentralExtension(n, a, pairing)


def assert_cells_canonical(page, n, a):
    """Every cell (p, q) is a tuple of distinct (I, J) labels in
    lexicographic order, I a strictly increasing p-tuple below n and J a
    strictly increasing q-tuple below a."""
    for (p, q), labels in page.cells.items():
        assert isinstance(labels, tuple), (p, q)
        assert len(set(labels)) == len(labels), (p, q)
        assert list(labels) == sorted(labels), (p, q)
        for I, J in labels:
            assert len(I) == p and len(J) == q, (p, q, I, J)
            assert list(I) == sorted(set(I)) and all(0 <= i < n for i in I)
            assert list(J) == sorted(set(J)) and all(0 <= j < a for j in J)


def test_dense_cells_hold_every_label_in_order():
    exts = [central_extension_of_class2(FreeNilpotentSpec(r, 2))
            for r in (2, 3, 4)]
    rng = random.Random(62)
    exts += [random_extension(rng) for _ in range(8)]
    for ext in exts:
        n, a = ext.q_rank, ext.a_rank
        page = e2_page(ext)
        assert_cells_canonical(page, n, a)
        assert {pq: len(labels) for pq, labels in page.cells.items()} == {
            (p, q): comb(n, p) * comb(a, q)
            for p in range(n + 1) for q in range(a + 1)}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_block_cells_hold_labels_in_order(r):
    for _, _, blk in _class2_blocks(r):
        assert_cells_canonical(blk, r, comb(r, 2))


def test_e2_cell_dimensions():
    page = e2_page(HEISENBERG)
    assert page.cell_dim(2, 0) == 1
    assert page.cell_dim(0, 2) == 0
    zero_pair = CentralExtension(2, 2,
                                 IntMatrix.zero(2, 1))
    assert e2_page(zero_pair).cell_dim(1, 1) == 4


def test_d2_zero_pairing_is_zero():
    ext = CentralExtension(3, 2, IntMatrix.zero(2, 3))
    for p in range(4):
        for q in range(3):
            assert d2_central(ext, p, q).is_zero()


def test_d2_heisenberg_matches_formula():
    d = d2_central(HEISENBERG, 2, 0)
    assert d.dense().entries == ((Fraction(1),),)


def test_d2_rank3_single_pair():
    ext = CentralExtension(3, 1, IntMatrix([[1, 0, 0]]))
    d = d2_central(ext, 2, 0)
    # basis order (e1^e2, e1^e3, e2^e3)
    assert d.dense().entries == ((Fraction(1), Fraction(0), Fraction(0)),)


def test_d2_low_p_is_zero_shape():
    for p in (0, 1):
        d = d2_central(HEISENBERG, p, 0)
        assert d.rows == 0 and d.cols == comb(2, p)


def test_d2_ks_signs():
    page = ks_page(2)
    assert page.diff(2, 0).entries == ((Fraction(1),),)
    assert page.diff(1, 0).cols == 2 and page.diff(1, 0).rows == 0
    assert page.diff(3, 0).cols == 0


def test_d2_squared_zero_randomized():
    rng = random.Random(9)
    for _ in range(30):
        ext = random_extension(rng)
        page = e2_page(ext)  # constructor checks d o d == 0
        for p, q in page.diffs:
            nxt, d = page.diff(p - 2, q + 1), page.diff(p, q)
            if nxt.rows and d.cols:
                assert (nxt * d).is_zero()


def test_ks_pages_compose_to_zero():
    for r in range(2, 5):
        page = ks_page(r)
        for p, q in page.diffs:
            nxt, d = page.diff(p - 2, q + 1), page.diff(p, q)
            if nxt.rows and d.cols:
                assert (nxt * d).is_zero()


def test_heisenberg_betti_frozen():
    assert betti_free_nilpotent_c2(2) == [1, 2, 2, 1]


def test_rank3_betti_frozen():
    # checked by hand against the page: cells, kernels and images
    assert betti_free_nilpotent_c2(3) == [1, 3, 8, 12, 8, 3, 1]


def test_betti_oracle_rational_elimination():
    # independent oracle: recompute every Betti number with the reference
    # Fraction elimination instead of the library's fraction-free kernel
    for r in (2, 3):
        page = ks_page(r)
        ranks = {pq: ref.rank_kernel_image(page.diff(*pq))[0] for pq in page.diffs}
        h = r + comb(r, 2)
        for j in range(h + 1):
            if j == 0:
                expect = 1
            else:
                expect = 0
                for i in range(1, j + 1):
                    dim = page.cell_dim(i, j - i)
                    expect += dim - ranks.get((i, j - i), 0) \
                        - ranks.get((i + 2, j - i - 1), 0)
            assert homology_free_nilpotent_c2(r, j).rational_dimension == expect


def test_euler_characteristic_and_duality():
    for r in (2, 3, 4):
        betti = betti_free_nilpotent_c2(r)
        assert sum((-1) ** j * b for j, b in enumerate(betti)) == 0
        assert betti == betti[::-1]


def test_low_degrees_closed_form():
    for r in range(2, 5):
        assert homology_free_nilpotent_c2(r, 0).rational_dimension == 1
        assert homology_free_nilpotent_c2(r, 1).rational_dimension == r


def test_corner_cells_die():
    # surjective pairing kills the outer corner at the third page
    for r in (2, 3, 4):
        e3 = e3_dimensions(ks_page(r))
        for q in range(comb(r, 2)):
            assert e3[(0, q + 1)] == 0


def test_d_surjective_property_randomized():
    rng = random.Random(21)
    found = 0
    while found < 25:
        ext = random_extension(rng)
        if IntMatrix(ext.pairing.entries).rank() < ext.a_rank:
            continue
        found += 1
        page = e2_page(ext)
        e3 = e3_dimensions(page)
        for q in range(ext.a_rank + 1):
            d = page.diff(2, q)
            if d.rows:
                assert rank_kernel_image(d)[0] == d.rows, (ext, q)
            if q >= 1:
                assert e3[(0, q)] == 0


def _e3_totals(ext):
    """Per total degree, the sum of the third page of an extension."""
    totals = [0] * (ext.q_rank + ext.a_rank + 1)
    for (p, q), d in e3_dimensions(e2_page(ext)).items():
        totals[p + q] += d
    return totals


def test_e3_totals_of_symplectic_heisenberg_groups():
    # the page with d2 is the Chevalley-Eilenberg complex of the Malcev
    # Lie algebra, so by Nomizu its totals are the Betti numbers:
    # Santharoubane's b_k = C(2n, k) - C(2n, k - 2) for k <= n, mirrored
    want = {1: [1, 2, 2, 1], 2: [1, 4, 5, 5, 4, 1],
            3: [1, 6, 14, 14, 14, 14, 6, 1]}
    for n, betti in want.items():
        pairs = list(combinations(range(2 * n), 2))
        omega = IntMatrix([[int(j == i + 1 and i % 2 == 0) for i, j in pairs]])
        assert _e3_totals(CentralExtension(2 * n, 1, omega)) == betti, n
        assert betti[:n + 1] == [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
                                 for k in range(n + 1)]


def test_e3_totals_of_random_extensions_satisfy_poincare_duality():
    # rational Betti numbers of a nilmanifold of dimension h >= 1:
    # b_j = b_{h - j}, and the Euler characteristic vanishes
    rng = random.Random(71)
    for _ in range(12):
        ext = random_extension(rng)
        totals = _e3_totals(ext)
        assert totals == totals[::-1], ext
        assert sum((-1) ** j * b for j, b in enumerate(totals)) == 0, ext
        # H_1 is the Lie algebra modulo its commutators
        assert totals[0] == 1 and totals[1] == (
            ext.q_rank + ext.a_rank - matrix_rank(ext.pairing)), ext


def test_integral_heisenberg():
    frozen = {0: (0,), 1: (0, 0), 2: (0, 0), 3: (0,)}
    for j, expect in frozen.items():
        res = homology_free_nilpotent_c2(2, j)
        assert res.invariant_factors == expect, j


def test_integral_rank3_cells_consistent():
    # free rank of each integral third-page cell equals its rational dim
    e3 = e3_dimensions(ks_page(3))
    for j in range(1, 7):
        res = homology_free_nilpotent_c2(3, j)
        for cell, free, torsion in res.integral_cells:
            assert free == e3[cell] and torsion == ()


def test_h2_class2():
    assert h2_class2(FreeNilpotentSpec(1, 2)) == (0, 0)
    assert h2_class2(FreeNilpotentSpec(2, 2)) == (2, 0)
    assert h2_class2(FreeNilpotentSpec(3, 2)) == (8, 0)
    for r in (2, 3, 4):
        f1, f2 = h2_class2(FreeNilpotentSpec(r, 2))
        assert f1 + f2 == homology_free_nilpotent_c2(r, 2).rational_dimension
    with pytest.raises(ValueError):
        h2_class2(FreeNilpotentSpec(2, 3))


def test_page_rejects_differentials_that_do_not_compose_to_zero():
    # pairing e0^e1 -> a0, e2^e3 -> a1 on Q^4; cell (4, 0) -> (2, 1) -> (0, 2)
    ext = CentralExtension(4, 2,
                           IntMatrix([[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]))
    page = e2_page(ext)
    nxt = page.diff(2, 1)
    k = next(i for i, x in enumerate(nxt.entries[0]) if x)
    diffs = dict(page.diffs)
    diffs[(4, 0)] = sparse(IntMatrix([[int(i == k)] for i in range(nxt.cols)]))
    Page(page.cells, page.diffs)
    with pytest.raises(ValueError, match=r"d2 o d2 != 0 out of cell \(4, 0\)"):
        Page(page.cells, diffs)


def _composable_pairs(page):
    for (p, q), d in page.diffs.items():
        nxt = page.diffs.get((p - 2, q + 1))
        if nxt is not None and nxt.rows and d.cols:
            yield nxt, d


def _one_term_per_entry(d):
    """Every listed entry of ``d`` is nonzero, each column once a row."""
    for row in d.terms:
        assert all(x for _, x in row)
        assert len({j for j, _ in row}) == len(row)


def _assert_d2_equals_both_references(ext):
    # d2_central works on combination ranks; _d2_rows on the full label
    # tuples gives the same terms in the same order, and the dense grid of
    # the reference the same matrix and shape, also for cells past the
    # page (p > n or q > a) whose targets are not empty
    n, a = ext.q_rank, ext.a_rank
    images = _pair_images(ext)
    for p in range(-1, n + 3):
        for q in range(-1, a + 3):
            d = d2_central(ext, p, q)
            src = _cell_labels(n, a, p, q)
            tgt = _cell_labels(n, a, p - 2, q + 1)
            assert d.shape == (len(tgt), len(src)), (ext, p, q)
            assert d.terms == _d2_rows(src, tgt, images), (ext, p, q)
            assert d.dense() == ref_spectral.d2_dense(ext, p, q), (ext, p, q)
            _one_term_per_entry(d)


def test_sparse_d2_equals_the_dense_reference():
    # several alpha per pair: a contracted pair lands on every centre
    # generator its commutator has, so each entry still takes one term
    rng = random.Random(23)
    several = 0
    for _ in range(100):
        ext = random_extension(rng, n_max=5, a_max=4)
        several += sum(len(t) > 1 for t in _pair_images(ext).values())
        _assert_d2_equals_both_references(ext)
    assert several >= 200


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_class2_d2_equals_the_label_kernel_and_the_dense_reference(r):
    _assert_d2_equals_both_references(
        central_extension_of_class2(FreeNilpotentSpec(r, 2)))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_class2_page_nonzeros_equal_the_closed_form(r):
    # each of the C(r, 2) pairs contracts in 2^(C(r, 2)+r-3) labels: I
    # holds the pair and any of the r-2 other generators, J any of the
    # C(r, 2)-1 other commutators
    nnz = sum(len(row) for d in ks_page(r).diffs.values() for row in d.terms)
    assert nnz == comb(r, 2) * 2 ** (comb(r, 2) + r - 3)
    assert nnz == {2: 1, 3: 24, 4: 768, 5: 40960}[r]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_block_d2_equals_the_dense_reference(r):
    images = _pair_images(central_extension_of_class2(FreeNilpotentSpec(r, 2)))
    for _, _, blk in _class2_blocks(r):
        # a block differential exactly where both cells are nonempty
        assert set(blk.diffs) == {(p, q) for p, q in blk.cells
                                  if blk.cells.get((p - 2, q + 1))}
        for (p, q), d in blk.diffs.items():
            src, tgt = blk.cells[(p, q)], blk.cells[(p - 2, q + 1)]
            want = IntMatrix(ref_spectral.d2_rows(src, tgt, images),
                             len(tgt), len(src))
            assert isinstance(d, SparseIntMatrix)
            assert d.dense() == want, (p, q)
            _one_term_per_entry(d)


def test_sparse_composition_check_agrees_with_the_dense_product():
    rng = random.Random(19)
    pages = [e2_page(random_extension(rng, n_max=5, a_max=4))
             for _ in range(100)]
    pages += [ks_page(r) for r in (2, 3, 4)]
    pages += [page for r in (2, 3, 4, 5) for _, _, page in _class2_blocks(r)]
    verdicts = Counter()
    for page in pages:
        for nxt, d in _composable_pairs(page):
            # the page's own pair, then one entry of d moved
            dense = d.dense()
            grid = [list(row) for row in dense.entries]
            grid[rng.randrange(d.rows)][rng.randrange(d.cols)] += rng.choice((-1, 1))
            moved = IntMatrix(grid, d.rows, d.cols)
            for right, terms in ((dense, d.terms), (moved, nonzero_rows(moved))):
                verdict = _composes_to_zero(nxt.terms, terms)
                assert verdict == (nxt.dense() * right).is_zero()
                verdicts[verdict] += 1
    # every page's own pairs vanish; most moved entries do not
    assert verdicts[True] >= 150 and verdicts[False] >= 100


def _three_cells(nxt, d):
    cells = {(0, 2): (((), (0, 1)),),
             (2, 1): (((0, 1), (0,)), ((0, 1), (1,))),
             (4, 0): tuple(((0, 1, 2, i), ()) for i in (3, 4, 5))}
    return Page(cells, {(2, 1): sparse(IntMatrix(nxt)), (4, 0): sparse(IntMatrix(d))})


def test_page_check_sees_one_nonzero_in_the_last_column():
    # the composite is [[0, 0, 1]]
    with pytest.raises(ValueError, match=r"d2 o d2 != 0 out of cell \(4, 0\)"):
        _three_cells([[1, 1]], [[1, 0, 0], [-1, 0, 1]])


def test_page_check_passes_products_that_cancel():
    # 1*1 + 1*(-1) and 1*2 + 1*(-2): every entry is a sum cancelling to 0
    page = _three_cells([[1, 1]], [[1, 2, 0], [-1, -2, 0]])
    assert (page.diff(2, 1) * page.diff(4, 0)).is_zero()


def test_page_rejects_differential_of_wrong_shape():
    page = e2_page(HEISENBERG)
    diffs = dict(page.diffs)
    diffs[(2, 0)] = sparse(IntMatrix.zero(1, 2))
    with pytest.raises(ValueError, match=r"at \(2, 0\) has shape \(1, 2\), "
                                         r"expected \(1, 1\)"):
        Page(page.cells, diffs)


def test_page_rejects_a_dense_differential():
    page = e2_page(HEISENBERG)
    for dense in (page.diff(2, 0), page.diff(2, 0).to_rat()):
        with pytest.raises(TypeError, match=r"at \(2, 0\) must be a "
                                            r"SparseIntMatrix"):
            Page(page.cells, {(2, 0): dense})


def test_equivariant_page_rejects_noncommuting_action():
    # Anosov acts on the centre of the Heisenberg group by its determinant
    # 1; claiming -1 for the second generator breaks d2 at cell (2, 0)
    g = RatMatrix([[2, 1], [1, 1]])
    page = e2_page(HEISENBERG)
    EquivariantPage(page, [g, g], [RatMatrix([[1]]), RatMatrix([[1]])])
    with pytest.raises(ValueError, match=r"cell \(2, 0\) fails to commute "
                                         r"with generator 1"):
        EquivariantPage(page, [g, g], [RatMatrix([[1]]), RatMatrix([[-1]])])


def test_equivariant_identity_action():
    spec = FreeNilpotentSpec(2, 2)
    ep = equivariant_page(spec, [IntMatrix.identity(2)])
    for (p, q), mats in ep.actions.items():
        dim = ep.page.cell_dim(p, q)
        # an integer action stays integral on every cell (== is type-strict)
        assert mats[0] == IntMatrix.identity(dim)


def test_equivariant_heisenberg_cells():
    g = IntMatrix([[2, 1], [1, 1]])
    ep = equivariant_page(HEISENBERG, [g])
    assert ep.actions[(1, 0)][0] == g.to_rat()
    assert ep.actions[(0, 1)][0] == RatMatrix([[1]])


def test_equivariant_differentials_commute():
    g = IntMatrix([[2, 1], [1, 1]])
    spec = FreeNilpotentSpec(2, 2)
    ep = equivariant_page(spec, [g])
    for p, q in ep.page.diffs:
        d = ep.page.diff(p, q)
        if d.rows == 0 or d.cols == 0:
            continue
        src = ep.actions[(p, q)][0]
        tgt = ep.actions[(p - 2, q + 1)][0]
        assert d * src == tgt * d


def test_bounded_page_of_an_extension_is_the_full_page_cut():
    rng = random.Random(61)
    for _ in range(10):
        ext = random_extension(rng)
        full = e2_page(ext)
        for bound in range(-1, ext.q_rank + ext.a_rank + 1):
            cut = e2_page(ext, max_degree=bound)
            assert cut.cells == {pq: c for pq, c in full.cells.items()
                                 if sum(pq) <= bound}
            assert set(cut.diffs) == {pq for pq in full.diffs if sum(pq) <= bound}
            for pq in cut.diffs:
                assert cut.diff(*pq) == full.diff(*pq)


@pytest.mark.parametrize("rank", [2, 3])
def test_bounded_equivariant_page_is_the_full_page_cut(rank):
    rng = random.Random(60 + rank)
    spec = FreeNilpotentSpec(rank, 2)
    for _ in range(3):
        act = ref_filtration.random_action(rng, spec)
        full = equivariant_page(spec, act.generators)
        for bound in range(-1, spec.hirsch_length + 2):
            cut = equivariant_page(spec, act.generators, max_degree=bound)
            kept = {pq for pq in full.page.cells if sum(pq) <= bound}
            assert set(cut.page.cells) == set(cut.page.diffs) == kept
            assert set(cut.actions) == kept
            for pq in kept:
                assert cut.page.cells[pq] == full.page.cells[pq]
                assert cut.page.diff(*pq) == full.page.diff(*pq)
                assert cut.actions[pq] == full.actions[pq], (act, bound, pq)


def test_equivariant_rejects_undetermined_centre():
    ext = CentralExtension(2, 2, IntMatrix([[1], [0]]))
    with pytest.raises(ValueError):
        equivariant_page(ext, [IntMatrix([[1, 1], [0, 1]])])


@pytest.mark.parametrize("spec, gens, message", [
    (FreeNilpotentSpec(2, 2), [IntMatrix([[2, 0], [0, 1]])], "determinant"),
    (FreeNilpotentSpec(2, 3), [IntMatrix.identity(2)],
     "only class <= 2 carries an explicit central extension"),
], ids=["determinant-2", "class-3"])
def test_equivariant_page_checks_a_free_spec_action(spec, gens, message):
    # the matrices are checked as a NilpotentAction on the spec
    with pytest.raises(ValueError, match=message):
        equivariant_page(spec, gens)


def test_integral_cells_sum_to_dimension():
    for r in (2, 3):
        for j in range(r + comb(r, 2) + 1):
            res = homology_free_nilpotent_c2(r, j)
            assert sum(free for _, free, _ in res.integral_cells) \
                == res.rational_dimension
            assert [cell for cell, _, _ in res.integral_cells] \
                == [(p, j - p) for p in range(min(j, 1), min(j, r) + 1)
                    if j - p <= comb(r, 2)]


def test_degrees_past_the_hirsch_length_read_no_cells():
    # p <= r bounds the cells, so a huge degree is as cheap as a small one
    for r in (1, 2, 3):
        res = homology_free_nilpotent_c2(r, 10 ** 8)
        assert res.integral_cells == ()
        assert res.rational_dimension == 0 and res.invariant_factors == ()


def _unimodular(rng, n):
    """A random unimodular n x n matrix and its inverse, from elementary
    row operations (and the matching column operations on the inverse)."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j or rng.random() < 0.2:
            # negate row i of P, and column i of its inverse
            p[i] = [-x for x in p[i]]
            for row in pinv:
                row[i] = -row[i]
            continue
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= c * row[i]
    return IntMatrix(p, n, n), IntMatrix(pinv, n, n)


def test_integral_homology_matches_kernel_basis_reference():
    # Z^a -> Z^n -> Z^b with d_out d_in = 0: ker d_out is spanned by the
    # first k basis vectors, d_in hits them with chosen diagonal factors,
    # d_out is injective on the rest; all three modules then change basis
    rng = random.Random(707)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        a, b = rng.randint(1, 6), rng.randint(n - k, n - k + 2)
        t = min(k, a)
        factors = [rng.choice((0, 1, 2, 3, 4, 6, 12)) for _ in range(t)]
        d_in = [[factors[i] if i == j and i < t else 0 for j in range(a)]
                for i in range(n)]
        d_out = [[0] * n for _ in range(b)]
        for i in range(n - k):
            d_out[i][k + i] = rng.choice((1, 1, 2, 5))
            for j in range(k + i + 1, n):
                d_out[i][j] = rng.randint(-3, 3)
        p, pinv = _unimodular(rng, n)
        assert p * pinv == IntMatrix.identity(n)
        d_in = p * IntMatrix(d_in, n, a) * _unimodular(rng, a)[0]
        d_out = _unimodular(rng, b)[0] * IntMatrix(d_out, b, n) * pinv
        assert (d_out * d_in).is_zero()
        # free rank from the two ranks, torsion from the Smith form of
        # d_in alone, as the class-two page takes them
        diag = smith_normal_form(d_in)
        got = (d_out.cols - matrix_rank(d_out) - len(diag),
               tuple(f for f in diag if f > 1))
        assert got == ref_spectral.integral_homology(d_out, d_in)
        torsion = [f for f in factors if f > 1]
        assert got[0] == k - sum(1 for f in factors if f)
        assert prod(got[1]) == prod(torsion)
        seen.update(got[1])
    # torsion well beyond the 3-torsion of the free class-two pages
    assert {2, 4, 12} <= seen


def test_page_json_writes_integer_differentials_as_before():
    pairing = IntMatrix([[1, -2, 0, 3, -1, 0], [0, 2, -3, 0, 1, -1]])
    ext = CentralExtension(4, 2, pairing)
    page = e2_page(ext)
    assert all(isinstance(d, SparseIntMatrix) for d in page.diffs.values())
    dense = [(pq, ref_spectral.d2_dense(ext, *pq)) for pq in sorted(page.diffs)]
    want = [{"p": p, "q": q,
             "matrix": [[frac_str(x) for x in row] for row in d.to_rat().entries]}
            for (p, q), d in dense
            if d.rows and d.cols and not d.is_zero()]
    got = json.loads(dumps(page))["differentials"]
    assert got == want
    assert any(x.startswith("-") for d in got for row in d["matrix"] for x in row)

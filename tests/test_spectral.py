import random
from fractions import Fraction
from math import comb, prod

import pytest

from nilhom.groups import (CentralExtension, FreeNilpotentSpec,
                           central_extension_of_class2, heisenberg)
from nilhom.jsonio import frac_str, page_json
from nilhom.linalg import (IntMatrix, RatMatrix, matrix_rank,
                           rank_kernel_image, smith_normal_form)
from nilhom.spectral import (EquivariantPage, Page, _class2_blocks,
                             betti_free_nilpotent_c2, d2_central, e2_page,
                             e3_dimensions, equivariant_page, h2_class2,
                             homology_free_nilpotent_c2, ks_page)

import reference_filtration as ref_filtration
import reference_linalg as ref
import reference_spectral as ref_spectral


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
    page = e2_page(heisenberg())
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
    d = d2_central(heisenberg(), 2, 0)
    assert d.entries == ((Fraction(1),),)


def test_d2_rank3_single_pair():
    ext = CentralExtension(3, 1, IntMatrix([[1, 0, 0]]))
    d = d2_central(ext, 2, 0)
    # basis order (e1^e2, e1^e3, e2^e3)
    assert d.entries == ((Fraction(1), Fraction(0), Fraction(0)),)


def test_d2_low_p_is_zero_shape():
    for p in (0, 1):
        d = d2_central(heisenberg(), p, 0)
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
        for (p, q), d in page.diffs.items():
            nxt = page.diff(p - 2, q + 1)
            if nxt.rows and d.cols:
                assert (nxt * d).is_zero()


def test_ks_pages_compose_to_zero():
    for r in range(2, 5):
        page = ks_page(r)
        for (p, q), d in page.diffs.items():
            nxt = page.diff(p - 2, q + 1)
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
        ranks = {pq: ref.rank_kernel_image(d)[0] for pq, d in page.diffs.items()}
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


def test_integral_heisenberg():
    frozen = {0: (0,), 1: (0, 0), 2: (0, 0), 3: (0,)}
    for j, expect in frozen.items():
        res = homology_free_nilpotent_c2(2, j, integral=True)
        assert res.invariant_factors == expect, j


def test_integral_rank3_cells_consistent():
    # free rank of each integral third-page cell equals its rational dim
    for j in range(1, 7):
        res = homology_free_nilpotent_c2(3, j, integral=True)
        by_cell = {(p, q): d for p, q, d in res.provenance}
        for cell, free, torsion in res.integral_cells:
            assert free == by_cell[cell]


def test_h2_class2():
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
    nxt = page.diffs[(2, 1)]
    k = next(i for i, x in enumerate(nxt.entries[0]) if x)
    diffs = dict(page.diffs)
    diffs[(4, 0)] = RatMatrix([[int(i == k)] for i in range(nxt.cols)])
    Page(page.cells, page.diffs)
    with pytest.raises(ValueError, match=r"d2 o d2 != 0 out of cell \(4, 0\)"):
        Page(page.cells, diffs)


def test_page_rejects_differential_of_wrong_shape():
    page = e2_page(heisenberg())
    diffs = dict(page.diffs)
    diffs[(2, 0)] = RatMatrix.zero(1, 2)
    with pytest.raises(ValueError, match=r"at \(2, 0\) has shape \(1, 2\), "
                                         r"expected \(1, 1\)"):
        Page(page.cells, diffs)


def test_equivariant_page_rejects_noncommuting_action():
    # Anosov acts on the centre of the Heisenberg group by its determinant
    # 1; claiming -1 for the second generator breaks d2 at cell (2, 0)
    g = RatMatrix([[2, 1], [1, 1]])
    page = e2_page(heisenberg())
    EquivariantPage(page, [g, g], [RatMatrix([[1]]), RatMatrix([[1]])])
    with pytest.raises(ValueError, match=r"cell \(2, 0\) fails to commute "
                                         r"with generator 1"):
        EquivariantPage(page, [g, g], [RatMatrix([[1]]), RatMatrix([[-1]])])


def test_equivariant_identity_action():
    spec = FreeNilpotentSpec(2, 2)
    ep = equivariant_page(spec, [IntMatrix.identity(2)])
    for (p, q), mats in ep.actions.items():
        dim = ep.page.cell_dim(p, q)
        assert mats[0] == RatMatrix.identity(dim)


def test_equivariant_heisenberg_cells():
    g = IntMatrix([[2, 1], [1, 1]])
    ep = equivariant_page(heisenberg(), [g])
    assert ep.actions[(1, 0)][0] == g.to_rat()
    assert ep.actions[(0, 1)][0] == RatMatrix([[1]])


def test_equivariant_differentials_commute():
    g = IntMatrix([[2, 1], [1, 1]])
    spec = FreeNilpotentSpec(2, 2)
    ep = equivariant_page(spec, [g])
    for (p, q), d in ep.page.diffs.items():
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
            assert cut.diffs == {pq: d for pq, d in full.diffs.items()
                                 if sum(pq) <= bound}


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
                assert cut.page.diffs[pq] == full.page.diffs[pq]
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


def test_provenance_sums_to_dimension():
    for r in (2, 3):
        for j in range(r + comb(r, 2) + 1):
            res = homology_free_nilpotent_c2(r, j)
            assert sum(d for _, _, d in res.provenance) == res.rational_dimension


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
    assert all(isinstance(d, IntMatrix) for d in page.diffs.values())
    want = [{"p": p, "q": q,
             "matrix": [[frac_str(x) for x in row] for row in d.to_rat().entries]}
            for (p, q), d in sorted(page.diffs.items())
            if d.rows and d.cols and not d.is_zero()]
    got = page_json(page)["differentials"]
    assert got == want
    assert any(x.startswith("-") for d in got for row in d["matrix"] for x in row)

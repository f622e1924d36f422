"""The content-graded class-two page against independent oracles.

The block path (``_class2_blocks`` and its one Smith form per block
differential in ``_class2_cells``) must agree with the dense page
(``e3_dimensions`` and the dense Smith reduction in
``reference_spectral``) for r <= 4, with Bareiss ranks block by block
for r = 5, and with Sigg's closed form for the Betti numbers of free
two-step nilpotent groups for r <= 5.  The closed-form cells
(``_class2_dims``), which the rational paths read, are checked against
the blocks and against ``reference_spectral.class2_dims`` cell by cell,
and against the box walk of ``sigg_betti``, which stays independent of
them.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

import nilhom.spectral as spectral
from nilhom.linalg import matrix_rank, smith_normal_form
from nilhom.cli import main
from nilhom.filtration import filtration_certificate
from nilhom.groups import FreeNilpotentSpec
from nilhom.spectral import (_class2_blocks, _class2_cells, _class2_dims,
                             betti_free_nilpotent_c2, e3_dimensions,
                             h2_class2, homology_free_nilpotent_c2, ks_page)

import reference_spectral as ref


def content(label, r):
    pairs = list(combinations(range(r), 2))
    c = Counter(label[0])
    for alpha in label[1]:
        c.update(pairs[alpha])
    return tuple(c[i] for i in range(r))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_block_third_page_equals_dense_page(r):
    dims = {pq: dim for pq, (dim, _) in _class2_cells(r).items()}
    assert dims == e3_dimensions(ks_page(r))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_block_integral_cells_equal_dense_reference(r):
    page = ks_page(r)
    torsion = {}
    for (p, q) in page.cells:
        if page.cell_dim(p, q):
            got = _class2_cells(r)[(p, q)]
            assert got == ref.integral_cell(page, p, q), (p, q)
            if got[1]:
                torsion[(p, q)] = got[1]
    assert torsion == ({(1, 3): (3, 3, 3, 3), (1, 4): (3, 3, 3, 3)}
                       if r == 4 else {})


@pytest.mark.parametrize("r", [2, 3, 4])
def test_block_page_integral_cells_equal_dense_reference(r):
    # each block's own cells, before the orbit sum and the merge of factors:
    # free rank from the ranks of both maps, and it is the block's rational
    # third page; torsion from the Smith form of the incoming map alone
    for _, _, blk in _class2_blocks(r):
        e3 = e3_dimensions(blk)
        for (p, q), labels in blk.cells.items():
            diag = smith_normal_form(blk.diff(p + 2, q - 1))
            free = len(labels) - matrix_rank(blk.diff(p, q)) - len(diag)
            got = (free, tuple(f for f in diag if f > 1))
            assert got == ref.integral_cell(blk, p, q), (p, q)
            assert free == e3[(p, q)], (p, q)


def test_rank5_smith_lengths_equal_bareiss_ranks():
    # Bareiss stays the oracle for the rank the Smith pass reads off
    for _, _, blk in _class2_blocks(5):
        for pq in blk.diffs:
            d = blk.diff(*pq)
            assert len(smith_normal_form(d)) == matrix_rank(d), pq


def test_one_smith_form_per_block_differential(monkeypatch):
    calls = Counter()

    def counted(name, real):
        def wrapper(m):
            calls[name] += 1
            return real(m)
        monkeypatch.setattr(spectral, name, wrapper)

    counted("smith_normal_form", smith_normal_form)
    counted("matrix_rank", matrix_rank)
    _class2_cells.cache_clear()
    try:
        _class2_cells(5)
    finally:
        _class2_cells.cache_clear()
    assert sum(len(blk.diffs) for _, _, blk in _class2_blocks(5)) == 152
    assert calls == {"smith_normal_form": 152}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_blocks_are_the_dense_differential_restricted(r):
    page = ks_page(r)
    pos = {pq: {lab: i for i, lab in enumerate(cell)}
           for pq, cell in page.cells.items()}
    # d2 never joins labels of different content
    for p, q in page.diffs:
        d = page.diff(p, q)
        if d.rows and d.cols:
            src = page.cells[(p, q)]
            tgt = page.cells[(p - 2, q + 1)]
            for row, tgt_label in zip(d.entries, tgt):
                for x, src_label in zip(row, src):
                    assert not x or content(tgt_label, r) == content(src_label, r)
    covered = Counter()
    for blk_content, orbit, blk in _class2_blocks(r):
        assert list(blk_content) == sorted(blk_content, reverse=True)
        assert orbit == factorial(r) // prod(
            factorial(m) for m in Counter(blk_content).values())
        for (p, q), labels in blk.cells.items():
            assert all(content(lab, r) == blk_content for lab in labels)
            covered[(p, q)] += orbit * len(labels)
        # the block kernel (_d2_rows on labels) against the whole-cell one
        # (d2_central on ranks): each block row is the whole row of its
        # label, every column in the block, terms in the same order
        for (p, q), d in blk.diffs.items():
            col_of = {pos[(p, q)][lab]: j
                      for j, lab in enumerate(blk.cells[(p, q)])}
            whole = page.diffs[(p, q)].terms
            assert d.terms == [[(col_of[k], x) for k, x in
                                whole[pos[(p - 2, q + 1)][lab]]]
                               for lab in blk.cells[(p - 2, q + 1)]], (p, q)
    assert covered == {pq: len(cell) for pq, cell in page.cells.items()
                       if len(cell)}


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_block_contents_equal_the_subset_filter(r):
    # the walk over generators keeps exactly the labels the filter over
    # all 2^r subsets I kept, grouped alike, in descending content order
    want = ref.class2_groups(r)
    blocks = _class2_blocks(r)
    assert [c for c, _, _ in blocks] == sorted(want, reverse=True)
    for c, _, blk in blocks:
        assert {pq: list(labels) for pq, labels in blk.cells.items()} == want[c]


def test_rank6_blocks_cover_the_page_by_orbits():
    # 476 contents and 45,640 labels, and every one of the 2^21 labels
    # lies in the orbit of one of them
    blocks = _class2_blocks(6)
    assert len(blocks) == 476
    assert sum(len(labels) for _, _, blk in blocks
               for labels in blk.cells.values()) == 45640
    assert sum(orbit * len(labels) for _, orbit, blk in blocks
               for labels in blk.cells.values()) == 2 ** 21


def test_blocks_check_that_d2_composes_to_zero(monkeypatch):
    # rank 4 is the least with composable d2 (cell (4, 0) to (0, 2)); an
    # all-ones "differential" on every block cannot square to zero
    monkeypatch.setattr(spectral, "_d2_rows", lambda src, tgt, images: [
        [(j, 1) for j in range(len(src))] for _ in tgt])
    _class2_blocks.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"d2 o d2 != 0 out of cell"):
            _class2_blocks(4)
    finally:
        _class2_blocks.cache_clear()


def self_conjugate_partitions(r):
    """Self-conjugate partitions with at most r rows, as tuples of parts."""
    out = []

    def extend(parts, largest):
        lam = tuple(parts)
        if conjugate(lam) == lam:
            out.append(lam)
        if len(parts) < r:
            for x in range(1, largest + 1):
                extend(parts + [x], x)

    extend([], r)
    return out


def conjugate(lam):
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0))


def weyl_dimension(lam, r):
    """dim S_lam(Q^r) by the hook-content formula."""
    lamc = conjugate(lam)
    return int(prod((Fraction(r + j - i, lam[i] - j + lamc[j] - i - 1)
                     for i in range(len(lam)) for j in range(lam[i])),
                    start=Fraction(1)))


def sigg_betti(r):
    """Sigg (J. Algebra 185, 1996): b_j sums dim S_lam(Q^r) over the
    self-conjugate lam with at most r rows and (|lam| + Durfee rank)/2 = j."""
    betti = [0] * (r + comb(r, 2) + 1)
    for lam in self_conjugate_partitions(r):
        durfee = sum(1 for i, x in enumerate(lam) if x > i)
        betti[(sum(lam) + durfee) // 2] += weyl_dimension(lam, r)
    return betti


def test_sigg_closed_form_sanity():
    assert weyl_dimension((2, 1), 3) == 8
    assert sigg_betti(2) == [1, 2, 2, 1]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_betti_numbers_equal_sigg_closed_form(r):
    assert betti_free_nilpotent_c2(r) == sigg_betti(r)


def test_rank5_integral_free_ranks_equal_rational_cells():
    found = {}
    for j in range(5 + comb(5, 2) + 1):
        res = homology_free_nilpotent_c2(5, j)
        assert sum(free for _, free, _ in res.integral_cells) \
            == res.rational_dimension == sigg_betti(5)[j]
        for cell, _, torsion in res.integral_cells:
            assert all(t > 1 for t in torsion)
            assert all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
            if torsion:
                found[cell] = torsion
    # recorded from the per-cell Smith reduction that preceded the table:
    # only 3-torsion, in cells (1, 3)..(1, 7) and (2, 4)..(2, 8)
    counts = dict(zip([(1, q) for q in range(3, 8)], [30, 70, 45, 10, 1]))
    counts.update(zip([(2, q) for q in range(4, 9)], [1, 10, 45, 70, 30]))
    assert found == {cell: (3,) * k for cell, k in counts.items()}


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_closed_form_cells_equal_the_blocks(r):
    # the block ranks by Bareiss, apart from the Smith pass that
    # _class2_cells checks against the closed form
    dims = Counter()
    for _, orbit, blk in _class2_blocks(r):
        for pq, dim in e3_dimensions(blk).items():
            dims[pq] += orbit * dim
    closed = _class2_dims(r)
    assert set(closed) == {(p, q) for p in range(r + 1)
                           for q in range(comb(r, 2) + 1)}
    assert {pq: dim for pq, dim in closed.items() if dim} == +dims


@pytest.mark.parametrize("r", range(13))
def test_closed_form_cells_equal_the_box_walk(r):
    # the dimensions from the Frobenius arms, against the hook-content
    # formula multiplied out over the boxes of each lambda
    assert _class2_dims(r) == ref.class2_dims(r)


@pytest.mark.parametrize("r", range(1, 9))
def test_closed_form_totals_equal_sigg_box_walk(r):
    # betti_free_nilpotent_c2 sums the closed-form cells by degree
    assert betti_free_nilpotent_c2(r) == sigg_betti(r)


@pytest.mark.parametrize("r", range(1, 11))
def test_closed_form_totals_are_palindromic_with_euler_characteristic_0(r):
    # Poincare duality of the nilmanifold, of dimension the Hirsch length
    betti = betti_free_nilpotent_c2(r)
    assert betti == betti[::-1]
    assert betti[0] == 1 and betti[1] == r
    assert sum((-1) ** j * b for j, b in enumerate(betti)) == 0


def test_rank6_rational_paths_build_no_blocks(capsys):
    misses = _class2_blocks.cache_info().misses
    group = '{"type":"free_nilpotent","rank":6,"class":2}'
    assert main(["betti", "--group", group]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == sigg_betti(6)
    assert main(["filtration", "--group", group, "--j", "10"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["total_dimension"] == sigg_betti(6)[10]
    assert cert["dimensions_exact"] and cert["bound_satisfied"]
    # class three recurses through the class-two certificate
    assert filtration_certificate(FreeNilpotentSpec(6, 3), 3).layers
    assert sum(h2_class2(FreeNilpotentSpec(6, 2))) == sigg_betti(6)[2]
    assert _class2_blocks.cache_info().misses == misses


def test_integral_path_checks_the_closed_form(monkeypatch):
    wrong = dict(_class2_dims(3))
    wrong[(1, 1)] += 1
    monkeypatch.setattr(spectral, "_class2_dims", lambda r: wrong)
    _class2_cells.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"cell \(1, 1\) has dimension 8 "
                           r"from the blocks but 9 by Sigg's closed form"):
            homology_free_nilpotent_c2(3, 2)
    finally:
        _class2_cells.cache_clear()


def test_every_class2_path_refuses_a_rank_above_its_limit():
    # the library entry points behind betti, filtration and h2_class2
    # refuse at the limit + 1, before any cell is built
    over = spectral.MAX_CLOSED_FORM_RANK + 1
    for call in (lambda: _class2_dims(over),
                 lambda: betti_free_nilpotent_c2(over),
                 lambda: h2_class2(FreeNilpotentSpec(over, 2)),
                 lambda: filtration_certificate(FreeNilpotentSpec(over, 3), 2)):
        with pytest.raises(ValueError, match=f"rank <= {over - 1}, got rank {over}"):
            call()
    over = spectral.MAX_INTEGRAL_RANK + 1
    for call in (lambda: _class2_cells(over),
                 lambda: homology_free_nilpotent_c2(over, 1)):
        with pytest.raises(ValueError, match=f"rank <= {over - 1}, got rank {over}"):
            call()

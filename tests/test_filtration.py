import random
from math import comb

import pytest

import reference_filtration as ref_filtration

from nilhom import filtration
from nilhom.filtration import (filtration_certificate, induced_homology_action,
                               is_nilpotent_action, tensor_degree_bound)
from nilhom.groups import FreeNilpotentSpec, NilpotentAction, witt_number
from nilhom.jsonio import certificate_json
from nilhom.linalg import IntMatrix, RatMatrix
from nilhom.spectral import (_class2_cells, _class2_dims, _class2_nonzero,
                             equivariant_page, homology_free_nilpotent_c2)


def test_bound_values():
    assert tensor_degree_bound(2, 3) == 5
    assert tensor_degree_bound(3, 1) == 1
    for j in range(6):
        assert tensor_degree_bound(1, j) == (j if j >= 1 else 0)
    assert tensor_degree_bound(2, 0) == 0


def test_abelian_certificate_single_layer():
    for r in (1, 2, 3):
        for j in range(r + 1):
            cert = filtration_certificate(FreeNilpotentSpec(r, 1), j)
            assert len(cert.layers) == 1
            (layer,) = cert.layers
            assert layer.tensor_degree == j
            assert layer.dimension == comb(r, j)


def test_degree_zero_certificate():
    cert = filtration_certificate(FreeNilpotentSpec(3, 3), 0)
    assert len(cert.layers) == 1
    assert cert.layers[0].tensor_degree == 0
    assert cert.layers[0].dimension == 1
    assert cert.bound == 0 and cert.bound_satisfied


def test_heisenberg_j2_certificate():
    cert = filtration_certificate(FreeNilpotentSpec(2, 2), 2)
    assert cert.bound == 3
    assert all(l.tensor_degree <= 3 for l in cert.layers)
    assert cert.total_dimension == 2
    assert cert.bound_satisfied and cert.dimensions_exact


def test_bound_exhaustive():
    for r in range(1, 4):
        for c in range(1, 4):
            for j in range(5):
                cert = filtration_certificate(FreeNilpotentSpec(r, c), j)
                assert cert.bound_satisfied, (r, c, j)
                for layer in cert.layers:
                    assert 0 <= layer.tensor_degree <= tensor_degree_bound(c, j)


def test_certificate_sums_match_betti_class_le2():
    for r in range(1, 4):
        for j in range(5):
            cert1 = filtration_certificate(FreeNilpotentSpec(r, 1), j)
            assert cert1.total_dimension == comb(r, j)
            cert2 = filtration_certificate(FreeNilpotentSpec(r, 2), j)
            assert cert2.total_dimension == \
                homology_free_nilpotent_c2(r, j).rational_dimension


def test_class3_layers_are_upper_bounds():
    cert = filtration_certificate(FreeNilpotentSpec(2, 3), 2)
    assert not cert.dimensions_exact
    # the page-level bound dominates the true Betti number of the class-3
    # quotient, which is at least the class-2 value in low degrees
    assert cert.total_dimension >= 1


def test_sharpness_first_layer():
    # the maximal-degree layer sits over the (1, j-1) cell and is nonzero
    # whenever that cell survives; rank 3 covers every degree up to 3
    for j in (1, 2, 3):
        cert = filtration_certificate(FreeNilpotentSpec(3, 2), j)
        first = [l for l in cert.layers if l.origin and l.origin[0] == (1, j - 1)]
        assert first, j
        assert first[0].tensor_degree == 2 * j - 1 == tensor_degree_bound(2, j)
        assert first[0].dimension > 0
    for j in (1, 2):
        cert = filtration_certificate(FreeNilpotentSpec(2, 2), j)
        first = [l for l in cert.layers if l.origin and l.origin[0] == (1, j - 1)]
        assert first and first[0].dimension > 0


def test_certificate_matches_the_recursive_reference():
    # the bottom-up table against the recursion once per class, on every
    # rank <= 4, class <= 6 and degree <= 6 (168 triples), and far past
    # the Hirsch length, where both read only a window of degrees
    triples = [(r, c, j) for r in range(1, 5) for c in range(1, 7)
               for j in range(7)]
    triples += [(r, c, 2 ** 70) for r in range(1, 5) for c in (2, 3, 5)]
    for r, c, j in triples:
        spec = FreeNilpotentSpec(r, c)
        assert certificate_json(filtration_certificate(spec, j)) == \
            certificate_json(ref_filtration.filtration_certificate(spec, j)), (r, c, j)


def test_layer_counts_are_the_layers_built(monkeypatch):
    # the count that the limit reads is the number of layers: at that
    # number as the limit the certificate is built, one below it refused
    rng = random.Random(35)
    triples = [(rng.randint(1, 4), rng.randint(2, 12), rng.randint(1, 5))
               for _ in range(40)]
    sizes = [(FreeNilpotentSpec(r, c), j,
              len(filtration_certificate(FreeNilpotentSpec(r, c), j).layers))
             for r, c, j in triples]
    for spec, j, n in sizes:
        monkeypatch.setattr(filtration, "MAX_LAYERS", n)
        assert len(filtration_certificate(spec, j).layers) == n
        monkeypatch.setattr(filtration, "MAX_LAYERS", n - 1)
        with pytest.raises(ValueError, match=f"would have {n} layers, "
                                             f"above the limit of {n - 1}$"):
            filtration_certificate(spec, j)
    assert len({t[1] for t in triples}) >= 8


def test_the_nonzero_rule_is_the_support_of_the_closed_form():
    # C(p, 2) <= q <= p(2r - p - 1)/2, against every cell of the table,
    # and empty past the table's edges
    for r in range(13):
        cells = _class2_dims(r)
        assert all(_class2_nonzero(r, p, q) == (dim != 0)
                   for (p, q), dim in cells.items()), r
        assert not any(_class2_nonzero(r, r + 1, q) for q in range(comb(r + 1, 2) + 1))
        assert not _class2_nonzero(r, 0, 1) and not _class2_nonzero(r, 1, -1)


def test_a_refused_certificate_builds_no_cell_table(monkeypatch):
    # rank 18, class 1000, degree 5 spent 2.3 s in the rank-18 table before
    # its count refused it; the count now reads the nonzero rule
    def refuse(r):
        raise AssertionError("the cell table was built")

    monkeypatch.setattr(filtration, "_class2_dims", refuse)
    with pytest.raises(ValueError, match=f"above the limit of {filtration.MAX_LAYERS}$"):
        filtration_certificate(FreeNilpotentSpec(18, 1000), 5)


def _count_entries(r, c, j):
    """(class, degree) entries the layer count reads: class k reads the
    degrees from j minus the Witt numbers above k (and at least 1) to j."""
    low, lows = j, [j]
    for k in range(c, 2, -1):
        low = max(1, low - witt_number(r, k))
        lows.append(low)
    return sum(j - low + 1 for low in lows)


def _outcome(spec, j):
    try:
        return certificate_json(filtration_certificate(spec, j))
    except ValueError as err:
        return str(err)


def test_the_count_entries_are_limited(monkeypatch):
    # at its entry count as the limit a certificate is counted as before
    # (built, or refused for its layers), one below it refused before
    # anything is counted
    rng = random.Random(36)
    triples = [(rng.randint(2, 4), rng.randint(3, 12), rng.randint(1, 60))
               for _ in range(30)]
    cases = [(FreeNilpotentSpec(r, c), j, _count_entries(r, c, j),
              _outcome(FreeNilpotentSpec(r, c), j)) for r, c, j in triples]
    assert {isinstance(want, str) for *_, want in cases} == {True, False}
    for spec, j, n, want in cases:
        monkeypatch.setattr(filtration, "MAX_COUNT_ENTRIES", n)
        assert _outcome(spec, j) == want
        monkeypatch.setattr(filtration, "MAX_COUNT_ENTRIES", n - 1)
        with pytest.raises(ValueError, match=rf"would read {n} \(class, degree\) "
                                             rf"entries, above the limit of {n - 1}$"):
            filtration_certificate(spec, j)


def test_top_degrees_match_the_recursive_reference():
    # near the Hirsch length each class reads a long range of degrees of
    # which few hold layers
    for r, top_class in ((2, 7), (3, 4)):
        for c in range(3, top_class + 1):
            h = sum(witt_number(r, k) for k in range(1, c + 1))
            for j in range(h - 2, h + 2):
                spec = FreeNilpotentSpec(r, c)
                assert certificate_json(filtration_certificate(spec, j)) == \
                    certificate_json(ref_filtration.filtration_certificate(spec, j)), (r, c, j)


def test_class_1000_degree_one_is_the_abelianisation():
    # the recursion ran out of stack here; the table lifts the single
    # degree-one layer through every class with q = 0
    cert = filtration_certificate(FreeNilpotentSpec(2, 1000), 1)
    (layer,) = cert.layers
    assert layer.tensor_degree == 1 == cert.bound
    assert layer.dimension == 2
    assert layer.origin == ((1, 0),) * 999
    assert cert.bound_satisfied and cert.dimensions_exact


def test_is_nilpotent_identity():
    rep = is_nilpotent_action([RatMatrix.identity(3)])
    assert rep.nilpotent and rep.nilpotency_class == 1


def test_is_nilpotent_jordan_block():
    rep = is_nilpotent_action([RatMatrix([[1, 1], [0, 1]])])
    assert rep.nilpotent and rep.nilpotency_class == 2
    assert rep.image_dims == (2, 1, 0)


def test_is_nilpotent_rejects_anosov():
    # (g - 1) is invertible: det(g - 1) = -1
    g = RatMatrix([[2, 1], [1, 1]])
    rep = is_nilpotent_action([g])
    assert not rep.nilpotent and rep.nilpotency_class is None


def test_is_nilpotent_joint_family():
    a = RatMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = RatMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    rep = is_nilpotent_action([a, b])
    assert rep.nilpotent and rep.nilpotency_class == 2


def test_is_nilpotent_takes_integer_operators():
    jordan = [[1, 1], [0, 1]]
    rep = is_nilpotent_action([IntMatrix(jordan)])
    assert rep.nilpotent and rep.nilpotency_class == 2
    assert rep.image_dims == is_nilpotent_action([RatMatrix(jordan)]).image_dims
    mixed = is_nilpotent_action([IntMatrix(jordan), RatMatrix([[1, "1/2"], [0, 1]])])
    assert mixed.nilpotent and mixed.image_dims == (2, 1, 0)
    assert not is_nilpotent_action([IntMatrix([[2, 1], [1, 1]])]).nilpotent


def test_is_nilpotent_names_the_type_of_a_non_matrix():
    with pytest.raises(TypeError, match="got list"):
        is_nilpotent_action([[[1, 1], [0, 1]]])
    with pytest.raises(TypeError, match="got tuple"):
        is_nilpotent_action([IntMatrix.identity(2), ((1, 0), (0, 1))])


def test_is_nilpotent_validates_input():
    with pytest.raises(ValueError):
        is_nilpotent_action([])
    with pytest.raises(ValueError):
        is_nilpotent_action([RatMatrix.identity(2), RatMatrix.identity(3)])
    a = RatMatrix([[1, 1], [0, 1]])
    b = RatMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        is_nilpotent_action([a, b])


def test_induced_homology_identity():
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (IntMatrix.identity(2),))
    for j, cells in enumerate(induced_homology_action(act, 3)):
        dim = homology_free_nilpotent_c2(2, j).rational_dimension
        assert all(m == RatMatrix.identity(m.rows) for (m,) in cells)
        assert sum(m.rows for (m,) in cells) == dim


def test_induced_homology_degree_one_is_abelianisation():
    g = IntMatrix([[2, 1], [1, 1]])
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (g,))
    [(m,)] = induced_homology_action(act, 1)[1]
    assert m == g.to_rat()


def test_induced_homology_degree_three_heisenberg():
    g = IntMatrix([[2, 1], [1, 1]])
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (g,))
    [(m,)] = induced_homology_action(act, 3)[3]
    assert m == RatMatrix([[1]])


def test_induced_homology_all_degrees_from_one_page(monkeypatch):
    import nilhom.filtration as filtration
    pages = []

    def counted(source, gens, max_degree=None):
        pages.append(source)
        return equivariant_page(source, gens, max_degree=max_degree)
    monkeypatch.setattr(filtration, "equivariant_page", counted)
    g = IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -1]])
    spec = FreeNilpotentSpec(3, 2)
    act = NilpotentAction(spec, (g, IntMatrix.identity(3)))
    by_degree = induced_homology_action(act, 3)
    assert len(pages) == 1
    # one nonzero cell per nonzero third-page cell (i, j - i), in order
    third = _class2_cells(3)
    assert [[cell[0].rows for cell in cells] for cells in by_degree] == [[1]] + [
        [d for i in range(1, j + 1) if (d := third.get((i, j - i), (0,))[0])]
        for j in range(1, 4)]
    assert [sum(cell[0].rows for cell in cells) for cells in by_degree] == [
        homology_free_nilpotent_c2(3, j).rational_dimension for j in range(4)]
    # each list extends the one of the degree below
    assert induced_homology_action(act, 2) == by_degree[:3]
    assert by_degree[1] == [[g.to_rat(), RatMatrix.identity(3)]]
    assert all(cell[1] == RatMatrix.identity(cell[1].rows)
               for cells in by_degree for cell in cells)


@pytest.mark.parametrize("rank, nil_class", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_induced_homology_action_matches_the_full_page(rank, nil_class):
    rng = random.Random(10 * rank + nil_class)
    spec = FreeNilpotentSpec(rank, nil_class)
    top = spec.hirsch_length + 1
    for _ in range(3):
        act = ref_filtration.random_action(rng, spec)
        ngens = len(act.generators)
        # the reference reads the whole page and sums the cells of each
        # degree; degree j is its prefix
        want = ref_filtration.induced_homology_action(act, top)
        for j in range(top + 1):
            got = induced_homology_action(act, j)
            assert [ref_filtration.direct_sum(cells, ngens)
                    for cells in got] == want[:j + 1], (act, j)
            assert all(cell[0].rows for cells in got for cell in cells)


def test_induced_homology_rejects_class3():
    spec = FreeNilpotentSpec(2, 3)
    act = NilpotentAction(spec, (IntMatrix.identity(2),))
    # degree 0 reads no page cell, but is refused all the same
    for j in (0, 1):
        with pytest.raises(ValueError, match="class <= 2"):
            induced_homology_action(act, j)


def _random_unipotent_family(rng, r, count):
    # commuting unipotents: polynomials in one strictly upper triangular
    # nilpotent, conjugated by a common unimodular matrix
    n = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            n[i][j] = rng.randint(-1, 1)
    nil = IntMatrix(n).to_rat()
    s = RatMatrix.identity(r)
    for _ in range(3):
        i, j = rng.sample(range(r), 2)
        e = [[int(a == b) for b in range(r)] for a in range(r)]
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
    return gens


def test_unipotent_actions_act_nilpotently_on_homology():
    rng = random.Random(17)
    for _ in range(8):
        r = rng.choice([2, 3])
        c = rng.choice([1, 2])
        spec = FreeNilpotentSpec(r, c)
        act = NilpotentAction(spec, tuple(_random_unipotent_family(rng, r, 2)))
        # a direct sum acts nilpotently exactly when each summand does
        for j, cells in enumerate(induced_homology_action(act, 3)):
            for mats in cells:
                assert is_nilpotent_action(mats).nilpotent, (r, c, j)

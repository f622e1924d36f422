import random
from math import comb

import pytest

import reference_filtration as ref_filtration

from nilhom.filtration import (filtration_certificate, induced_homology_action,
                               is_nilpotent_action, tensor_degree_bound)
from nilhom.groups import FreeNilpotentSpec, NilpotentAction
from nilhom.linalg import IntMatrix, RatMatrix
from nilhom.spectral import equivariant_page, homology_free_nilpotent_c2


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
    for j, (m,) in enumerate(induced_homology_action(act, 3)):
        dim = homology_free_nilpotent_c2(2, j).rational_dimension
        assert m == RatMatrix.identity(dim)


def test_induced_homology_degree_one_is_abelianisation():
    g = IntMatrix([[2, 1], [1, 1]])
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (g,))
    (m,) = induced_homology_action(act, 1)[1]
    assert m == g.to_rat()


def test_induced_homology_degree_three_heisenberg():
    g = IntMatrix([[2, 1], [1, 1]])
    spec = FreeNilpotentSpec(2, 2)
    act = NilpotentAction(spec, (g,))
    (m,) = induced_homology_action(act, 3)[3]
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
    assert [mats[0].rows for mats in by_degree] == [
        homology_free_nilpotent_c2(3, j).rational_dimension for j in range(4)]
    # each list extends the one of the degree below
    assert induced_homology_action(act, 2) == by_degree[:3]
    assert by_degree[1] == [g.to_rat(), RatMatrix.identity(3)]
    assert all(m == RatMatrix.identity(m.rows) for m in
               (mats[1] for mats in by_degree))


@pytest.mark.parametrize("rank, nil_class", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_induced_homology_action_matches_the_full_page(rank, nil_class):
    rng = random.Random(10 * rank + nil_class)
    spec = FreeNilpotentSpec(rank, nil_class)
    top = spec.hirsch_length + 1
    for _ in range(3):
        act = ref_filtration.random_action(rng, spec)
        # the reference reads the whole page; degree j is its prefix
        want = ref_filtration.induced_homology_action(act, top)
        for j in range(top + 1):
            assert induced_homology_action(act, j) == want[:j + 1], (act, j)


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
        for j, mats in enumerate(induced_homology_action(act, 3)):
            if mats[0].rows == 0:
                continue
            assert is_nilpotent_action(mats).nilpotent, (r, c, j)

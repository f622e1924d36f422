import random
from fractions import Fraction

import pytest

from nilhom.groups import (CentralExtension, FreeNilpotentSpec,
                           NilpotentAction, central_extension_of_class2,
                           hall_basis, heisenberg, induced_action_on_quotient,
                           moebius, witt_number)
from nilhom.jsonio import group_json, parse_group
from nilhom.linalg import IntMatrix, RatMatrix


def witt_oracle(r, w):
    # Moebius sum written out independently of the library helper
    def mu(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out
    return sum(mu(d) * r ** (w // d) for d in range(1, w + 1) if w % d == 0) // w


def test_witt_hand_values():
    assert [witt_number(2, w) for w in range(1, 5)] == [2, 1, 2, 3]
    assert [witt_number(3, w) for w in range(1, 5)] == [3, 3, 8, 18]
    assert witt_number(4, 4) == 60


def test_hall_sizes_match_witt_exhaustive():
    for r in range(1, 5):
        for c in range(1, 5):
            basis = hall_basis(FreeNilpotentSpec(r, c))
            for w in range(1, c + 1):
                assert len(basis.by_weight(w)) == witt_oracle(r, w), (r, c, w)


def test_hall_small_bases():
    b22 = hall_basis(FreeNilpotentSpec(2, 2))
    assert [e.text for e in b22.elements] == ["x1", "x2", "[x2,x1]"]
    b32 = hall_basis(FreeNilpotentSpec(3, 2))
    assert len(b32.by_weight(1)) == 3 and len(b32.by_weight(2)) == 3
    assert [e.text for e in b32.by_weight(2)] == \
        ["[x2,x1]", "[x3,x1]", "[x3,x2]"]
    b21 = hall_basis(FreeNilpotentSpec(2, 1))
    assert [e.text for e in b21.elements] == ["x1", "x2"]


def test_induced_action_weight_one_is_input():
    g = IntMatrix([[2, 1], [1, 1]])
    act = NilpotentAction(FreeNilpotentSpec(2, 2), (g,))
    assert induced_action_on_quotient(act, 1) == [g]


def test_induced_action_weight_two_is_determinant():
    for g in (IntMatrix([[2, 1], [1, 1]]), IntMatrix([[0, 1], [-1, 3]])):
        act = NilpotentAction(FreeNilpotentSpec(2, 2), (g,))
        (layer,) = induced_action_on_quotient(act, 2)
        assert layer.entries == ((g.det(),),)


def test_induced_action_identity_everywhere():
    act = NilpotentAction(FreeNilpotentSpec(3, 3), (IntMatrix.identity(3),))
    for w in range(1, 4):
        (layer,) = induced_action_on_quotient(act, w)
        assert layer == IntMatrix.identity(witt_number(3, w))


def test_induced_action_composition():
    rng = random.Random(5)
    spec = FreeNilpotentSpec(2, 3)
    for _ in range(10):
        g = IntMatrix([[1, rng.randint(-2, 2)], [0, 1]])
        h = g * g  # powers commute with g
        act_g = NilpotentAction(spec, (g,))
        act_h = NilpotentAction(spec, (h,))
        act_gh = NilpotentAction(spec, (g * h,))
        for w in range(1, 4):
            (lg,) = induced_action_on_quotient(act_g, w)
            (lh,) = induced_action_on_quotient(act_h, w)
            (lgh,) = induced_action_on_quotient(act_gh, w)
            assert lgh == lg * lh, w


def test_induced_action_weight_out_of_range():
    act = NilpotentAction(FreeNilpotentSpec(2, 2), (IntMatrix.identity(2),))
    with pytest.raises(ValueError):
        induced_action_on_quotient(act, 3)
    with pytest.raises(ValueError):
        induced_action_on_quotient(act, 0)


def test_action_validation_rejects_bad_input():
    spec = FreeNilpotentSpec(2, 2)
    with pytest.raises(ValueError):
        NilpotentAction(spec, (IntMatrix([[2, 0], [0, 1]]),))  # det 2
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        NilpotentAction(spec, (a, b))  # do not commute


def test_heisenberg_matches_class2_extraction():
    h = heisenberg()
    e = central_extension_of_class2(FreeNilpotentSpec(2, 2))
    assert h.q_rank == e.q_rank == 2
    assert h.a_rank == e.a_rank == 1
    assert h.pairing == e.pairing == IntMatrix([[1]])


def test_central_extension_shape_validation():
    with pytest.raises(ValueError):
        CentralExtension(2, 1, IntMatrix([[1, 0]]))


def test_central_extension_refuses_negative_ranks():
    with pytest.raises(ValueError, match="q_rank must be nonnegative"):
        CentralExtension(-1, 0, IntMatrix.zero(0, 0))
    with pytest.raises(ValueError, match="a_rank must be nonnegative"):
        CentralExtension(2, -1, IntMatrix.zero(0, 1))


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), 2.9])
def test_central_extension_refuses_non_integer_ranks(bad):
    # int() would truncate: 2.9 to the rank 2, Fraction(1, 2) to rank 0
    with pytest.raises(TypeError):
        CentralExtension(bad, 0, IntMatrix.zero(0, 1))
    with pytest.raises(TypeError):
        CentralExtension(2, bad, IntMatrix.zero(0, 1))


@pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(5, 2)])
def test_free_nilpotent_spec_refuses_non_integers(bad):
    # a float rank used to give a float hirsch_length and fail deep inside
    with pytest.raises(TypeError):
        FreeNilpotentSpec(bad, 2)
    with pytest.raises(TypeError):
        FreeNilpotentSpec(2, bad)


def test_central_extension_rejects_a_rational_pairing():
    # d2 is built as an integer matrix, so a pairing entry 1/2 would be
    # truncated; a rational matrix is refused even with integral entries
    for entries in ([["1/2"]], [[1]]):
        with pytest.raises(ValueError, match="integer matrix"):
            CentralExtension(2, 1, RatMatrix(entries))


def test_central_extension_json_round_trip():
    # an empty pairing (trivial centre) carries no column count in JSON
    exts = [central_extension_of_class2(FreeNilpotentSpec(r, c))
            for r in (1, 2, 3, 4) for c in (1, 2)]
    exts.append(CentralExtension(3, 1,
                                 IntMatrix([[2, 0, -1]])))
    for ext in exts:
        assert parse_group(group_json(ext)) == ext
    with pytest.raises(ValueError, match=r"pairing must be 1 x 3, got \(1, 2\)"):
        parse_group({"type": "central_extension", "q_rank": 3, "a_rank": 1,
                     "pairing": [["1", "0"]]})


def test_moebius():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_hirsch_length():
    assert FreeNilpotentSpec(2, 2).hirsch_length == 3
    assert FreeNilpotentSpec(3, 2).hirsch_length == 6

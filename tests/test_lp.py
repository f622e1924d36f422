import pytest

from nilhom import lp


def test_empty_system_is_feasible():
    assert lp.feasible([], 2)


def test_all_zero_rows():
    # 0 == 1 is infeasible whatever else is stated
    assert not lp.feasible([([0, 0], -1, lp.EQ), ([1, 0], 0, lp.GE)], 2)
    # 0 >= -1 holds and is dropped, leaving an empty system
    assert lp.feasible([([0, 0], 1, lp.GE)], 2)
    assert not lp.feasible([([0, 0], -1, lp.GE)], 2)
    assert lp.feasible([([0], 0, lp.EQ)], 1)


def test_negative_right_hand_sides():
    # x - 3 >= 0 and 5 - x >= 0: the first row starts with rhs 3 > 0, the
    # second with rhs -5 < 0 and is negated before phase one
    assert lp.feasible([([1], -3, lp.GE), ([-1], 5, lp.GE)], 1)
    # -x - 2 >= 0 and x >= 0
    assert not lp.feasible([([-1], -2, lp.GE), ([1], 0, lp.GE)], 1)
    # -x - 2 >= 0 and x + 5 >= 0: x in [-5, -2]
    assert lp.feasible([([-1], -2, lp.GE), ([1], 5, lp.GE)], 1)


def test_free_variables_take_negative_values():
    assert lp.feasible([([2, 2], 7, lp.EQ),
                        ([1, -1], 0, lp.EQ)], 2)


def test_redundant_equality_pair():
    # the second row is twice the first; an artificial stays basic at 0
    rows = [([1, 1], -1, lp.EQ), ([2, 2], -2, lp.EQ), ([1, 0], 0, lp.GE),
            ([0, 1], 0, lp.GE)]
    assert lp.feasible(rows, 2)
    # an inconsistent pair is infeasible
    assert not lp.feasible([([1, 1], -1, lp.EQ), ([2, 2], -3, lp.EQ)], 2)


def test_nonzero_point_of_a_pointed_cone():
    # the ray x >= 0, y = 0 has a point with phi = x >= 1; the origin cone
    # x >= 0, -x >= 0 does not
    assert lp.feasible([([1, 0], 0, lp.GE), ([0, 1], 0, lp.EQ),
                        ([1, 0], -1, lp.GE)], 2)
    assert not lp.feasible([([1], 0, lp.GE), ([-1], 0, lp.GE),
                            ([0], -1, lp.GE)], 1)


@pytest.mark.parametrize("rel", [">", "<=", "<", "!=", None])
def test_unknown_relation_raises(rel):
    with pytest.raises(ValueError):
        lp.feasible([([1], 0, rel)], 1)
    with pytest.raises(ValueError):
        lp.feasible([([0], 1, rel)], 1)


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        lp.feasible([([1, 2], 0, lp.GE)], 1)

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltlab import linalg
from tiltlab.errors import NoSolution


def test_rank_hand_example():
    # [[1,2],[2,4]] over F_7: second row is twice the first
    assert linalg.rank([[1, 2], [2, 4]], 7) == 1


def test_rank_identity_and_zero():
    assert linalg.rank(linalg.eye(4), 1009) == 4
    assert linalg.rank(linalg.zeros(3, 5), 1009) == 0


def test_solve_right_exact():
    a = [[1, 2], [0, 3]]
    x = linalg.solve_right(a, [[5], [6]], 7)
    assert np.array_equal(np.asarray(a) @ x % 7, [[5], [6]])


def test_solve_right_free_variables_zero():
    # x + 2y = 3 over F_7: free variable y must be set to 0
    x = linalg.solve_right([[1, 2]], [[3]], 7)
    assert x[1, 0] == 0 and x[0, 0] == 3


def test_solve_right_inconsistent():
    with pytest.raises(NoSolution):
        linalg.solve_right([[1, 1], [1, 1]], [[0], [1]], 7)


def test_null_space_membership():
    a = np.array([[1, 2, 3], [4, 5, 6]])
    ns = linalg.null_space(a, 1009)
    assert ns.shape[1] == 1
    assert not np.any(a @ ns % 1009)


def test_inv_round_trip():
    a = np.array([[1, 2], [3, 5]])
    inv = linalg.inv(a, 1009)
    assert np.array_equal(a @ inv % 1009, linalg.eye(2))


matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(st.lists(st.integers(0, 1008), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(rows):
    a = np.array(rows)
    p = 1009
    assert linalg.rank(a, p) + linalg.null_space(a, p).shape[1] == a.shape[1]


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_solve_consistency(rows):
    a = np.array(rows) % 1009
    p = 1009
    # rhs constructed from a known solution is always solvable
    x0 = np.arange(a.shape[1]).reshape(-1, 1) % p
    b = a @ x0 % p
    x = linalg.solve_right(a, b, p)
    assert np.array_equal(a @ x % p, b)


def test_rref_idempotent():
    a = np.array([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    r1, piv1 = linalg.rref(a, 5)
    r2, piv2 = linalg.rref(r1, 5)
    assert np.array_equal(r1, r2) and piv1 == piv2


def leibniz_det(m):
    """Sum over permutations, the reference for ``int_det``."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]]
                                                for i in range(n))
    return total


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])                      # zero pivot, one swap
@example([[1, 2, 3], [2, 4, 7], [1, 0, 1]])     # zero pivot at step 2
@example([[1, 2], [2, 4]])                      # singular
@example([[0, 0, 1], [0, 2, 1], [0, 3, 5]])     # zero column: no swap
@example([[10 ** 30, 1], [1, 10 ** 30]])        # past int64
def test_int_det_matches_permutation_expansion(m):
    assert linalg.int_det(m) == leibniz_det(m)


def test_int_det_of_the_empty_matrix():
    assert linalg.int_det([]) == 1

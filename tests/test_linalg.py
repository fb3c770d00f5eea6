import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


@st.composite
def rref_inputs(draw):
    """(a, p): up to 20 x 20 or 1-D, entries negative or past p, often
    sparse or of low rank, on both sides of ``SMALL_RREF_ENTRIES``."""
    p = draw(st.sampled_from([2, 3, 7, 1009]))
    entries = st.integers(-2 * p, 2 * p)
    if draw(st.booleans()):
        return draw(arrays(np.int64, st.integers(0, 30), elements=entries)), p
    r, c = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    if r and c and draw(st.booleans()):
        # rank at most k: a product of r x k and k x c factors
        k = draw(st.integers(0, min(r, c)))
        left = draw(arrays(np.int64, (r, k), elements=entries))
        return left @ draw(arrays(np.int64, (k, c), elements=entries)), p
    a = draw(arrays(np.int64, (r, c), elements=entries))
    return a * draw(arrays(np.bool_, (r, c))), p


def rref_by_kernel(a, p: int):
    """``rref`` forced through the numpy kernel, then the Python-int one."""
    out = []
    for limit in (0, a.size):
        before = a.copy()
        with mock.patch.object(linalg, "SMALL_RREF_ENTRIES", limit):
            out.append(linalg.rref(a, p))
        assert np.array_equal(a, before), "rref wrote into its input"
    return out


@settings(max_examples=200, deadline=None)
@given(rref_inputs())
@example((np.zeros((0, 3), dtype=np.int64), 7))
@example((np.zeros((3, 0), dtype=np.int64), 7))
@example((np.array([[7]]), 7))
@example((np.array([[-1]]), 7))
@example((np.array([3, 0, -4]), 7))
@example((np.ones((12, 12), dtype=np.int64), 1009))   # at the crossover
@example((np.ones((13, 12), dtype=np.int64), 1009))   # just past it
def test_rref_kernels_agree(case):
    a, p = case
    (r1, piv1), (r2, piv2) = rref_by_kernel(a, p)
    assert np.array_equal(r1, r2) and piv1 == piv2
    assert r1.dtype == r2.dtype == np.int64
    r, piv = linalg.rref(a, p)
    assert np.array_equal(r, r1) and piv == piv1
    m = linalg.modmat(a, p)
    assert r.shape == m.shape and r is not a
    # R is the reduced row echelon form of a: unit pivot columns, zeros
    # left of each pivot and below the rank, and the same row space
    rank = len(piv)
    assert piv == sorted(set(piv))
    for i, c in enumerate(piv):
        assert not np.any(r[i, :c])
        assert np.array_equal(r[:, c], np.eye(r.shape[0], dtype=np.int64)[i])
    assert not np.any(r[rank:])
    if m.size:
        assert linalg.rank(np.concatenate([r[:rank], m]), p) == rank
        assert not np.any(m @ linalg.null_space(r, p) % p)


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

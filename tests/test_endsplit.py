"""Primitive idempotents through structure-constant tables."""
import itertools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltlab import endsplit
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.endsplit import factor_squarefree, primitive_idempotents
from tiltlab.errors import Mismatch
from tiltlab.repcat import (decompose, direct_sum, end_algebra_mats,
                            injective, projective, simple)

from run_optimized import run_optimized

ALGEBRAS = {"A3": linear_an(3), "Nak3": nakayama_rad_square_zero(3)}
BRICKS = {"P": projective, "S": simple, "I": injective}


def squarefree_check_raises() -> str:
    """Message of the Mismatch for the square (t - 1)^2."""
    p = 1009
    try:
        factor_squarefree([1, p - 2, 1], p)
    except Mismatch as exc:
        return str(exc)
    raise AssertionError("a square factor raised no Mismatch")


def test_squarefree_check_survives_optimize():
    assert "not squarefree" in squarefree_check_raises()
    run_optimized("test_endsplit", "squarefree_check_raises")


def test_idempotents_of_p1_s1_s1_are_frozen():
    # frozen from the coordinate-algebra implementation: the random draws
    # and the corner bases fix these exact matrices
    alg = linear_an(2)
    m = direct_sum([projective(alg, 0), simple(alg, 0), simple(alg, 0)], alg)
    idems = primitive_idempotents(end_algebra_mats(m), alg.p,
                                  np.random.default_rng(3))
    assert [e.tolist() for e in idems] == [
        [[0, 0, 0, 0], [0, 330, 470, 0], [0, 778, 680, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 680, 539, 0], [0, 231, 330, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
    ]


def test_products_solve_nothing():
    # M_2(F_p) on the matrix units E_11, E_12, E_21, E_22
    p = 1009
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        if j == k:
            table[2 * i + j, 2 * k + l, 2 * i + l] = 1
    alg = endsplit._Corner(table, np.eye(4, dtype=np.int64),
                           np.array([1, 0, 0, 1]), p)
    a, b = np.array([1, 2, 3, 4]), np.array([5, 6, 7, 1005])
    with mock.patch.object(endsplit, "solve_right",
                           side_effect=AssertionError("a product solved")):
        prod = alg.mult(a, b)
    assert np.array_equal(prod.reshape(2, 2),
                          a.reshape(2, 2) @ b.reshape(2, 2) % p)
    assert np.array_equal(alg.unit, [1, 0, 0, 1])
    assert not alg.is_commutative()


def test_matrix_block_draws_do_not_crash():
    # over F_5 a random element of End(S_1 + S_1) = M_2 often has a
    # repeated eigenvalue, hence a minimal polynomial with a square factor
    alg = linear_an(2, p=5)
    m = direct_sum([simple(alg, 0), simple(alg, 0)], alg)
    for seed in range(40):
        assert [(r.dims, k) for r, k in decompose(m, seed=seed)] == \
            [((1, 0), 2)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)),
       st.lists(st.tuples(st.sampled_from(sorted(BRICKS)), st.integers(0, 2)),
                min_size=2, max_size=5),
       st.integers(0, 2**32 - 1))
# this draw meets a square factor in the M_3 block of I_3 + I_3 + I_3
@example("A3", [("I", 0), ("I", 1), ("I", 2), ("I", 2), ("I", 2)], 951622274)
def test_sums_of_bricks_split_into_their_summands(name, picks, seed):
    alg = ALGEBRAS[name]
    parts = [BRICKS[kind](alg, v) for kind, v in picks]
    m = direct_sum(parts, alg)
    n = m.total_dim
    idems = primitive_idempotents(end_algebra_mats(m), alg.p,
                                  np.random.default_rng(seed))
    assert len(idems) == len(parts)
    total = np.zeros((n, n), dtype=np.int64)
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            want = e if i == j else np.zeros_like(e)
            assert np.array_equal(e @ f % alg.p, want)
        total = (total + e) % alg.p
    assert np.array_equal(total, np.eye(n, dtype=np.int64))
    got = sorted(r.dims for r, k in decompose(m, seed=seed) for _ in range(k))
    assert got == sorted(r.dims for r in parts)

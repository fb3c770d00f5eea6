"""Primitive idempotents through structure-constant tables."""
import itertools
from unittest import mock

import numpy as np
import pytest
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


# -- factoring oracles ---------------------------------------------------

def monic_polynomials(p, max_deg):
    """Every monic polynomial of degree 1..max_deg, lowest degree first."""
    for deg in range(1, max_deg + 1):
        for low in itertools.product(range(p), repeat=deg):
            yield [*low, 1]


def multiply(factors, p):
    out = [1]
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
        out = prod
    return out


def remainder(f, g, p):
    """f mod g for a monic g, by schoolbook division."""
    f = list(f)
    while len(f) >= len(g):
        c, shift = f[-1], len(f) - len(g)
        f = [(a - c * g[i - shift]) % p if i >= shift else a
             for i, a in enumerate(f)][:-1]
    return f


def is_irreducible(g, p):
    """No monic polynomial of degree 1..deg(g)/2 divides g."""
    return all(any(remainder(g, h, p))
               for h in monic_polynomials(p, (len(g) - 1) // 2))


def factor_or_square(f, p):
    try:
        return factor_squarefree(f, p)
    except Mismatch:
        return "square"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factors_multiply_back_and_are_irreducible(p):
    squares = 0
    for f in monic_polynomials(p, 4):
        factors = factor_or_square(f, p)
        if factors == "square":
            squares += 1
            continue
        assert factors == sorted(factors)
        assert len({tuple(g) for g in factors}) == len(factors)
        assert all(g[-1] == 1 and is_irreducible(g, p) for g in factors)
        assert multiply(factors, p) == f
    # monic squarefree polynomials of degree k number p^k - p^(k-1), k >= 2
    assert squares == sum(p ** (k - 1) for k in range(2, 5))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factors_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for f in monic_polynomials(p, 4):
        _, factors = sympy.Poly(f[::-1], t, modulus=p).factor_list()
        if any(mult > 1 for _, mult in factors):
            want = "square"
        else:
            want = sorted([int(c) % p for c in fac.all_coeffs()[::-1]]
                          for fac, _ in factors)
        assert factor_or_square(f, p) == want, f


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1009, 2_097_143]),
       st.lists(st.integers(0, 2_097_142), min_size=1, max_size=7))
def test_large_field_factors_match_sympy(p, low):
    # the splitting exponents (p^d - 1) / 2 grow with p and the degree
    sympy = pytest.importorskip("sympy")
    f = [c % p for c in low] + [1]
    _, factors = sympy.Poly(f[::-1], sympy.symbols("t"),
                            modulus=p).factor_list()
    if any(mult > 1 for _, mult in factors):
        assert factor_or_square(f, p) == "square"
    else:
        assert factor_squarefree(f, p) == sorted(
            [int(c) % p for c in fac.all_coeffs()[::-1]] for fac, _ in factors)


def test_factoring_refuses_p_2():
    # a corner of dimension >= 2 needs p > 2, so p = 2 never reaches here
    with pytest.raises(ValueError, match="odd p"):
        factor_squarefree([1, 1, 1], 2)

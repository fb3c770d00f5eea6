import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.algebra import build_algebra, isprime
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.errors import NotAdmissible, SpecError
from tiltlab.homotopy import amul

from oracles import reference_product


def test_ka2_path_basis():
    alg = linear_an(2)
    # e_1, e_2 and the single arrow path
    assert alg.dim == 3
    # dim Hom(P(i), P(j)) = dim e_i A e_j = #paths j -> i
    assert len(alg.path_indices(1 - 1, 2 - 1)) == 1  # Hom(P(2), P(1))
    assert len(alg.path_indices(2 - 1, 1 - 1)) == 0


def test_ka3_dimension():
    alg = linear_an(3)
    # 3 lazy paths, arrows 1->2, 2->3, and the length-two path
    assert alg.dim == 6


def test_nakayama_kills_long_path():
    alg = nakayama_rad_square_zero(3)
    assert alg.dim == 5
    lengths = sorted(len(w) for w in alg.paths)
    assert lengths == [0, 0, 0, 1, 1]


def product_index(alg, a, b):
    """paths[a] * paths[b] through ``mult_coeffs`` on basis vectors, or None."""
    x, y = np.zeros((2, alg.dim), dtype=np.int64)
    x[a] = y[b] = 1
    nz = np.flatnonzero(alg.mult_coeffs(x, y))
    assert len(nz) <= 1
    return int(nz[0]) if len(nz) else None


def test_mult_composes_walks():
    alg = linear_an(3)
    a1 = alg.reduce_walk((0,))   # arrow 1->2
    a2 = alg.reduce_walk((1,))   # arrow 2->3
    prod = product_index(alg, a2, a1)  # traverse a1 then a2
    assert alg.paths[prod] == (0, 1)
    assert product_index(alg, a1, a2) is None  # endpoints do not match
    t = np.flatnonzero((alg.mult_a == a2) & (alg.mult_b == a1))
    assert len(t) == 1 and alg.mult_c[t[0]] == prod
    assert not np.any((alg.mult_a == a1) & (alg.mult_b == a2))


def test_mult_respects_relations():
    alg = nakayama_rad_square_zero(3)
    a1 = alg.reduce_walk((0,))
    a2 = alg.reduce_walk((1,))
    assert product_index(alg, a2, a1) is None  # killed by the relation
    assert not np.any((alg.mult_a == a2) & (alg.mult_b == a1))


def test_units_are_idempotent():
    alg = linear_an(2)
    for v in range(2):
        e = alg.unit_coeffs(v)
        assert np.array_equal(alg.mult_coeffs(e, e), e)


def test_loop_without_relation_not_admissible():
    with pytest.raises(NotAdmissible):
        build_algebra(1, [(1, 1, 1)], [])


def test_loop_with_relation_admissible():
    alg = build_algebra(1, [(1, 1, 1)], [[1, 1]])
    assert alg.dim == 2  # e and the loop


def test_relation_must_be_composable():
    with pytest.raises(SpecError):
        build_algebra(3, [(1, 1, 2), (2, 1, 3)], [[1, 2]])


def test_relation_in_rad_square():
    with pytest.raises(SpecError):
        build_algebra(2, [(1, 1, 2)], [[1]])


@pytest.mark.parametrize("p", [1, 4, 1000])
def test_non_prime_p_rejected(p):
    with pytest.raises(SpecError, match=f"p = {p} is not prime"):
        build_algebra(2, [(1, 1, 2)], p=p)


def test_isprime_matches_a_sieve():
    n = 5000
    sieve = [False, False] + [True] * (n - 2)
    for k in range(2, n):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(sieve[k * k::k])
    assert [isprime(k) for k in range(n)] == sieve


def test_largest_prime_below_the_int64_bound_accepted():
    assert build_algebra(2, [(1, 1, 2)], p=2_097_143).p == 2_097_143


@pytest.mark.parametrize("p", [2_097_169, 4_294_967_311])
def test_primes_past_the_int64_bound_rejected(p):
    with pytest.raises(SpecError, match="below 2\\^21 = 2,097,152"):
        build_algebra(2, [(1, 1, 2)], p=p)


def test_hereditary_detection():
    assert linear_an(3).is_hereditary()
    assert not nakayama_rad_square_zero(3).is_hereditary()


@st.composite
def monomial_algebras(draw, hereditary=False):
    """Acyclic quivers on 2-4 vertices with random relations in rad^2.

    With ``hereditary`` the quiver carries no relations (path algebras,
    multiple arrows such as the Kronecker quiver included).
    """
    n = draw(st.integers(2, 4))
    arrows = []
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            for _ in range(draw(st.integers(0, 2))):
                arrows.append((len(arrows) + 1, s, t))
    walks = [[a[0], b[0]] for a in arrows for b in arrows if a[2] == b[1]]
    walks += [w + [c[0]] for w in walks for c in arrows
              if c[1] == arrows[w[-1] - 1][2]]
    relations = draw(st.lists(st.sampled_from(walks), unique_by=tuple,
                              max_size=4)) if walks and not hereditary else []
    return build_algebra(n, arrows, relations)


@settings(max_examples=40, deadline=None)
@given(monomial_algebras(), st.lists(st.integers(0, 3), min_size=3,
                                     max_size=3), st.integers(0, 2**32 - 1))
def test_product_table_matches_dense_reference(alg, shape, seed):
    d, p = alg.dim, alg.p
    dense = np.zeros((d, d, d), dtype=np.int64)
    want = []
    for a in range(d):
        for b in range(d):
            c = reference_product(alg, a, b)
            assert product_index(alg, a, b) == c
            if c is not None:
                dense[a, b, c] = 1
                want.append((c, a, b))
    # one triple per nonzero product, sorted by (c, a, b), and each c's run
    # of triples starts at _mult_starts[c]
    want.sort()
    assert list(zip(alg.mult_c.tolist(), alg.mult_a.tolist(),
                    alg.mult_b.tolist())) == want
    assert alg._mult_starts.tolist() == [
        next(t for t, w in enumerate(want) if w[0] == c) for c in range(d)]
    for s in range(alg.n):
        for t in range(alg.n):
            assert list(alg.path_indices(s, t)) == [
                i for i in range(d)
                if alg.path_src[i] == s and alg.path_tgt[i] == t]
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, p, (2, d))
    assert np.array_equal(alg.mult_coeffs(x, y),
                          np.einsum("a,b,abc->c", x, y, dense) % p)
    r, k, c = shape
    second = rng.integers(0, p, (r, k, d))
    first = rng.integers(0, p, (k, c, d))
    assert np.array_equal(amul(alg, second, first),
                          np.einsum("kca,rkb,abe->rce", first, second,
                                    dense) % p)


def test_a20_tables_stay_small():
    alg = linear_an(20)
    assert alg.dim == 210
    assert sum(v.nbytes for v in vars(alg).values()
               if isinstance(v, np.ndarray)) < 8 * 2**20

import numpy as np
import pytest

from tiltlab.algebra import build_algebra
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.errors import NotAdmissible, SpecError


def test_ka2_path_basis():
    alg = linear_an(2)
    # e_1, e_2 and the single arrow path
    assert alg.dim == 3
    assert alg.hom_proj_dim(2 - 1, 1 - 1) == 1  # dim Hom(P(2), P(1)) = 1
    assert alg.hom_proj_dim(1 - 1, 2 - 1) == 0


def test_ka3_dimension():
    alg = linear_an(3)
    # 3 lazy paths, arrows 1->2, 2->3, and the length-two path
    assert alg.dim == 6


def test_nakayama_kills_long_path():
    alg = nakayama_rad_square_zero(3)
    assert alg.dim == 5
    lengths = sorted(len(w) for w in alg.paths)
    assert lengths == [0, 0, 0, 1, 1]


def test_mult_composes_walks():
    alg = linear_an(3)
    a1 = alg.reduce_walk((0,))   # arrow 1->2
    a2 = alg.reduce_walk((1,))   # arrow 2->3
    prod = alg.mult_index(a2, a1)  # traverse a1 then a2
    assert alg.paths[prod] == (0, 1)
    assert alg.mult_index(a1, a2) is None  # endpoints do not match


def test_mult_respects_relations():
    alg = nakayama_rad_square_zero(3)
    a1 = alg.reduce_walk((0,))
    a2 = alg.reduce_walk((1,))
    assert alg.mult_index(a2, a1) is None  # killed by the relation


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


def test_hereditary_detection():
    assert linear_an(3).is_hereditary()
    assert not nakayama_rad_square_zero(3).is_hereditary()

import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import linalg, repcat
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.algebra import build_algebra
from tiltlab.cli import main
from tiltlab.endsplit import trace_radical
from tiltlab.errors import FieldTooSmall
from tiltlab.homotopy import ProjComplex, proj_stalk
from tiltlab.linalg import inv, is_invertible, null_space, rank, rref
from tiltlab.repcat import (ModuleMap, ProjSum, Representation,
                            alg_matrix_of_map, certify_isomorphic, cokernel,
                            decompose, direct_sum, end_algebra_mats, ext_dim,
                            hom_basis, hom_dim, hom_space_matrix, image,
                            in_add, injective, is_isomorphic, kernel,
                            map_of_alg_matrix, minimal_resolution, module_iso,
                            projective, projective_cover,
                            quotient_by_subspaces, radical_subspaces, simple,
                            zero_map, zero_rep)
from tiltlab.repcomplex import stalk_complex
from tiltlab.silting import enumerate_silting, euler_form

from oracles import euler_form as oracle_euler_form
from oracles import (kron_hom_space_matrix, oracle_ext1_hereditary,
                     oracle_hom_dim, reference_map_of_alg_matrix)
from test_algebra import monomial_algebras


@pytest.fixture(scope="module")
def ka2():
    return linear_an(2)


@pytest.fixture(scope="module")
def ka3():
    return linear_an(3)


@pytest.fixture(scope="module")
def nak():
    return nakayama_rad_square_zero(3)


def test_projective_dims(ka2, nak):
    assert projective(ka2, 0).dims == (1, 1)
    assert projective(ka2, 1).dims == (0, 1)
    assert projective(nak, 0).dims == (1, 1, 0)
    assert projective(nak, 1).dims == (0, 1, 1)
    assert projective(nak, 2).dims == (0, 0, 1)
    for alg in (ka2, nak):
        for v in range(alg.n):
            projective(alg, v).validate()


def test_injective_dims(ka2, nak):
    assert injective(ka2, 0).dims == (1, 0)
    assert injective(ka2, 1).dims == (1, 1)
    # over the rad-square-zero algebra J(2) = P(1) and J(3) = P(2)
    assert injective(nak, 1).dims == (1, 1, 0)
    assert injective(nak, 2).dims == (0, 1, 1)
    for v in range(nak.n):
        injective(nak, v).validate()


def test_hom_frozen_values_ka2(ka2):
    p1, p2, s1 = projective(ka2, 0), projective(ka2, 1), simple(ka2, 0)
    expected = {
        ("p1", "p1"): 1, ("p1", "p2"): 0, ("p1", "s1"): 1,
        ("p2", "p1"): 1, ("p2", "p2"): 1, ("p2", "s1"): 0,
        ("s1", "p1"): 0, ("s1", "p2"): 0, ("s1", "s1"): 1,
    }
    mods = {"p1": p1, "p2": p2, "s1": s1}
    for (a, b), want in expected.items():
        assert hom_dim(mods[a], mods[b]) == want
        assert len(hom_basis(mods[a], mods[b])) == want
        assert oracle_hom_dim(mods[a], mods[b], ka2.p) == want


def test_hom_maps_are_module_maps(ka3):
    p1, p3 = projective(ka3, 0), projective(ka3, 2)
    for f in hom_basis(p3, p1):
        f.validate()


def test_kernel_cokernel_image(ka2):
    p1, s1 = projective(ka2, 0), simple(ka2, 0)
    # the canonical projection P(1) ->> S(1)
    fs = hom_basis(p1, s1)
    assert len(fs) == 1
    f = fs[0]
    ker, incl = kernel(f)
    assert ker.dims == (0, 1)  # radical of P(1) is S(2)
    incl.validate()
    img, _ = image(f)
    assert img.dims == (1, 0)
    cok, pi = cokernel(f)
    assert cok.is_zero()
    pi.validate()


def test_top_and_cover(ka2):
    p1 = projective(ka2, 0)
    psum, _ = projective_cover(p1)
    assert list(psum.mults) == [1, 0]   # top P(1) = S(1)
    psum, cover = projective_cover(simple(ka2, 0))
    assert list(psum.mults) == [1, 0]
    cover.validate()
    ker, _ = kernel(cover)
    assert ker.dims == (0, 1)


def test_minimal_resolution_ka2(ka2):
    sums, diffs = minimal_resolution(simple(ka2, 0), 5)
    assert [list(s.mults) for s in sums] == [[1, 0], [0, 1]]
    assert len(diffs) == 1


def test_minimal_resolution_nakayama(nak):
    # 0 -> P(3) -> P(2) -> P(1) -> S(1) -> 0
    sums, _ = minimal_resolution(simple(nak, 0), 5)
    assert [list(s.mults) for s in sums] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_ext_frozen_values(ka2, nak):
    s1, s2 = simple(ka2, 0), simple(ka2, 1)
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim(s1, s1, 1) == 0
    assert ext_dim(s2, s1, 1) == 0
    assert ext_dim(s1, s2, 2) == 0
    assert ext_dim(s1, s2, 0) == hom_dim(s1, s2) == 0
    n1, n3 = simple(nak, 0), simple(nak, 2)
    assert ext_dim(n1, n3, 2) == 1
    assert ext_dim(n1, n3, 1) == 0


def test_ext_matches_euler_oracle(ka3):
    mods = [projective(ka3, v) for v in range(3)] + [simple(ka3, v) for v in range(3)]
    for m in mods:
        for n in mods:
            assert ext_dim(m, n, 1) == oracle_ext1_hereditary(m, n, ka3.p)


@settings(max_examples=40, deadline=None)
@given(monomial_algebras(hereditary=True), st.data())
def test_hereditary_ext_matches_euler_form(alg, data):
    # Ext^1 = Hom - <dim M, dim N> and Ext^2 = 0 over a path algebra
    def module():
        kind = data.draw(st.sampled_from(["random", projective, injective,
                                          simple]))
        if kind != "random":
            return kind(alg, data.draw(st.integers(0, alg.n - 1)))
        dims = data.draw(st.lists(st.integers(0, 2), min_size=alg.n,
                                  max_size=alg.n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        return Representation(alg, dims, [
            rng.integers(0, alg.p, (dims[a.tgt], dims[a.src]))
            for a in alg.quiver.arrows])
    m, n = module(), module()
    assert ext_dim(m, n, 1) == oracle_ext1_hereditary(m, n, alg.p)
    assert ext_dim(m, n, 2) == 0
    # the quadratic form that picks rigid_indecomposables' dimensions
    assert euler_form(alg, m.dims) == oracle_euler_form(alg, m.dims, m.dims)


def test_decompose_direct_sum(ka2):
    p1, s1 = projective(ka2, 0), simple(ka2, 0)
    big = direct_sum([p1, s1, s1])
    parts = decompose(big, seed=3)
    assert sorted((r.dims, mult) for r, mult in parts) == [((1, 0), 2), ((1, 1), 1)]


def test_decompose_indecomposable(ka3):
    for v in range(3):
        assert repcat.is_indecomposable(projective(ka3, v))


def test_module_iso_and_non_iso(ka2):
    p1 = projective(ka2, 0)
    w = module_iso(p1, projective(ka2, 0))
    assert w is not None and w.is_iso()
    assert module_iso(simple(ka2, 0), simple(ka2, 1)) is None


def test_is_isomorphic_matches_summands(ka2):
    s1, s2, p1 = simple(ka2, 0), simple(ka2, 1), projective(ka2, 0)
    assert is_isomorphic(direct_sum([s1, s2]), direct_sum([s2, s1]))
    assert is_isomorphic(direct_sum([p1, s2]), direct_sum([s2, p1]))
    # equal dimension vectors (1, 1), different summands
    assert not is_isomorphic(direct_sum([s1, s2]), p1)
    assert not is_isomorphic(s1, s2)


def twisted(m, rng):
    """M with every vertex space given a random new basis."""
    p = m.alg.p
    ts = []
    for d in m.dims:
        t = rng.integers(0, p, (d, d))
        while not is_invertible(t, p):
            t = rng.integers(0, p, (d, d))
        ts.append(t)
    return Representation(m.alg, m.dims, [
        ts[a.tgt] @ mat @ inv(ts[a.src], p) % p if mat.size else mat
        for a, mat in zip(m.alg.quiver.arrows, m.mats)])



@settings(max_examples=25, deadline=None)
@given(st.one_of(st.just(linear_an(3)), st.just(nakayama_rad_square_zero(3)),
                 monomial_algebras()),
       st.integers(0, 2**32 - 1))
def test_module_iso_finds_a_random_automorphism(alg, seed):
    # for indecomposable M, a basis of Hom(M, N) holds an isomorphism when
    # M and N are isomorphic; N is M with random new vertex bases
    rng = np.random.default_rng(seed)
    dims = rng.integers(0, 3, alg.n)
    draw = Representation(alg, dims, [
        rng.integers(0, alg.p, (dims[a.tgt], dims[a.src]))
        for a in alg.quiver.arrows])
    parts = [f(alg, v) for f in (projective, injective, simple)
             for v in range(alg.n)]
    if draw.broken_relation() is None:
        parts += [c for c, _mult in decompose(draw)]
    for m in parts:
        n = twisted(m, rng)
        f = module_iso(m, n)
        assert f is not None and f.src is m and f.tgt is n and f.is_iso()
        f.validate()


def kronecker_module(alg, lam):
    """The (1, 1) Kronecker module with arrows 1 and lam (None: 0 and 1)."""
    a, b = (0, 1) if lam is None else (1, lam)
    return Representation(alg, [1, 1], [np.array([[a]]), np.array([[b]])])


def test_module_iso_separates_kronecker_modules():
    # the (1, 1) modules of the Kronecker quiver are indecomposable with
    # equal dimension vectors, and pairwise non-isomorphic
    alg = build_algebra(2, [(1, 1, 2), (2, 1, 2)], [])
    rng = np.random.default_rng(0)
    lams = [0, 1, 2, alg.p - 1, None]
    mods = [kronecker_module(alg, lam) for lam in lams]
    for i, m in enumerate(mods):
        assert repcat.is_indecomposable(m)
        f = module_iso(m, twisted(m, rng))
        assert f is not None and f.is_iso()
        for j, n in enumerate(mods):
            assert (module_iso(m, n) is not None) == (i == j)

@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(linear_an(3)), st.just(nakayama_rad_square_zero(3)),
                 monomial_algebras()),
       st.data(), st.integers(0, 2**32 - 1))
def test_in_add_true_means_every_summand_is_a_part(alg, data, seed):
    rng = np.random.default_rng(seed)
    pool = [f(alg, v) for f in (projective, injective, simple)
            for v in range(alg.n)]
    dims = rng.integers(0, 3, alg.n)
    draw = Representation(alg, dims, [
        rng.integers(0, alg.p, (dims[a.tgt], dims[a.src]))
        for a in alg.quiver.arrows])
    is_module = draw.broken_relation() is None
    if is_module:
        pool += [c for c, _mult in decompose(draw)]
    index = st.integers(0, len(pool) - 1)
    if is_module and data.draw(st.booleans()):
        m = draw
    else:
        m = twisted(direct_sum([pool[i] for i in data.draw(
            st.lists(index, min_size=1, max_size=4))]), rng)
    parts = [pool[i] for i in data.draw(st.lists(index, max_size=4))]
    if in_add(m, parts, rng):
        for c, _mult in decompose(m):
            assert any(module_iso(c, x) is not None for x in parts)


def test_in_add_finds_a_sum_of_parts(ka3):
    p1, s2 = projective(ka3, 0), simple(ka3, 1)
    m = twisted(direct_sum([p1, s2, s2]), np.random.default_rng(1))
    assert in_add(m, [p1, s2], np.random.default_rng(0))
    # parts that are not summands, too large to fit in M or not, do no harm
    assert in_add(m, [projective(ka3, 1), direct_sum([p1, p1]), p1, s2],
                  np.random.default_rng(0))


def test_in_add_rejects_a_missing_summand(ka3):
    p1, s2, s3 = projective(ka3, 0), simple(ka3, 1), simple(ka3, 2)
    m = direct_sum([p1, s2, s3])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assert not in_add(twisted(m, rng), [p1, s2], rng)
    assert not in_add(s3, [], np.random.default_rng(0))
    assert in_add(zero_rep(ka3), [], np.random.default_rng(0))


def reference_in_add(m, parts, rng):
    """The certificate as a loop over hom basis maps: (answer, s)."""
    p = m.alg.p
    s = [np.zeros((d, d), dtype=np.int64) for d in m.dims]
    for x in parts:
        if any(a > b for a, b in zip(x.dims, m.dims)):
            continue
        fs = hom_basis(x, m)
        gs = hom_basis(m, x) if fs else []
        if not gs:
            continue
        for f in fs:
            coeffs = [int(c) for c in rng.integers(0, p, size=len(gs))]
            for v, sv in enumerate(s):
                g = sum(c * h.vmaps[v] for c, h in zip(coeffs, gs)) % p
                s[v] = (sv + f.vmaps[v] @ g) % p
    return ModuleMap(m, m, s).is_iso(), s


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(linear_an(3)), st.just(nakayama_rad_square_zero(3)),
                 monomial_algebras()),
       st.data(), st.integers(0, 2**32 - 1))
def test_in_add_matches_the_per_map_loop(alg, data, seed):
    rng = np.random.default_rng(seed)
    pool = [f(alg, v) for f in (projective, injective, simple)
            for v in range(alg.n)]
    index = st.integers(0, len(pool) - 1)
    dims = rng.integers(0, 3, alg.n)
    m = Representation(alg, dims, [
        rng.integers(0, alg.p, (dims[a.tgt], dims[a.src]))
        for a in alg.quiver.arrows])
    if m.broken_relation() is not None or data.draw(st.booleans()):
        m = twisted(direct_sum([pool[i] for i in data.draw(
            st.lists(index, min_size=1, max_size=4))]), rng)
    parts = [pool[i] for i in data.draw(st.lists(index, max_size=4))]
    draws = data.draw(st.integers(0, 2**32 - 1))
    ref_rng, rng_s, rng_answer = (np.random.default_rng(draws)
                                  for _ in range(3))
    want, want_s = reference_in_add(m, parts, ref_rng)
    s = repcat._add_endomorphism(m, parts, rng_s)
    assert in_add(m, parts, rng_answer) == want
    assert all(np.array_equal(a, b) for a, b in zip(s, want_s))
    # the same draws: the generator is left where the loop leaves it
    assert rng_s.bit_generator.state == ref_rng.bit_generator.state
    assert rng_answer.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("p", [2, 1009, 2_097_143])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7)])
def test_one_2d_draw_is_the_row_by_row_draws(p, shape):
    # in_add draws all its coefficients for one part at once; that must be
    # the stream of one draw per hom basis map, or its answers change
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = [b.integers(0, p, size=shape[1]) for _ in range(shape[0])]
        assert np.array_equal(a.integers(0, p, size=shape), np.stack(rows))
        assert a.bit_generator.state == b.bit_generator.state


def hom_test_algebras():
    """A_3, Nak_3, random monomial algebras, and quivers with no arrow or
    with an oriented cycle (a loop, a 2-cycle), so u == w blocks occur."""
    return st.one_of(
        st.just(linear_an(3)), st.just(nakayama_rad_square_zero(3)),
        monomial_algebras(), st.just(build_algebra(2, [])),
        st.just(build_algebra(1, [(1, 1, 1)], [[1, 1]])),
        st.just(build_algebra(2, [(1, 1, 2), (2, 2, 1)], [[1, 2], [2, 1]])))


@settings(max_examples=60, deadline=None)
@given(hom_test_algebras(), st.data())
def test_hom_space_matrix_matches_the_kronecker_formula(alg, data):
    def module():
        if data.draw(st.booleans()):
            kind = data.draw(st.sampled_from([projective, injective, simple]))
            return kind(alg, data.draw(st.integers(0, alg.n - 1)))
        # any representation, zero-dimensional vertices included: the
        # system is defined whether or not the relations hold
        dims = data.draw(st.lists(st.integers(0, 2), min_size=alg.n,
                                  max_size=alg.n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        return Representation(alg, dims, [
            rng.integers(0, alg.p, (dims[a.tgt], dims[a.src]))
            for a in alg.quiver.arrows])
    m, n = module(), module()
    got = hom_space_matrix(m, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, kron_hom_space_matrix(m, n, alg.p))
    if alg.is_hereditary():
        hom = null_space(got, alg.p).shape[1]
        assert hom - ext_dim(m, n, 1) == oracle_euler_form(alg, m.dims,
                                                           n.dims)


def test_trace_radical_of_end_a2(ka2):
    # End(P1 + P2) is the upper triangular 2x2 algebra: radical of dim 1
    ends = end_algebra_mats(direct_sum([projective(ka2, 0),
                                        projective(ka2, 1)]))
    assert len(ends) == 3
    assert trace_radical(ends, ka2.p).shape[1] == 1
    with pytest.raises(FieldTooSmall, match="p = 3 must exceed dim End = 3"):
        trace_radical(ends, 3)


def test_decompose_twisted_sum(ka2):
    # any rep with dims (2,2) and invertible arrow matrix is P(1)^2 in disguise
    twisted = repcat.Representation(ka2, (2, 2), [np.array([[1, 1], [6, 2]])])
    parts = decompose(twisted, seed=1)
    assert [(r.dims, mult) for r, mult in parts] == [((1, 1), 2)]


def test_zero_map_validates(ka2):
    zero_map(projective(ka2, 0), simple(ka2, 0)).validate()


def test_zero_rep_is_shared(ka2):
    z = zero_rep(ka2)
    assert z is zero_rep(ka2) and z.dims == (0, 0)
    c = stalk_complex(projective(ka2, 0), 0)
    assert c.term_at(-1) is z and c.term_at(1) is z
    assert direct_sum([], ka2) is z


@settings(max_examples=30, deadline=None)
@given(st.booleans(),
       st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_alg_matrix_round_trip(use_nak, src_vs, tgt_vs, seed):
    alg = nakayama_rad_square_zero(3) if use_nak else linear_an(3)
    src, tgt = ProjSum(alg, src_vs), ProjSum(alg, tgt_vs)
    basis = hom_basis(src.rep, tgt.rep)
    coeffs = np.random.default_rng(seed).integers(0, alg.p, size=len(basis))
    f = zero_map(src.rep, tgt.rep)
    for c, g in zip(coeffs, basis):
        f = f.add(g.scale(int(c)))
    back = map_of_alg_matrix(alg_matrix_of_map(f, src, tgt), src, tgt)
    for v in range(alg.n):
        assert np.array_equal(back.vmaps[v], f.vmaps[v])


@settings(max_examples=40, deadline=None)
@given(monomial_algebras(), st.data(), st.integers(0, 2**32 - 1))
def test_alg_matrix_expansion_matches_path_products(alg, data, seed):
    # mat[r, c] lives on the paths tgt[r] -> src[c], as a map's matrix does
    vertices = st.lists(st.integers(0, alg.n - 1), max_size=3)
    src, tgt = data.draw(vertices), data.draw(vertices)
    rng = np.random.default_rng(seed)
    mat = np.zeros((len(tgt), len(src), alg.dim), dtype=np.int64)
    for r, vr in enumerate(tgt):
        for c, v in enumerate(src):
            ends = list(alg.path_indices(vr, v))
            mat[r, c, ends] = rng.integers(0, alg.p, len(ends))
    f = map_of_alg_matrix(mat, ProjSum.of(alg, src), ProjSum.of(alg, tgt))
    want = reference_map_of_alg_matrix(alg, mat, src, tgt)
    for got, ref in zip(f.vmaps, want, strict=True):
        assert got.dtype == np.int64 and np.array_equal(got, ref)


@settings(max_examples=30, deadline=None)
@given(monomial_algebras(), st.data(), st.integers(0, 2**32 - 1))
def test_generator_coordinate_conversions(alg, data, seed):
    # parallel arrows give several paths v -> w, so blocks have length > 1
    vs = data.draw(st.lists(st.integers(0, alg.n - 1), min_size=1,
                            max_size=3))
    ps = ProjSum(alg, vs)
    rng = np.random.default_rng(seed)
    c = rng.integers(0, alg.p, (ps.count, alg.dim))
    for w in range(alg.n):
        back = ps.coeffs(ps.vector(c, w), w)
        for s, v in enumerate(vs):
            ends = list(alg.path_indices(v, w))
            assert np.array_equal(back[s, ends], c[s, ends])
            assert not np.any(np.delete(back[s], ends))
        vec = rng.integers(0, alg.p, ps.rep.dims[w])
        assert np.array_equal(ps.vector(ps.coeffs(vec, w), w), vec)
    # any generator images extend to a module map that takes them
    m = direct_sum([injective(alg, v) for v in range(alg.n)], alg)
    gens = [rng.integers(0, alg.p, m.dims[v]) for v in vs]
    f = ps.extend(m, gens)
    f.validate()
    for s, g in enumerate(gens):
        v, col = ps.gen_column(s)
        assert np.array_equal(f.vmaps[v][:, col], g)


def test_one_proj_sum_per_algebra_and_summand_list(tmp_path, monkeypatch):
    built = []
    real = ProjSum.__init__

    def counted(self, alg, summands):
        built.append((alg, tuple(summands)))   # keeps each algebra alive
        real(self, alg, summands)
    monkeypatch.setattr(ProjSum, "__init__", counted)
    spec = tmp_path / "a2.json"
    spec.write_text(json.dumps({"catalog": "linear_an", "n": 2, "d": 1}))
    assert main(["verify", "--spec", str(spec), "bijection",
                 "--out", str(tmp_path / "report.json")]) == 0
    keys = [(id(alg), vs) for alg, vs in built]
    assert built and len(keys) == len(set(keys))
    # equal summand lists in different complexes share one ProjSum
    a, b = linear_an(2), linear_an(2)
    x = ProjComplex(a, -1, [[1], [0, 1]], [np.zeros((2, 1, a.dim))])
    y = proj_stalk(a, 1).shift(1)
    assert x is not y and x.psum_at(-1) is y.psum_at(-1)
    assert x.psum_at(0) is ProjSum.of(a, [0, 1])
    assert ProjSum.of(b, [0, 1]) is not ProjSum.of(a, [0, 1])
    assert projective_cover(projective(a, 0))[0] is ProjSum.of(a, [0])


# -- covers, resolutions and path actions -----------------------------------

def random_module(alg, data):
    """A projective, an injective, or the image, kernel or cokernel of a
    random map from a sum of projectives into a sum of those."""
    pick = st.integers(0, alg.n - 1)
    kinds = st.sampled_from([projective, injective])
    base = direct_sum([data.draw(kinds)(alg, data.draw(pick))
                       for _ in range(data.draw(st.integers(1, 2)))])
    how = data.draw(st.sampled_from(["base", "image", "kernel", "cokernel"]))
    if how == "base":
        return base
    src = direct_sum([projective(alg, data.draw(pick))
                      for _ in range(data.draw(st.integers(1, 2)))])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = zero_map(src, base)
    for g in hom_basis(src, base):
        f = f.add(g.scale(int(rng.integers(0, alg.p))))
    return {"image": image, "kernel": kernel, "cokernel": cokernel}[how](f)[0]


@settings(max_examples=40, deadline=None)
@given(hom_test_algebras(), st.data(), st.integers(0, 2**32 - 1))
def test_rebased_copies_are_certified_isomorphic(alg, data, seed):
    m = random_module(alg, data)
    rng = np.random.default_rng(seed)
    n = twisted(m, rng)
    assert any(certify_isomorphic(m, n, rng) for _ in range(3))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(linear_an(3)), st.just(nakayama_rad_square_zero(3)),
                 monomial_algebras()),
       st.integers(0, 2**32 - 1))
def test_certified_draws_are_isomorphic(alg, seed):
    # two random draws of one dimension vector, as build_universe meets them
    rng = np.random.default_rng(seed)
    dims = rng.integers(0, 3, alg.n)
    m, n = (Representation(alg, dims, [
        rng.integers(0, alg.p, (dims[a.tgt], dims[a.src]))
        for a in alg.quiver.arrows]) for _ in range(2))
    if certify_isomorphic(m, n, rng):
        assert is_isomorphic(m, n)


def test_sum_of_simples_is_never_certified_as_the_projective(ka2):
    # P(0) and S(0) + S(1) share the dimension vector (1, 1), and every map
    # between them, either way, is zero at one vertex
    ss = direct_sum([simple(ka2, 0), simple(ka2, 1)])
    p0 = projective(ka2, 0)
    assert p0.dims == ss.dims == (1, 1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for m, n in ((ss, p0), (p0, ss), (twisted(ss, rng), p0),
                     (p0, twisted(ss, rng))):
            assert hom_dim(m, n) and not certify_isomorphic(m, n, rng)
    assert certify_isomorphic(p0, twisted(p0, rng), rng)
    assert not certify_isomorphic(p0, simple(ka2, 0), rng)


def cover_by_inverse(m):
    """Summands, generators and projections of the cover as the top quotient
    gave them: a per-vertex inverse of [b | e_free], b the canonical radical
    basis, and the generators the e_free columns."""
    p = m.alg.p
    summands, gens, projs = [], [], []
    for v, b in enumerate(radical_subspaces(m)):
        red, piv = rref(b.T, p)
        b = red[: len(piv)].T
        free = [c for c in range(m.dims[v]) if c not in piv]
        efree = np.zeros((m.dims[v], len(free)), dtype=np.int64)
        for k, fc in enumerate(free):
            efree[fc, k] = 1
        full = np.concatenate([b, efree], axis=1)
        projs.append(inv(full, p)[len(piv):] if full.size
                     else np.zeros((0, m.dims[v]), dtype=np.int64))
        summands += [v] * len(free)
        gens += [efree[:, k] for k in range(len(free))]
    return summands, gens, projs


@settings(max_examples=40, deadline=None)
@given(monomial_algebras(), st.data())
def test_cover_matches_the_inverse_built_top(alg, data):
    m = random_module(alg, data)
    summands, gens, projs = cover_by_inverse(m)
    psum, cover = projective_cover(m)
    assert psum.summands == summands
    cover.validate()
    for s, g in enumerate(gens):
        v, col = psum.gen_column(s)
        assert np.array_equal(cover.vmaps[v][:, col], g)
    for v in range(alg.n):
        assert rank(cover.vmaps[v], alg.p) == m.dims[v]
    # the inverse-free projection of quotient_by_subspaces is the same
    _, pi, _ = quotient_by_subspaces(m, radical_subspaces(m))
    for v in range(alg.n):
        assert np.array_equal(pi.vmaps[v], projs[v])


@settings(max_examples=40, deadline=None)
@given(monomial_algebras(), st.data(), st.integers(0, 2))
def test_resolution_is_a_prefix_of_a_deeper_one(alg, data, k):
    m = random_module(alg, data)
    sums, diffs = minimal_resolution(m, k)
    deep_sums, deep_diffs = minimal_resolution(m, k + 2)
    assert len(sums) == min(k + 1, len(deep_sums))
    assert len(diffs) == max(len(sums) - 1, 0)
    assert [s.summands for s in sums] == \
        [s.summands for s in deep_sums[: len(sums)]]
    for a, b in zip(diffs, deep_diffs):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(hom_test_algebras(), st.data())
def test_act_path_matches_the_walk(alg, data):
    mods = [projective(alg, v) for v in range(alg.n)] + \
        [injective(alg, v) for v in range(alg.n)] + [random_module(alg, data)]
    for m in mods:
        for b in range(alg.dim):
            got = m.act_path(b)
            assert np.array_equal(
                got, m.act_walk(alg.paths[b], int(alg.path_src[b])))
            assert m.act_path(b) is got


class CountingMatrix(np.ndarray):
    """An arrow matrix that counts the products it takes part in."""
    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)


def test_act_path_on_a_warm_memo_takes_no_product(monkeypatch):
    alg = build_algebra(2, [(1, 1, 2), (2, 2, 1)], [[1, 2, 1], [2, 1, 2]])
    m = direct_sum([projective(alg, 0), injective(alg, 1)])
    m = Representation(alg, m.dims, m.mats)   # a fresh memo table
    m.mats = [a.view(CountingMatrix) for a in m.mats]
    monkeypatch.setattr(CountingMatrix, "products", 0)
    cold = [m.act_path(b) for b in range(alg.dim)]
    # one product per path of positive length: each reuses its prefix
    assert CountingMatrix.products == sum(1 for w in alg.paths if w)
    monkeypatch.setattr(CountingMatrix, "products", 0)
    assert all(m.act_path(b) is c for b, c in enumerate(cold))
    assert CountingMatrix.products == 0


def test_resolution_builds_no_syzygy_past_its_depth(monkeypatch):
    # over the 2-cycle with rad^2 = 0 every simple has an infinite
    # resolution, so each requested degree takes one cover
    alg = build_algebra(2, [(1, 1, 2), (2, 2, 1)], [[1, 2], [2, 1]])
    calls = []
    real = repcat.kernel

    def counted(f):
        calls.append(f)
        return real(f)
    monkeypatch.setattr(repcat, "kernel", counted)
    for depth in range(4):
        calls.clear()
        sums, _ = minimal_resolution(simple(alg, 0), depth)
        assert len(sums) == depth + 1
        assert len(calls) == depth


def test_cover_takes_no_quotient_and_no_inverse(monkeypatch, ka3, nak):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover built a quotient or an inverse")
    assert all(obj is not linalg.inv for obj in vars(repcat).values())
    monkeypatch.setattr(repcat, "quotient_by_subspaces", refuse)
    monkeypatch.setattr(linalg, "inv", refuse)
    for alg in (ka3, nak):
        for v in range(alg.n):
            for m in (injective(alg, v), simple(alg, v), projective(alg, v)):
                psum, cover = projective_cover(m)
                cover.validate()


@contextlib.contextmanager
def constructor_inputs():
    """Record (p, array) for every matrix handed to a module constructor."""
    seen = []
    real_rep, real_map = Representation.__init__, ModuleMap.__init__

    def rep_init(self, alg, dims, mats):
        mats = list(mats)
        seen.extend((alg.p, m) for m in mats)
        real_rep(self, alg, dims, mats)

    def map_init(self, src, tgt, vmaps):
        vmaps = list(vmaps)
        seen.extend((src.alg.p, m) for m in vmaps)
        real_map(self, src, tgt, vmaps)

    with mock.patch.object(Representation, "__init__", rep_init), \
            mock.patch.object(ModuleMap, "__init__", map_init):
        yield seen


def assert_reduced(seen):
    """Every recorded input is an int64 array of residues in [0, p)."""
    assert seen
    for p, m in seen:
        assert isinstance(m, np.ndarray) and m.dtype == np.int64
        assert not m.size or (m.min() >= 0 and m.max() < p)


def test_constructors_get_reduced_arrays_in_bijection_and_enumeration(
        tmp_path):
    # the constructors keep their arrays as given, so every caller must
    # hand them int64 residues; checked over A_3 d=1 ``verify bijection``
    # and the Nak_3 d=2 enumeration
    spec = tmp_path / "ka3.json"
    spec.write_text(json.dumps({"catalog": "linear_an", "n": 3, "d": 1}))
    with constructor_inputs() as seen:
        assert main(["verify", "--spec", str(spec), "bijection",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert_reduced(seen)
    with constructor_inputs() as seen:
        assert enumerate_silting(nakayama_rad_square_zero(3), 2).count == 49
    assert_reduced(seen)


@settings(max_examples=15, deadline=None)
@given(monomial_algebras(), st.data())
def test_constructors_get_reduced_arrays_in_resolutions(alg, data):
    makes = st.sampled_from([projective, injective, simple])
    parts = data.draw(st.lists(st.tuples(makes, st.integers(0, alg.n - 1)),
                               min_size=1, max_size=2))
    m = direct_sum([make(alg, v) for make, v in parts], alg)
    with constructor_inputs() as seen:
        minimal_resolution(m, 3)
        cokernel(kernel(projective_cover(m)[1])[1])
    assert_reduced(seen)

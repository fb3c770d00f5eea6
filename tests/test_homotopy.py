"""Complexes of projectives: homs, minimization, decomposition, mutation."""
import contextlib
import functools
import gc
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltlab import homotopy, linalg, repcat
from tiltlab import memo as memo_module
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.heart import (generator_models, p_presentation,
                           resolution_of_module)
from tiltlab.homotopy import (
    ChainMap,
    HomPackage,
    ProjComplex,
    aidentity,
    chain_identity,
    decompose_complex,
    hom_differential,
    hom_k,
    hom_package,
    iso_k,
    is_minimal,
    k0_vector,
    left_approximation,
    left_mutation,
    minimize,
    proj_cone,
    proj_direct_sum,
    proj_stalk,
    right_approximation,
    right_mutation,
    _hom_operator,
    _layout,
)
from tiltlab.linalg import (column_space, in_span, null_space, rank, rref,
                            solve_right, span_union)
from tiltlab.memo import memo
from tiltlab.repcat import (direct_sum, ext_dim, hom_dim, injective,
                            minimal_resolution, projective, simple)
from tiltlab.repcomplex import (RepComplex, complex_cone, homology_at,
                                homology_dims, stalk_complex, truncate_above,
                                truncate_below)
from tiltlab.tiltcheck import _random_proj_3step

from run_optimized import run_optimized
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


def simple_presentation(alg, v):
    """The minimal projective presentation of S(v) as a ProjComplex."""
    sums, diffs = minimal_resolution(simple(alg, v), depth=alg.dim + 1)
    lo = -(len(sums) - 1)
    return ProjComplex(alg, lo, [s.summands for s in reversed(sums)],
                       list(reversed(diffs)))


def resolution_complex(alg, m, depth=8):
    sums, diffs = minimal_resolution(m, depth=depth)
    lo = -(len(sums) - 1)
    return ProjComplex(alg, lo, [s.summands for s in reversed(sums)],
                       list(reversed(diffs)))


# -- representation-level complexes ----------------------------------------

def test_homology_of_simple_resolution(ka2):
    x = simple_presentation(ka2, 0)
    x.validate()
    e = x.expansion()
    e.validate()
    assert homology_dims(e) == {0: (1, 0)}


def test_cone_shifts_homology(ka2):
    # cone over the inclusion P(1) -> P(0) computes S(0)
    x = simple_presentation(ka2, 0)
    e = x.expansion()
    assert homology_at(e, 0).dims == (1, 0)
    shifted = e.shift(2)
    shifted.validate()
    assert homology_dims(shifted) == {-2: (1, 0)}


def test_shift_is_built_once(ka2):
    x = simple_presentation(ka2, 0).expansion()
    assert x.shift(0) is x
    twice = x.shift(2)
    assert twice.lo == x.lo - 2
    for a, b in zip(twice.diffs, x.diffs):
        assert all(np.array_equal(u, w) for u, w in zip(a.vmaps, b.vmaps))


def test_truncations(nak):
    m = simple(nak, 0)
    x = resolution_complex(nak, m).expansion()
    # resolution of S(0) over the radical-square-zero algebra: length 2
    assert x.lo == -2
    assert homology_dims(x) == {0: (1, 0, 0)}
    above = truncate_above(x, -1)
    above.validate()
    assert homology_dims(above) == {}          # resolution exact below 0
    below = truncate_below(x, 0)
    below.validate()
    assert homology_dims(below) == {0: (1, 0, 0)}


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1))
def test_homology_dims_match_homology_modules(ka3, nak, use_nak, seed):
    """Ranks and homology modules give the same dimension vectors."""
    alg = nak if use_nak else ka3
    e = _random_proj_3step(alg, np.random.default_rng(seed)).expansion()
    for c in (e, truncate_above(e, -1), truncate_below(e, -1),
              e.shift(1), e.shift(-2)):
        modules = {q: homology_at(c, q) for q in range(c.lo - 1, c.hi + 2)}
        assert homology_dims(c) == {q: h.dims for q, h in modules.items()
                                    if not h.is_zero()}


def test_homology_dims_is_counted_once_and_read_only(ka3):
    c = _random_proj_3step(ka3, np.random.default_rng(0)).expansion()
    first = homology_dims(c)
    with mock.patch("tiltlab.repcomplex.rank",
                    side_effect=AssertionError("counted again")):
        assert homology_dims(c) is first
    with pytest.raises(TypeError):
        first[0] = (0, 0, 0)


def test_complex_cone_long_exact(ka2):
    # X -> Y with Y = cone yields homology concentrated correctly
    p0 = stalk_complex(projective(ka2, 0))
    p1 = stalk_complex(projective(ka2, 1))
    from tiltlab.repcat import hom_basis
    f = hom_basis(projective(ka2, 1), projective(ka2, 0))[0]
    from tiltlab.repcomplex import ComplexMap
    cm = ComplexMap(p1, p0, {0: f})
    cm.validate()
    cone = complex_cone(cm)
    cone.validate()
    assert homology_dims(cone) == {0: (1, 0)}


# -- hom spaces in K^b(proj) ------------------------------------------------

def test_hom_k_frozen_table(ka2):
    x = simple_presentation(ka2, 0)     # P(1) -> P(0)
    p0, p1 = proj_stalk(ka2, 0), proj_stalk(ka2, 1)
    assert hom_k(x, x, 0) == 1
    assert hom_k(x, x, 1) == 0
    assert hom_k(x, p1, 1) == 1         # Ext^1(S0, S1) = k
    assert hom_k(x, p0, 0) == 0
    assert hom_k(p0, x, 0) == 1
    assert hom_k(p1, x, 0) == 0
    assert hom_k(x, p1, 0) == 0


def test_hom_k_shift_invariance(ka2):
    x = simple_presentation(ka2, 0)
    p1 = proj_stalk(ka2, 1)
    for s in (-2, -1, 1, 3):
        for i in (0, 1, 2):
            assert hom_k(x.shift(s), p1.shift(s), i) == hom_k(x, p1, i)


def test_hom_k_matches_ext(nak, ka3):
    for alg in (nak, ka3):
        mods = [simple(alg, v) for v in range(alg.n)] + \
               [projective(alg, v) for v in range(alg.n)]
        for m in mods:
            rm = resolution_complex(alg, m)
            rm.validate()
            for n in mods:
                target = stalk_complex(n)
                for deg in range(4):
                    want = ext_dim(m, n, deg) if deg else hom_dim(m, n)
                    assert hom_k(rm, target, deg) == want


def test_hom_package_representatives_are_chain_maps(ka2):
    x = simple_presentation(ka2, 0)
    pkg = hom_package(proj_stalk(ka2, 0), x, 0)
    assert pkg.dim == 1
    for f in pkg.chain_reps():
        f.validate()
        assert not pkg.is_nullhomotopic(f)


def test_memo_keeps_caches_apart():
    # a ProjComplex memoizes heart resolutions and the hom packages into it
    # side by side.  A fresh algebra, so that x is the representative of its
    # content: the package key holds the representative
    ka2 = linear_an(2)
    x = simple_presentation(ka2, 0)
    y = proj_stalk(ka2, 1)
    pkg = hom_package(x, y, 0)
    assert hom_package(x, y, 0) is pkg
    assert hom_package(x, y, 1) is not pkg
    assert memo(y)[("hom_package", x, 0)] is pkg
    [model] = generator_models([y], 1)
    assert generator_models([y], 1)[0] is model
    assert hom_package(x, y, 0) is pkg


def test_packages_are_freed_with_their_target(ka3):
    # the package lives in the target's memo, so the source does not pin
    # a short-lived target
    x = simple_presentation(ka3, 0)
    y = _random_proj_3step(ka3, np.random.default_rng(5))
    refs = [weakref.ref(y), weakref.ref(hom_package(x, y, 0))]
    del y
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert hom_k(x, simple_presentation(ka3, 0), 0) == 1


@settings(max_examples=8, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1))
def test_shared_target_packages_match_fresh_ones(use_nak, seed):
    # many sources query one target; each answer equals the one for a
    # fresh copy of the target, whose memo is empty
    alg = nakayama_rad_square_zero(3) if use_nak else linear_an(3)
    rng = np.random.default_rng(seed)
    y = _random_proj_3step(alg, rng)
    sources = [_random_proj_3step(alg, rng).shift(s) for s in (-1, 0, 1)]
    sources += [sources[0], proj_stalk(alg, 0), simple_presentation(alg, 1)]
    got = [hom_k(x, y, i) for x in sources for i in (-1, 0, 1)]
    # one total Hom complex entry per source, none per degree, and no
    # package
    assert len([k for k in memo(y) if k[0] == "hom_complex"]) == (
        len(sources) - 1)                            # sources[3] repeats
    assert not any(k[0] == "hom_differential" for k in memo(y))
    assert not any(k[0] == "hom_package" for k in memo(y))
    want = [hom_k(x, ProjComplex(alg, y.lo, y.summands, y.dmats), i)
            for x in sources for i in (-1, 0, 1)]
    assert got == want


@contextlib.contextmanager
def unshared():
    """Memo tables made inside are not shared by content (``memo.canon``)."""
    with mock.patch.object(memo_module, "_representative", lambda obj: obj):
        yield


def fresh_copy(y):
    """The same complex as a new object, with an empty memo table.

    The table is made with content sharing off, so it is not y's.
    """
    if isinstance(y, ProjComplex):
        out = ProjComplex(y.alg, y.lo, y.summands, y.dmats)
    else:
        out = RepComplex(y.alg, y.lo, y.terms, y.diffs)
    with unshared():
        memo(out)
    return out


@settings(max_examples=10, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1))
def test_rank_hom_k_matches_fresh_packages(use_nak, seed):
    # hom_k reads ranks of the total Hom complex; a package on a fresh copy
    # of the target eliminates [homotopy operator | chain space] instead
    alg = nakayama_rad_square_zero(3) if use_nak else linear_an(3)
    rng = np.random.default_rng(seed)
    x = _random_proj_3step(alg, rng)
    y = _random_proj_3step(alg, rng)
    v = int(rng.integers(alg.n))
    targets = [y, y.shift(1), x, y.expansion(),
               truncate_below(truncate_above(y.expansion(), 0), -1),
               stalk_complex(simple(alg, v), -1)]
    for src in (x, x.shift(-1), proj_stalk(alg, v)):
        for tgt in targets:
            for i in range(-2, 4):
                assert hom_k(src, tgt, i) == hom_package(
                    src, fresh_copy(tgt), i).dim
    assert not any(k[0] == "hom_package" for t in targets for k in memo(t))


def dense_hom_operator(x, ys, n):
    """(-1)^n D^n built from dense differential entries, one block at a time.

    The d_Y blocks come from ``diff_at``; each -g o d_X block is the
    ``act_elem`` of a whole coefficient vector of d_X, nonzero or not.
    """
    sblocks, ncols = _layout(x, ys, n)
    dblocks, nrows = _layout(x, ys, n + 1)
    sign = -1 if n % 2 else 1
    out = np.zeros((nrows, ncols), dtype=np.int64)
    for (q, s), (v, rows) in dblocks.items():
        cols = sblocks[(q, s)][1]
        if rows.start != rows.stop and cols.start != cols.stop:
            out[rows, cols] += sign * ys.diff_at(q + n).vmaps[v]
        dx = x.dmat_at(q)
        for r, vr in enumerate(x.summands_at(q + 1)):
            cols = sblocks[(q + 1, r)][1]
            if rows.start != rows.stop and cols.start != cols.stop:
                out[rows, cols] -= ys.term_at(q + n + 1).act_elem(dx[r, s],
                                                                 vr, v)
    return out % x.alg.p


@st.composite
def small_algebras(draw):
    """A_3, Nak_3 (rad^2 = 0) or a random monomial algebra."""
    kind = draw(st.sampled_from(["A3", "Nak3", "monomial"]))
    if kind == "monomial":
        return draw(monomial_algebras())
    return linear_an(3) if kind == "A3" else nakayama_rad_square_zero(3)


@settings(max_examples=25, deadline=None)
@given(small_algebras(), st.integers(0, 2**32 - 1), st.integers(-1, 1))
def test_sparse_hom_operator_matches_dense_reference(alg, seed, sx):
    # the operator read off x's nonzero differential entries equals the one
    # built from every entry, into expanded complexes of projectives and
    # into smart truncations, at every shift that meets both windows
    rng = np.random.default_rng(seed)
    x = _random_proj_3step(alg, rng).shift(sx)
    y = _random_proj_3step(alg, rng)
    truncated = truncate_below(truncate_above(y.expansion(), 0), -1)
    for tgt in (y, truncated):
        ys = tgt.expansion() if isinstance(tgt, ProjComplex) else tgt
        for n in range(-3, 4):
            got, want = _hom_operator(x, ys, n), dense_hom_operator(x, ys, n)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert hom_k(x, tgt, n) == hom_package(x, fresh_copy(tgt), n).dim


def a8_presentations():
    """Minimal presentations of the injectives and simples of A_8."""
    alg = linear_an(8)
    return [minimize(p_presentation(make(alg, v), 1))
            for make in (injective, simple) for v in range(alg.n)]


def test_a8_hom_complexes_build_only_nonempty_degrees():
    # all pairs at shifts 0 and 1, as the large-algebra benchmark asks them
    objs = a8_presentations()
    built = []
    real = homotopy._hom_operator

    def counted(x, ys, n):
        built.append((x, ys, n))
        return real(x, ys, n)

    with mock.patch("tiltlab.homotopy._hom_operator", counted):
        total = sum(hom_k(x, y, i) for x in objs for y in objs for i in (0, 1))
    assert total == 74
    # each degree is built once, and only when both of its sides are nonzero
    assert len({(id(x), id(ys), n) for x, ys, n in built}) == len(built)
    assert all(_layout(x, ys, n)[1] and _layout(x, ys, n + 1)[1]
               for x, ys, n in built)
    assert len(built) == 195
    # I(0) = S(0) on the linear quiver, and minimize returns one object per
    # content, so the 16 presentations are 15 distinct sources
    sources = {id(x) for x in objs}
    assert len(sources) == 15
    for y in objs:
        keys = [k for k in memo(y) if k[0].startswith("hom_")]
        assert {k[0] for k in keys} == {"hom_complex"}
        assert len(keys) == len(sources)
        assert {id(k[1]) for k in keys} == sources
        for k in keys:
            hc = memo(y)[k]
            for n, slot in hc.built.items():
                assert hc.widths.get(n) and hc.widths.get(n + 1)
                assert slot[1].shape == (hc.widths[n + 1], hc.widths[n])


def test_a8_presentations_read_pivots_off_canonical_bases(monkeypatch):
    # covers and cokernels take their pivots from canonical bases: no rref
    # is called from projective_cover or quotient_by_subspaces themselves
    callers = []
    real = linalg.rref

    def traced(a, p):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == "tiltlab.linalg":
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return real(a, p)

    monkeypatch.setattr(linalg, "rref", traced)
    monkeypatch.setattr(repcat, "rref", traced, raising=False)
    a8_presentations()
    assert callers
    assert not {"projective_cover", "quotient_by_subspaces"} & set(callers)


def planted_square_raises() -> list[str]:
    """Messages of ``hom_k`` into targets whose differential squares to 1.

    Y = P(1) -> P(1) -> P(1) in degrees 0..2 with identity differentials,
    as a complex of projectives and expanded.  Hom(P(1), Y[1]) reads D^1
    and D^0, whose product is -d_Y^2 != 0 on maps P(1) -> Y^0.  The failed
    degree is not kept, so asking again raises again.
    """
    from tiltlab.errors import Mismatch
    alg = linear_an(2)
    unit = aidentity(alg, [0])
    y = ProjComplex(alg, 0, [[0], [0], [0]], [unit, unit])
    x = proj_stalk(alg, 0)
    messages = []
    for tgt in (y, y.expansion(), y):
        try:
            hom_k(x, tgt, 1)
        except Mismatch as exc:
            messages.append(str(exc))
        else:
            raise AssertionError("a differential with d^2 != 0 raised no "
                                 "Mismatch")
    return messages


def test_planted_square_survives_optimize():
    messages = planted_square_raises()
    assert len(messages) == 3
    assert all("D^2 != 0" in m for m in messages)
    run_optimized("test_homotopy", "planted_square_raises")


def test_nullhomotopic_detection(ka2):
    # the composite P(1) -> X of the inclusion with a projection is
    # null-homotopic when it factors through the contractible part
    p0 = proj_stalk(ka2, 0)
    c = proj_cone(chain_identity(p0))   # contractible
    pkg = hom_package(p0, c, 0)
    assert pkg.dim == 0
    for k in range(pkg.chain_space.shape[1]):
        coords = pkg.chain_space[:, k]
        h = pkg.nullhomotopy(coords)
        assert h is not None


def test_empty_layout_package_matches_full_elimination(ka2):
    # P(1)[1] has nothing in degree 0, so Hom(P(1), P(1)[1]) is built
    # without elimination or layouts; it answers as the operators built
    # from layouts do
    x = proj_stalk(ka2, 0)
    y = x.shift(1)
    with mock.patch("tiltlab.homotopy.rref", side_effect=AssertionError), \
            mock.patch("tiltlab.homotopy.null_space",
                       side_effect=AssertionError), \
            mock.patch("tiltlab.homotopy.column_space",
                       side_effect=AssertionError), \
            mock.patch("tiltlab.homotopy._layout",
                       side_effect=AssertionError):
        pkg = hom_package(x, y, 0)
    p, ys = ka2.p, y.expansion()
    below = _layout(x, ys, -1)
    chain = null_space(_hom_operator(x, ys, 0), p)
    bmat = -_hom_operator(x, ys, -1) % p
    image = column_space(bmat, p)
    _, piv = rref(np.concatenate([image, chain], axis=1), p)
    assert pkg.layout[1] == 0 and below[1] == 1
    assert pkg.dim == len(piv) - image.shape[1] == 0
    assert pkg.chain_reps() == [] and pkg.rep_coords == []
    for got, want in ((pkg.chain_space, chain), (pkg._bmat, bmat),
                      (pkg.homotopy_image, image)):
        assert got.shape == want.shape and got.dtype == want.dtype
    zero = np.zeros(0, dtype=np.int64)
    assert np.array_equal(pkg.nullhomotopy(zero),
                          solve_right(bmat, zero.reshape(-1, 1), p)[:, 0])
    assert np.array_equal(pkg.nullhomotopy(ChainMap(x, y, {})), [0])
    assert pkg.is_nullhomotopic(zero)


def greedy_representatives(pkg):
    """Class representatives picked one chain-space column at a time.

    A column is kept when ``in_span`` puts it outside the homotopy image
    plus the columns kept so far; this is the reference for the package's
    single pivot pass.
    """
    p = pkg.x.alg.p
    span, kept = pkg.homotopy_image, []
    for k in range(pkg.chain_space.shape[1]):
        col = pkg.chain_space[:, k]
        if not in_span(col, span, p):
            kept.append(col)
            span = span_union(span, col.reshape(-1, 1), p=p)
    return kept


@settings(max_examples=12, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_representatives_match_greedy_selection(use_nak, sx, sy):
    alg = nakayama_rad_square_zero(3) if use_nak else linear_an(3)
    x = _random_proj_3step(alg, np.random.default_rng(sx))
    y = _random_proj_3step(alg, np.random.default_rng(sy))
    truncated = truncate_below(truncate_above(y.expansion(), 0), -1)
    for src in (x, x.shift(1)):
        for tgt in (y, y.shift(-1), truncated, x):
            for i in (-1, 0, 1):
                pkg = hom_package(src, tgt, i)
                want = greedy_representatives(pkg)
                assert pkg.dim == len(want) == len(pkg.rep_coords)
                for got, ref in zip(pkg.rep_coords, want):
                    assert np.array_equal(got, ref)


@settings(max_examples=12, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_class_coordinates_match_a_column_space_basis(use_nak, sx, sy):
    # the package picks its image basis among the columns of the homotopy
    # operator; class coordinates must be those over the canonical basis
    # column_space(_bmat) of the same image, with the same representatives
    alg = nakayama_rad_square_zero(3) if use_nak else linear_an(3)
    p = alg.p
    rng = np.random.default_rng(sx)
    x = _random_proj_3step(alg, rng)
    y = _random_proj_3step(alg, np.random.default_rng(sy))
    for src in (x, x.shift(1)):
        for tgt in (y, y.shift(-1), x):
            for i in (-1, 0, 1):
                pkg = hom_package(src, tgt, i)
                image = column_space(pkg._bmat, p)
                nb = pkg.homotopy_image.shape[1]
                assert nb == image.shape[1] == rank(pkg._bmat, p)
                ref = np.concatenate([image, pkg._basis[:, nb:]], axis=1)
                for k in range(pkg.chain_space.shape[1]):
                    c = pkg.chain_space[:, k]
                    want = solve_right(ref, c.reshape(-1, 1), p)[nb:, 0]
                    assert np.array_equal(pkg.reduce(c), want)
                    h = rng.integers(0, p, pkg._bmat.shape[1])
                    moved = (c + pkg._bmat @ h) % p
                    assert np.array_equal(pkg.reduce(moved), want)


@st.composite
def algebra_with_modules(draw):
    """A monomial algebra and two modules: sums of P(v), I(v) and S(v)."""
    alg = draw(monomial_algebras())
    brick = st.tuples(st.sampled_from([projective, injective, simple]),
                      st.integers(0, alg.n - 1))

    def module():
        parts = draw(st.lists(brick, min_size=1, max_size=2))
        return direct_sum([make(alg, v) for make, v in parts], alg)
    return alg, module(), module()


@settings(max_examples=15, deadline=None)
@given(algebra_with_modules())
def test_hom_packages_match_independent_oracles(case):
    alg, m, n = case
    for v in range(alg.n):
        assert hom_k(proj_stalk(alg, v), stalk_complex(m, 0)) == m.dims[v]
    for k in range(3):
        res = resolution_of_module(m, k + 1)
        assert hom_k(res, stalk_complex(n, 0), k) == ext_dim(m, n, k)


@settings(max_examples=12, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.sampled_from([-1, 0, 1]))
def test_generator_coordinates_round_trip(use_nak, seed, i):
    alg = nakayama_rad_square_zero(3) if use_nak else linear_an(3)
    rng = np.random.default_rng(seed)
    x = _random_proj_3step(alg, rng)
    ident = chain_identity(x)
    pe = hom_package(x, x, 0)
    back = pe.chainmap_of(pe.coords_of(ident))
    for q in x.degrees():
        assert np.array_equal(back.map_at(q), ident.map_at(q))
    pkg = hom_package(x, _random_proj_3step(alg, rng), i)
    coords = (pkg.chain_space @ rng.integers(0, alg.p,
                                             pkg.chain_space.shape[1])) % alg.p
    f = pkg.chainmap_of(coords)
    f.validate()
    assert np.array_equal(pkg.coords_of(f), coords)
    again = pkg.chainmap_of(pkg.coords_of(f))
    for q in range(x.lo - 1, x.hi + 2):
        assert np.array_equal(again.map_at(q), f.map_at(q))


def euler_char(c) -> list[int]:
    """Per-vertex alternating sum of the homology dimensions of c."""
    hdd = homology_dims(c)
    return [sum((-1) ** q * dims[v] for q, dims in hdd.items())
            for v in range(c.alg.n)]


def homology_rank(f, q: int, v: int) -> int:
    """Rank at vertex v of the map H^q(f) that f induces on homology."""
    p = f.src.alg.p
    cycles = null_space(f.src.diff_at(q).vmaps[v], p)
    bounds = f.tgt.diff_at(q - 1).vmaps[v]
    images = f.map_at(q).vmaps[v] @ cycles % p
    return (rank(np.concatenate([images, bounds], axis=1), p)
            - rank(bounds, p))


@settings(max_examples=20, deadline=None)
@given(monomial_algebras(), st.integers(0, 2**32 - 1),
       st.sampled_from([-1, 0, 1]))
def test_cone_homology_obeys_the_long_exact_sequence(alg, seed, i):
    # H^q(X) -> H^q(Y) -> H^q(cone f) -> H^(q+1)(X) -> H^(q+1)(Y) is exact
    rng = np.random.default_rng(seed)
    pkg = hom_package(_random_proj_3step(alg, rng),
                      _random_proj_3step(alg, rng), i)
    space = pkg.chain_space
    f = pkg.chainmap_of(space @ rng.integers(0, alg.p, space.shape[1])
                        % alg.p).expand()
    f.validate()
    cone = complex_cone(f)
    cone.validate()
    x, y, c = (homology_dims(e) for e in (f.src, f.tgt, cone))
    assert euler_char(cone) == [b - a for a, b in zip(euler_char(f.src),
                                                       euler_char(f.tgt))]
    zero = (0,) * alg.n
    for q in range(cone.lo, cone.hi + 1):
        for v in range(alg.n):
            assert (c.get(q, zero)[v]
                    <= y.get(q, zero)[v] + x.get(q + 1, zero)[v])
            # exactness: H^q(cone f) = coker H^q(f) + ker H^(q+1)(f)
            assert c.get(q, zero)[v] == (
                y.get(q, zero)[v] - homology_rank(f, q, v)
                + x.get(q + 1, zero)[v] - homology_rank(f, q + 1, v))
    # f.src has no term above degree 0, so H^1 of the cocone is coker H^0(f);
    # fac_membership reads surjectivity on H^0 this way
    assert (1 in homology_dims(cone.shift(-1))) == any(
        homology_rank(f, 0, v) < y.get(0, zero)[v] for v in range(alg.n))


def planted_image_raises() -> list[str]:
    """Messages of the Mismatch for a homotopy image outside the chain space.

    The planted homotopy operator gains a unit column: the package reads
    -D^-1 off ``hom_differential``, which here hands it a widened D^-1
    after the real entry (and its D^2 = 0 check) is built.  Hom(P(1), C)
    for C = (P(1) -> P(1)) in degrees 0, 1 has no nonzero chain map, so
    the column cannot lie in the chain space and the package raises
    without eliminating.  Hom(X, cone(1_P(1))), with X the presentation of
    S(1), has a one-dimensional chain space that misses the unit column,
    so the elimination of [homotopy operator | chain space] finds it.
    """
    from tiltlab.errors import Mismatch
    alg = linear_an(2)
    p0 = proj_stalk(alg, 0)
    cone = proj_cone(chain_identity(p0))
    real = hom_differential

    def planted(x, target, n):
        width, rk, mat = real(x, target, n)
        if n == -1:                             # minus the homotopy operator
            unit = np.zeros((mat.shape[0], 1), dtype=np.int64)
            unit[0] = 1
            mat = np.concatenate([mat, unit], axis=1)
        return width, rk, mat

    messages = []
    with mock.patch("tiltlab.homotopy.hom_differential", planted):
        for x, c in ((p0, cone.shift(-1)), (simple_presentation(alg, 0), cone)):
            try:
                hom_package(x, c, 0)
            except Mismatch as exc:
                messages.append(str(exc))
            else:
                raise AssertionError("a planted homotopy image raised no "
                                     "Mismatch")
    return messages


def test_planted_homotopy_image_survives_optimize():
    messages = planted_image_raises()
    assert len(messages) == 2
    assert all("not inside the chain space" in m for m in messages)
    run_optimized("test_homotopy", "planted_image_raises")


def non_chain_map_raises() -> list[str]:
    """Messages of validate() on a map that does not commute with d.

    The identity of a two-term complex, kept in its lower degree only, is
    not a chain map, in algebra coordinates or expanded.
    """
    x = simple_presentation(linear_an(2), 0)
    bad = ChainMap(x, x, {x.lo: chain_identity(x).map_at(x.lo)})
    out = []
    for f in (bad, bad.expand()):
        try:
            f.validate()
        except AssertionError as exc:
            out.append(str(exc))
        else:
            raise RuntimeError("a non-chain map passed validate()")
    return out


def test_chain_map_validation_survives_optimize():
    assert non_chain_map_raises() == ["not a chain map at degree -1"] * 2
    run_optimized("test_homotopy", "non_chain_map_raises")


# -- minimization -----------------------------------------------------------

def test_minimize_contractible(ka2):
    c = proj_cone(chain_identity(proj_stalk(ka2, 0)))
    assert not is_minimal(c)
    assert minimize(c).is_zero()


def test_minimize_returns_a_minimal_trimmed_input():
    # a fresh algebra: minimize returns the live representative of x's
    # content, which another test's complex could be
    x = simple_presentation(linear_an(3), 0)
    assert is_minimal(x)
    assert minimize(x) is x
    # empty end degrees are trimmed off into a new complex
    padded = x.pad(x.lo - 1, x.hi + 1)
    assert padded.trim() is not padded
    assert minimize(padded).shape_key() == x.shape_key()


def test_trim_is_self_when_nothing_is_trimmed(ka3):
    x = simple_presentation(ka3, 0)
    assert x.trim() is x
    padded = x.pad(x.lo, x.hi + 1)
    assert padded.trim() is not padded
    assert padded.trim().degrees() == x.degrees()


def test_second_iso_k_builds_no_package(ka3, monkeypatch):
    # minimize and decompose hand back their minimal, indecomposable
    # inputs, so every package lives in a memo table of a or b
    a, b = simple_presentation(ka3, 0), simple_presentation(ka3, 0)
    assert iso_k(a, b).verdict == "yes"
    built = []
    init = HomPackage.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(HomPackage, "__init__", counting)
    assert iso_k(a, b).verdict == "yes"
    assert built == []


def test_decompose_complex_splits_once_per_seed(ka3, monkeypatch):
    x = proj_direct_sum([proj_stalk(ka3, 0), proj_stalk(ka3, 1)])
    y = proj_direct_sum([proj_stalk(ka3, 1), proj_stalk(ka3, 0)])
    assert iso_k(x, y).verdict == "yes"
    first = decompose_complex(x)
    built = []
    init = HomPackage.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(HomPackage, "__init__", counting)
    assert iso_k(x, y).verdict == "yes"
    again = decompose_complex(x)
    assert built == []
    assert again is first and len(first) == 2
    assert all(a is b for (a, _), (b, _) in zip(first, again))
    # another seed splits again
    assert decompose_complex(x, seed=1) is not first


def test_minimize_strips_contractible_summand(ka2):
    x = simple_presentation(ka2, 0)
    c = proj_cone(chain_identity(proj_stalk(ka2, 1)))
    s = proj_direct_sum([x, c.shift(1)])
    m = minimize(s)
    assert m.graded_mults() == x.graded_mults()
    assert iso_k(m, x).verdict == "yes"


def test_minimize_preserves_hom(ka3):
    x = simple_presentation(ka3, 1)
    c = proj_cone(chain_identity(proj_stalk(ka3, 0)))
    s = proj_direct_sum([x, c])
    for v in range(3):
        for i in range(3):
            assert hom_k(s, proj_stalk(ka3, v), i) == \
                hom_k(x, proj_stalk(ka3, v), i) + \
                hom_k(c, proj_stalk(ka3, v), i)
            assert hom_k(c, proj_stalk(ka3, v), i) == 0


@st.composite
def padded_complexes(draw):
    """A random shifted three-step complex on A_3 or Nak_3 plus up to two
    shifted contractible cones, and a second random complex as target."""
    alg = draw(st.sampled_from([linear_an, nakayama_rad_square_zero]))(3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _random_proj_3step(alg, rng).shift(draw(st.integers(-1, 1)))
    cones = [proj_cone(chain_identity(proj_stalk(alg, v))).shift(s)
             for v, s in draw(st.lists(st.tuples(st.integers(0, alg.n - 1),
                                                 st.integers(-1, 1)),
                                       max_size=2))]
    return proj_direct_sum([x] + cones), _random_proj_3step(alg, rng)


@settings(max_examples=12, deadline=None)
@given(padded_complexes())
def test_minimize_agrees_with_iso_k_and_hom_k(case):
    x, y = case
    m = minimize(x)
    assert iso_k(x, m).verdict == "yes"
    again = minimize(m)
    assert (again.lo, again.summands) == (m.lo, m.summands)
    assert all(np.array_equal(a, b) for a, b in zip(again.dmats, m.dmats))
    for i in (-1, 0, 1):
        assert hom_k(m, y, i) == hom_k(x, y, i)


# -- K_0 --------------------------------------------------------------------

def test_k0_vectors(ka2):
    x = simple_presentation(ka2, 0)
    assert list(k0_vector(x)) == [1, -1]
    assert list(k0_vector(x.shift(1))) == [-1, 1]
    assert list(k0_vector(proj_stalk(ka2, 1))) == [0, 1]


# -- decomposition and isomorphism ------------------------------------------

def test_indecomposable_is_read_off_a_rank(monkeypatch):
    # dim Z^0 End = 1 answers without a hom package; a sum builds one.  A
    # fresh algebra, so that x is the representative of its content
    ka3 = linear_an(3)
    built = []
    init = HomPackage.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(HomPackage, "__init__", counting)
    x = simple_presentation(ka3, 0)
    assert decompose_complex(x) == ((x, 1),)
    assert built == []
    two = proj_direct_sum([x, proj_stalk(ka3, 1)])
    assert len(decompose_complex(two)) == 2
    assert [args[:2] for args in built] == [(two, two)]


def test_decompose_complex_two_parts(ka2):
    x = simple_presentation(ka2, 0)
    s = proj_direct_sum([x, proj_stalk(ka2, 1), proj_stalk(ka2, 1)])
    dec = decompose_complex(s)
    assert sorted(m for _, m in dec) == [1, 2]
    total = sum(c.total_count * m for c, m in dec)
    assert total == s.total_count


def test_iso_k_scaling_and_refutation(ka2):
    alpha = ka2.path_indices(0, 1)[0]
    d = np.zeros((1, 1, ka2.dim), dtype=np.int64)
    d[0, 0, alpha] = 1
    x = ProjComplex(ka2, -1, [[1], [0]], [d])
    d2 = (5 * d) % ka2.p
    y = ProjComplex(ka2, -1, [[1], [0]], [d2])
    res = iso_k(x, y, want_witness=True)
    assert res.verdict == "yes"
    assert res.fwd is not None and res.bwd is not None
    res.fwd.validate()
    res.bwd.validate()
    assert iso_k(x, proj_stalk(ka2, 0)).verdict == "no"
    assert iso_k(x, x.shift(1)).verdict == "no"


def test_iso_k_unknown_only_for_budget_and_field(ka2, monkeypatch):
    from tiltlab import homotopy
    from tiltlab.errors import RandomBudgetExhausted

    def fail_with(exc):
        def decompose(*args, **kwargs):
            raise exc
        return decompose

    x = proj_direct_sum([proj_stalk(ka2, 0), proj_stalk(ka2, 1)])
    # the degreewise certificate must not decide first
    monkeypatch.setattr(homotopy, "_degreewise_iso", lambda *args: False)
    monkeypatch.setattr(homotopy, "decompose_complex",
                        fail_with(RandomBudgetExhausted("budget")))
    assert iso_k(x, x).verdict == "unknown"
    monkeypatch.setattr(homotopy, "decompose_complex",
                        fail_with(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        iso_k(x, x)


def witness_checks_raise() -> str:
    """Message of the Mismatch that iso_k raises for a failed witness.

    Every homotopy check is patched to fail, so the certificate for the
    isomorphic pair d and 5d must be rejected.
    """
    from tiltlab import homotopy
    from tiltlab.errors import Mismatch
    alg = linear_an(2)
    d = np.zeros((1, 1, alg.dim), dtype=np.int64)
    d[0, 0, alg.path_indices(0, 1)[0]] = 1
    x = ProjComplex(alg, -1, [[1], [0]], [d])
    y = ProjComplex(alg, -1, [[1], [0]], [(5 * d) % alg.p])
    with mock.patch.object(homotopy.HomPackage, "is_nullhomotopic",
                           return_value=False):
        try:
            iso_k(x, y, want_witness=True)
        except Mismatch as exc:
            return str(exc)
    raise AssertionError("a failed witness check raised no Mismatch")


def test_iso_witness_checks_survive_optimize():
    assert "not homotopic to the identity" in witness_checks_raise()
    run_optimized("test_homotopy", "witness_checks_raise")


def split_off_check_raises() -> str:
    """Message of the Mismatch when an idempotent's image is not projective.

    ``projective_cover`` is patched to return a zero cover, so splitting
    P_1 + P_2 over A_2 must reject the first summand.
    """
    from tiltlab import homotopy
    from tiltlab.errors import Mismatch
    from tiltlab.repcat import projective_cover, zero_map
    alg = linear_an(2)
    x = proj_direct_sum([proj_stalk(alg, 0), proj_stalk(alg, 1)])

    def zero_cover(sub):
        psum, _ = projective_cover(sub)
        return psum, zero_map(psum.rep, sub)

    with mock.patch.object(homotopy, "projective_cover", zero_cover):
        try:
            decompose_complex(x)
        except Mismatch as exc:
            return str(exc)
    raise AssertionError("a zero cover raised no Mismatch")


def test_split_off_check_survives_optimize():
    assert "not projective" in split_off_check_raises()
    run_optimized("test_homotopy", "split_off_check_raises")


def test_iso_k_distinguishes_sum_from_twist(ka3):
    # P(0) + S(0)-presentation vs P(1) + (P(2) -> P(0)): same graded
    # multiplicities would be needed for a subtle refutation; here the
    # decomposition multisets differ
    x = proj_direct_sum([proj_stalk(ka3, 0), simple_presentation(ka3, 0)])
    y = proj_direct_sum([proj_stalk(ka3, 1), simple_presentation(ka3, 1)])
    assert iso_k(x, y).verdict == "no"


# -- the degreewise isomorphism certificate ---------------------------------

def _certified(x, y, seeds=range(3)) -> bool:
    """Does one of a few draws certify x ~ y?  One draw of an isomorphic
    pair fails with probability at most (number of summands) / p."""
    return any(homotopy._degreewise_iso(x, y, s) for s in seeds)


def _rebased(x: ProjComplex, rng) -> ProjComplex:
    """u d u^-1 for a random automorphism u of every term of x.

    u^q has random entries on every path its support allows, and a random
    invertible scalar part at each vertex, so it may permute summands.  Its
    inverse is taken vertexwise on the expansion.
    """
    alg, p = x.alg, x.alg.p
    autos, invs = {}, {}
    for q in x.degrees():
        s = x.summands_at(q)
        u = homotopy.azeros(alg, len(s), len(s))
        for r, vr in enumerate(s):
            for c, vc in enumerate(s):
                paths = list(alg.path_indices(vr, vc))
                u[r, c, paths] = rng.integers(0, p, size=len(paths))
        for v in set(s):
            at = [k for k, w in enumerate(s) if w == v]
            while True:
                scalar = rng.integers(0, p, size=(len(at), len(at)))
                if rank(scalar, p) == len(at):
                    break
            u[np.ix_(at, at, [alg.e_index[v]])] = scalar[:, :, None]
        ps = x.psum_at(q)
        big = repcat.map_of_alg_matrix(u, ps, ps)
        back = repcat.ModuleMap(ps.rep, ps.rep, [
            linalg.inv(m, p) if m.size else m for m in big.vmaps])
        autos[q], invs[q] = u, repcat.alg_matrix_of_map(back, ps, ps)
    dmats = [homotopy.amul(alg, autos[q + 1],
                           homotopy.amul(alg, x.dmat_at(q), invs[q]))
             for q in range(x.lo, x.hi)]
    y = ProjComplex(alg, x.lo, x.summands, dmats)
    y.validate()
    return y


def _zeroed(x: ProjComplex, k: int) -> ProjComplex:
    """x with its k-th differential replaced by zero."""
    dmats = list(x.dmats)
    dmats[k] = np.zeros_like(dmats[k])
    return ProjComplex(x.alg, x.lo, x.summands, dmats)


@functools.lru_cache(maxsize=None)
def _registry_items(family, d: int):
    """The classes enumerated over family(3) at d: indecomposable and
    pairwise non-isomorphic."""
    from tiltlab.silting import enumerate_silting
    return tuple(enumerate_silting(family(3), d).registry.items)


@functools.lru_cache(maxsize=None)
def _equal_mult_sums(family, d: int):
    """Groups of at least two sums of one or two registry items that have
    equal graded multiplicities.  By Krull-Schmidt, different multisets of
    items give non-isomorphic sums."""
    items = _registry_items(family, d)
    groups: dict = {}
    for i in range(len(items)):
        for j in range(i, len(items)):
            picks = (i,) if i == j else (i, j)
            s = proj_direct_sum([items[k] for k in picks])
            key = tuple(sorted(s.graded_mults().items()))
            groups.setdefault(key, []).append(s)
    return [g for g in groups.values() if len(g) > 1]


@st.composite
def rebased_pairs(draw):
    """(x, re-based copy of x): x is a sum of one to three registry items
    over A_3 or Nak_3 at d = 1 or 2, or a minimized random complex over a
    random monomial algebra."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        items = _registry_items(
            draw(st.sampled_from([linear_an, nakayama_rad_square_zero])),
            draw(st.integers(1, 2)))
        picks = draw(st.lists(st.integers(0, len(items) - 1), min_size=1,
                              max_size=3))
        x = proj_direct_sum([items[k] for k in picks])
    else:
        x = minimize(_random_proj_3step(draw(monomial_algebras()), rng))
        assume(not x.is_zero())
    return x, _rebased(x, rng)


@st.composite
def non_isomorphic_pairs(draw):
    """Pairs with equal graded multiplicities that are not isomorphic:
    sums of different registry items (re-based), or a minimized random
    complex against itself with one nonzero differential zeroed, which
    changes its homology."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        groups = _equal_mult_sums(
            draw(st.sampled_from([linear_an, nakayama_rad_square_zero])),
            draw(st.integers(1, 2)))
        group = groups[draw(st.integers(0, len(groups) - 1))]
        i, j = draw(st.lists(st.integers(0, len(group) - 1), min_size=2,
                             max_size=2, unique=True))
        return group[i], _rebased(group[j], rng)
    alg = draw(st.sampled_from([linear_an(3), nakayama_rad_square_zero(3)])
               if draw(st.booleans()) else monomial_algebras())
    x = minimize(_random_proj_3step(alg, rng))
    nonzero = [k for k, m in enumerate(x.dmats) if np.any(m)]
    assume(nonzero)
    y = _zeroed(x, draw(st.sampled_from(nonzero)))
    assert homology_dims(x.expansion()) != homology_dims(y.expansion())
    return x, y


@settings(max_examples=30, deadline=None)
@given(rebased_pairs())
def test_rebased_copies_are_certified(case):
    x, y = case
    assert x.graded_mults() == y.graded_mults()
    assert _certified(x, y)
    assert iso_k(x, y).verdict == "yes"


@settings(max_examples=30, deadline=None)
@given(non_isomorphic_pairs())
def test_non_isomorphic_pairs_are_never_certified(case):
    x, y = case
    assert x.graded_mults() == y.graded_mults()
    assert not _certified(x, y, seeds=range(5))
    assert iso_k(x, y).verdict == "no"


def _kronecker_arrows():
    """P(1) -> P(0) along each of the two Kronecker arrows, in degrees -1..0.

    They have equal graded multiplicities and homology dimensions, and are
    not isomorphic: End P(v) = k, so an isomorphism would scale one arrow
    onto the other.
    """
    from tiltlab.algebra import build_algebra
    kron = build_algebra(2, [(1, 1, 2), (2, 1, 2)], [])
    out = []
    for a in kron.path_indices(0, 1):
        d = np.zeros((1, 1, kron.dim), dtype=np.int64)
        d[0, 0, a] = 1
        out.append(ProjComplex(kron, -1, [[1], [0]], [d]))
    return tuple(out)


def certificate_refusals() -> int:
    """Check that the certificate refuses fixed non-isomorphic pairs.

    The Kronecker pair (``_kronecker_arrows``) differs only in the scalar
    parts of Z^0 Hom; the A_3 presentation of S(0) is compared with its
    zero-differential copy.  Raises RuntimeError on a certificate;
    returns the number of pairs checked.
    """
    s0 = simple_presentation(linear_an(3), 0)
    pairs = [_kronecker_arrows(), (s0, _zeroed(s0, 0))]
    for x, y in pairs:
        for seed in range(5):
            if homotopy._degreewise_iso(x, y, seed):
                raise RuntimeError(f"certified a non-isomorphic pair {x}, "
                                   f"{y} with seed {seed}")
    return len(pairs)


def planted_certificate_is_caught() -> str:
    """Message of ``certificate_refusals`` once the certificate skips its
    scalar-part rank check (``is_invertible`` accepts everything)."""
    with mock.patch.object(homotopy, "is_invertible", lambda a, p: True):
        try:
            certificate_refusals()
        except RuntimeError as exc:
            return str(exc)
    raise RuntimeError("a certificate with no rank check went unnoticed")


def test_certificate_refuses_without_assert():
    assert certificate_refusals() == 2
    run_optimized("test_homotopy", "certificate_refusals")


def test_planted_certificate_fault_is_caught():
    assert "certified a non-isomorphic pair" in planted_certificate_is_caught()
    run_optimized("test_homotopy", "planted_certificate_is_caught")


class _ZeroRng:
    def integers(self, low, high=None, size=None):
        return np.zeros(size, dtype=np.int64)


def test_failed_draw_falls_back_to_the_exact_verdict(monkeypatch):
    # indecomposable pairs: the exact path splits nothing, so only the
    # certificate draws from the patched generator
    rng = np.random.default_rng(7)
    pairs = [_kronecker_arrows()]
    for family in (linear_an, nakayama_rad_square_zero):
        pairs += [(x, _rebased(x, rng))
                  for x in _registry_items(family, 2)[:4]]
    exact = {}
    with monkeypatch.context() as m:
        m.setattr(homotopy, "_degreewise_iso", lambda *args: False)
        for k, (x, y) in enumerate(pairs):
            exact[k] = iso_k(x, y).verdict
    assert set(exact.values()) == {"yes", "no"}
    tried = []
    real = homotopy._degreewise_iso

    def recorded(*args):
        tried.append(real(*args))
        return tried[-1]

    monkeypatch.setattr(homotopy, "_degreewise_iso", recorded)
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: _ZeroRng())
    for k, (x, y) in enumerate(pairs):
        assert iso_k(x, y).verdict == exact[k]
    assert tried and not any(tried)


# -- approximations ---------------------------------------------------------

def _factors_through(parts, z, minimal):
    alg = z.alg
    e, g, chosen = right_approximation(parts, z, minimal=minimal)
    for t in parts:
        pkg = hom_package(t, z, 0)
        through = hom_package(t, e, 0)
        cols = [pkg.class_coords(g.compose(h)) for h in through.chain_reps()]
        span = (np.column_stack(cols) if cols
                else np.zeros((max(pkg.chain_space.shape[0], 1), 0),
                              dtype=np.int64))
        for f in pkg.chain_reps():
            if not in_span(pkg.class_coords(f), span, alg.p):
                return False
    return True


def test_right_approximation_factoring(ka3):
    z = simple_presentation(ka3, 0)
    stalks = [proj_stalk(ka3, v) for v in range(3)]
    assert _factors_through(stalks, z, True)
    assert _factors_through(stalks, z, False)
    assert _factors_through([stalks[0]], z, True)


def test_left_approximation_factoring(ka3):
    z = proj_stalk(ka3, 2)
    parts = [proj_stalk(ka3, 0), simple_presentation(ka3, 1)]
    alg = z.alg
    for minimal in (True, False):
        e, g, chosen = left_approximation(parts, z, minimal=minimal)
        for t in parts:
            pkg = hom_package(z, t, 0)
            through = hom_package(e, t, 0)
            cols = [pkg.class_coords(h.compose(g))
                    for h in through.chain_reps()]
            span = (np.column_stack(cols) if cols
                    else np.zeros((max(pkg.chain_space.shape[0], 1), 0),
                                  dtype=np.int64))
            for f in pkg.chain_reps():
                assert in_span(pkg.class_coords(f), span, alg.p)


def test_minimal_approximation_is_smaller(ka2):
    stalks = [proj_stalk(ka2, 0), proj_stalk(ka2, 1)]
    cases = [
        # Hom(P0, X) is 1-dimensional; the universal approximation by
        # {P0, P0} would duplicate it, the minimal one does not
        (right_approximation, simple_presentation(ka2, 0),
         [0], {0: (1, 0)}, [0]),
        # Z = P1 is one of the parts: its identity covers every map out
        # of Z, so the map to P0 is a radical composite and is dropped
        (left_approximation, proj_stalk(ka2, 1), [1], {0: (0, 1)}, [0, 1]),
    ]
    for approx, z, want_min, mults, want_all in cases:
        e_min, _, chosen_min = approx(stalks, z, minimal=True)
        e_all, _, chosen_all = approx(stalks, z, minimal=False)
        assert [j for j, _ in chosen_min] == want_min
        assert e_min.graded_mults() == mults
        assert [j for j, _ in chosen_all] == want_all


# -- mutation ---------------------------------------------------------------

def test_left_mutation_ka2(ka2):
    p0, p1 = proj_stalk(ka2, 0), proj_stalk(ka2, 1)
    out = left_mutation([p0, p1], 1, d=1)
    keys = sorted(c.shape_key() for c in out)
    assert keys == sorted([p0.shape_key(),
                           simple_presentation(ka2, 0).shape_key()])
    out0 = left_mutation([p0, p1], 0, d=1)
    keys0 = sorted(c.shape_key() for c in out0)
    assert keys0 == sorted([p1.shape_key(), p0.shift(1).shape_key()])


def test_mutation_round_trip(ka2):
    p0, p1 = proj_stalk(ka2, 0), proj_stalk(ka2, 1)
    step = left_mutation([p0, p1], 1, d=1)
    back = right_mutation(step, 1, d=1)
    assert sorted(c.shape_key() for c in back) == \
        sorted(c.shape_key() for c in [p0, p1])


def test_mutation_out_of_window(ka2):
    from tiltlab.errors import WindowViolation
    p0 = proj_stalk(ka2, 0)
    shifted = p0.shift(1)
    # mutating the already-shifted stalk pushes it past the window
    with pytest.raises(WindowViolation):
        left_mutation([shifted, proj_stalk(ka2, 1).shift(1)], 0, d=1)

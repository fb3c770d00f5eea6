"""Complexes of projectives: homs, minimization, decomposition, mutation."""
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.heart import generator_models, resolution_of_module
from tiltlab.homotopy import (
    ChainMap,
    HomPackage,
    ProjComplex,
    chain_identity,
    decompose_complex,
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
    _layout,
)
from tiltlab.linalg import (column_space, in_span, null_space, rank, rref,
                            solve_right, span_union)
from tiltlab.memo import memo
from tiltlab.repcat import (direct_sum, ext_dim, hom_dim, injective,
                            minimal_resolution, projective, simple)
from tiltlab.repcomplex import (complex_cone, homology_at, homology_dims,
                                stalk_complex, truncate_above, truncate_below)
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
    assert x.shift(1) is x.shift(1)
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


def test_memo_keeps_caches_apart(ka2):
    # a ProjComplex memoizes heart resolutions and the hom packages into it
    # side by side
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
    packages = [k for k in memo(y) if k[0] == "hom_package"]
    assert len(packages) == 3 * (len(sources) - 1)    # sources[3] repeats
    want = [hom_k(x, ProjComplex(alg, y.lo, y.summands, y.dmats), i)
            for x in sources for i in (-1, 0, 1)]
    assert got == want


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
    # without elimination; it answers as the full three-rref path does
    x = proj_stalk(ka2, 0)
    y = x.shift(1)
    with mock.patch("tiltlab.homotopy.rref", side_effect=AssertionError), \
            mock.patch("tiltlab.homotopy.null_space",
                       side_effect=AssertionError), \
            mock.patch("tiltlab.homotopy.column_space",
                       side_effect=AssertionError):
        pkg = hom_package(x, y, 0)
    p, cs = ka2.p, pkg.cs
    below, above = (_layout(x, cs, o) for o in (-1, 1))
    chain = null_space(pkg._operator(pkg.layout, above, 0, -1), p)
    bmat = pkg._operator(below, pkg.layout, -1, 1)
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

    The planted homotopy operator gains a unit column.  Hom(P(1), C) for
    C = (P(1) -> P(1)) in degrees 0, 1 has no nonzero chain map, so the
    column cannot lie in the chain space and the package raises without
    eliminating.  Hom(X, cone(1_P(1))), with X the presentation of S(1),
    has a one-dimensional chain space that misses the unit column, so the
    elimination of [homotopy operator | chain space] finds it.
    """
    from tiltlab.errors import Mismatch
    alg = linear_an(2)
    p0 = proj_stalk(alg, 0)
    cone = proj_cone(chain_identity(p0))
    real = HomPackage._operator

    def planted(self, src, dst, offset, sign):
        out = real(self, src, dst, offset, sign)
        if offset == -1:                        # the homotopy operator
            unit = np.zeros((out.shape[0], 1), dtype=np.int64)
            unit[0] = 1
            out = np.concatenate([out, unit], axis=1)
        return out

    messages = []
    with mock.patch.object(HomPackage, "_operator", planted):
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


def test_minimize_returns_a_minimal_trimmed_input(ka3):
    x = simple_presentation(ka3, 0)
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

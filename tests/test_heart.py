"""Heart-level machinery: resolutions, windows, e_ext, Fac-chains."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import heart
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.errors import HomologyOutsideWindow, WindowViolation
from tiltlab.heart import (
    decompose_window,
    e_ext,
    f_class_membership,
    fac_membership,
    generator_models,
    module_stalk,
    p_presentation,
    resolution_of_complex,
    resolution_of_module,
    t_class_membership,
    to_window,
    truncate_window,
)
from tiltlab.homotopy import (hom_k, hom_package, iso_k, proj_direct_sum,
                              proj_stalk)
from tiltlab.memo import memo
from tiltlab.repcat import (ModuleMap, Representation, direct_sum, ext_dim,
                            hom_dim, identity_map, injective, is_isomorphic,
                            module_iso, projective, simple, zero_map)
from tiltlab.repcomplex import RepComplex, homology_dims, stalk_complex
from tiltlab.silting import enumerate_silting
from tiltlab.tiltcheck import HeartStore, _random_proj_3step

from oracles import eager_fac_membership
from run_optimized import run_optimized
from test_homotopy import simple_presentation, unshared


def complex_direct_sum(x: RepComplex, y: RepComplex) -> RepComplex:
    """X + Y degreewise, with block-diagonal differentials."""
    alg = x.alg
    lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
    xs, ys = x.pad(lo, hi), y.pad(lo, hi)
    terms = [direct_sum([a, b], alg) for a, b in zip(xs.terms, ys.terms)]
    diffs = []
    for k, (f, g) in enumerate(zip(xs.diffs, ys.diffs)):
        vmaps = []
        for v in range(alg.n):
            blk = np.zeros((terms[k + 1].dims[v], terms[k].dims[v]),
                           dtype=np.int64)
            r0, c0 = f.tgt.dims[v], f.src.dims[v]
            blk[:r0, :c0] = f.vmaps[v]
            blk[r0:, c0:] = g.vmaps[v]
            vmaps.append(blk)
        diffs.append(ModuleMap(terms[k], terms[k + 1], vmaps))
    return RepComplex(alg, lo, terms, diffs)


@pytest.fixture(scope="module")
def ka2():
    return linear_an(2)


@pytest.fixture(scope="module")
def ka3():
    return linear_an(3)


@pytest.fixture(scope="module")
def nak():
    return nakayama_rad_square_zero(3)


def all_modules(alg):
    return [projective(alg, v) for v in range(alg.n)] + \
        [simple(alg, v) for v in range(alg.n)]


# -- resolving complexes -----------------------------------------------------

def contractible(n: Representation) -> RepComplex:
    """N -> N in degrees -1..0 along the identity: zero in the derived
    category, but not a stalk."""
    return RepComplex(n.alg, -1, [n, n], [identity_map(n)])


def test_resolution_of_stalk_matches_module_resolution(ka2, nak):
    for alg in (ka2, nak):
        for m in all_modules(alg):
            want = resolution_of_module(m, depth=6)
            r, complete = resolution_of_complex(module_stalk(m), depth=6)
            assert complete
            assert (r.lo, r.summands) == (want.lo, want.summands)
            assert all(np.array_equal(a, b)
                       for a, b in zip(r.dmats, want.dmats))
            # the cover loop, on complexes quasi-isomorphic to the stalk
            # that are not stalks
            for n in all_modules(alg):
                c = complex_direct_sum(module_stalk(m), contractible(n))
                r, complete = resolution_of_complex(c, depth=6)
                assert complete
                assert iso_k(r, want)


def test_resolution_shapes_nakayama(nak):
    r, complete = resolution_of_complex(module_stalk(simple(nak, 0)), depth=6)
    assert complete
    assert r.summands == [[2], [1], [0]]
    assert homology_dims(r.expansion()) == {0: (1, 0, 0)}


def test_resolution_of_two_homology_complex(nak):
    # direct sum of S(0) and S(2)[1] resolved in one pass
    c = complex_direct_sum(module_stalk(simple(nak, 0)),
                           stalk_complex(simple(nak, 2), -1))
    assert homology_dims(c) == {-1: (0, 0, 1), 0: (1, 0, 0)}
    r, complete = resolution_of_complex(c, depth=6)
    assert complete
    assert r.summands == [[2], [1, 2], [0]]
    assert homology_dims(r.expansion()) == homology_dims(c)


def test_resolution_of_shifted_complex(nak):
    c = stalk_complex(simple(nak, 0), 2)
    r, complete = resolution_of_complex(c, depth=6)
    assert complete
    assert homology_dims(r.expansion()) == {2: (1, 0, 0)}


def test_incomplete_resolution_flagged():
    # a self-injective algebra with infinite global dimension:
    # the loop quiver truncated, x^2 = 0
    from tiltlab.algebra import build_algebra
    alg = build_algebra(1, [(1, 1, 1)], [[1, 1]])
    s = simple(alg, 0)
    r, complete = resolution_of_complex(module_stalk(s), depth=4)
    assert not complete
    assert r.summands == [[0]] * 5


def test_model_ending_on_the_last_cover_is_complete(ka2):
    # P_0 needs one cover, so depth 0 allows it; S_0 needs two, depth 1
    r, complete = resolution_of_complex(module_stalk(projective(ka2, 0)), 0)
    assert complete and r.summands == [[0]]
    r, complete = resolution_of_complex(module_stalk(simple(ka2, 0)), 1)
    assert complete and iso_k(r, simple_presentation(ka2, 0))
    assert not resolution_of_complex(module_stalk(simple(ka2, 0)), 0)[1]


# -- windows -----------------------------------------------------------------

def test_to_window_accepts_and_trims(ka2):
    e = module_stalk(simple(ka2, 0))
    w = to_window(e.pad(-3, 1), d=2)
    assert w.lo == 0 and w.hi == 0
    t = w.trim()
    assert t.is_zero() or (t.lo >= -2 + 1 and t.hi <= 0)


def test_to_window_rejects_outside_homology(ka2):
    e = stalk_complex(simple(ka2, 0), 2)
    with pytest.raises(HomologyOutsideWindow):
        to_window(e, d=2)


def test_truncate_window_of_presentation(ka2):
    # sigma of the S(0)-presentation recovers S(0) for d = 1
    x = p_presentation(simple(ka2, 0), d=1)
    w = truncate_window(x, d=1)
    assert w.lo == 0 and w.hi == 0
    assert homology_dims(w) == {0: (1, 0)}


def test_truncate_window_window_violation(ka2):
    x = proj_stalk(ka2, 0).shift(3)
    with pytest.raises(WindowViolation):
        truncate_window(x, d=2)


def test_p_presentation_length(nak):
    for d in (1, 2, 3):
        for v in range(nak.n):
            x = p_presentation(simple(nak, v), d)
            t = x.trim()
            assert t.lo >= -d and t.hi <= 0


def test_p_presentation_round_trip(nak):
    # d at least the global dimension: presentation resolves the module
    for v in range(nak.n):
        m = simple(nak, v)
        x = p_presentation(m, d=2)
        e = x.expansion()
        hd = homology_dims(e)
        assert set(hd) == {0}
        from tiltlab.repcomplex import homology_at
        assert module_iso(homology_at(e, 0), m) is not None


def test_p_presentation_of_a_decomposable_module(ka2):
    from tiltlab.repcomplex import homology_at
    m = direct_sum([projective(ka2, 0), simple(ka2, 1)])
    e = p_presentation(m, 1).expansion()
    assert set(homology_dims(e)) == {0}
    assert is_isomorphic(homology_at(e, 0), m)


# -- extension groups --------------------------------------------------------

def test_e_ext_matches_module_ext(nak, ka3):
    for alg in (nak, ka3):
        mods = all_modules(alg)
        for m in mods:
            for n_ in mods:
                x, y = module_stalk(m), module_stalk(n_)
                assert e_ext(x, y, 0, d=2) == hom_dim(m, n_)
                for i in (1, 2, 3):
                    assert e_ext(x, y, i, d=2) == ext_dim(m, n_, i)


def test_e_ext_depth_invariance(nak):
    mods = all_modules(nak)
    d = 2
    for m in mods:
        for n_ in mods:
            x, y = module_stalk(m), module_stalk(n_)
            for i in range(0, d + 1):
                assert e_ext(x, y, i, d, depth=2 * d + 3) == \
                    e_ext(x, y, i, d, depth=2 * d + 6)


def test_e_ext_against_chain_model(ka2):
    # same answer through an explicit projective model of the source
    s0 = module_stalk(simple(ka2, 0))
    p1 = module_stalk(simple(ka2, 1))
    r, _ = resolution_of_complex(s0, depth=5)
    for i in (0, 1, 2):
        assert e_ext(s0, p1, i, d=1) == hom_k(r, p1, i)


# -- maps out of projective complexes ---------------------------------------

A3, NAK3 = linear_an(3), nakayama_rad_square_zero(3)


def column_images(pkg, coords):
    """The generator images one solver column gives, degree by degree."""
    images = {}
    for (q, _), (_, sl) in pkg.layout[0].items():
        images.setdefault(q, []).append(coords[sl])
    return images


def assert_blocks(f, parts):
    """f's columns are the parts' own maps side by side, in order."""
    alg = f.src.alg
    for q in range(f.src.lo, f.src.hi + 1):
        at = [0] * alg.n
        for g in parts:
            for v in range(alg.n):
                own = g.map_at(q).vmaps[v]
                got = f.map_at(q).vmaps[v][:, at[v]:at[v] + own.shape[1]]
                assert np.array_equal(got, own)
                at[v] += own.shape[1]
        assert tuple(at) == f.src.term_at(q).dims


@st.composite
def proj_complex_pairs(draw):
    """A random three-step complex Y and two complexes X mapping to it."""
    alg = draw(st.sampled_from([A3, NAK3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def source():
        if draw(st.booleans()):
            return proj_stalk(alg, draw(st.integers(0, alg.n - 1)),
                              draw(st.integers(-2, 0)))
        return _random_proj_3step(alg, rng).shift(draw(st.integers(-1, 1)))
    y = _random_proj_3step(alg, rng).shift(draw(st.integers(-1, 1)))
    return y, [source(), source()]


@settings(max_examples=25, deadline=None)
@given(proj_complex_pairs())
def test_map_from_matches_chain_map_expansion(case):
    # _map_from extends generator images along paths; expanding the chain
    # map multiplies algebra coefficients through the product table
    y, xs = case
    c = y.expansion()
    chosen, images, own = [], {}, []
    for x in xs:
        pkg = hom_package(x, c, 0)
        ref = hom_package(x, y, 0)
        for coords in pkg.rep_coords:
            col = column_images(pkg, coords)
            f = heart._map_from(x, c, col)
            f.validate()
            g = ref.chainmap_of(coords).expand()
            for q in range(min(x.lo, y.lo) - 1, max(x.hi, y.hi) + 2):
                for a, b in zip(f.map_at(q).vmaps, g.map_at(q).vmaps):
                    assert np.array_equal(a, b)
            chosen.append(x)
            own.append(f)
            for q, vecs in col.items():
                images.setdefault(q, []).extend(vecs)
    # one map out of the direct sum: its blocks are the parts' own maps
    f = heart._map_from(proj_direct_sum(chosen, y.alg), c, images)
    f.validate()
    assert_blocks(f, own)


@settings(max_examples=25, deadline=None)
@given(proj_complex_pairs(), st.integers(0, 2**32 - 1))
def test_class_combinations_are_made_in_coordinates(case, seed):
    y, xs = case
    p = y.alg.p
    rng = np.random.default_rng(seed)
    for x in xs:
        for i in (-1, 0, 1):
            pkg = hom_package(x, y, i)
            reps = pkg.chain_reps()
            assert pkg.chain_reps() is reps
            for k, f in enumerate(reps):
                assert np.array_equal(pkg.class_coords(f),
                                      np.eye(pkg.dim, dtype=np.int64)[k])
            # combine against the degree-wise sum of the scaled maps, over
            # the representatives and over the whole chain space
            endos = [pkg.chainmap_of(c) for c in pkg.chain_space.T]
            for cols, maps in ((None, reps), (pkg.chain_space, endos)):
                coeffs = rng.integers(0, p, size=len(maps))
                f = pkg.combine(coeffs, cols)
                for q in range(min(x.lo, y.lo - i) - 1,
                               max(x.hi, y.hi - i) + 2):
                    want = np.zeros_like(f.map_at(q))
                    for c, g in zip(coeffs, maps):
                        want = (want + int(c) * g.map_at(q)) % p
                    assert np.array_equal(f.map_at(q), want)
            nulls = [pkg.chainmap_of(c) for c in pkg.homotopy_image.T]
            mixed = pkg.combine(rng.integers(0, p, size=pkg.dim))
            for f in reps + nulls + [mixed]:
                assert (pkg.is_nullhomotopic(pkg.coords_of(f))
                        == pkg.is_nullhomotopic(f))


def test_fac_stage_map_is_the_models_maps_side_by_side(monkeypatch):
    # a fresh algebra, and an x whose two stages differ in content, so that
    # each stage builds its own map (P(0) + I(2) would make a stage whose
    # next C equals it)
    alg = linear_an(3)
    gens = [module_stalk(projective(alg, 0)), module_stalk(injective(alg, 0))]
    x = module_stalk(direct_sum([projective(alg, 0), injective(alg, 0)], alg))
    models = generator_models(gens, 2)      # resolved before the spy is on
    calls = []

    def spy(e, c, images):
        f = real(e, c, images)
        calls.append(f)
        return f
    real = heart._map_from
    monkeypatch.setattr(heart, "_map_from", spy)
    res = fac_membership(gens, x, d=2)
    # the last stage builds its map only when its kernel_dims is read
    dict(res.steps[-1].kernel_dims)
    assert res.verdict == "in" and len(calls) == len(res.steps) == 2
    assert res.steps[0].middle == [(0, 2), (1, 1)]
    for f in calls:
        f.validate()
        own, middle = [], []
        for gi, g in enumerate(models):
            pkg = hom_package(g, f.tgt, 0)
            own += [real(g, f.tgt, column_images(pkg, coords))
                    for coords in pkg.rep_coords]
            middle += [(gi, pkg.dim)] if pkg.dim else []
        assert middle in [s.middle for s in res.steps]
        assert_blocks(f, own)


# -- Fac-chains and torsion pairs -------------------------------------------

def test_fac_membership_in(ka2):
    parts = [proj_stalk(ka2, v) for v in range(2)]
    res = fac_membership(parts, module_stalk(simple(ka2, 0)), d=1)
    assert res.verdict == "in"
    assert bool(res)
    assert len(res.steps) == 1
    assert res.steps[0].surjective


def test_fac_membership_not_in(ka2):
    # S(0) is not a quotient of sums of P(1), and S(1) not of P(0)
    res = fac_membership([proj_stalk(ka2, 1)],
                         module_stalk(simple(ka2, 0)), d=1)
    assert res.verdict == "not_in"
    assert not res.steps[-1].surjective
    res = fac_membership([proj_stalk(ka2, 0)],
                         module_stalk(simple(ka2, 1)), d=1)
    assert res.verdict == "not_in"


def test_fac_membership_zero_object(ka2):
    zero = RepComplex(ka2, 0, [Representation(
        ka2, [0, 0], [np.zeros((0, 0), dtype=np.int64)])], [])
    res = fac_membership([proj_stalk(ka2, 0)], zero, d=1)
    assert res.verdict == "in" and res.steps == []
    assert fac_membership([proj_stalk(ka2, v) for v in range(2)],
                          module_stalk(simple(ka2, 0)), d=1)


def test_fac_membership_d2_chain(nak):
    # for d = 2 membership may take two surjective stages
    parts = [proj_stalk(nak, v) for v in range(3)]
    res = fac_membership(parts, module_stalk(simple(nak, 0)), d=2)
    assert res.verdict == "in"
    assert all(s.surjective for s in res.steps)


def test_fac_s_parameter(ka2):
    # S(0) is a quotient of P(0), but its kernel S(1) is not in Fac(P(0)):
    # level 2 membership fails, and only approximately so
    gens = [proj_stalk(ka2, 0)]
    s0 = module_stalk(simple(ka2, 0))
    assert fac_membership(gens, s0, d=1, s=0).verdict == "in"
    assert fac_membership(gens, s0, d=1, s=1).verdict == "in"
    deep = fac_membership(gens, s0, d=1, s=2)
    assert deep.verdict == "not_in_approx"
    assert deep.steps[-1].stage == 2


def test_fac_window_complex_generators(ka2):
    gens = [module_stalk(projective(ka2, v)) for v in range(2)]
    assert fac_membership(gens, module_stalk(simple(ka2, 0)), d=1)


def test_fac_not_in_certified_at_stage_one(ka2):
    res = fac_membership([simple_presentation(ka2, 0)],
                         module_stalk(projective(ka2, 0)), d=1)
    assert res.verdict == "not_in"
    assert res.steps[0].stage == 1 and not res.steps[0].surjective


def test_fac_rank_test_reads_cycles_when_x_has_a_term_above_degree_zero(ka2):
    # P(0) -> S(0) in degrees 0 and 1 is S(1) in the heart, but C^1 != 0:
    # f is onto H^0 when its image and d_C^(-1) span Z^0(C), not C^0
    p0, s0 = projective(ka2, 0), simple(ka2, 0)
    x = RepComplex(ka2, 0, [p0, s0], [ModuleMap(p0, s0, [
        np.eye(1, dtype=np.int64), np.zeros((0, 1), dtype=np.int64)])])
    assert dict(homology_dims(x)) == {0: (0, 1)}
    assert fac_membership([proj_stalk(ka2, 1)], x, d=1).verdict == "in"
    for gens in ([proj_stalk(ka2, 1)], [proj_stalk(ka2, 0)],
                 [module_stalk(simple(ka2, 1))]):
        for d, s in ((1, 1), (1, 2), (2, 2)):
            assert fac_summary(fac_membership(gens, x, d, s=s)) == \
                fac_summary(eager_fac_membership(gens, x, d, s=s))


def test_fac_membership_rejects_a_generator_above_degree_zero(ka2):
    # S(0)[-1] sits in degree 1, so its model has H^1 and the cocone's H^1
    # no longer measures the cokernel of H^0(f)
    gen = module_stalk(simple(ka2, 0)).shift(-1)
    with pytest.raises(WindowViolation):
        fac_membership([gen], module_stalk(simple(ka2, 0)), d=1)


def test_fac_membership_raises_for_an_x_outside_the_heart(ka2):
    # S(0)[-1] sits in degree 1: no generator maps to it, and the cocone of
    # the zero approximation has its homology in degree 2
    x = module_stalk(simple(ka2, 0)).shift(-1)
    with pytest.raises(HomologyOutsideWindow):
        fac_membership([proj_stalk(ka2, 0)], x, d=1)



def test_fac_membership_checks_the_heart_before_any_stage(ka2):
    # S(0) in degrees 0 and 1 with zero differential: no map from P(1) is
    # onto H^0, so a first stage would certify "not_in" before any
    # truncation saw the cocone's H^2; the entry check refuses x instead
    s0 = simple(ka2, 0)
    x = RepComplex(ka2, 0, [s0, s0], [zero_map(s0, s0)])
    with pytest.raises(HomologyOutsideWindow) as exc:
        fac_membership([proj_stalk(ka2, 1)], x, d=1)
    assert exc.value.degree == 1


def test_heart_entry_points_refuse_an_x_outside_the_heart(ka2):
    # the same x as above: e_ext (either argument) and the torsion-pair
    # memberships raise instead of returning a verdict
    s0 = simple(ka2, 0)
    x = RepComplex(ka2, 0, [s0, s0], [zero_map(s0, s0)])
    y = module_stalk(simple(ka2, 1))
    parts = [proj_stalk(ka2, v) for v in range(2)]
    calls = [lambda: e_ext(x, y, 0, d=1), lambda: e_ext(y, x, 0, d=1),
             lambda: t_class_membership(parts, x, d=1),
             lambda: f_class_membership(parts, x, d=1)]
    for call in calls:
        with pytest.raises(HomologyOutsideWindow) as exc:
            call()
        assert exc.value.degree == 1

# -- the Fac-stage memo -------------------------------------------------------

def cold_copy(c: RepComplex) -> RepComplex:
    """c rebuilt from its matrices, so no memo table is shared with c.

    The copy's table is made with content sharing off (``unshared``).
    """
    terms = [Representation(c.alg, t.dims, t.mats) for t in c.terms]
    diffs = [ModuleMap(terms[k], terms[k + 1], f.vmaps)
             for k, f in enumerate(c.diffs)]
    out = RepComplex(c.alg, c.lo, terms, diffs)
    with unshared():
        memo(out)
    return out


def fac_summary(res):
    return (res.verdict, res.detail,
            [(st.stage, st.middle, dict(st.kernel_dims), st.surjective)
             for st in res.steps])


@pytest.fixture(scope="module", params=[(A3, 1), (NAK3, 2)],
                ids=["A3-d1", "Nak3-d2"])
def heart_reps(request):
    """The indecomposable heart objects of every silting class's image."""
    alg, d = request.param
    store = HeartStore(d)
    for rec in enumerate_silting(alg, d).clusters:
        store.image(rec.parts)
    return d, [store.reps[i] for i in sorted(store.reps)]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fac_stage_memo_matches_cold_runs(heart_reps, data):
    # the reps stay shared across lists and examples, so later runs read
    # stages that earlier runs kept in the reps' and cocones' memos
    d, reps = heart_reps
    idx = st.integers(0, len(reps) - 1)
    for _ in range(data.draw(st.integers(2, 4))):
        gens = data.draw(st.lists(idx, min_size=1, max_size=3))
        x = data.draw(idx)
        s = data.draw(st.sampled_from([d, d + 1]))
        warm = fac_membership([reps[i] for i in gens], reps[x], d, s=s)
        cold = fac_membership([cold_copy(reps[i]) for i in gens],
                              cold_copy(reps[x]), d, s=s)
        eager = eager_fac_membership([cold_copy(reps[i]) for i in gens],
                                     cold_copy(reps[x]), d, s=s)
        assert fac_summary(warm) == fac_summary(cold) == fac_summary(eager)


def test_a_pass_over_the_universe_builds_no_cocone_until_read(monkeypatch):
    # A_3 d=1: every chain has one stage, so the rank test decides it and
    # only reading the last step's kernel_dims builds a cocone.  A fresh
    # algebra, so that no live complex lends that stage from another test
    from tiltlab.tiltcheck import build_universe
    alg = linear_an(3)
    uni = build_universe(alg, 1, seed=0)
    store = HeartStore(1)
    gen_lists = []
    for rec in enumerate_silting(alg, 1).clusters:
        ids = sorted(store.image(rec.parts))
        gen_lists.append([store.reps[i] for i in ids])
    cones = []
    real = heart.complex_cone

    def spy(f):
        cones.append(f)
        return real(f)
    monkeypatch.setattr(heart, "complex_cone", spy)
    runs = [(gens, mem.obj, fac_membership(gens, mem.obj, 1))
            for gens in gen_lists for mem in uni]
    assert cones == []
    assert {res.verdict for *_, res in runs} == {"in", "not_in"}
    gens, x, res = next(run for run in runs if run[2] and run[2].steps)
    summary = fac_summary(res)
    assert len(cones) == 1
    assert summary == fac_summary(eager_fac_membership(gens, x, 1))


def planted_onto_raises() -> list[str]:
    """Messages of the Mismatch for a stage the rank test passed wrongly.

    With ``_fac_onto`` patched to pass every stage, P(1) -> S(0) over A_2
    (zero, so not onto H^0) is taken as onto: a later stage builds its
    cocone and finds H^1, at once for s = 2 and on reading the last
    step's kernel_dims for s = 1.
    """
    from unittest import mock

    from tiltlab.errors import Mismatch
    alg = linear_an(2)
    gens, x = [proj_stalk(alg, 1)], module_stalk(simple(alg, 0))
    messages = []
    with mock.patch("tiltlab.heart._fac_onto", lambda cur, used: True):
        for read in (lambda: fac_membership(gens, x, d=1, s=2),
                     lambda: dict(fac_membership(gens, x, d=1, s=1)
                                  .steps[-1].kernel_dims)):
            try:
                read()
            except Mismatch as exc:
                messages.append(str(exc))
            else:
                raise AssertionError("a stage that is not onto H^0 raised "
                                     "no Mismatch")
    return messages


def test_planted_onto_stage_raises_under_optimize():
    messages = planted_onto_raises()
    assert len(messages) == 2
    assert all("not onto H^0" in m for m in messages)
    run_optimized("test_heart", "planted_onto_raises")


def test_fac_stage_is_shared_by_lists_differing_by_a_zero_hom_generator(
        monkeypatch):
    x = module_stalk(simple(A3, 0))
    g, zero = module_stalk(projective(A3, 0)), module_stalk(simple(A3, 1))
    [zero_model] = generator_models([zero], 2)
    assert hom_k(zero_model, x.trim()) == 0
    built = []

    def spy(e, c, images):
        built.append(c)
        return real(e, c, images)
    real = heart._map_from
    monkeypatch.setattr(heart, "_map_from", spy)
    alone = fac_membership([g], x, d=2)
    both = fac_membership([zero, g], x, d=2)
    assert [c for c in built if c is x.trim()] == [x.trim()]
    a, b = fac_summary(alone)[2][0], fac_summary(both)[2][0]
    # the steps are per call: the middle names each list's own indices
    assert (a[1], b[1]) == ([(0, 1)], [(1, 1)])
    assert (a[0], a[2:]) == (b[0], b[2:])


def test_a_kept_stage_asks_for_no_package(monkeypatch):
    # the middle and the models used come from hom_k; the hom packages
    # are asked for only when a stage is built
    x = module_stalk(simple(A3, 0))
    gens = [module_stalk(projective(A3, 0)), module_stalk(simple(A3, 1)),
            module_stalk(injective(A3, 2))]
    first = fac_summary(fac_membership(gens, x, d=2))
    asked = []
    real = heart.hom_package

    def spy(*args):
        asked.append(args)
        return real(*args)
    monkeypatch.setattr(heart, "hom_package", spy)
    assert fac_summary(fac_membership(gens, x, d=2)) == first
    assert asked == []


def test_p_presentation_of_window_complex(nak):
    c = complex_direct_sum(module_stalk(simple(nak, 0)),
                           stalk_complex(simple(nak, 2), -1))
    x = p_presentation(c, d=2)
    t = x.trim()
    assert t.lo >= -2 and t.hi <= 0
    w = truncate_window(x, 2)
    assert homology_dims(w) == homology_dims(c)


def test_torsion_class_membership(ka2):
    parts = [proj_stalk(ka2, v) for v in range(2)]
    s0 = module_stalk(simple(ka2, 0))
    assert t_class_membership(parts, s0, d=1)
    assert not f_class_membership(parts, s0, d=1)
    # nothing nonzero in the heart is torsion-free against the projectives
    s1 = module_stalk(simple(ka2, 1))
    assert t_class_membership(parts, s1, d=1)
    assert not f_class_membership(parts, s1, d=1)


def test_torsion_pair_of_tilted_cluster(ka2):
    # the tilting object P(0) + S(0): S(1) lands in the torsion-free class
    parts = [proj_stalk(ka2, 0), simple_presentation(ka2, 0)]
    s1 = module_stalk(simple(ka2, 1))
    assert not t_class_membership(parts, s1, d=1)
    assert f_class_membership(parts, s1, d=1)
    s0 = module_stalk(simple(ka2, 0))
    assert t_class_membership(parts, s0, d=1)
    assert not f_class_membership(parts, s0, d=1)


def test_decompose_window(ka2):
    x = complex_direct_sum(module_stalk(simple(ka2, 0)),
                           module_stalk(projective(ka2, 0)))
    parts = decompose_window(x, d=1)
    dims = sorted((tuple(sorted(homology_dims(c).items())), m)
                  for c, m in parts)
    assert dims == [(((0, (1, 0)),), 1), (((0, (1, 1)),), 1)]


def test_decompose_window_splits_once(ka2, monkeypatch):
    x = complex_direct_sum(module_stalk(simple(ka2, 0)),
                           module_stalk(projective(ka2, 0)))
    calls = []
    split = heart.decompose_complex

    def counting(r, seed=0):
        calls.append(r)
        return split(r, seed=seed)

    monkeypatch.setattr(heart, "decompose_complex", counting)
    first = decompose_window(x, d=1)
    assert decompose_window(x, d=1) is first
    assert len(calls) == 1
    decompose_window(x, d=1, seed=1)
    assert len(calls) == 2


def test_rep_complex_trim_is_self_when_nothing_is_trimmed(ka2):
    x = module_stalk(simple(ka2, 0))
    assert x.trim() is x
    padded = x.pad(-1, 1)
    assert padded.trim() is not padded
    assert padded.trim().degrees() == x.degrees()


def test_to_window_returns_a_trimmed_window_complex(nak):
    x = module_stalk(simple(nak, 0)).shift(1)
    assert to_window(x, 2) is x

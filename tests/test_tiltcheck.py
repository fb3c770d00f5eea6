"""Universe-relative checkers, theorem verifiers and closure trials."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.errors import SpecError
from tiltlab.heart import generator_models, module_stalk, projective_model
from tiltlab.homotopy import proj_stalk
from tiltlab.repcat import decompose, projective, simple
from tiltlab.repcomplex import homology_dims
from tiltlab.silting import enumerate_silting
from tiltlab.tiltcheck import (
    HeartStore,
    build_universe,
    check_air_tilting,
    check_equivalence,
    check_quasi_tilting,
    check_tilting,
    compatible_stalks,
    qtilt_closure_trials,
    schanuel_trials,
    verify_bijection,
    verify_torsion_reports,
)

from test_algebra import monomial_algebras


@pytest.fixture(scope="module")
def ka2():
    return linear_an(2)


@pytest.fixture(scope="module")
def nak():
    return nakayama_rad_square_zero(3)


@pytest.fixture(scope="module")
def uni_ka2(ka2):
    return build_universe(ka2, 1, seed=0)


@pytest.fixture(scope="module")
def uni_nak(nak):
    return build_universe(nak, 1, seed=0)


def add_a(alg):
    return [projective(alg, v) for v in range(alg.n)]


# -- the universe ------------------------------------------------------------

def test_universe_ka2_d1_is_the_module_category(uni_ka2):
    assert len(uni_ka2) == 3
    assert all(m.tag == "module" for m in uni_ka2)


def universe_module_check(alg, **kwargs):
    """Build a universe with ``decompose`` refusing non-modules; validate it."""
    from unittest import mock

    from tiltlab import tiltcheck

    def checked(m, **kw):
        m.validate()
        return decompose(m, **kw)

    with mock.patch.object(tiltcheck, "decompose", checked):
        uni = build_universe(alg, 1, **kwargs)
    for member in uni:
        member.obj.validate()
        for q in range(member.obj.lo, member.obj.hi + 1):
            member.obj.term_at(q).validate()
    return uni


def test_universe_members_are_modules(nak):
    # over rad^2 = 0 most random draws with a nonzero a_2 a_1 are not modules
    assert len(universe_module_check(nak, seed=0)) > 0


@settings(max_examples=4, deadline=None)
@given(monomial_algebras(), st.integers(0, 100))
def test_universe_members_are_modules_over_monomial_algebras(alg, seed):
    universe_module_check(alg, seed=seed, dim_bound=1, n_complexes=2)


def test_universe_closed_under_summands(uni_nak, nak):
    from tiltlab.heart import decompose_window

    keys = {m.key for m in uni_nak}
    for mem in uni_nak:
        for s, _mult in decompose_window(mem.obj, 1, seed=0):
            from tiltlab.heart import _resolution_cached

            r, complete = _resolution_cached(s, 5)
            assert complete
            assert uni_nak.registry.intern(r) in keys


@pytest.mark.parametrize("alg", [linear_an(3), nakayama_rad_square_zero(3)],
                         ids=["A3", "Nak3"])
def test_module_members_are_their_own_only_summand(alg):
    # build_universe splits only "complex" members: a module part has local
    # End, so it and its shifts are indecomposable in the heart
    from tiltlab.heart import decompose_window

    uni = build_universe(alg, 2, seed=0)
    shifted = [m for m in uni if m.tag == "module-shift"]
    assert shifted
    for mem in uni:
        if mem.tag in ("module", "module-shift"):
            [(s, mult)] = decompose_window(mem.obj, 2, seed=0)
            assert mult == 1
            assert uni.registry.intern(projective_model(s, 2)) == mem.key


def module_stage(alg, d, monkeypatch, **patches):
    """Build a universe, recording the module stage of the harvest.

    Returns a namespace with the members (key, tag, homology dims), the
    registry items (lo, summands, differentials), the number of
    ``decompose`` calls, the module stalks resolved and the module
    isoclasses among the harvested parts.  Each keyword argument replaces
    the ``tiltcheck`` function of that name.
    """
    from types import SimpleNamespace

    from tiltlab import tiltcheck
    from tiltlab.repcat import module_iso

    parts, stalks, resolved, splits = [], set(), [], []
    split, stalk = tiltcheck.decompose, tiltcheck.module_stalk
    resolve = tiltcheck._resolution_cached

    def split_recorded(m, **kw):
        out = split(m, **kw)
        splits.append(m)
        parts.extend(c for c, _mult in out)
        return out

    def stalk_recorded(m):
        x = stalk(m)
        stalks.add(id(x))
        return x

    def resolve_recorded(x, depth):
        if id(x) in stalks:
            resolved.append(x)
        return resolve(x, depth)

    with monkeypatch.context() as mp:
        mp.setattr(tiltcheck, "decompose", split_recorded)
        mp.setattr(tiltcheck, "module_stalk", stalk_recorded)
        mp.setattr(tiltcheck, "_resolution_cached", resolve_recorded)
        for name, fn in patches.items():
            mp.setattr(tiltcheck, name, fn)
        uni = build_universe(alg, d, seed=0)
    classes: list = []
    for m in parts:
        if not any(module_iso(m, c) is not None for c in classes):
            classes.append(m)
    members = [(m.key, m.tag, tuple(sorted(homology_dims(m.obj).items())))
               for m in uni]
    items = [(x.lo, x.summands, [m.tolist() for m in x.dmats])
             for x in uni.registry.items]
    return SimpleNamespace(members=members, items=items, splits=len(splits),
                           resolved=resolved, classes=classes)


UNIVERSE_CASES = pytest.mark.parametrize("alg,d", [
    (linear_an(3), 1), (nakayama_rad_square_zero(3), 2), (linear_an(4), 1),
], ids=["A3-d1", "Nak3-d2", "A4-d1"])


@UNIVERSE_CASES
def test_universe_resolves_each_module_isoclass_once(alg, d, monkeypatch):
    stage = module_stage(alg, d, monkeypatch)
    assert len(stage.resolved) <= len(stage.classes)
    # without the add certificate and the isomorphism test every harvested
    # part is resolved again, and the universe is the same
    plain = module_stage(alg, d, monkeypatch,
                         in_add=lambda m, parts, rng: False,
                         certify_isomorphic=lambda m, n, rng: False,
                         module_iso=lambda m, n: None)
    assert plain.members == stage.members
    assert len(plain.resolved) > len(stage.classes)


@UNIVERSE_CASES
def test_universe_does_not_depend_on_the_add_certificate(alg, d, monkeypatch):
    stage = module_stage(alg, d, monkeypatch)
    plain = module_stage(alg, d, monkeypatch,
                         in_add=lambda m, parts, rng: False,
                         certify_isomorphic=lambda m, n, rng: False)
    assert plain.members == stage.members
    assert plain.items == stage.items
    assert stage.splits < plain.splits


def test_universe_decomposes_only_draws_with_new_parts(monkeypatch):
    # A_3 d=1, seed 0: 126 draws reach the module stage, and only 6 of them
    # hold a part that no earlier draw had
    stage = module_stage(linear_an(3), 1, monkeypatch)
    plain = module_stage(linear_an(3), 1, monkeypatch,
                         in_add=lambda m, parts, rng: False,
                         certify_isomorphic=lambda m, n, rng: False)
    assert (stage.splits, plain.splits) == (6, 126)


def test_universe_shifts_appear(ka2):
    uni = build_universe(ka2, 2, seed=0)
    assert len(uni) == 7
    assert sorted({m.tag for m in uni}) == ["complex", "module",
                                            "module-shift"]
    extended = [m for m in uni if m.tag == "complex"]
    assert any(len(homology_dims(m.obj)) == 2 for m in extended)


# -- AIR tilting -------------------------------------------------------------

def test_air_tilting_free_module(ka2, uni_ka2):
    from tiltlab.heart import p_presentation
    from tiltlab.homotopy import minimize

    gens = add_a(ka2)
    parts = [minimize(p_presentation(module_stalk(g), 1)) for g in gens]
    rep = check_air_tilting(gens, parts, uni_ka2)
    assert rep.verdict == "yes"
    assert not rep.mismatches
    # a candidate with no mutation history is certified by its towers
    assert rep.silting.lineage is None
    assert len(rep.silting.towers) == ka2.n
    assert all(t.replay() for t in rep.silting.towers)
    # the free module generates everything in one step
    assert all(row["t_class"] and row["fac"] == "in" for row in rep.table)


def test_air_tilting_audits_the_presentation(ka2, uni_ka2):
    from tiltlab.heart import p_presentation
    from tiltlab.homotopy import minimize

    parts = [minimize(p_presentation(module_stalk(projective(ka2, v)), 1))
             for v in range(2)]
    with pytest.raises(SpecError):
        check_air_tilting([simple(ka2, 0)], parts, uni_ka2)


def test_air_tilting_rank_deficient(ka2, uni_ka2):
    from tiltlab.heart import p_presentation
    from tiltlab.homotopy import minimize

    g = simple(ka2, 1)
    rep = check_air_tilting([g], [minimize(p_presentation(module_stalk(g), 1))],
                            uni_ka2)
    assert rep.verdict == "no"
    assert rep.silting.refutation["kind"] == "k0"


# -- quasi-tilting -----------------------------------------------------------

def test_quasi_free_module_certified(ka2, uni_ka2):
    rep = check_quasi_tilting(add_a(ka2), uni_ka2, sample_budget=20, seed=1)
    assert rep.verdict == "certified_via_silting"
    assert rep.air is not None and rep.air.verdict == "yes"


def test_quasi_sink_simple_verified_on_sample(ka2, uni_ka2):
    # golden case: quasi-tilting, but its bare presentation is K0-deficient
    rep = check_quasi_tilting([simple(ka2, 1)], uni_ka2, sample_budget=40,
                              seed=1)
    assert rep.verdict == "verified_on_sample"
    assert rep.witness is None
    assert not rep.anomalies
    assert rep.chains_sampled > 0


def test_quasi_refuted_by_self_extension(ka2, uni_ka2):
    rep = check_quasi_tilting([simple(ka2, 0), simple(ka2, 1)], uni_ka2,
                              sample_budget=20, seed=1)
    assert rep.verdict == "refuted"
    assert rep.witness["axiom"] == "QT1"


def test_quasi_projective_nongenerator_is_anomalous(ka2, uni_ka2):
    # level d and d+1 factor classes differ, but only the approximation
    # chain sees it, so the disagreement stays an anomaly
    rep = check_quasi_tilting([projective(ka2, 0)], uni_ka2,
                              sample_budget=20, seed=1)
    assert rep.verdict == "verified_on_sample"
    assert rep.anomalies


def test_quasi_runs_each_members_fac_chain_once(nak, monkeypatch):
    # 15 runs fill the AIR table; then one level-(d+1) run per member gives
    # both the level-d and the level-(d+1) verdict.  The report is the one
    # that separate level-d and level-(d+1) runs gave.
    from tiltlab import tiltcheck
    uni = build_universe(nak, 2, seed=0)
    calls = []
    fac = tiltcheck.fac_membership

    def counted(*args, **kwargs):
        calls.append(args)
        return fac(*args, **kwargs)

    monkeypatch.setattr(tiltcheck, "fac_membership", counted)
    rep = check_quasi_tilting([module_stalk(simple(nak, 0))], uni, seed=0)
    assert (len(uni), len(calls)) == (15, 30)
    assert (rep.verdict, rep.witness, rep.anomalies, rep.qt1_checked,
            rep.qt2_checked, rep.chains_sampled, rep.chains_skipped) == \
        ("verified_on_sample", None, [], 8, 15, 6, 94)


# -- tilting -----------------------------------------------------------------

def test_tilting_free_module(ka2):
    rep = check_tilting(add_a(ka2), 1)
    assert rep.verdict == "tilting"
    assert rep.reason == "certified by both routes"


def test_tilting_fails_on_extension_pair(ka2):
    rep = check_tilting([simple(ka2, 0), simple(ka2, 1)], 1)
    assert rep.verdict == "not_tilting"
    assert rep.reason.startswith("T2")


def test_tilting_fails_on_rank_deficiency(ka2):
    rep = check_tilting([simple(ka2, 1)], 1)
    assert rep.verdict == "not_tilting"
    assert rep.reason.startswith("T3")


def test_tilting_detects_global_dimension(nak):
    rep = check_tilting([simple(nak, 0)], 1)
    assert rep.verdict == "not_tilting"
    assert rep.reason.startswith("T1")
    assert not rep.route_a["pd_ok"][0]


def test_tilting_routes_agree_on_every_nak3_d2_class():
    # a heart object may have homology in degree -1 = -d + 1: such a
    # generator's presentation starts above -d, and its lowest-degree
    # homology is homology of the object, not a syzygy kernel.  The
    # presentation route calls a class tilting exactly when it has no
    # shifted-projective summand and every part has H^{-d} = 0.
    alg, d = nakayama_rad_square_zero(3), 2
    enum = enumerate_silting(alg, d)
    reg = enum.registry
    stalks = {reg.intern(proj_stalk(alg, v).shift(d)) for v in range(alg.n)}
    store = HeartStore(d, 0)
    tilting_with_two_degrees = 0
    for rec in enum.clusters:
        gens = [store.reps[i] for i in store.image(rec.parts)]
        if not gens:        # A[d] has no heart image
            continue
        rep = check_tilting(gens, d)
        want = not stalks & set(rec.ids) and all(
            -d not in homology_dims(x.expansion()) for x in rec.parts)
        assert rep.verdict == ("tilting" if want else "not_tilting"), rec.ids
        if want and any(set(homology_dims(g)) == {-1, 0} for g in gens):
            tilting_with_two_degrees += 1
    assert tilting_with_two_degrees == 6


# -- equivalence of the checkers ---------------------------------------------

def test_equivalence_on_controls(ka2, uni_ka2):
    expected = {
        "add A": (True, {True}),
        "negative pair": (True, {False}),
        "rank deficient": (True, {False}),
    }
    cases = {
        "add A": add_a(ka2),
        "negative pair": [simple(ka2, 0), simple(ka2, 1)],
        "rank deficient": [simple(ka2, 1)],
    }
    for label, gens in cases.items():
        rep = check_equivalence(gens, uni_ka2, seed=0, sample_budget=20)
        want_consistent, want_values = expected[label]
        assert rep.consistent is want_consistent, label
        decided = {v for v in rep.legs.values() if v is not None}
        assert decided == want_values, (label, rep.legs)


def test_equivalence_projective_nongenerator(ka2, uni_ka2):
    rep = check_equivalence([projective(ka2, 0)], uni_ka2, seed=0,
                            sample_budget=20)
    assert rep.consistent
    assert rep.legs["tilting"] is False
    assert rep.legs["quasi_plus_injectives"] is None


def test_equivalence_presents_each_generator_once(monkeypatch):
    # p_presentation keeps its result in memo(g), so count the round-trip
    # checks it makes while building one (one per window degree, d = 1).
    # A fresh algebra: memo(g) is shared with every live content-equal g
    from tiltlab import heart
    ka2 = linear_an(2)
    uni_ka2 = build_universe(ka2, 1, seed=0)
    check_iso = heart.is_isomorphic
    calls = []

    def counting(a, b):
        calls.append(a)
        return check_iso(a, b)

    monkeypatch.setattr(heart, "is_isomorphic", counting)
    check_equivalence([projective(ka2, 0), projective(ka2, 1)], uni_ka2,
                      seed=0, sample_budget=20)
    assert len(calls) == 2


# -- bijection and torsion reports -------------------------------------------

def test_bijection_ka2_d1(ka2, uni_ka2):
    rep = verify_bijection(ka2, 1, uni_ka2, seed=0)
    assert rep.count == 5
    assert rep.ok
    assert sorted(len(e.image) for e in rep.entries) == [0, 1, 1, 2, 2]
    assert sorted(len(e.supports) for e in rep.entries) == [0, 0, 1, 1, 2]
    assert all(e.rederived for e in rep.entries)


def test_bijection_nak_d1(nak, uni_nak):
    rep = verify_bijection(nak, 1, uni_nak, seed=0)
    assert rep.count == 12
    assert rep.ok


@pytest.mark.parametrize("alg,d", [
    (linear_an(3), 1), (nakayama_rad_square_zero(3), 1), (linear_an(4), 1),
    (linear_an(3), 2), (nakayama_rad_square_zero(3), 2)],
    ids=["A3-d1", "Nak3-d1", "A4-d1", "A3-d2", "Nak3-d2"])
def test_stalks_compatible_with_a_core_are_its_supports(alg, d):
    # verify_bijection's uniqueness search runs over the subsets of this set:
    # a silting class is maximal among presilting ones, so the stalks
    # P_v[d] compatible with its other summands are its own
    enum = enumerate_silting(alg, d)
    reg = enum.registry
    stalks = {reg.intern(proj_stalk(alg, v).shift(d)) for v in range(alg.n)}
    for rec in enum.clusters:
        supports = sorted(stalks & set(rec.ids))
        core = [reg.items[i] for i in rec.ids if i not in stalks]
        assert compatible_stalks(
            core, {i: reg.items[i] for i in stalks}, d) == supports, rec.ids


def test_torsion_reports_ka2_d1(ka2, uni_ka2):
    rep = verify_bijection(ka2, 1, uni_ka2, seed=0)
    store = HeartStore(1, 0)
    tilting_flags = []
    for rec in rep.enumeration.clusters:
        tr = verify_torsion_reports(rec.parts, uni_ka2,
                                    silting_result=rec.result, store=store)
        assert tr.ok, rec.ids
        tilting_flags.append(tr.tilting_case)
        if tr.tilting_case:
            assert all(e["fac"] == "in" for e in tr.injective_verdicts)
    assert sum(tilting_flags) == 2


def test_torsion_nak_witnesses(nak, uni_nak):
    rep = verify_bijection(nak, 1, uni_nak, seed=0)
    store = HeartStore(1, 0)
    witnesses = 0
    for rec in rep.enumeration.clusters:
        tr = verify_torsion_reports(rec.parts, uni_nak,
                                    silting_result=rec.result, store=store)
        assert tr.ok, rec.ids
        if not tr.tilting_case and any(e["fac"] != "in"
                                       for e in tr.injective_verdicts):
            witnesses += 1
    assert witnesses == 10


def test_torsion_requires_silting(ka2, uni_ka2):
    from tiltlab.homotopy import proj_stalk

    with pytest.raises(SpecError):
        verify_torsion_reports([proj_stalk(ka2, 1)], uni_ka2)


# -- randomized closure trials -----------------------------------------------

def test_closure_trials_free_module(ka2, uni_ka2):
    rep = qtilt_closure_trials(add_a(ka2), uni_ka2, n_trials=40, seed=5)
    assert rep.ok
    assert rep.kinds["extension"]["performed"] == 40
    assert rep.kinds["cocone"]["performed"] == 40
    assert rep.kinds["summand"]["performed"] == 40


def test_closure_trials_sink_simple(ka2, uni_ka2):
    rep = qtilt_closure_trials([simple(ka2, 1)], uni_ka2, n_trials=40, seed=5)
    assert rep.ok


def test_schanuel_exchange(ka2, uni_ka2):
    models = generator_models([module_stalk(g) for g in add_a(ka2)], 1)
    pool = [m.model for m in uni_ka2]
    rep = schanuel_trials(models, pool, n_trials=25, seed=3)
    assert rep.ok
    assert rep.kinds["schanuel"]["performed"] == 25

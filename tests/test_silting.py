"""Silting certification and the two independent enumerators."""
import hashlib
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

from tiltlab import silting
from tiltlab.algebra import build_algebra
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.errors import (BudgetExceeded, PoolConstructionUnsupported,
                            WindowViolation)
from tiltlab.heart import resolution_of_module
from tiltlab.homotopy import (ProjComplex, chain_identity, hom_k, proj_cone,
                              proj_direct_sum, proj_stalk)
from tiltlab.linalg import int_det
from tiltlab.repcat import simple
from tiltlab.silting import (
    ComplexRegistry,
    enumerate_silting,
    euler_form,
    is_presilting,
    is_silting,
    k0_matrix,
    rigid_indecomposables,
    rigid_pool,
)

from oracles import (covering_pairs, dynkin_exponents, dynkin_silting_count,
                     fuss_catalan, order_from_vanishing)


@pytest.fixture(scope="module")
def ka2():
    return linear_an(2)


@pytest.fixture(scope="module")
def ka3():
    return linear_an(3)


@pytest.fixture(scope="module")
def nak():
    return nakayama_rad_square_zero(3)


def projective_cluster(alg):
    return [proj_stalk(alg, v) for v in range(alg.n)]


# -- certification -----------------------------------------------------------

def test_free_module_is_silting(ka2, ka3, nak):
    for alg in (ka2, ka3, nak):
        res = is_silting(projective_cluster(alg), d=1)
        assert res.verdict == "yes"
        assert len(res.towers) == alg.n
        assert all(t.replay() for t in res.towers)
        assert all(len(t.stages) == 2 for t in res.towers)


def test_shifted_support_cluster_is_silting(ka2):
    # P(0)[1] + P(1) is silting; P(1)[1] + P(0) is not even presilting
    good = [proj_stalk(ka2, 0).shift(1), proj_stalk(ka2, 1)]
    assert is_silting(good, d=1).verdict == "yes"
    bad = [proj_stalk(ka2, 1).shift(1), proj_stalk(ka2, 0)]
    ok, witness = is_presilting(bad, d=1)
    assert not ok
    assert witness == (0, 1, 1, 1)
    res = is_silting(bad, d=1)
    assert res.verdict == "no"
    assert res.refutation["kind"] == "presilting"


def test_k0_refutations(ka2):
    p0, p1 = projective_cluster(ka2)
    dup = is_silting([p0, p0], d=1)
    assert dup.verdict == "no" and dup.refutation["kind"] == "k0"
    short = is_silting([p1], d=1)
    assert short.verdict == "no" and short.refutation["kind"] == "k0"


def test_window_refused(ka2):
    res = is_silting([proj_stalk(ka2, 0).shift(2),
                      proj_stalk(ka2, 1)], d=1)
    assert res.verdict == "no"
    assert "[-d, 0]" in res.reason


def test_k0_matrix_of_projectives(ka3):
    m = k0_matrix(projective_cluster(ka3))
    assert m == k0_matrix(projective_cluster(ka3))
    assert all(type(c) is int for row in m for c in row)
    assert int_det(m) in (1, -1)


def test_k0_refutation_reports_the_determinant(ka2):
    # P(1) + P(1) and P(2) have classes (2, 0) and (0, 1): index 2 in K0
    p0, p1 = proj_stalk(ka2, 0), proj_stalk(ka2, 1)
    ok, refut = silting._k0_is_basis([proj_direct_sum([p0, p0]), p1], 2)
    assert not ok and refut == {"classes": [[2, 0], [0, 1]], "det": 2}
    ok, refut = silting._k0_is_basis([p1, p0], 2)
    assert ok and refut is None


def test_tower_certificate_replays_and_detects_tampering(ka2):
    res = is_silting(projective_cluster(ka2), d=1)
    tower = res.towers[0]
    assert tower.replay()
    if tower.phi_coords.size and tower.witness is not None \
            and tower.witness.size:
        tower.witness = (tower.witness + 1) % ka2.p
        assert not tower.replay()


# -- enumeration: frozen counts ---------------------------------------------

def test_enumerate_ka1_both_methods():
    for d in (1, 2, 3):
        res = enumerate_silting(linear_an(1), d, method="both")
        assert res.count == d + 1
        assert not res.unknown


def test_enumerate_ka2_both_methods(ka2):
    res = enumerate_silting(ka2, 1, method="both")
    assert res.count == 5
    assert not res.unknown


def test_enumerate_ka2_window_two(ka2):
    res = enumerate_silting(ka2, 2, method="both")
    assert res.count == 12


def test_enumerate_ka3_both_methods(ka3):
    mut = enumerate_silting(ka3, 1, method="mutation")
    cli = enumerate_silting(ka3, 1, method="clique")
    assert mut.count == cli.count == 14
    assert not mut.unknown and not cli.unknown


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 1), (5, 1), (3, 3),
                                 (4, 2)])
def test_linear_counts_match_fuss_catalan(n, d):
    assert enumerate_silting(linear_an(n), d).count == fuss_catalan(n, d)


def ridge_counts(enum) -> dict[int, int]:
    """{k: number of ridges lying in exactly k classes}.

    A ridge is a set of n-1 ids inside some class.  Only the enumerated id
    sets are read, not the enumerator's iso test.
    """
    ridges = Counter(r for rec in enum.clusters
                     for r in combinations(rec.ids, len(rec.ids) - 1))
    return dict(Counter(ridges.values()))


@pytest.mark.parametrize("alg,d,want", [
    # hereditary: an almost complete silting object in the window has
    # d+1 complements (Buan-Reiten-Thomas 2011; Zhu 2008)
    (linear_an(3), 1, {2: 21}), (linear_an(3), 2, {3: 55}),
    (linear_an(2), 3, {4: 11}), (linear_an(4), 1, {2: 84}),
    # d = 1, any algebra: exactly two complements (Adachi-Iyama-Reiten,
    # Thm 2.18).  Nak_3 at d = 2 gives {3: 47, 2: 3}; no theorem covers
    # it, so it is not asserted.
    (nakayama_rad_square_zero(3), 1, {2: 18}),
], ids=["A3-d1", "A3-d2", "A2-d3", "A4-d1", "Nak3-d1"])
def test_every_ridge_lies_in_d_plus_one_classes(alg, d, want):
    counts = ridge_counts(enumerate_silting(alg, d))
    assert list(counts) == [d + 1]
    assert counts == want


def test_acceptance_linear_counts_are_fuss_catalan():
    from test_acceptance import EXPECTED_COUNTS
    linear = {key: c for key, c in EXPECTED_COUNTS.items()
              if key[0].startswith("ka")}
    assert len(linear) == 6
    for (name, d), count in linear.items():
        assert count == fuss_catalan(int(name[2:]), d), (name, d)


@pytest.mark.parametrize("alg,d,not_silting,certified", [
    (linear_an(4), 1, 11, 53), (linear_an(3), 2, 4, 59),
    (nakayama_rad_square_zero(3), 2, 4, 53),
], ids=["A4-d1", "A3-d2", "Nak3-d2"])
def test_each_class_certified_once(monkeypatch, alg, d, not_silting,
                                   certified):
    # a candidate whose class is already known is not certified again
    calls = []
    certify = silting.is_silting

    def counted(parts, d, **kwargs):
        calls.append(len(parts))
        return certify(parts, d, **kwargs)

    monkeypatch.setattr(silting, "is_silting", counted)
    res = enumerate_silting(alg, d)
    assert res.stats["not_silting"] == not_silting
    assert len(calls) == res.count + not_silting + len(res.unknown)
    assert len(calls) == certified


# -- lineage certificates ----------------------------------------------------

@pytest.fixture(scope="module", params=[
    (linear_an(4), 1), (linear_an(3), 2), (nakayama_rad_square_zero(3), 2),
], ids=["A4-d1", "A3-d2", "Nak3-d2"])
def mutation_search(request):
    alg, d = request.param
    return alg, d, enumerate_silting(alg, d)


def test_seeds_carry_towers_and_mutants_carry_lineages(mutation_search):
    alg, d, res = mutation_search
    seeds = [rec for rec in res.clusters if rec.result.lineage is None]
    assert len(seeds) == res.stats["seeds_accepted"]
    for rec in seeds:
        assert len(rec.result.towers) == alg.n
        assert all(t.replay() for t in rec.result.towers)
    for rec in res.clusters:
        lin = rec.result.lineage
        if lin is not None:
            assert (rec.result.verdict, rec.result.reason) == \
                ("yes", "certified")
            assert rec.result.towers == []
            assert (lin.ids, lin.d) == (rec.ids, d)


def test_lineage_classes_pass_the_full_towers(mutation_search):
    alg, d, res = mutation_search
    for rec in res.clusters:
        if rec.result.lineage is not None:
            full = is_silting(rec.parts, d)
            assert full.verdict == "yes"
            assert len(full.towers) == alg.n
            assert all(t.replay() for t in full.towers)


def test_lineages_replay_and_planted_ones_fail(mutation_search):
    alg, d, res = mutation_search
    reg = res.registry
    by_ids = {rec.ids: rec for rec in res.clusters}
    for rec in res.clusters:
        lin = rec.result.lineage
        if lin is None:
            continue
        parent = by_ids[lin.parent]
        assert lin.replay(reg, parent)
        other_side = "right" if lin.side == "left" else "left"
        assert not replace(lin, side=other_side).replay(reg, parent)
        assert not replace(lin, k=(lin.k + 1) % alg.n).replay(reg, parent)
        # no single mutation of a class sharing fewer than n - 1 summands
        # can give rec
        stranger = next(r for r in res.clusters
                        if len(set(r.ids) & set(rec.ids)) < alg.n - 1)
        assert not replace(lin, parent=stranger.ids).replay(reg, stranger)
        assert not lin.replay(reg, stranger)


# -- each exchange edge walked once ------------------------------------------

# frozen from the search that computed every edge: count, stats and a
# SHA-256 prefix of [(ids, lineage parent, k, side)] over the records
EDGE_WALK_FROZEN = {
    "A4-d1": (42, {"mutations": 336, "window_rejected": 168,
                   "not_silting": 11, "seeds_accepted": 5}, "8264c99b2bb2"),
    "A3-d2": (55, {"mutations": 330, "window_rejected": 110,
                   "not_silting": 4, "seeds_accepted": 4}, "068b46fb246e"),
    "Nak3-d2": (49, {"mutations": 294, "window_rejected": 100,
                     "not_silting": 4, "seeds_accepted": 4}, "8ef3f48bbbe5"),
}


@pytest.fixture(scope="module", params=[
    ("A4-d1", linear_an(4), 1), ("A3-d2", linear_an(3), 2),
    ("Nak3-d2", nakayama_rad_square_zero(3), 2),
], ids=["A4-d1", "A3-d2", "Nak3-d2"])
def edge_walk(request):
    """A mutation search with the (parts, k, side) of every edge it built."""
    label, alg, d = request.param
    computed = set()

    def spy(side):
        real = getattr(silting, f"{side}_mutation")

        def mutate(parts, k, d, seed=0):
            computed.add((id(parts), k, side))
            return real(parts, k, d, seed)
        return mutate

    with pytest.MonkeyPatch.context() as m:
        for side in ("left", "right"):
            m.setattr(silting, f"{side}_mutation", spy(side))
        res = enumerate_silting(alg, d)
    return label, alg, d, res, computed


def test_each_skipped_edge_reaches_its_recorded_state(edge_walk):
    label, alg, d, res, computed = edge_walk
    reg = res.registry
    states = {rec.ids for rec in res.clusters}
    assert not res.unknown
    skipped = rejected = 0
    for rec in res.clusters:
        for k, x_id in enumerate(rec.ids):
            for side, mutate in (("left", silting.left_mutation),
                                 ("right", silting.right_mutation)):
                try:
                    parts = mutate(rec.parts, k, d, reg.seed)
                except WindowViolation:
                    parts = None
                rejected += parts is None
                if (id(rec.parts), k, side) in computed:
                    continue
                skipped += 1
                want = res.edges[(rec.ids, x_id, side)]
                if want is WindowViolation:
                    assert d == 1 and parts is None
                else:
                    assert parts is not None and want in states
                    assert tuple(sorted(reg.find(y) for y in parts)) == want
    assert skipped and skipped + len(computed) == 2 * alg.n * res.count
    # the stats are those of a search that computes every edge
    assert res.stats["mutations"] == 2 * alg.n * res.count
    assert res.stats["window_rejected"] == rejected


def test_edge_walk_keeps_the_frozen_records(edge_walk):
    label, alg, d, res, _ = edge_walk
    count, stats, digest = EDGE_WALK_FROZEN[label]
    if alg.is_hereditary():
        assert count == fuss_catalan(alg.n, d)
    assert (res.count, res.stats) == (count, stats)
    rows = [(rec.ids, rec.result.lineage and (
        rec.result.lineage.parent, rec.result.lineage.k,
        rec.result.lineage.side)) for rec in res.clusters]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:12] == digest
    by_ids = {rec.ids: rec for rec in res.clusters}
    for rec in res.clusters:
        lin = rec.result.lineage
        assert lin is None or lin.replay(res.registry, by_ids[lin.parent])


# -- Dynkin quivers in any orientation ---------------------------------------

def test_dynkin_oracle_matches_known_counts():
    for n in range(1, 8):
        for d in (1, 2, 3):
            assert dynkin_silting_count("A", n, d) == fuss_catalan(n, d)
    # type D_n clusters: (3n - 2)/n * C(2n - 2, n - 1) (Fomin-Zelevinsky)
    for n in range(4, 9):
        assert n * dynkin_silting_count("D", n, 1) == \
            (3 * n - 2) * comb(2 * n - 2, n - 1)
    assert [dynkin_silting_count("E", n, 1) for n in (6, 7, 8)] == \
        [833, 4160, 25080]
    with pytest.raises(ValueError):
        dynkin_exponents("D", 3)


@pytest.mark.parametrize("kind,n,arrows,d,want", [
    # 1 -> 2 <- 3 -> 4
    ("A", 4, [(1, 2), (3, 2), (3, 4)], 1, 42),
    # three arrows into the centre 2
    ("D", 4, [(1, 2), (3, 2), (4, 2)], 1, 50),
    ("D", 4, [(1, 2), (3, 2), (4, 2)], 2, 336),
], ids=["A4-alternating-d1", "D4-sink-d1", "D4-sink-d2"])
def test_dynkin_counts_match_the_exponent_product(kind, n, arrows, d, want):
    alg = build_algebra(n, [(i + 1, s, t) for i, (s, t) in enumerate(arrows)])
    assert dynkin_silting_count(kind, n, d) == want
    res = enumerate_silting(alg, d)
    assert res.count == want and not res.unknown


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind,n,edges", [
    ("A", 4, [(1, 2), (2, 3), (3, 4)]),
    ("D", 4, [(1, 2), (2, 3), (2, 4)]),
], ids=["A4", "D4"])
def test_dynkin_count_does_not_depend_on_the_orientation(kind, n, edges,
                                                         seed):
    rng = np.random.default_rng(seed)
    arrows = [(i + 1, *(e if rng.integers(2) else e[::-1]))
              for i, e in enumerate(edges)]
    res = enumerate_silting(build_algebra(n, arrows), 1)
    assert res.count == dynkin_silting_count(kind, n, 1)
    assert not res.unknown


def test_clique_records_carry_towers(ka3):
    res = enumerate_silting(ka3, 1, method="clique")
    assert res.count == 14
    for rec in res.clusters:
        assert rec.result.lineage is None
        assert len(rec.result.towers) == ka3.n
        assert all(t.replay() for t in rec.result.towers)


def test_enumerate_nakayama_mutation(nak):
    res = enumerate_silting(nak, 1, method="mutation")
    assert res.count == 12
    assert not res.unknown


def test_clique_needs_hereditary(nak):
    with pytest.raises(PoolConstructionUnsupported):
        enumerate_silting(nak, 1, method="clique")


def test_enumeration_deterministic(ka2):
    a = enumerate_silting(ka2, 1, method="mutation", seed=7)
    b = enumerate_silting(ka2, 1, method="mutation", seed=7)
    assert [r.ids for r in a.clusters] == [r.ids for r in b.clusters]
    assert a.visited == b.visited


# -- the rigid pool ----------------------------------------------------------

def test_euler_form_roots(ka2):
    assert euler_form(ka2, np.array([1, 0])) == 1
    assert euler_form(ka2, np.array([1, 1])) == 1
    assert euler_form(ka2, np.array([2, 1])) == 3


def test_rigid_indecomposables_ka3(ka3):
    mods = rigid_indecomposables(ka3)
    assert len(mods) == 6
    dims = sorted(tuple(m.dims) for m in mods)
    assert dims == [(0, 0, 1), (0, 1, 0), (0, 1, 1),
                    (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_rigid_pool_sizes(ka2, ka3):
    assert len(rigid_pool(ka2, 1)) == 5
    assert len(rigid_pool(ka3, 1)) == 9
    # shifting the window adds one layer of presentations per extra degree
    assert len(rigid_pool(ka2, 2)) == 8


def test_pool_members_are_rigid(ka2):
    for x in rigid_pool(ka2, 1):
        assert hom_k(x, x, 1) == 0


# -- registry ----------------------------------------------------------------

def test_registry_interning(ka2, monkeypatch):
    reg = ComplexRegistry()
    p0 = proj_stalk(ka2, 0)
    a = reg.intern(p0)
    assert reg.intern(proj_stalk(ka2, 0)) == a
    assert reg.intern(p0.shift(1)) != a
    assert reg.state([proj_stalk(ka2, 1), p0]) == (
        reg.intern(p0), reg.intern(proj_stalk(ka2, 1)))
    # find looks up without interning
    known = len(reg.items)
    assert reg.find(proj_stalk(ka2, 1).shift(1)) is None
    assert len(reg.items) == known
    # p0 plus a contractible summand is homotopy equivalent to p0
    cone = proj_cone(chain_identity(proj_stalk(ka2, 1)))
    assert reg.find(proj_direct_sum([p0, cone])) == a
    assert len(reg.items) == known
    # resolved objects are remembered: no minimize or iso test on lookup
    x = proj_stalk(ka2, 1).shift(1)
    i = reg.intern(x)
    iso_calls = []
    iso = silting.iso_k

    def counted_iso(*args, **kwargs):
        iso_calls.append(1)
        return iso(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("resolved object was scanned again")

    with monkeypatch.context() as m:
        m.setattr(silting, "minimize", refuse)
        m.setattr(silting, "iso_k", refuse)
        assert reg.find(x) == i
        assert reg.find(reg.items[i]) == i
        assert reg.intern(x) == i
    # a miss is not remembered: interning the object later gives a new id
    y = p0.shift(2)
    assert reg.find(y) is None
    fresh = len(reg.items)
    assert reg.intern(y) == fresh
    assert reg.find(y) == fresh
    # x plus a contractible summand minimizes to x itself, the item: no
    # iso test
    monkeypatch.setattr(silting, "iso_k", counted_iso)
    assert reg.find(proj_direct_sum([proj_stalk(ka2, 1).shift(1),
                                     proj_cone(chain_identity(p0))])) == i
    assert not iso_calls
    # an isomorphic object with other content still resolves through iso_k
    s0 = resolution_of_module(simple(ka2, 0), 1)
    j = reg.intern(s0)
    twice = ProjComplex(ka2, s0.lo, s0.summands, [2 * m for m in s0.dmats])
    assert reg.find(twice) == j
    assert iso_calls


def test_intern_goes_on_from_a_find_miss(ka2):
    reg = ComplexRegistry()
    p0 = proj_stalk(ka2, 0)
    reg.intern(p0)
    x = p0.shift(1)
    y = proj_direct_sum([p0.shift(1), proj_cone(chain_identity(p0))])
    assert reg.find(x) is None and reg.find(y) is None
    # x becomes a new item; y, isomorphic to x, is matched with that item
    # though it was looked up before x was interned
    assert reg.state([x, y]) == (1, 1)
    assert reg.find(y) == 1


def test_node_budget_stops_the_search(ka3, monkeypatch, tmp_path):
    # A_3 d=1 has 14 classes; a cap of 4 visited states stops the mutation
    # search with a partial count, and the CLI reports a spent budget
    import json
    from tiltlab.cli import EXIT_BUDGET, main
    monkeypatch.setattr(silting, "MAX_NODES", 4)
    with pytest.raises(BudgetExceeded, match=r"exceeded 4 nodes") as exc:
        enumerate_silting(ka3, 1)
    partial = silting.enumerate_mutation(ka3, 1)
    assert partial.budget_exceeded and 4 < partial.visited < 14
    assert str(exc.value).endswith(f"partial count {partial.count}")
    spec = tmp_path / "a3.json"
    spec.write_text(json.dumps({"catalog": "linear_an", "n": 3, "d": 1}))
    assert main(["enumerate", "--spec", str(spec)]) == EXIT_BUDGET == 2


# -- the silting order against the mutation edge table ----------------------

def order_faults(enum, alg) -> list[str]:
    """Where the order from Hom-vanishing disagrees with the edge table.

    The (d+1)-term silting classes form the interval [A[d], A] of the
    silting order, whose Hasse arrows are the irreducible left mutations
    (Aihara-Iyama, *Silting mutation in triangulated categories*, 2012).
    So the order on the enumerated classes needs a unique maximum, the
    class of A, and a unique minimum, A[d]; its covering pairs are the
    undirected pairs {state, target} of ``enum.edges``; and each edge goes
    down for a left mutation and up for a right one.
    """
    items, d, reg = enum.registry.items, enum.d, enum.registry
    table = {(a, b): all(hom_k(items[a], items[b], s) == 0
                         for s in range(1, d + 1))
             for a in range(len(items)) for b in range(len(items))}
    classes = [rec.ids for rec in enum.clusters]
    ge = order_from_vanishing(classes, lambda a, b: table[(a, b)])
    faults = []
    tops = [t for t in classes if all((t, u) in ge for u in classes)]
    bottoms = [u for u in classes if all((t, u) in ge for t in classes)]
    free = tuple(sorted(reg.find(proj_stalk(alg, v)) for v in range(alg.n)))
    shifted = tuple(sorted(reg.find(proj_stalk(alg, v).shift(d))
                           for v in range(alg.n)))
    if tops != [free]:
        faults.append(f"maximum {tops}, not the class of A {free}")
    if bottoms != [shifted]:
        faults.append(f"minimum {bottoms}, not the class of A[d] {shifted}")
    hasse = covering_pairs(classes, ge)
    pairs = set()
    for (state, y, side), target in enum.edges.items():
        if target is WindowViolation:
            continue
        pairs.add(frozenset((state, target)))
        arrow = (state, target) if side == "left" else (target, state)
        if arrow not in hasse:
            faults.append(f"{side} mutation of {state} at {y} does not go "
                          f"{'down' if side == 'left' else 'up'} one step")
    if pairs != {frozenset(pair) for pair in hasse}:
        faults.append(f"{len(hasse)} covering pairs, {len(pairs)} edges")
    return faults


@pytest.mark.parametrize("alg, d, classes, arrows", [
    (linear_an(3), 1, 14, 21),
    (linear_an(4), 1, 42, 84),
    (nakayama_rad_square_zero(3), 2, 49, 97),
    (linear_an(3), 2, 55, 110),
], ids=["A3-d1", "A4-d1", "Nak3-d2", "A3-d2"])
def test_hasse_diagram_of_the_order_is_the_edge_table(alg, d, classes,
                                                      arrows):
    enum = enumerate_silting(alg, d)
    assert enum.count == classes
    assert sum(t is not WindowViolation for t in enum.edges.values()) == arrows
    assert order_faults(enum, alg) == []


def test_planted_edge_table_faults_break_the_order():
    alg = linear_an(3)
    enum = enumerate_silting(alg, 1)
    walked = [k for k, t in enum.edges.items() if t is not WindowViolation]
    state, y, side = key = walked[len(walked) // 2]
    flipped = {k: t for k, t in enum.edges.items() if k != key}
    flipped[(state, y, "right" if side == "left" else "left")] = (
        enum.edges[key])
    dropped = {k: t for k, t in enum.edges.items() if k != key}
    for edges in (flipped, dropped):
        assert order_faults(replace(enum, edges=edges), alg)

"""Acceptance suite: nine end-to-end checks, one test per criterion.

Each test prints a single ``[A#] PASS`` line (shown with ``-rA``/``-s``)
carrying the measured figures; the wall-clock bounds and expected counts
are hard-coded and never loosened at run time.  The corpus is fixed:
linear A_n path algebras for n = 1, 2, 3 and the radical-square-zero
Nakayama algebra on three vertices, over F_1009 (F_2003 for the prime
cross-check).
"""
import json
import time

import numpy as np
import pytest

from oracles import oracle_ext1_hereditary, oracle_hom_dim
from tiltlab.catalog import linear_an, nakayama_rad_square_zero
from tiltlab.cli import main
from tiltlab.errors import ResolutionDepthExceeded
from tiltlab.heart import e_ext, fac_membership, generator_models, module_stalk
from tiltlab.repcat import ext_dim, hom_basis, hom_dim, injective, projective, simple
from tiltlab.silting import enumerate_silting
from tiltlab.tiltcheck import (
    HeartStore,
    build_universe,
    check_equivalence,
    check_quasi_tilting,
    qtilt_closure_trials,
    schanuel_trials,
    verify_bijection,
    verify_torsion_reports,
)

PAIRS = [("ka1", 1), ("ka1", 2), ("ka1", 3), ("ka2", 1), ("ka2", 2),
         ("ka3", 1), ("nak", 1), ("nak", 2)]
EXPECTED_COUNTS = {("ka1", 1): 2, ("ka1", 2): 3, ("ka1", 3): 4,
                   ("ka2", 1): 5, ("ka2", 2): 12, ("ka3", 1): 14,
                   ("nak", 1): 12, ("nak", 2): 49}


def _build(name, p=1009):
    if name == "nak":
        return nakayama_rad_square_zero(3, p)
    return linear_an(int(name[-1]), p)


def _intervals(alg):
    """All indecomposables of a linear A_n path algebra (n <= 3)."""
    mods = [simple(alg, v) for v in range(alg.n)]
    if alg.n >= 2:
        mods.append(projective(alg, 0))
    if alg.n == 3:
        mods.extend([projective(alg, 1), injective(alg, 1)])
    assert len({tuple(m.dims) for m in mods}) == len(mods)
    return mods


@pytest.fixture(scope="module")
def corpus():
    algs = {name: _build(name) for name in ("ka1", "ka2", "ka3", "nak")}
    unis = {(name, d): build_universe(algs[name], d, seed=0)
            for name, d in PAIRS}
    return algs, unis


@pytest.fixture(scope="module")
def bijection_sweep(corpus):
    algs, unis = corpus
    t0 = time.monotonic()
    reports = {(name, d): verify_bijection(algs[name], d, unis[(name, d)],
                                           seed=0)
               for name, d in PAIRS}
    return reports, time.monotonic() - t0


@pytest.fixture(scope="module")
def prop_sweep(corpus, bijection_sweep):
    """Per enumerated class: image generators, fac audits, torsion report."""
    _, unis = corpus
    reports, _ = bijection_sweep
    out = {}
    for name, d in PAIRS:
        uni = unis[(name, d)]
        store = HeartStore(d, 0)
        rows = []
        for rec in reports[(name, d)].enumeration.clusters:
            ids = set()
            for part in rec.parts:
                ids.update(store.window_class(part))
            gens = [store.reps[i] for i in sorted(ids)]
            realizability, levels, in_count, steps_seen = [], [], 0, 0
            for mem in uni:
                rd = fac_membership(gens, mem.obj, d)
                rd1 = fac_membership(gens, mem.obj, d, d + 1)
                if bool(rd) != bool(rd1):
                    levels.append({"ids": rec.ids, "member": mem.key,
                                   "at_d": rd.verdict, "at_d1": rd1.verdict})
                if rd:
                    in_count += 1
                    for step in rd.steps:
                        steps_seen += 1
                        window_ok = all(-d + 1 <= q <= 0
                                        for q in step.kernel_dims)
                        if not (step.surjective and window_ok):
                            realizability.append(
                                {"ids": rec.ids, "member": mem.key,
                                 "stage": step.stage})
            tor = verify_torsion_reports(rec.parts, uni,
                                         silting_result=rec.result,
                                         store=store)
            rows.append({"ids": rec.ids, "gens": gens, "fac_in": in_count,
                         "steps": steps_seen, "realizability": realizability,
                         "levels": levels, "torsion": tor})
        out[(name, d)] = rows
    return out


def test_a1_hom_and_ext_match_longhand_oracles(corpus):
    algs, _ = corpus
    t0 = time.monotonic()
    pairs = 0
    for name in ("ka2", "ka3"):
        alg = algs[name]
        for m in _intervals(alg):
            for n in _intervals(alg):
                want_hom = oracle_hom_dim(m, n, alg.p)
                assert len(hom_basis(m, n)) == want_hom
                assert hom_dim(m, n) == want_hom
                assert ext_dim(m, n, 1) == oracle_ext1_hereditary(m, n, alg.p)
                assert ext_dim(m, n, 2) == 0
                pairs += 1
    elapsed = time.monotonic() - t0
    assert pairs == 3 * 3 + 6 * 6
    assert elapsed < 10.0
    print(f"[A1] PASS hom/ext agree with longhand oracles on {pairs} "
          f"indecomposable pairs in {elapsed:.2f}s (< 10s)")


def test_a2_enumeration_counts_with_both_methods(corpus):
    algs, _ = corpus
    times = {}
    for name, expected in (("ka2", 5), ("ka3", 14)):
        t0 = time.monotonic()
        enum = enumerate_silting(algs[name], 1, method="both", seed=0)
        times[name] = time.monotonic() - t0
        assert enum.count == expected
        assert not enum.unknown
        assert times[name] < 60.0
    print(f"[A2] PASS mutation and clique agree: ka2 d=1 -> 5 "
          f"({times['ka2']:.2f}s), ka3 d=1 -> 14 ({times['ka3']:.2f}s), "
          f"each < 60s")


def test_a3_bijection_on_the_full_corpus(bijection_sweep):
    reports, elapsed = bijection_sweep
    for key, rep in reports.items():
        assert rep.count == EXPECTED_COUNTS[key], key
        assert rep.ok, (key, rep.failures, rep.unknowns)
        assert rep.injective, key
        assert all(e.air_verdict == "yes" for e in rep.entries), key
        assert sum(e.mismatches for e in rep.entries) == 0, key
        assert all(e.rederived for e in rep.entries), key
    total = sum(r.count for r in reports.values())
    assert elapsed < 300.0
    print(f"[A3] PASS bijection verified on 8 corpus pairs, {total} classes, "
          f"0 mismatches, injective + surjective, {elapsed:.1f}s (< 300s)")


def test_a4_torsion_pairs_from_every_silting_class(prop_sweep):
    classes = members_in = steps = 0
    for key, rows in prop_sweep.items():
        for row in rows:
            assert not row["realizability"], (key, row["ids"],
                                              row["realizability"])
            assert not row["levels"], (key, row["ids"], row["levels"])
            tor = row["torsion"]
            assert not tor.orthogonality_failures, (key, row["ids"])
            assert not tor.perp_mismatches, (key, row["ids"])
            assert not tor.eproj_mismatches, (key, row["ids"])
            assert tor.ok, (key, row["ids"])
            classes += 1
            members_in += row["fac_in"]
            steps += row["steps"]
    print(f"[A4] PASS torsion-pair audit on {classes} classes: {steps} "
          f"factor-chain stages realizable, level d = level d+1 on every "
          f"member, E-projectives match the truncated class "
          f"({members_in} memberships)")


def test_a5_quasi_tilting_closure_trials(corpus, prop_sweep):
    _, unis = corpus
    verified = trials_run = 0
    for key in (("ka2", 1), ("nak", 1)):
        uni = unis[key]
        for row in prop_sweep[key]:
            if not row["gens"]:
                continue
            quasi = check_quasi_tilting(row["gens"], uni, sample_budget=60,
                                        seed=0)
            assert quasi, (key, row["ids"], quasi.witness)
            assert not quasi.anomalies, (key, row["ids"], quasi.anomalies)
            rep = qtilt_closure_trials(row["gens"], uni, n_trials=500,
                                       seed=11)
            assert rep.ok, (key, row["ids"], rep.kinds)
            verified += 1
            trials_run += sum(k["performed"] for k in rep.kinds.values())
    assert verified == 15
    print(f"[A5] PASS closure trials: {verified} verified quasi-tilting "
          f"generator sets, 500 seeded trials per property, "
          f"{trials_run} performed, 0 counterexamples")


def test_a6_three_checkers_agree(corpus, prop_sweep):
    algs, unis = corpus
    ka2, nak = algs["ka2"], algs["nak"]
    objects = []
    for row in prop_sweep[("ka2", 1)]:
        if row["gens"]:
            objects.append((("ka2", 1), row["gens"]))
    objects += [
        (("ka2", 1), [simple(ka2, 0), simple(ka2, 1)]),   # fails pair vanishing
        (("ka2", 1), [simple(ka2, 0)]),                   # rank-deficient
        (("ka2", 1), [projective(ka2, 0)]),               # projective non-generator
        (("nak", 1), [simple(nak, 0)]),
        (("nak", 1), [simple(nak, 1)]),
        (("nak", 1), [simple(nak, 2)]),
        (("nak", 1), [simple(nak, v) for v in range(3)]),
        (("nak", 1), [projective(nak, v) for v in range(3)]),
    ]
    decided = 0
    for key, gens in objects:
        rep = check_equivalence(gens, unis[key], seed=0, sample_budget=40)
        assert rep.consistent, (key, [m.dims for m in gens], rep.legs)
        decided += sum(v is not None for v in rep.legs.values())
    neg = check_equivalence([simple(ka2, 0), simple(ka2, 1)], unis[("ka2", 1)],
                            seed=0, sample_budget=40)
    assert neg.legs["tilting"] is False
    print(f"[A6] PASS equivalence checkers agree on {len(objects)} objects "
          f"({decided} decided legs), negative controls rejected by every "
          f"decided leg")


def test_a7_shifted_injectives_detect_tilting(prop_sweep):
    for key, rows in prop_sweep.items():
        for row in rows:
            tor = row["torsion"]
            if tor.tilting_case:
                assert all(e["fac"] == "in" for e in tor.injective_verdicts), \
                    (key, row["ids"])
    nak_rows = prop_sweep[("nak", 1)]
    tilting = [r for r in nak_rows if r["torsion"].tilting_case]
    witnesses = []
    for row in nak_rows:
        if row["torsion"].tilting_case:
            continue
        bad = [e for e in row["torsion"].injective_verdicts
               if e["fac"] != "in"]
        assert bad, row["ids"]
        witnesses.append((row["ids"], bad[0]["vertex"], bad[0]["fac"]))
    assert len(tilting) == 2
    assert len(witnesses) == 10
    ids, vertex, verdict = witnesses[0]
    print(f"[A7] PASS tilting classes have every shifted injective as a "
          f"d-factor; 10 non-tilting Nakayama classes refused one, e.g. "
          f"class {ids}: J({vertex + 1})[d-1] is {verdict}")


def test_a8_stability_depth_bytes_and_primes(corpus, tmp_path):
    algs, unis = corpus
    # (a) resolution depth 2d+3 vs 2d+6 on 200 member pairs
    compared = 0
    for key in (("ka2", 1), ("nak", 2)):
        d = key[1]
        members = list(unis[key])
        rng = np.random.default_rng(81)
        done = attempts = 0
        while done < 100 and attempts < 400:
            attempts += 1
            x = members[int(rng.integers(len(members)))]
            y = members[int(rng.integers(len(members)))]
            i = int(rng.integers(0, d + 2))
            try:
                shallow = e_ext(x.obj, y.obj, i, d)
            except ResolutionDepthExceeded:
                continue
            assert shallow == e_ext(x.obj, y.obj, i, d, depth=2 * d + 6)
            done += 1
        assert done == 100, key
        compared += done

    # (b) one configuration, one byte stream
    spec = tmp_path / "ka2.json"
    spec.write_text(json.dumps({"catalog": "linear_an", "n": 2, "d": 1}))
    out = tmp_path / "report.json"
    assert main(["verify", "--spec", str(spec), "bijection",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["verify", "--spec", str(spec), "bijection",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first

    # (c) nothing depends on the working prime
    for name, expected in (("ka2", 5), ("ka3", 14), ("nak", 12)):
        other = _build(name, p=2003)
        enum = enumerate_silting(other, 1, seed=0)
        assert enum.count == expected
        assert enum.count == EXPECTED_COUNTS[(name, 1)]
    for name in ("ka2", "ka3"):
        big, small = algs[name], _build(name, p=2003)
        table = {}
        for mods, alg in ((_intervals(big), big), (_intervals(small), small)):
            table[alg.p] = [(hom_dim(m, n), ext_dim(m, n, 1))
                            for m in mods for n in mods]
        assert table[1009] == table[2003]
    print(f"[A8] PASS stability: {compared} ext values unchanged at depth "
          f"2d+6, same-seed reports byte-identical, counts and dimensions "
          f"equal over F_1009 and F_2003")


def test_a9_kernel_exchange_up_to_summands(corpus):
    algs, unis = corpus
    nak = algs["nak"]
    parts = generator_models(
        [module_stalk(projective(nak, v)) for v in range(nak.n)], 1)
    pool = [m.model for m in unis[("nak", 1)]]
    rep = schanuel_trials(parts, pool, n_trials=100, seed=7)
    kind = rep.kinds["schanuel"]
    assert kind["performed"] == 100
    assert kind["failures"] == []
    assert not any(f.get("verdict") == "unknown" for f in kind["failures"])
    print("[A9] PASS kernel exchange certified on 100 seeded approximation "
          "pairs, 0 failures, 0 undecided isomorphisms")

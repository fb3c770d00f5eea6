"""Memo tables shared by content: equal complexes share one table.

A complex's first ``memo`` call looks its exact ``content_key`` up in a
weak-valued table on its algebra; a live content-equal complex lends its
table.  ``test_homotopy.unshared`` switches that off, so every object
keeps a table of its own; runs with and without it must agree.
"""
import contextlib
import gc
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.catalog import linear_an
from tiltlab.cli import main
from tiltlab.errors import ResolutionDepthExceeded
from tiltlab.heart import projective_model
from tiltlab.homotopy import ProjComplex, decompose_complex, hom_k
from tiltlab.memo import canon, memo
from tiltlab.repcat import ModuleMap, Representation
from tiltlab.repcomplex import RepComplex, truncate_above, truncate_below
from tiltlab.tiltcheck import _random_proj_3step, build_universe, \
    verify_bijection

from test_homotopy import small_algebras, unshared


def rebuilt(c, lo=None):
    """c rebuilt from copies of its lists and arrays (optionally moved)."""
    lo = c.lo if lo is None else lo
    if isinstance(c, ProjComplex):
        return ProjComplex(c.alg, lo, [list(s) for s in c.summands],
                           [m.copy() for m in c.dmats])
    terms = [Representation(c.alg, t.dims, [m.copy() for m in t.mats])
             for t in c.terms]
    diffs = [ModuleMap(terms[k], terms[k + 1], [m.copy() for m in f.vmaps])
             for k, f in enumerate(c.diffs)]
    return RepComplex(c.alg, lo, terms, diffs)


def bumped(m: np.ndarray, p: int) -> np.ndarray:
    """A copy of m with its first entry changed mod p."""
    out = m.copy()
    out.flat[0] = (out.flat[0] + 1) % p
    return out


def variants(c):
    """Copies of c that differ from it in one place, by name."""
    alg, p = c.alg, c.alg.p
    out = {"lo": rebuilt(c, c.lo + 1)}
    if isinstance(c, ProjComplex):
        dmats = list(c.dmats)
        dmats[0] = bumped(dmats[0], p)
        out["differential entry"] = ProjComplex(alg, c.lo, c.summands, dmats)
        summands = [list(s) for s in c.summands]
        summands[0][0] = (summands[0][0] + 1) % alg.n
        out["summand vertex"] = ProjComplex(alg, c.lo, summands, c.dmats)
        return out
    for k, t in enumerate(c.terms):
        for a, m in enumerate(t.mats):
            if m.size and "arrow entry" not in out:
                mats = list(t.mats)
                mats[a] = bumped(m, p)
                terms = list(c.terms)
                terms[k] = Representation(alg, t.dims, mats)
                diffs = [ModuleMap(terms[j], terms[j + 1], f.vmaps)
                         for j, f in enumerate(c.diffs)]
                out["arrow entry"] = RepComplex(alg, c.lo, terms, diffs)
    for k, f in enumerate(c.diffs):
        for v, m in enumerate(f.vmaps):
            if m.size and "differential entry" not in out:
                vmaps = list(f.vmaps)
                vmaps[v] = bumped(m, p)
                diffs = list(c.diffs)
                diffs[k] = ModuleMap(f.src, f.tgt, vmaps)
                out["differential entry"] = RepComplex(alg, c.lo, c.terms,
                                                       diffs)
    return out


def complexes(alg, seed):
    """A random complex of projectives, its expansion and a truncation."""
    x = _random_proj_3step(alg, np.random.default_rng(seed))
    y = x.expansion()
    return [x, y, truncate_below(truncate_above(y, 0), -1)]


@settings(max_examples=25, deadline=None)
@given(small_algebras(), st.integers(0, 2**32 - 1))
def test_a_rebuilt_copy_shares_the_table(alg, seed):
    for c in complexes(alg, seed):
        copy = rebuilt(c)
        assert copy is not c and memo(copy) is memo(c)
        assert canon(copy) is canon(c)
        assert canon(canon(c)) is canon(c)


@settings(max_examples=25, deadline=None)
@given(small_algebras(), st.integers(0, 2**32 - 1))
def test_a_copy_that_differs_in_one_place_keeps_its_own_table(alg, seed):
    for c in complexes(alg, seed):
        for what, other in variants(c).items():
            assert memo(other) is not memo(c), what
            assert canon(other) is other, what


def results(alg, seed):
    """hom_k, decompose_complex and projective_model on fresh copies."""
    x, y, heart_obj = complexes(alg, seed)
    out = [hom_k(rebuilt(x), rebuilt(t), i)
           for t in (x, y, heart_obj) for i in (-1, 0, 1)]
    out.append([(c.content_key(), m)
                for c, m in decompose_complex(rebuilt(x), seed=seed)])
    try:
        out.append(projective_model(rebuilt(heart_obj), 2).content_key())
    except ResolutionDepthExceeded:
        out.append("depth exceeded")
    return out


@settings(max_examples=15, deadline=None)
@given(small_algebras(), st.integers(0, 2**32 - 1))
def test_shared_runs_match_unshared_runs(alg, seed):
    shared = results(alg, seed)
    assert results(alg, seed) == shared
    with unshared():
        assert results(alg, seed) == shared


def test_planted_keys_without_lo_or_differentials_share_distinct_complexes():
    # the one-place tests above fail when the key drops lo or the
    # differentials: each such key shares a table between distinct contents
    planted = {
        "lo": lambda c: (tuple(map(tuple, c.summands)),
                         tuple(m.tobytes() for m in c.dmats)),
        "differential entry": lambda c: (c.lo, tuple(map(tuple, c.summands))),
    }
    for what, key in planted.items():
        alg = linear_an(3)
        with mock.patch.object(ProjComplex, "content_key", key):
            x = complexes(alg, 7)[0]
            assert memo(variants(x)[what]) is memo(x)


def test_the_content_table_holds_only_live_representatives():
    alg = linear_an(3)
    report = verify_bijection(alg, 1, build_universe(alg, 1, seed=0))
    assert report.ok
    gc.collect()
    table = memo(alg)[("content",)]
    assert len(table)
    assert all(canon(rep) is rep and rep.content_key() == key
               for key, rep in table.items())
    del report
    gc.collect()
    assert len(table) == 0


def test_reports_are_byte_identical_without_sharing(tmp_path):
    specs = {"A4": {"catalog": "linear_an", "n": 4},
             "Nak4": {"catalog": "nakayama_rad_square_zero", "n": 4},
             "A3": {"catalog": "linear_an", "n": 3}}
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    runs = [("enumerate", "A4", "2"), ("enumerate", "Nak4", "2"),
            ("verify", "A3", "1")]
    for command, name, d in runs:
        argv = [command, *(["bijection"] if command == "verify" else []),
                "--spec", str(tmp_path / f"{name}.json"), "--d", d,
                "--out", str(tmp_path / "report.json")]
        texts = []
        for scope in (contextlib.nullcontext(), unshared()):
            with scope:
                assert main(argv) == 0
            texts.append((tmp_path / "report.json").read_bytes())
        assert texts[0] == texts[1], (command, name, d)

"""Command-line front end: enumeration, checking, theorem verification.

Exit codes: 0 success/pass, 1 checker failure or hard mismatch, 2 search
budget exceeded (one of ``BUDGET_ERRORS``), 3 spec or parse error, 4
undecided verdict (also an ``UndecidedIso`` that escapes a command), 5
internal error (a bug: an exception that is not a ``TiltlabError``, or one
of ``NOT_INPUT_ERRORS``).  Identical configurations (including the seed)
produce byte-identical JSON reports.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import asdict, dataclass

from .errors import (BudgetExceeded, HomologyOutsideWindow, Mismatch,
                     NoSolution, RandomBudgetExhausted,
                     ResolutionDepthExceeded, SpecError, TiltlabError,
                     UndecidedIso, WindowViolation)
from .repcat import simple
from .serialize import (algebra_spec, dump_json, jsonable, load_algebra_spec,
                        load_objects, render_markdown)
from .silting import enumerate_silting
from .tiltcheck import (HeartStore, build_universe, check_air_tilting,
                        check_equivalence, check_quasi_tilting, check_tilting,
                        presentation_parts, qtilt_closure_trials,
                        verify_bijection, verify_torsion_reports)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_SPEC = 3
EXIT_UNKNOWN = 4
EXIT_INTERNAL = 5

# Library errors that parsed input cannot cause: the library catches each
# one where it can arise (an inconsistent system, a mutation or homology
# leaving the window), so one that escapes a command is a bug, not bad input.
NOT_INPUT_ERRORS = (NoSolution, WindowViolation, HomologyOutsideWindow)

# Budgets that ran out: the node budget of a search, the retries of a
# randomized search and the size bound of a projective resolution.
BUDGET_ERRORS = (BudgetExceeded, RandomBudgetExhausted,
                 ResolutionDepthExceeded)


@dataclass(frozen=True)
class RunConfig:
    spec: str
    d: int | None = None
    method: str = "mutation"
    seed: int = 0
    depth: int | None = None
    universe_dim_bound: int = 3
    format: str = "json"
    out: str | None = None


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tiltlab",
        description="Enumerate multi-term silting classes and verify the "
                    "induced subcategory correspondences.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", required=True,
                       help="algebra spec file (JSON)")
        p.add_argument("--d", type=int, default=None,
                       help="window size; overrides the spec file")
        p.add_argument("--method", choices=("mutation", "clique", "both"),
                       default="mutation", help="enumeration strategy")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed for all randomized steps")
        p.add_argument("--depth", type=int, default=None,
                       help="resolution depth for admitting universe members "
                            "(default 2d+3; other resolutions use 2d+3)")
        p.add_argument("--universe-dim-bound", type=int, default=3,
                       dest="universe_dim_bound",
                       help="dimension-vector bound for universe modules")
        p.add_argument("--format", choices=("json", "markdown"),
                       default="json", help="report format")
        p.add_argument("--out", default=None,
                       help="report file (default: stdout)")

    e = sub.add_parser("enumerate", help="enumerate silting classes")
    common(e)
    c = sub.add_parser("check", help="run one checker on an object file")
    common(c)
    c.add_argument("target", choices=("air", "quasi", "tilting"))
    c.add_argument("object", help="object file listing the generators")
    v = sub.add_parser("verify", help="verify a theorem over the corpus")
    common(v)
    v.add_argument("theorem", choices=("bijection", "torsion", "qtilt",
                                       "equiv"))
    return ap


def _load(cfg: RunConfig):
    alg, d_spec = load_algebra_spec(cfg.spec)
    d = cfg.d if cfg.d is not None else d_spec
    if d is None:
        raise SpecError("no window size: pass --d or put \"d\" in the spec")
    if d < 1:
        raise SpecError("d must be at least 1")
    if cfg.depth is not None and cfg.depth < 0:
        raise SpecError("--depth must be at least 0")
    if cfg.universe_dim_bound < 1:
        raise SpecError("--universe-dim-bound must be at least 1")
    return alg, d


def _universe(cfg: RunConfig, alg, d: int):
    return build_universe(alg, d, seed=cfg.seed,
                          dim_bound=cfg.universe_dim_bound, depth=cfg.depth)


def _emit(cfg: RunConfig, title: str, report: dict) -> None:
    # reports keep the retired "threads" key so their bytes do not change
    payload = {"config": {**asdict(cfg), "threads": 1},
               "report": jsonable(report)}
    if cfg.format == "json":
        text = dump_json(payload)
    else:
        text = render_markdown(title, payload)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(cfg: RunConfig) -> tuple[int, dict]:
    alg, d = _load(cfg)
    enum = enumerate_silting(alg, d, method=cfg.method, seed=cfg.seed)
    report = {
        "algebra": algebra_spec(alg), "d": d, "method": enum.method,
        "count": enum.count, "visited": enum.visited,
        "clusters": [{"ids": list(rec.ids),
                      "verdict": rec.result.verdict}
                     for rec in enum.clusters],
        "unknown": [{"ids": list(rec.ids), "reason": rec.result.reason}
                    for rec in enum.unknown],
        "stats": enum.stats,
    }
    return (EXIT_UNKNOWN if enum.unknown else EXIT_PASS), report


def cmd_check(cfg: RunConfig, target: str, object_path: str) -> tuple[int, dict]:
    alg, d = _load(cfg)
    objs = load_objects(alg, object_path, d)
    universe = _universe(cfg, alg, d)
    base = {"algebra": algebra_spec(alg), "d": d, "target": target,
            "universe_size": len(universe)}
    if target == "tilting":
        rep = check_tilting(objs, d, seed=cfg.seed)
        code = {"tilting": EXIT_PASS, "not_tilting": EXIT_FAIL,
                "unknown": EXIT_UNKNOWN}[rep.verdict]
        return code, {**base, "verdict": rep.verdict, "detail": rep}
    if target == "quasi":
        rep = check_quasi_tilting(objs, universe, sample_budget=100,
                                  seed=cfg.seed)
        if rep.verdict == "refuted":
            code = EXIT_FAIL
        elif rep.anomalies:
            code = EXIT_UNKNOWN
        else:
            code = EXIT_PASS
        return code, {**base, "verdict": rep.verdict, "detail": rep}
    try:
        parts = presentation_parts(objs, d, cfg.seed)
    except ResolutionDepthExceeded as exc:
        return EXIT_UNKNOWN, {**base, "verdict": "unknown",
                              "detail": {"error": str(exc)}}
    rep = check_air_tilting(objs, parts, universe)
    code = {"yes": EXIT_PASS, "no": EXIT_FAIL, "mismatch": EXIT_FAIL,
            "unknown": EXIT_UNKNOWN}[rep.verdict]
    return code, {**base, "verdict": rep.verdict, "detail": rep}


def _cluster_images(rec, d: int, seed: int):
    """The heart generators of one enumerated class, with local ids."""
    store = HeartStore(d, seed)
    return [store.reps[i] for i in store.image(rec.parts)]


def cmd_verify(cfg: RunConfig, theorem: str) -> tuple[int, dict]:
    alg, d = _load(cfg)
    universe = _universe(cfg, alg, d)
    base = {"algebra": algebra_spec(alg), "d": d, "theorem": theorem,
            "universe_size": len(universe)}

    if theorem == "bijection":
        rep = verify_bijection(alg, d, universe, seed=cfg.seed,
                               method=cfg.method)
        report = {**base, "count": rep.count, "injective": rep.injective,
                  "entries": rep.entries, "failures": rep.failures,
                  "unknowns": rep.unknowns}
        if rep.failures or not rep.injective:
            return EXIT_FAIL, report
        if rep.unknowns:
            return EXIT_UNKNOWN, report
        return EXIT_PASS, report

    enum = enumerate_silting(alg, d, method=cfg.method, seed=cfg.seed)

    if theorem == "torsion":
        def one(rec):
            store = HeartStore(d, cfg.seed)
            tr = verify_torsion_reports(rec.parts, universe,
                                        silting_result=rec.result,
                                        store=store)
            return {"ids": list(rec.ids), "ok": tr.ok,
                    "tilting_case": tr.tilting_case,
                    "injectives": tr.injective_verdicts,
                    "orthogonality_failures": tr.orthogonality_failures,
                    "perp_mismatches": tr.perp_mismatches,
                    "eproj_mismatches": tr.eproj_mismatches}
        rows = [one(rec) for rec in enum.clusters]
        report = {**base, "clusters": rows}
        return (EXIT_PASS if all(r["ok"] for r in rows) else EXIT_FAIL,
                report)

    if theorem == "qtilt":
        def one(rec):
            gens = _cluster_images(rec, d, cfg.seed)
            q = check_quasi_tilting(gens, universe, sample_budget=60,
                                    seed=cfg.seed)
            row = {"ids": list(rec.ids), "quasi": q.verdict,
                   "anomalies": q.anomalies, "trials": None, "ok": bool(q)}
            if q.verdict != "refuted":
                trials = qtilt_closure_trials(gens, universe, n_trials=100,
                                              seed=cfg.seed)
                row["trials"] = {
                    name: {"performed": k["performed"],
                           "skipped": k["skipped"],
                           "failures": k["failures"]}
                    for name, k in trials.kinds.items()}
                row["ok"] = bool(q) and trials.ok
            return row
        rows = [one(rec) for rec in enum.clusters]
        report = {**base, "classes": rows}
        return (EXIT_PASS if all(r["ok"] for r in rows) else EXIT_FAIL,
                report)

    # theorem == "equiv": enumerated images plus deterministic controls
    objects = [(f"class {rec.ids}", _cluster_images(rec, d, cfg.seed))
               for rec in enum.clusters]
    objects += [(f"simple {v + 1}", [simple(alg, v)]) for v in range(alg.n)]
    objects.append(("all simples", [simple(alg, v) for v in range(alg.n)]))

    def one(pair):
        label, gens = pair
        if not gens:
            return {"object": label, "consistent": True, "legs": {},
                    "note": "empty generator set skipped"}
        er = check_equivalence(gens, universe, seed=cfg.seed,
                               sample_budget=40)
        return {"object": label, "consistent": er.consistent,
                "legs": er.legs, "witnesses": er.witnesses}
    rows = [one(pair) for pair in objects]
    report = {**base, "objects": rows}
    return (EXIT_PASS if all(r["consistent"] for r in rows) else EXIT_FAIL,
            report)


def _internal_error() -> int:
    """Report the exception being handled as a bug; no report is written."""
    # a bug must not pass for a verdict or for bad input: its own exit code
    print("internal error:", file=sys.stderr)
    traceback.print_exc()
    return EXIT_INTERNAL


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    cfg = RunConfig(
        spec=ns.spec, d=ns.d, method=ns.method, seed=ns.seed, depth=ns.depth,
        universe_dim_bound=ns.universe_dim_bound, format=ns.format,
        out=ns.out)
    try:
        if ns.command == "enumerate":
            code, report = cmd_enumerate(cfg)
            title = "Enumeration report"
        elif ns.command == "check":
            code, report = cmd_check(cfg, ns.target, ns.object)
            title = f"Check report: {ns.target}"
        else:
            code, report = cmd_verify(cfg, ns.theorem)
            title = f"Verification report: {ns.theorem}"
    except BUDGET_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Mismatch as exc:
        print(f"hard mismatch: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except UndecidedIso as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except TiltlabError as exc:
        if isinstance(exc, NOT_INPUT_ERRORS):
            return _internal_error()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except Exception:
        return _internal_error()
    _emit(cfg, title, report)
    return code


if __name__ == "__main__":
    sys.exit(main())

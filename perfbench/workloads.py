"""The four benchmark workloads.

Each workload turns the benchmark seed into plain input data
(``inputs``), builds the program objects from that data (``setup``,
timed as set-up) and runs one timed pass over them (``run``).  Every
pass builds its objects afresh, so the per-object caches the program
keeps on algebras, complexes and universes start cold, as they do for
every CLI run.

The seed relabels the vertices of every quiver by a seeded permutation
(seed 0 keeps the catalog labelling).  Relabelled algebras are
isomorphic to the originals, so class counts, hom dimensions, verdicts
and exit codes must not change with the seed; trial counts and report
digests do, and are frozen for seed 0 only.

Library functions are looked up on their modules at call time, so that
the tracer's wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tiltlab import algebra, cli, heart, homotopy, repcat, silting, tiltcheck

# Fixed relative spec locations: the CLI report records the spec path, so
# the path must not depend on where the checkout lives.
SPEC_DIR = Path(".perfbench") / "specs"


@dataclass
class Outcome:
    """What one pass did: items completed, operations checked, outputs."""
    items: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def guard(self, what: str, fn, *args, **kwargs):
        """Run one library call; an exception makes it a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # any crash is a failed operation
            self.failures.append(f"{what}: {traceback.format_exc()}")
            return None


# -- generated inputs --------------------------------------------------------

def linear_quiver(n: int, rad_square_zero: bool = False) -> dict:
    """Spec of the linear A_n quiver, optionally with rad^2 = 0."""
    arrows = [[i, i, i + 1] for i in range(1, n)]
    relations = [[i, i + 1] for i in range(1, n - 1)] if rad_square_zero \
        else []
    return {"vertices": n, "arrows": arrows, "relations": relations}


def relabel(spec: dict, seed: int, salt: int) -> dict:
    """Renumber the vertices of a quiver spec by a seeded permutation."""
    n = spec["vertices"]
    if seed == 0:
        perm = list(range(1, n + 1))
    else:
        rng = np.random.default_rng([seed, salt])
        perm = [int(v) + 1 for v in rng.permutation(n)]
    return {**spec, "arrows": [[a, perm[s - 1], perm[t - 1]]
                               for a, s, t in spec["arrows"]]}


def build(spec: dict):
    return algebra.build_algebra(spec["vertices"],
                                 [tuple(a) for a in spec["arrows"]],
                                 spec["relations"])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads ---------------------------------------------------------------

class Enumerate:
    name = "enumerate"
    item = "silting class"
    why = ("mutation search: homotopy and silting do the work; heart, "
           "endsplit and tiltcheck are bypassed")
    CASES = [("A4", linear_quiver(4), 1, 42),
             ("A3", linear_quiver(3), 2, 55),
             ("Nak3", linear_quiver(3, rad_square_zero=True), 2, 49)]

    def inputs(self, seed: int) -> list:
        return [(label, relabel(spec, seed, k), d, want)
                for k, (label, spec, d, want) in enumerate(self.CASES)]

    def setup(self, inputs: list) -> list:
        return [(label, build(spec), d, want)
                for label, spec, d, want in inputs]

    def run(self, state: list, seed: int) -> Outcome:
        out = Outcome()
        for label, alg, d, want in state:
            enum = out.guard(label, silting.enumerate_silting, alg, d,
                             method="mutation", seed=0)
            if enum is None:
                continue
            out.check(enum.count == want and not enum.unknown
                      and not enum.budget_exceeded,
                      f"{label} d={d}: {enum.count} classes, "
                      f"{len(enum.unknown)} unknown (want {want}, 0)")
            out.items += enum.count
            out.outputs[f"{label}.classes"] = enum.count
            out.outputs[f"{label}.states"] = sha256(
                repr([rec.ids for rec in enum.clusters]))
        return out

    @staticmethod
    def seed_free(outputs: dict) -> dict:
        return {k: v for k, v in outputs.items() if k.endswith(".classes")}


class Closure:
    name = "closure"
    item = "closure trial performed"
    why = ("quasi-tilting checks and closure trials: tiny-matrix linalg, "
           "homology and fac_membership; silting is bypassed")
    SPEC = linear_quiver(3, rad_square_zero=True)
    D = 1
    SETS = 11
    FROZEN_TRIALS = 4289   # trials performed at seed 0

    def inputs(self, seed: int) -> dict:
        return relabel(self.SPEC, seed, 0)

    def setup(self, spec: dict):
        alg = build(spec)
        uni = tiltcheck.build_universe(alg, self.D, seed=0)
        enum = silting.enumerate_silting(alg, self.D, method="mutation",
                                         seed=0)
        store = tiltcheck.HeartStore(self.D, 0)
        sets = []
        for rec in enum.clusters:
            ids = set()
            for part in rec.parts:
                ids.update(store.window_class(part))
            gens = [store.reps[i] for i in sorted(ids)]
            if gens:
                sets.append(gens)
        return uni, sets

    def run(self, state, seed: int) -> Outcome:
        uni, sets = state
        out = Outcome()
        out.check(len(sets) == self.SETS,
                  f"{len(sets)} generator sets (want {self.SETS})")
        out.outputs["sets"] = len(sets)
        performed = 0
        for k, gens in enumerate(sets):
            q = out.guard(f"set {k} quasi", tiltcheck.check_quasi_tilting,
                          gens, uni, sample_budget=60, seed=0)
            if q is not None:
                out.check(bool(q) and not q.anomalies,
                          f"set {k}: quasi verdict {q.verdict}, "
                          f"{len(q.anomalies)} anomalies")
                out.outputs[f"set{k}.quasi"] = q.verdict
            rep = out.guard(f"set {k} trials", tiltcheck.qtilt_closure_trials,
                            gens, uni, n_trials=100, seed=11)
            if rep is None:
                continue
            failures = sum(len(k_["failures"]) for k_ in rep.kinds.values())
            done = sum(k_["performed"] for k_ in rep.kinds.values())
            out.check(failures == 0, f"set {k}: {failures} trial failures")
            out.outputs[f"set{k}.trials"] = done
            performed += done
        if seed == 0:
            out.check(performed == self.FROZEN_TRIALS,
                      f"{performed} trials performed "
                      f"(want {self.FROZEN_TRIALS})")
        out.items = performed
        return out

    @staticmethod
    def seed_free(outputs: dict) -> dict:
        # relabelling reorders the sets, so compare the verdicts as a multiset
        return {"sets": outputs.get("sets"),
                "quasi": sorted(v for k, v in outputs.items()
                                if k.endswith(".quasi"))}


class Bijection:
    name = "bijection"
    item = "verified silting class"
    why = ("in-process `tiltlab verify bijection`: endsplit/decompose, "
           "HeartStore, AIR checks, serialize, larger rref matrices")
    CASES = [("A3", linear_quiver(3), 1, 14),
             ("Nak3", linear_quiver(3, rad_square_zero=True), 2, 49)]
    # SHA-256 of the seed-0 JSON reports (spec paths as in SPEC_DIR)
    FROZEN = {
        "A3":
            "d36b8dc3d597deaf96f084feaec0e6a6a103b31fc7b9bbe4fe0de4fc591092c4",
        "Nak3":
            "aefb69279310aaf6dbae5e5be2ef8f83c831aa6b1e417c5efcb1cdadb7d824f9",
    }

    def inputs(self, seed: int) -> list:
        return [(label, {**relabel(spec, seed, k), "d": d}, want)
                for k, (label, spec, d, want) in enumerate(self.CASES)]

    def setup(self, inputs: list) -> list:
        SPEC_DIR.mkdir(parents=True, exist_ok=True)
        state = []
        for label, spec, want in inputs:
            path = SPEC_DIR / f"bijection-{label}.json"
            path.write_text(json.dumps(spec, sort_keys=True))
            state.append((label, str(path), want))
        return state

    def run(self, state: list, seed: int) -> Outcome:
        out = Outcome()
        for label, path, want in state:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = out.guard(label, cli.main,
                                 ["verify", "--spec", path, "bijection"])
            if code is None:
                continue
            text = buf.getvalue()
            digest = sha256(text)
            out.outputs[f"{label}.sha256"] = digest
            out.outputs[f"{label}.exit"] = code
            if code != 0:
                out.check(False, f"{label}: exit {code}")
                continue
            rep = json.loads(text)["report"]
            out.outputs[f"{label}.count"] = rep["count"]
            ok = (rep["count"] == want and rep["injective"]
                  and not rep["failures"] and not rep["unknowns"]
                  and all(e["air_verdict"] == "yes" and e["rederived"]
                          for e in rep["entries"]))
            frozen = self.FROZEN[label] if seed == 0 else digest
            ok = ok and digest == frozen
            out.check(ok, f"{label}: count {rep['count']} (want {want}), "
                          f"{len(rep['failures'])} failures, "
                          f"{len(rep['unknowns'])} unknowns, "
                          f"sha256 {digest[:12]} (want {frozen[:12]})")
            if ok:
                out.items += rep["count"]
        return out

    @staticmethod
    def seed_free(outputs: dict) -> dict:
        return {k: v for k, v in outputs.items()
                if k.endswith((".exit", ".count"))}


class LargeAlgebra:
    name = "large_algebra"
    item = "hom_k evaluation"
    why = ("A_20 (dim 210): algebra size, not call count, sets the cost; "
           "the dense multiplication tensor sets peak memory")
    N = 20
    FROZEN_TOTAL = 308

    def inputs(self, seed: int) -> dict:
        return relabel(linear_quiver(self.N), seed, 0)

    def setup(self, spec: dict):
        return build(spec)

    def run(self, alg, seed: int) -> Outcome:
        out = Outcome()
        objs = []
        for kind in ("injective", "simple"):
            make = getattr(repcat, kind)
            for v in range(alg.n):
                x = out.guard(f"{kind} {v}", lambda: homotopy.minimize(
                    heart.p_presentation(make(alg, v), 1)))
                if x is not None:
                    objs.append(x)
        total = 0
        for x in objs:
            for y in objs:
                for shift in (0, 1):
                    dim = out.guard("hom_k", homotopy.hom_k, x, y, shift)
                    if dim is not None:
                        out.items += 1
                        total += dim
        out.check(total == self.FROZEN_TOTAL,
                  f"hom total {total} (want {self.FROZEN_TOTAL})")
        out.outputs["hom_total"] = total
        return out

    @staticmethod
    def seed_free(outputs: dict) -> dict:
        return dict(outputs)


WORKLOADS = {w.name: w for w in (Enumerate(), Closure(), Bijection(),
                                 LargeAlgebra())}

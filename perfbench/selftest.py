"""Self-test of the benchmark itself.

For each workload (all by default), from the root of a checkout:

    python3 perfbench/selftest.py [workload ...]

1. A traced run at seed 0: no unwrapped alias remains, two traced passes
   in one process give identical per-layer counts (a leaked per-object
   cache would show as fewer ``HomPackage`` builds on the second pass),
   and traced outputs and digests equal the untraced ones.
2. A traced run at a second seed passes the same checks, and the outputs
   that do not depend on the seed equal those at seed 0.
3. An untraced run at the second seed repeats the outputs and digests of
   the traced run at that seed.

Every run must report ``"correct": true``.  Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECOND_SEED = 7


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {res.returncode}")
    path = ROOT / ".perfbench" / "results" / \
        f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = sys.argv[1:] or list(WORKLOADS)
    for name in names:
        wl = WORKLOADS[name]
        first = bench(name, 0, 1)
        second = bench(name, SECOND_SEED, 1)
        repeat = bench(name, SECOND_SEED, 0)
        for rec in (first, second, repeat):
            expect(rec["result"]["correct"],
                   f"{name} seed {rec['seed']} trace {rec['trace']}: correct "
                   f"({rec['result']['attempted']} operations, "
                   f"{rec['result']['failed']} failed)")
        for rec in (first, second):
            for check, ok in rec["self_checks"].items():
                expect(ok, f"{name} seed {rec['seed']}: {check}")
        expect(wl.seed_free(first["outputs"]) == wl.seed_free(second["outputs"]),
               f"{name}: seed-free outputs equal at seeds 0 and {SECOND_SEED}")
        expect(repeat["outputs"] == second["outputs"],
               f"{name}: outputs and digests repeat between runs at seed "
               f"{SECOND_SEED}")


if __name__ == "__main__":
    main()

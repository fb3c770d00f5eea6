"""tiltlab benchmark: time to an exact, checked answer, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bijection --seed 0 --seconds 40 --trace 0

``--trace 0`` times passes with tracing off for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs one untraced and two traced
passes, whatever ``--seconds`` says, and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(samples, outputs, environment) goes to ``.perfbench/results/``.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")
MIN_SETUPS = 3

END_TO_END = {   # name -> unit
    "wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import tiltlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "tiltlab" / "__init__.py").is_file():
        fail(f"no tiltlab sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import tiltlab
    seconds = time.perf_counter() - t0
    if Path(tiltlab.__file__).resolve().parent != src / "tiltlab":
        fail(f"tiltlab imported from {tiltlab.__file__}, not {src}")
    return seconds


def environment(threads_env) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "TILTLAB_THREADS": "unset" if threads_env is None
            else f"was {threads_env!r}, unset for the run"}


def cold_start() -> None:
    """Drop the previous pass's objects and process-wide symbolic caches."""
    from sympy.core.cache import clear_cache
    clear_cache()
    gc.collect()


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    ordered = sorted(samples)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return {"percentile": q, "value": ordered[rank - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n,
            "note": "fewer than 11 samples: no percentile has ten beyond it"}


def timed_pass(wl, inputs, seed: int):
    cold_start()
    t0 = time.perf_counter()
    state = wl.setup(inputs)
    setup = time.perf_counter() - t0
    gc.collect()
    c0, t0 = cpu_seconds(), time.perf_counter()
    out = wl.run(state, seed)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return setup, wall, cpu, out


def measure(wl, seed: int, seconds: float, import_s: float,
            record: dict) -> dict:
    inputs = wl.inputs(seed)
    setups, walls, cpus, items, outputs = [], [], [], [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    while True:
        setup, wall, cpu, out = timed_pass(wl, inputs, seed)
        setups.append(setup)
        walls.append(wall)
        cpus.append(cpu)
        items.append(out.items)
        outputs.append(out.outputs)
        attempted += out.attempted
        failures += out.failures
        if time.perf_counter() - start >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        cold_start()
        t0 = time.perf_counter()
        wl.setup(inputs)
        setups.append(time.perf_counter() - t0)
    cold_start()
    record.update(
        passes=len(walls), wall_s_samples=walls, wall_s_tail=tail(walls),
        cpu_s_samples=cpus, items_per_pass=items, setup_s_samples=setups,
        outputs_repeat=all(o == outputs[0] for o in outputs),
        outputs=outputs[0], failures=failures)
    if not record["outputs_repeat"]:
        failures.append("outputs differ between passes of one run")
        attempted += 1
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(n / w for n, w in zip(items, walls)),
        "cpu_s": statistics.median(cpus),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(failures) / attempted,
    }
    return {"attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def measure_traced(wl, seed: int, record: dict) -> dict:
    from tracer import PER_LAYER, Tracer

    inputs = wl.inputs(seed)
    _setup, untraced_wall, _cpu, ref = timed_pass(wl, inputs, seed)
    attempted, failures = ref.attempted, list(ref.failures)

    tracer = Tracer()
    tracer.install()
    unwrapped = tracer.unwrapped_aliases()
    runs = []
    for k in (1, 2):
        cold_start()
        tracer.reset_tallies()
        tracer.begin_trace(f"{wl.name}-seed{seed}-pass{k}")
        lo = len(tracer.span_name)
        with tracer.span("bench.setup"):
            state = wl.setup(inputs)
        with tracer.span("bench.pass") as sp:
            out = wl.run(state, seed)
        del state
        tracer.end_trace()
        hi = len(tracer.span_name)
        runs.append({"wall": sp.seconds, "out": out,
                     "layers": tracer.layer_metrics(lo, hi),
                     "counts": tracer.counts(lo, hi)})
        attempted += out.attempted
        failures += out.failures
    tracer.uninstall()
    cold_start()

    checks = {
        "no unwrapped alias": not unwrapped,
        "traced passes give identical counts":
            runs[0]["counts"] == runs[1]["counts"],
        "traced outputs equal untraced outputs":
            all(r["out"].outputs == ref.outputs for r in runs),
    }
    for what, ok in checks.items():
        attempted += 1
        if not ok:
            failures.append(f"trace self-check failed: {what}")

    layers = {}
    for name, (kind, _unit) in PER_LAYER.items():
        if name == "trace.overhead_frac":
            continue
        vals = [r["layers"][name] for r in runs]
        layers[name] = vals[0] if kind == "count" else statistics.mean(vals)
    traced_wall = statistics.mean(r["wall"] for r in runs)
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1

    span_file = OUT_DIR / "traces" / f"{wl.name}-seed{seed}.npz"
    tracer.dump(span_file)
    record.update(
        untraced_wall_s=untraced_wall, traced_wall_s=[r["wall"] for r in runs],
        spans=len(tracer.span_name), span_file=str(span_file),
        unwrapped_aliases=unwrapped, self_checks=checks,
        counts=runs[0]["counts"],
        metric_kinds={k: v[0] for k, v in PER_LAYER.items()},
        outputs=ref.outputs, failures=failures)
    return {"attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": PER_LAYER[k][1]}
                        for k, v in layers.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            fail(f"workload {name} exited with {res.returncode}")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = val
    return merged


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    threads_env = os.environ.pop("TILTLAB_THREADS", None)
    import_s = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    kinds = {}
    if args.workload == "all":
        result = run_all(args)
    else:
        if args.workload not in WORKLOADS:
            fail(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
        wl = WORKLOADS[args.workload]
        record = {"workload": wl.name, "item": wl.item, "why": wl.why,
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(threads_env),
                  "import_s": import_s}
        if args.trace:
            result = measure_traced(wl, args.seed, record)
        else:
            result = measure(wl, args.seed, args.seconds, import_s, record)
        result = {"correct": result["failed"] == 0, **result}
        record["result"] = result
        path = OUT_DIR / "results" / \
            f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        kinds = record.get("metric_kinds", {})
        for failure in record["failures"]:
            print(f"FAILED: {failure}")
        print(f"record: {path}")

    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:6s} "
              f"{kinds.get(name, '')}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

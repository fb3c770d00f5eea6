"""Outside-in tracing of tiltlab's layer boundaries.

The tracer wraps layer functions from outside the program: every public
module-level function of each layer module except a few leaf helpers,
every private function that another module imports, plus
``ComplexRegistry.intern`` and ``HomPackage.__init__``.  Modules import
layer functions by name, so a wrapper is bound under every alias in
every ``tiltlab`` module, the package namespace and module-level
dispatch tables, not only where the function is defined.

Each wrapped call records one span (name, start, end, parent span); the
spans of one pass share a trace id.  Spans are kept in compact arrays
in memory and written out when the benchmark ends.  A few boundaries
also record a count taken from the call's arguments, result or
exception (matrix size for ``rref``, verdicts, skipped trials).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

from tiltlab.errors import WindowViolation

# Layer of each tiltlab module, in pipeline order.
LAYER_OF_MODULE = {
    "algebra": "algebra", "catalog": "algebra", "linalg": "linalg",
    "repcat": "repcat", "endsplit": "endsplit", "repcomplex": "repcomplex",
    "homotopy": "homotopy", "heart": "heart", "silting": "silting",
    "tiltcheck": "tiltcheck", "serialize": "serialize", "cli": "cli",
}
# Leaf helpers that only allocate or reduce an array.  They are called
# millions of times per pass and do no layer work of their own, so they are
# not wrapped; their time counts as self time of the calling function.
LEAF_HELPERS = {"linalg.modmat", "linalg.zeros", "linalg.eye",
                "linalg.modinv", "homotopy.azeros", "repcat.zero_rep",
                "repcat.proj_basis"}
METHODS = [("silting", "ComplexRegistry", "intern"),
           ("homotopy", "HomPackage", "__init__")]
ROOT = -1  # parent index of a top-level span

# Per-layer metrics: name -> (kind, unit).  "count" metrics are exact and
# repeat from pass to pass; "time" metrics are measured and vary.
PER_LAYER = {
    "algebra.build_s": ("time", "s"),
    "algebra.mult_tensor_bytes": ("count", "bytes"),
    "linalg.rref.calls": ("count", "count"),
    "linalg.rref.self_s": ("time", "s"),
    "linalg.rref.large_share": ("count", "ratio"),
    "linalg.solve_right.calls": ("count", "count"),
    "linalg.self_s": ("time", "s"),
    "repcat.decompose.calls": ("count", "count"),
    "repcat.projective_cover.self_s": ("time", "s"),
    "repcat.self_s": ("time", "s"),
    "endsplit.primitive_idempotents.calls": ("count", "count"),
    "endsplit.self_s": ("time", "s"),
    "repcomplex.homology_dims.calls": ("count", "count"),
    "repcomplex.homology_data.calls": ("count", "count"),
    "repcomplex.self_s": ("time", "s"),
    "homotopy.hom_package.calls": ("count", "count"),
    "homotopy.hom_package.built": ("count", "count"),
    "homotopy.hom_package.reuse_ratio": ("count", "ratio"),
    "homotopy.iso_k.calls": ("count", "count"),
    "homotopy.iso_k.unknown": ("count", "count"),
    "homotopy.right_approximation.self_s": ("time", "s"),
    "homotopy.self_s": ("time", "s"),
    "heart.fac_membership.calls": ("count", "count"),
    "heart.fac_membership.self_s": ("time", "s"),
    "heart.resolution_of_complex.calls": ("count", "count"),
    "heart.self_s": ("time", "s"),
    "silting.is_silting.calls": ("count", "count"),
    "silting.is_silting.self_s": ("time", "s"),
    "silting.certify_useful_ratio": ("count", "ratio"),
    "silting.not_silting": ("count", "count"),
    "silting.window_rejected": ("count", "count"),
    "silting.intern.calls": ("count", "count"),
    "silting.self_s": ("time", "s"),
    "tiltcheck.build_universe_s": ("time", "s"),
    "tiltcheck.trials_skipped_ratio": ("count", "ratio"),
    "tiltcheck.self_s": ("time", "s"),
    "serialize.dump_json_s": ("time", "s"),
    "trace.overhead_frac": ("time", "ratio"),
}


def _tiltlab_modules() -> dict:
    import tiltlab
    mods = {"": tiltlab}
    for info in pkgutil.iter_modules(tiltlab.__path__):
        mods[info.name] = importlib.import_module(f"tiltlab.{info.name}")
    return mods


def boundary_functions(mods: dict) -> dict:
    """Map id(function) -> (span name, function) for every traced boundary."""
    out = {}
    for short, mod in mods.items():
        if short not in LAYER_OF_MODULE:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in LEAF_HELPERS):
                out[id(obj)] = (f"{short}.{attr}", obj)
    # private functions that cross a module boundary are layer calls too
    for short, mod in mods.items():
        for obj in vars(mod).values():
            if (not inspect.isfunction(obj) or id(obj) in out
                    or not obj.__name__.startswith("_")):
                continue
            home = obj.__module__.rpartition(".")[2]
            if (obj.__module__.startswith("tiltlab.") and home != short
                    and home in LAYER_OF_MODULE):
                out[id(obj)] = (f"{home}.{obj.__name__}", obj)
    return out


class Tracer:
    """Installs span-recording wrappers and turns spans into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.traces: list[tuple[str, int, int]] = []   # (trace id, lo, hi)
        self._stack = [ROOT]
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[int, object] = {}
        self.tallies: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _tally(self, key: str, amount: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def _wrap(self, fn, name: str):
        nid = self._nid(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        # most boundaries have no hook; their wrapper skips the result
        # bookkeeping, which keeps the tracing overhead down
        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(span_name)
                span_name.append(nid)
                span_parent.append(stack[-1])
                span_start.append(0.0)
                span_end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span_end[idx] = clock()
                    span_start[idx] = t0
                    stack.pop()
        else:
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(span_name)
                span_name.append(nid)
                span_parent.append(stack[-1])
                span_start.append(0.0)
                span_end.append(0.0)
                stack.append(idx)
                result = exc = None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as err:
                    exc = err
                    raise
                finally:
                    span_end[idx] = clock()
                    span_start[idx] = t0
                    stack.pop()
                    hook(tracer, args, result, exc)
        return wrapper

    def span(self, name: str):
        """Context manager recording one span from the benchmark itself."""
        return _Span(self, self._nid(name))

    def begin_trace(self, trace_id: str) -> None:
        self.traces.append((trace_id, len(self.span_name), -1))

    def end_trace(self) -> None:
        tid, lo, _ = self.traces[-1]
        self.traces[-1] = (tid, lo, len(self.span_name))

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = _tiltlab_modules()
        wrappers = {}
        for key, (name, fn) in boundary_functions(mods).items():
            self.originals[key] = fn
            wrappers[key] = self._wrap(fn, name)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, (dict, list)):   # dispatch tables
                    keys = obj.keys() if isinstance(obj, dict) \
                        else range(len(obj))
                    for key in list(keys):
                        if id(obj[key]) in wrappers:
                            self._patches.append((obj, key, obj[key]))
                            obj[key] = wrappers[id(obj[key])]
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            self.originals[id(fn)] = fn
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            if isinstance(owner, (dict, list)):
                owner[attr] = obj
            else:
                setattr(owner, attr, obj)
        self._patches.clear()

    def unwrapped_aliases(self) -> list[str]:
        """Places in tiltlab that still hold an original, unwrapped function."""
        left = []
        for short, mod in _tiltlab_modules().items():
            for attr, obj in vars(mod).items():
                if id(obj) in self.originals:
                    left.append(f"{mod.__name__}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if id(fn) in self.originals:
                            left.append(f"{mod.__name__}.{attr}.{meth}")
                elif isinstance(obj, (dict, list, tuple)):
                    vals = obj.values() if isinstance(obj, dict) else obj
                    if any(id(v) in self.originals for v in vals):
                        left.append(f"{mod.__name__}.{attr}[...]")
        return left

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics for the spans recorded in [lo, hi)."""
        names = np.frombuffer(self.span_name, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.span_parent, dtype=np.int64)[lo:hi]
        dur = (np.frombuffer(self.span_end)[lo:hi]
               - np.frombuffer(self.span_start)[lo:hi])
        local = parent - lo
        has_parent = local >= 0
        covered = np.bincount(local[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        self_by_name = np.bincount(names, weights=self_time,
                                   minlength=n_names)
        # total duration of outermost spans of a name (recursion counted once)
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = names[has_parent] != names[local[has_parent]]
        total_by_name = np.bincount(names[outer], weights=dur[outer],
                                    minlength=n_names)
        layer_self: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_by_name[nid]

        def count(name):
            nid = self._name_id.get(name)
            return 0 if nid is None else int(calls[nid])

        def self_s(name):
            nid = self._name_id.get(name)
            return 0.0 if nid is None else float(self_by_name[nid])

        def total_s(name):
            nid = self._name_id.get(name)
            return 0.0 if nid is None else float(total_by_name[nid])

        def ratio(num, den):
            return num / den if den else 0.0

        t = self.tallies
        pkg_calls = count("homotopy.hom_package")
        built = count("homotopy.HomPackage.__init__")
        rref_calls = count("linalg.rref")
        trials = t.get("trials_performed", 0) + t.get("trials_skipped", 0)
        out = {
            "algebra.build_s": total_s("algebra.build_algebra"),
            "algebra.mult_tensor_bytes": int(t.get("algebra_bytes", 0)),
            "linalg.rref.calls": rref_calls,
            "linalg.rref.self_s": self_s("linalg.rref"),
            "linalg.rref.large_share": ratio(t.get("rref_large", 0),
                                             rref_calls),
            "linalg.solve_right.calls": count("linalg.solve_right"),
            "repcat.decompose.calls": count("repcat.decompose"),
            "repcat.projective_cover.self_s":
                self_s("repcat.projective_cover"),
            "endsplit.primitive_idempotents.calls":
                count("endsplit.primitive_idempotents"),
            "repcomplex.homology_dims.calls":
                count("repcomplex.homology_dims"),
            "repcomplex.homology_data.calls":
                count("repcomplex.homology_data"),
            "homotopy.hom_package.calls": pkg_calls,
            "homotopy.hom_package.built": built,
            "homotopy.hom_package.reuse_ratio":
                ratio(pkg_calls - built, pkg_calls),
            "homotopy.iso_k.calls": count("homotopy.iso_k"),
            "homotopy.iso_k.unknown": int(t.get("iso_unknown", 0)),
            "homotopy.right_approximation.self_s":
                self_s("homotopy.right_approximation"),
            "heart.fac_membership.calls": count("heart.fac_membership"),
            "heart.fac_membership.self_s": self_s("heart.fac_membership"),
            "heart.resolution_of_complex.calls":
                count("heart.resolution_of_complex"),
            "silting.is_silting.calls": count("silting.is_silting"),
            "silting.is_silting.self_s": self_s("silting.is_silting"),
            "silting.certify_useful_ratio":
                ratio(t.get("classes", 0), count("silting.is_silting")),
            "silting.not_silting": int(t.get("not_silting", 0)),
            "silting.window_rejected": int(t.get("window_rejected", 0)),
            "silting.intern.calls": count("silting.ComplexRegistry.intern"),
            "tiltcheck.build_universe_s": total_s("tiltcheck.build_universe"),
            "tiltcheck.trials_skipped_ratio":
                ratio(t.get("trials_skipped", 0), trials),
            "serialize.dump_json_s": total_s("serialize.dump_json"),
        }
        for layer in ("linalg", "repcat", "endsplit", "repcomplex",
                      "homotopy", "heart", "silting", "tiltcheck"):
            out[f"{layer}.self_s"] = float(layer_self.get(layer, 0.0))
        return out

    def counts(self, lo: int, hi: int) -> dict:
        """Exact call counts per span name plus the boundary tallies."""
        names = np.frombuffer(self.span_name, dtype=np.int64)[lo:hi]
        calls = np.bincount(names, minlength=len(self.names))
        out = {name: int(calls[i]) for i, name in enumerate(self.names)
               if calls[i]}
        out.update({f"tally.{k}": v for k, v in sorted(self.tallies.items())})
        return out

    def reset_tallies(self) -> None:
        self.tallies = {}

    def dump(self, path: Path) -> None:
        """Write every recorded span to a compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        trace_of = np.full(len(self.span_name), -1, dtype=np.int32)
        for k, (_tid, lo, hi) in enumerate(self.traces):
            trace_of[lo:hi] = k
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int64).astype(np.int16),
            parent=np.frombuffer(self.span_parent,
                                 dtype=np.int64).astype(np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end), trace=trace_of,
            names=np.array(self.names),
            trace_ids=np.array([tid for tid, _lo, _hi in self.traces]))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.span_name)
        tr.span_name.append(self.nid)
        tr.span_parent.append(tr._stack[-1])
        tr.span_start.append(time.perf_counter())
        tr.span_end.append(0.0)
        tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.span_end[self.idx] = time.perf_counter()
        tr._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.tracer.span_end[self.idx] - self.tracer.span_start[self.idx]


# -- boundary tallies --------------------------------------------------------

def _rref_size(tr, args, result, exc):
    if np.size(args[0]) > 16:
        tr._tally("rref_large")


def _iso_verdict(tr, args, result, exc):
    if result is not None and result.verdict == "unknown":
        tr._tally("iso_unknown")


def _silting_verdict(tr, args, result, exc):
    if result is not None and result.verdict == "no":
        tr._tally("not_silting")


def _mutation(tr, args, result, exc):
    if isinstance(exc, WindowViolation):
        tr._tally("window_rejected")


def _enumeration(tr, args, result, exc):
    if result is not None:
        tr._tally("classes", result.count)


def _trials(tr, args, result, exc):
    if result is not None:
        for kind in result.kinds.values():
            tr._tally("trials_performed", kind["performed"])
            tr._tally("trials_skipped", kind["skipped"])


def _algebra_bytes(tr, args, result, exc):
    if result is not None:
        tr._tally("algebra_bytes", sum(v.nbytes for v in vars(result).values()
                                       if isinstance(v, np.ndarray)))


_HOOKS = {
    "linalg.rref": _rref_size,
    "homotopy.iso_k": _iso_verdict,
    "silting.is_silting": _silting_verdict,
    "homotopy.left_mutation": _mutation,
    "homotopy.right_mutation": _mutation,
    "silting.enumerate_silting": _enumeration,
    "tiltcheck.qtilt_closure_trials": _trials,
    "algebra.build_algebra": _algebra_bytes,
}

"""Loading algebra/object specs and rendering reports.

JSON is the machine format: dictionaries are emitted with sorted keys so
that identical runs produce byte-identical files.  Markdown is a derived
view of the same data.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from . import catalog
from .algebra import BoundQuiverAlgebra, build_algebra
from .errors import SpecError
from .repcat import Representation, injective, projective, simple
from .repcomplex import RepComplex, homology_dims
from .silting import SiltingResult


# -- algebra specs -----------------------------------------------------------

_CATALOG = {
    "linear_an": catalog.linear_an,
    "nakayama_rad_square_zero": catalog.nakayama_rad_square_zero,
}


def algebra_from_spec(data: dict) -> tuple[BoundQuiverAlgebra, int | None]:
    """Build an algebra from a parsed spec dictionary.

    Either a catalog shorthand ({"catalog": name, "n": ..., "p": ...}) or
    explicit quiver data ({"vertices": n, "arrows": [[id, src, tgt], ...],
    "relations": [[arrow ids], ...], "p": ...}), 1-based throughout.
    An optional "d" records the window size; d must be at least 1.
    """
    if not isinstance(data, dict):
        raise SpecError("an algebra spec must be a JSON object")
    d = data.get("d")
    if d is not None:
        d = _spec_int(data, "d")
        if d < 1:
            raise SpecError("d must be at least 1")
    kwargs = {"p": _spec_int(data, "p")} if "p" in data else {}
    if "catalog" in data:
        name = data["catalog"]
        if name not in _CATALOG:
            raise SpecError(f"unknown catalog algebra {name!r}")
        if "n" in data:
            kwargs["n"] = _spec_int(data, "n")
        return _CATALOG[name](**kwargs), d
    try:
        n = _spec_int(data, "vertices")
        arrows = [tuple(_json_int(x, "an arrow entry") for x in (a, s, t))
                  for a, s, t in data["arrows"]]
        relations = [[_json_int(i, "a relation entry") for i in rel]
                     for rel in data.get("relations", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed algebra spec: {exc}") from exc
    return build_algebra(n, arrows, relations, **kwargs), d


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer; floats, booleans and strings raise."""
    if type(value) is not int:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _spec_int(data: dict, key: str, where: str = "") -> int:
    """data[key] as an integer, or a SpecError naming the field."""
    if key not in data:
        raise SpecError(f"{where}missing {key!r}")
    return _json_int(data[key], f"{where}{key!r}")


def load_algebra_spec(path) -> tuple[BoundQuiverAlgebra, int | None]:
    p = Path(path)
    if not p.is_file():
        raise SpecError(f"spec file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return algebra_from_spec(data)


def algebra_spec(alg: BoundQuiverAlgebra) -> dict:
    """The spec dictionary for an algebra (1-based, round-trips)."""
    arrows = [[a.ident, a.src + 1, a.tgt + 1] for a in alg.quiver.arrows]
    relations = [[alg.quiver.arrows[i].ident for i in walk]
                 for walk in alg.ideal.walks]
    return {"p": alg.p, "vertices": alg.n, "arrows": arrows,
            "relations": relations}


# -- object files ------------------------------------------------------------

def generators_from_spec(alg: BoundQuiverAlgebra, data) -> list[Representation]:
    """Parse the generator list of an object file.

    Each entry is either {"kind": projective|simple|injective,
    "vertex": v} (1-based) or an explicit representation {"dims": [...],
    "mats": [[[...]]]} with one matrix per arrow, shaped (dims[tgt],
    dims[src]).
    """
    if isinstance(data, dict):
        data = data.get("generators", [])
    if not isinstance(data, list):
        raise SpecError("an object file must list its generators")
    makers = {"projective": projective, "simple": simple,
              "injective": injective}
    out = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise SpecError(f"generator {k}: not a JSON object")
        if "kind" in entry:
            kind = entry["kind"]
            if kind not in makers:
                raise SpecError(f"generator {k}: unknown kind {kind!r}")
            v = _spec_int(entry, "vertex", f"generator {k}: ")
            if not 1 <= v <= alg.n:
                raise SpecError(f"generator {k}: vertex {v} out of range")
            out.append(makers[kind](alg, v - 1))
            continue
        try:
            dims = [_json_int(x, f"generator {k}: a dims entry")
                    for x in entry["dims"]]
            mats = [np.asarray(m, dtype=object) for m in entry["mats"]]
            if any(type(x) is not int for m in mats for x in m.flat):
                raise SpecError(f"generator {k}: matrix entries must be "
                                "integers")
            mats = [(m % alg.p).astype(np.int64) for m in mats]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"generator {k}: malformed entry: {exc}") from exc
        if len(dims) != alg.n or len(mats) != len(alg.quiver.arrows):
            raise SpecError(f"generator {k}: wrong dims/mats arity")
        for i, (a, m) in enumerate(zip(alg.quiver.arrows, mats)):
            shape = (dims[a.tgt], dims[a.src])
            if m.size == 0 and 0 in shape:
                # JSON writes every matrix without entries as [] or [[]]
                mats[i] = m.reshape(shape)
            elif m.shape != shape:
                raise SpecError(f"generator {k}: matrix for arrow {a.ident} "
                                f"has shape {m.shape}")
        rep = Representation(alg, dims, mats)
        broken = rep.broken_relation()
        if broken is not None:
            raise SpecError(f"generator {k}: relation {broken} (arrow ids) "
                            "does not act by zero")
        out.append(rep)
    return out


def objects_from_spec(alg: BoundQuiverAlgebra, data, d: int) -> list[RepComplex]:
    """Generators as heart objects, honoring per-entry "shift" fields.

    A shifted module stalk sits in cohomological degree -shift; anything
    outside the window [-d+1, 0] is rejected here, before any checker
    runs.
    """
    from .heart import module_stalk

    if isinstance(data, dict):
        entries = data.get("generators", [])
    else:
        entries = data
    reps = generators_from_spec(alg, data)
    out = []
    for k, (entry, rep) in enumerate(zip(entries, reps)):
        shift = _spec_int(entry, "shift", f"generator {k}: ") \
            if "shift" in entry else 0
        if not 0 <= shift <= d - 1:
            raise SpecError(f"generator {k}: homology in degree {-shift} "
                            f"falls outside the window [{-d + 1}, 0]")
        out.append(module_stalk(rep).shift(shift))
    return out


def load_objects(alg: BoundQuiverAlgebra, path, d: int) -> list[RepComplex]:
    p = Path(path)
    if not p.is_file():
        raise SpecError(f"object file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return objects_from_spec(alg, data, d)


# -- report rendering --------------------------------------------------------

def jsonable(obj):
    """Recursively convert reports to JSON-compatible data."""
    if isinstance(obj, SiltingResult):
        return {"verdict": obj.verdict, "reason": obj.reason,
                "refutation": jsonable(obj.refutation)}
    if isinstance(obj, RepComplex):
        return {"homology": {str(q): list(v) for q, v in
                             sorted(homology_dims(obj).items())}}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            out[f.name] = jsonable(value)
        return out
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def dump_json(data) -> str:
    return json.dumps(jsonable(data), sort_keys=True, indent=2) + "\n"


def _md_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, list):
        return ", ".join(_md_scalar(x) for x in v) or "-"
    return str(v)


def _cellable(v) -> bool:
    if isinstance(v, dict):
        return False
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return True


def _md_table(rows: list[dict]) -> list[str]:
    cols = sorted({k for row in rows for k in row})
    out = ["| " + " | ".join(cols) + " |",
           "| " + " | ".join("---" for _ in cols) + " |"]
    for row in rows:
        out.append("| " + " | ".join(
            _md_scalar(row.get(c)) for c in cols) + " |")
    return out


def render_markdown(title: str, data) -> str:
    """A flat, deterministic markdown view of a JSON-able report."""
    data = jsonable(data)
    lines = [f"# {title}", ""]

    def emit(key: str, value, level: int) -> None:
        head = "#" * min(level, 6)
        if isinstance(value, dict):
            lines.append(f"{head} {key}")
            lines.append("")
            for k in sorted(value):
                emit(k, value[k], level + 1)
        elif (isinstance(value, list) and value
              and all(isinstance(r, dict) for r in value)
              and all(_cellable(v) for r in value for v in r.values())):
            lines.append(f"{head} {key}")
            lines.append("")
            lines.extend(_md_table(value))
            lines.append("")
        elif isinstance(value, list):
            lines.append(f"{head} {key}")
            lines.append("")
            for i, v in enumerate(value):
                if isinstance(v, (dict, list)):
                    emit(str(i), v, level + 1)
                else:
                    lines.append(f"- {_md_scalar(v)}")
            lines.append("")
        else:
            lines.append(f"- **{key}**: {_md_scalar(value)}")

    if isinstance(data, dict):
        for k in sorted(data):
            emit(k, data[k], 2)
    else:
        emit("report", data, 2)
    return "\n".join(lines).rstrip() + "\n"

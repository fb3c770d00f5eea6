"""Every module-level import, definition and parameter in the library is
used, and importing the library loads no symbolic-algebra package."""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltlab"


def exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= exported(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = ("import os\nfrom .linalg import rank, zeros\n"
           "__all__ = ['zeros']\n\ndef f(m):\n    return rank(m)\n")
    assert unused_imports(src) == ["os"]


def unused_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter its body never reads.

    ``self`` and ``cls`` are exempt; a read in a nested function counts.
    """
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg] if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{getattr(fn, 'name', 'lambda')}({p})" for p in params
                if p not in ("self", "cls") and p not in read]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_checker_flags_an_unused_parameter():
    src = ("class C:\n    def m(self, a, b=1):\n        return a\n\n"
           "def f(x, *rest, key):\n    def g():\n        return x, rest\n"
           "    return g, key, lambda t, u: t\n")
    assert unused_parameters(src) == ["m(b)", "lambda(u)"]


# Tests replay these certificates; no program path calls them.
REPLAYED = {"GeneratorTower.replay", "MutationLineage.replay"}


def _names(node: ast.AST):
    """Every name and attribute name read or written under ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def dead_definitions(sources: dict[str, str], public: set[str]) -> list[str]:
    """Module-level functions and classes, and non-dunder methods, that no
    module refers to outside their own body and ``public`` does not name.

    ``sources`` maps module names to their text; entries read
    ``module.name`` or ``module.Class.method``.  References are by name,
    so a method counts as used when any attribute of that name is read.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    out = []
    for mod, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__")
                                  and m.name.endswith("__"))]
        for qual, node in defs:
            own = Counter(_names(node))[node.name]
            if (refs[node.name] - own <= 0 and node.name not in public
                    and qual not in REPLAYED):
                out.append(f"{mod}.{qual}")
    return out


def test_no_dead_definitions():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    public = exported(ast.parse(sources["__init__"]))
    assert dead_definitions(sources, public) == []


def test_checker_flags_a_dead_definition():
    src = ("__all__ = ['api']\n\ndef api():\n    return _used(), C()\n\n"
           "def _used():\n    return 1\n\ndef _unused(n):\n"
           "    return _unused(n - 1)\n\nclass C:\n"
           "    def __init__(self):\n        self.go()\n\n"
           "    def go(self):\n        pass\n\n    def stop(self):\n"
           "        pass\n")
    assert dead_definitions({"m": src}, {"api"}) == ["m._unused",
                                                      "m.C.stop"]


def test_import_leaves_sympy_unloaded():
    # numpy is the only runtime dependency; sympy is a test oracle only
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, tiltlab; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"

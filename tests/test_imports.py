"""Every module-level import and every parameter in the library is used,
and importing the library loads no symbolic-algebra package."""
import ast
import os
import subprocess
import sys
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


def test_import_leaves_sympy_unloaded():
    # numpy is the only runtime dependency; sympy is a test oracle only
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, tiltlab; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"

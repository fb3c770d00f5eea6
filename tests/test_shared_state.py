"""No library code writes into the term, differential or matrix lists of a
complex, module or map after building it.

Operations that change nothing hand back their input (``trim``,
``minimize``, the smart truncations), and results are memoized on the
objects they were computed from, so one object is shared by many
holders.  Writing into one of these attributes in place would change
every holder at once.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltlab"

SHARED = {"summands", "dmats", "terms", "diffs", "vmaps", "mats"}


def _shared_attribute(node) -> str | None:
    """The shared attribute a store target writes into, if any.

    ``x.dmats[k] = ...``, ``x.vmaps[v][i, j] += ...`` and
    ``del x.diffs[k]`` write into the attribute's value;
    ``x.summands += [...]`` extends the list in place.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
        if isinstance(node, ast.Attribute) and node.attr in SHARED:
            return node.attr
    return None


def in_place_writes(source: str) -> list[str]:
    """``line: attribute`` for each write into a shared attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            if isinstance(node.target, ast.Attribute) \
                    and node.target.attr in SHARED:
                out.append(f"{node.lineno}: {node.target.attr}")
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for tgt in targets:
            for sub in ast.walk(tgt):
                attr = _shared_attribute(sub)
                if attr is not None and isinstance(sub.ctx,
                                                   (ast.Store, ast.Del)):
                    out.append(f"{node.lineno}: {attr}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_in_place_writes_into_shared_attributes(path):
    assert in_place_writes(path.read_text()) == []


def test_checker_flags_a_planted_write():
    src = ("def f(x, y, m, k):\n"
           "    x.dmats[0] = m\n"
           "    y.vmaps[k][0, 1] += 1\n"
           "    x.summands += [k]\n"
           "    a, x.terms[1] = m, m\n"
           "    dmats = list(x.dmats)\n"
           "    dmats[0] = m\n"
           "    x.dmats = dmats\n"
           "    del y.diffs[0]\n"
           "    return x.mats[k][0]\n")
    assert in_place_writes(src) == ["2: dmats", "3: vmaps", "4: summands",
                                    "5: terms", "9: diffs"]

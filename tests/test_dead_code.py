"""Guard against uncalled surface in the package.

Every top-level function or class of ``src/formsteklov/*.py``, public or
private, and every method of its classes must be referenced somewhere in
the package, the demos or the benchmark: as a name, an attribute or an
imported name.  A reference from ``tests/`` alone does not count: code
that only tests call belongs in the tests.  Dunder names are called by
Python itself and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "formsteklov"
SEARCHED = ("src", "demos", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(name to look up, qualified name, place) of every checked
    definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((node.name, node.name, f"{path.name}:{node.lineno}"))
            if isinstance(node, ast.ClassDef):
                out += [(m.name, f"{node.name}.{m.name}",
                         f"{path.name}:{m.lineno}")
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not _is_dunder(m.name)]
    return [d for d in out if not _is_dunder(d[0])]


def _constants():
    """(name, place) of every module-level assignment to a name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            out += [(t.id, f"{path.name}:{node.lineno}") for t in targets
                    if isinstance(t, ast.Name) and not _is_dunder(t.id)]
    return out


def _program_trees():
    return [_parse(p) for d in SEARCHED for p in (ROOT / d).rglob("*.py")]


def _used_names():
    used = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_definition_is_used():
    used = _used_names()
    unused = {qual: where for name, qual, where in _definitions()
              if name not in used}
    assert not unused, f"definitions no program code uses: {unused}"


def test_every_constant_is_read():
    read = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {name: where for name, where in _constants()
              if name not in read}
    assert not unread, f"module constants no program code reads: {unread}"

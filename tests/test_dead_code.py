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


def _used_names():
    used = set()
    for path in (p for d in SEARCHED for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(_parse(path)):
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

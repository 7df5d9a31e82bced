"""Guard against uncalled public surface in the package.

Every top-level public function or class of ``src/formsteklov/*.py`` must be
referenced somewhere in the package, its tests, the demos or the benchmark:
as a name, an attribute or an imported name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "formsteklov"
SEARCHED = ("src", "tests", "demos", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions():
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out[node.name] = f"{path.name}:{node.lineno}"
    return out


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


def test_every_public_definition_is_used():
    used = _used_names()
    unused = {name: where for name, where in _public_definitions().items()
              if name not in used}
    assert not unused, f"public definitions nobody uses: {unused}"

"""Every imported name in the library, the tests and the demos is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/indeflll", "tests", "demos")


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """The names `path` imports and never references, as "file:line name".
    A name listed in the module's `__all__` counts as used."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    rel = path.relative_to(root)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_unused_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os, sys as system\n"
        "from json import dumps, loads\n"
        "from typing import Any\n"
        "__all__ = ['loads']\n"
        "print(os.sep, dumps)\n"
    )
    assert unused_imports(src, tmp_path) == ["m.py:1 system", "m.py:3 Any"]


def test_no_unused_imports():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in unused_imports(path)] == []

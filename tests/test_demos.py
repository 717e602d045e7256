import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import indeflll

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve():
    assert len(set(indeflll.__all__)) == len(indeflll.__all__)
    assert [n for n in indeflll.__all__ if not hasattr(indeflll, n)] == []


def test_demo_imports_are_public():
    """Every `from indeflll import ...` name of a demo is in __all__, so a
    cut of the public surface cannot break a demo unnoticed."""
    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "indeflll" and node.level == 0:
                imported.update(alias.name for alias in node.names)
    assert imported
    assert sorted(imported - set(indeflll.__all__)) == []

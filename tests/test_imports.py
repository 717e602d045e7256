"""Every imported name in the library, the tests and the demos is used,
every function of the library has a caller outside the tests, and every
parameter of a library function is read by its body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/indeflll", "tests", "demos")
LIBRARY = "src/indeflll"
# where a reference keeps a library function alive: the library itself,
# the demos and the benchmark (whose tracing targets name functions in strings)
USERS = (LIBRARY, "demos", "perfbench")
# library functions that only the tests call, with the reason each stays
TEST_ONLY = {
    "Transform2.compose": "the Fraction reference walk in tests/fraction_walk.py composes its moves",
    "GramMatrix.zeros": "the tests build empty and all-zero Grams with it",
    "GsoState.potential": "the tests check the builds' running product against it",
}


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


def defined_functions(path: Path) -> dict[str, list[str]]:
    """The functions and methods `path` defines, nested ones included, as
    bare name -> qualified names ("Class.method"); dunder methods, which
    Python calls itself, are left out."""
    out: dict[str, list[str]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, []).append(owner + name)
                visit(child, f"{owner}{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{owner}{child.name}.")
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), "")
    return out


def referenced_names(path: Path) -> set[str]:
    """Every name `path` reads, attribute names and whole string constants
    included (so a tracing target or an `__all__` entry counts)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def functions_without_users(root: Path = ROOT, library: str = LIBRARY, users=USERS) -> list[str]:
    """Qualified names of the library functions whose bare name nothing
    under `users` references.  Names are matched bare, so a method shares
    a reference with any function of the same name."""
    defined: dict[str, list[str]] = {}
    for path in sorted((root / library).rglob("*.py")):
        for name, qualified in defined_functions(path).items():
            defined.setdefault(name, []).extend(qualified)
    used = set().union(*(referenced_names(p) for d in users for p in (root / d).rglob("*.py")))
    return sorted(q for name, qs in defined.items() if name not in used for q in qs)


def test_scan_finds_functions_without_users(tmp_path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "use").mkdir()
    (tmp_path / "lib" / "m.py").write_text(
        "class A:\n"
        "    def __eq__(self, other): return True\n"
        "    def called(self): return self.helper()\n"
        "    def helper(self): return 1\n"
        "    def orphan(self): return 2\n"
        "def named(): pass\n"
        "def lonely():\n"
        "    def inner(): pass\n"
        "    return inner\n"
    )
    (tmp_path / "use" / "u.py").write_text("TARGETS = [('x', 'named')]\nA().called()\n")
    assert functions_without_users(tmp_path, "lib", ("lib", "use")) == ["A.orphan", "lonely"]


def test_library_functions_have_users_outside_the_tests():
    assert functions_without_users() == sorted(TEST_ONLY)
    # and the tests do call those
    assert functions_without_users(users=USERS + ("tests",)) == []


def _first_use(name: str, body: list) -> str | None:
    """"read" when the first top-level statement of `body` that reads or
    assigns `name` reads it, "bound" when it only assigns it (an augmented
    assignment reads), else None."""
    for stmt in body:
        nodes = list(ast.walk(stmt))
        if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load) for n in nodes):
            return "read"
        targets = stmt.targets if isinstance(stmt, ast.Assign) else []
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        if any(isinstance(n, ast.Name) and n.id == name for t in targets for n in ast.walk(t)):
            return "bound"
    return None


def unread_parameters(path: Path, root: Path = ROOT) -> list[str]:
    """The parameters that a function `path` defines never reads, as
    "file:line function(name)": never named in a load, its nested
    functions' included, before a top-level statement of the body
    rebinds it.  `self` and `cls` are left out."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [ast.Expr(node.body)]
        name = getattr(node, "name", "<lambda>")
        out += [f"{path.relative_to(root)}:{node.lineno} {name}({p.arg})" for p in params
                if p.arg not in ("self", "cls") and _first_use(p.arg, body) != "read"]
    return out


def test_scan_finds_unread_parameters(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class A:\n"
        "    def m(self, used, unused=0, *rest, key=1, **opts):\n"
        "        return used + key + len(opts)\n"
        "def outer(x, y, state, n=None):\n"
        "    def inner(z):\n"
        "        return x\n"
        "    y = 2\n"
        "    x += 1\n"
        "    gso: int = state.gso\n"
        "    if n is None:\n"
        "        n = gso\n"
        "    return inner, y, n\n"
        "def helper(state, gso):\n"
        "    gso = state.gso\n"
        "    return gso\n"
        "f = lambda a, b: a\n"
    )
    assert sorted(unread_parameters(src, tmp_path)) == [
        "m.py:13 helper(gso)", "m.py:16 <lambda>(b)", "m.py:2 m(rest)", "m.py:2 m(unused)",
        "m.py:4 outer(y)", "m.py:5 inner(z)",
    ]


def test_library_functions_read_every_parameter():
    files = sorted((ROOT / LIBRARY).rglob("*.py"))
    assert [hit for path in files for hit in unread_parameters(path)] == []

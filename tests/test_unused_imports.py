"""No module imports a name at top level that it never uses.

A standard-library stand-in for a linter's unused-import rule. A name counts
as used when the module reads it anywhere (as a name or as the base of an
attribute) or lists it in __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in ("src/toricmds", "tests", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom x import a, b as c\n__all__ = ['a']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: c"]


def test_no_unused_top_level_imports():
    found = {
        str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
        for path in FILES
    }
    assert {path: names for path, names in found.items() if names} == {}

"""Two import rules over src/syguskit/*.py, checked with the stdlib's ast:
every name a module imports is used in it, and no import sits inside a
function. `from __future__ import annotations` is exempt from the first
rule, as is an import whose line carries test_tracing's marker: it is kept
only for perfbench's tracer, and test_tracing checks that the tracer wraps
it."""

import ast
from pathlib import Path

import pytest

from test_tracing import NOQA

MODULES = sorted((Path(__file__).parent.parent / "src" / "syguskit")
                 .glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """The names path imports at module level and never reads."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if lines[node.end_lineno - 1].endswith(NOQA):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def function_level_imports(path: Path) -> list[str]:
    """The lines where path imports inside a function body."""
    return sorted({f"{path.name}:{node.lineno}"
                   for fn in ast.walk(ast.parse(path.read_text()))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_sits_inside_a_function(path):
    assert function_level_imports(path) == []


def test_the_rules_see_what_they_check(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "from a import (b,\n"
                   "               c)\n"
                   "from d import e" + NOQA + "\n"
                   "import f as g\n\n"
                   "def h():\n"
                   "    import i\n"
                   "    return os.path, c\n")
    assert unused_imports(src) == ["m.py:3 b", "m.py:6 g"]
    assert function_level_imports(src) == ["m.py:9"]

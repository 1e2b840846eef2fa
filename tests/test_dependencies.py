"""numpy stays the only runtime dependency: every module under
``src/curvecone`` imports only the standard library, numpy and
curvecone itself.  scipy and hypothesis are for the tests alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curvecone"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "curvecone"}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_are_stdlib_numpy_or_curvecone():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = [
        (path.relative_to(SRC).as_posix(), name)
        for path in modules
        for name in _imported(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in ALLOWED
    ]
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"

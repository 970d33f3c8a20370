"""Source hygiene checks that need no linter: every name a module of the
package or of this test suite imports at top level (directly or under a
top-level ``if``, such as ``TYPE_CHECKING``) must be used somewhere in that
module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "avrs"
# module id -> path: package modules by file name, test modules as tests/<name>
MODULES = {p.name: p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
MODULES.update((f"tests/{p.name}", p) for p in sorted(TESTS.glob("*.py")))


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line number for each top-level import."""
    bound: dict[str, int] = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    # quoted annotations such as ``config: "SessionConfig"``
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_top_level_import(module):
    tree = ast.parse(MODULES[module].read_text(), filename=module)
    used = _used_names(tree)
    unused = sorted(
        f"{module}:{line}: {name}"
        for name, line in _top_level_imports(tree).items()
        if name not in used
    )
    assert not unused, "unused imports:\n" + "\n".join(unused)

"""Source hygiene checks that need no linter: every name a module of the
package or of this test suite imports at top level (directly or under a
top-level ``if``, such as ``TYPE_CHECKING``) must be used somewhere in that
module, every public definition must be used by the package, a package
module's ``__all__`` must list exactly its public functions and classes
(and nothing it lacks), and every name the benchmark tracer patches must
exist."""

import ast
import importlib
import importlib.util
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


# entry points that the package reaches from outside its own modules
ENTRY_POINTS = {("cli.py", "main")}


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line number of each public top-level function and class."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names a module reads: bare names, attributes and imported names."""
    loaded = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_public_definition_is_used_by_the_package():
    # a public name that only __init__.py re-exports (or only tests call)
    # is API that no run of the program reaches
    package = {name: ast.parse(path.read_text()) for name, path in MODULES.items() if "/" not in name}
    loaded = set().union(*(_loaded_names(tree) for tree in package.values()))
    unused = sorted(
        f"{module}:{line}: {name}"
        for module, tree in package.items()
        for name, line in _public_definitions(tree).items()
        if name not in loaded and (module, name) not in ENTRY_POINTS
    )
    assert not unused, "public definitions no package module uses:\n" + "\n".join(unused)


# package modules that declare their public names in __all__
EXPORTING = sorted(
    name
    for name, path in MODULES.items()
    if "/" not in name and "__all__" in _names(ast.parse(path.read_text()))
)


@pytest.mark.parametrize("module", EXPORTING)
def test_all_lists_exactly_the_public_definitions(module):
    namespace = vars(importlib.import_module(f"avrs.{MODULES[module].stem}"))
    listed = namespace["__all__"]
    defined = _public_definitions(ast.parse(MODULES[module].read_text()))
    wrong = [f"{module}: __all__ lists {name}, which it lacks" for name in listed if name not in namespace]
    wrong += [f"{module}:{line}: {name} is not in __all__" for name, line in defined.items() if name not in listed]
    assert not wrong, "__all__ out of step with the module:\n" + "\n".join(wrong)


def test_package_reexports_only_listed_names():
    # avrs/__init__.py re-exports a name of a module that declares __all__
    # only when that list holds it, so a name leaves the package API with
    # its module
    tree = ast.parse((SRC / "__init__.py").read_text())
    wrong = [
        f"__init__.py:{node.lineno}: {alias.name} is not in avrs.{node.module}.__all__"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and f"{node.module}.py" in EXPORTING
        for alias in node.names
        if alias.name not in importlib.import_module(f"avrs.{node.module}").__all__
    ]
    assert not wrong, "re-exports out of step with __all__:\n" + "\n".join(wrong)


def _tracer():
    """The benchmark's tracer module, loaded from its file without installing
    it: it patches package names from outside, so a renamed or deleted name
    breaks a traced benchmark run."""
    path = TESTS.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_patches_exists():
    tracer = _tracer()
    missing = []
    for _, module, attr in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"function {module}.{attr}")
    for _, module, cls, attr in tracer.METHODS:
        if attr not in vars(getattr(importlib.import_module(module), cls)):
            missing.append(f"method {module}.{cls}.{attr}")
    for _, module, cls, attr in tracer.PROPERTIES:
        if not isinstance(vars(getattr(importlib.import_module(module), cls)).get(attr), property):
            missing.append(f"property {module}.{cls}.{attr}")
    assert not missing, "names the benchmark tracer patches are gone:\n" + "\n".join(missing)

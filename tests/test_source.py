from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinsat"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.Module, modules: set[str]) -> set[str]:
    """Names a module refers to: bare names, ``module.name`` attributes,
    imported names (also under an ``as`` alias) and ``(module, "name")``
    pairs such as ``getattr(module, "name")``. A top-level definition's own
    name, parameters and locals, used inside it, do not count."""
    found: set[str] = set()
    for top in tree.body:
        nodes = list(ast.walk(top))
        names: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, (ast.Tuple, ast.Call)):
                items = node.elts if isinstance(node, ast.Tuple) else node.args
                for owner, attr in zip(items, items[1:]):
                    if getattr(owner, "id", None) in modules and isinstance(attr, ast.Constant):
                        names.add(attr.value)
        if isinstance(top, DEFINITIONS):
            names.discard(top.name)
            names -= {node.arg for node in nodes if isinstance(node, ast.arg)}
            names -= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        found |= names
    return found


def sources_and_callers() -> tuple[list[Path], list[Path]]:
    """The package's modules, and those plus the benchmark's non-test modules."""
    sources = sorted(PACKAGE.glob("*.py"))
    return sources, sources + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def test_every_module_level_definition_in_src_is_used_outside_tests():
    # Test-only oracles live in tests/reference.py; a function or class that
    # only tests call does not belong in the package.
    sources, callers = sources_and_callers()
    modules = {path.stem for path in sources} | {"spinsat"}
    used: set[str] = set()
    for path in callers:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")), modules)
    unused = [
        f"{path.name}:{node.name}"
        for path in sources
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, DEFINITIONS) and node.name not in used
    ]
    assert unused == []


def test_every_method_of_a_src_class_is_used_outside_tests():
    # A method or property is reached as an attribute (``obj.name``); one
    # that no attribute in src/ or perfbench/ names is test-only. Dunder
    # methods are called by the language itself.
    sources, callers = sources_and_callers()
    used = {
        node.attr
        for path in callers
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    unused = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in sources
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == []

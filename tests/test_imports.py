"""Every module-level import and private name in the package is used.

A name counts as used only where the code refers to it (a mention in a
docstring or comment does not count) or where the module re-exports it
through ``__all__``.  A private module-level function, class or
constant (``_name``) must be referred to somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permboot"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported_names(tree))
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    )
    assert not unused, f"private names never referenced: {unused}"


def test_benchmark_tracer_finds_every_name_it_patches():
    # benchmarks/tracing.py wraps library functions by name: install()
    # raises if one of them is gone, and uninstall() puts them all back
    import importlib.util
    import sys

    import permboot.cli  # the tracer wraps cli.main; the package imports the rest

    spec = importlib.util.spec_from_file_location(
        "bench_tracing", PACKAGE.parents[1] / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "permboot" or name.startswith("permboot.")
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer._patches
    finally:
        tracer.uninstall()
    for name, bindings in before.items():
        mod = vars(sys.modules[name])
        assert all(mod[k] is v for k, v in bindings.items()), name

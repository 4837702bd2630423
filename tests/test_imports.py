"""Every module-level import and private name in the package is used,
every ``__all__`` names only what its module has, and the package loads
neither scipy nor jsonschema.

A name counts as used only where the code refers to it (a mention in a
docstring or comment does not count) or where the module re-exports it
through ``__all__``.  A private module-level function, class or
constant (``_name``) must be referred to somewhere in the package.

The analytic survival quadratures are numpy, and configs are checked
by the package's own schema walker, so scipy and jsonschema are test
dependencies only.
Which modules an import loads depends on everything the process
imported before, so those checks run in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permboot.config import KernelConfig
from permboot.limits import assemble_kernel_matrix

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


@pytest.mark.parametrize(
    "path", [p for p in MODULES if list(_exported_names(ast.parse(p.read_text())))],
    ids=lambda p: p.name,
)
def test_star_import_finds_every_exported_name(path):
    module = "permboot" if path.name == "__init__.py" else f"permboot.{path.stem}"
    exec(f"from {module} import *", {})


def test_package_exports_have_no_duplicates():
    import permboot

    assert len(set(permboot.__all__)) == len(permboot.__all__)


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


# -- lazy imports, each in a fresh interpreter ---------------------------

def _fresh_python(*args):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )


def _fresh_cli(*args):
    # what the installed console script runs
    return _fresh_python("-c", "import sys; from permboot.cli import main; sys.exit(main())", *args)


_LOADED = "print(sorted(m for m in ('scipy', 'jsonschema') if m in sys.modules))"


def test_package_import_loads_neither_scipy_nor_jsonschema():
    proc = _fresh_python("-c", "; ".join([
        "import sys, permboot, permboot.cli",
        _LOADED,
        "permboot.config.validate({'kind': 'exponential', 'rate': 1.0}, 'law')",
        _LOADED,
        "permboot.limits.quad(abs, 0.0, 1.0)",
        _LOADED,
        "from permboot.limits import KernelKind, assemble_kernel_matrix",
        "pop = permboot.limits.exponential_survival_population([1.0, 1.4], [0.5, 0.0], [0.5, 0.5], 2.0)",
        "[assemble_kernel_matrix(k, pop, [0.5, 0.5], [0.5, 1.5]) for k in KernelKind if 'indicator' not in k.value]",
        _LOADED,
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]", "[]"]


def test_cli_runs_where_jsonschema_cannot_be_imported(tmp_path):
    exp = {"kind": "exponential", "rate": 1.0}
    docs = {
        "sim.json": {"mode": "plain", "group_laws": [exp, exp], "sizes": [3, 3]},
        "kernel.json": {"kind": "perm-indicator", "lambdas": [0.5, 0.5], "grid": [0.5, 1.0],
                        "population": {"plain": exp}},
        # exhaustive N = 4 misses the asymptotic kernel: exit 4
        "verify.json": {"scenario": "plain-indicator", "group_laws": [exp, exp], "sizes": [2, 2],
                        "outer_reps": 1, "resample_kind": "permutation",
                        "seed": {"master_seed": 1}, "exhaustive": True},
        "bad.json": {"mode": "plain", "group_laws": [exp, exp], "sizes": [3, "x"]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    p = lambda name: str(tmp_path / name)
    runs = [
        ["simulate", "--config", p("sim.json"), "--output", p("sim.csv")],
        ["kernel", "--config", p("kernel.json"), "--output-matrix", p("k.csv"),
         "--output-meta", p("k.json")],
        ["verify", "--config", p("verify.json"), "--output", p("r.json")],
        ["simulate", "--config", p("bad.json"), "--output", p("bad.csv")],
    ]
    # a None entry in sys.modules makes every import of that name fail
    proc = _fresh_python("-c", "; ".join([
        "import sys",
        "sys.modules['jsonschema'] = None",
        "from permboot.cli import main",
        f"print([main(args) for args in {runs!r}])",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 4, 3]"]
    assert "invalid config at $.sizes[1]: 'x' is not of type 'integer'" in proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir() if path.suffix == ".csv") == [
        "k.csv", "sim.csv",
    ]


def test_analytic_survival_verify_thread_invariant_in_fresh_process(tmp_path):
    # at --threads 2 two replicates race to the first quadrature, which
    # computes the Gauss-Legendre nodes
    cfg = tmp_path / "km.json"
    cfg.write_text(json.dumps({
        "scenario": "survival-km",
        "group_laws": [{"kind": "exponential", "rate": 1.0}, {"kind": "exponential", "rate": 1.5}],
        "censoring_laws": [{"kind": "exponential", "rate": 0.5}] * 2,
        "sizes": [30, 30], "draws": 100, "outer_reps": 4,
        "resample_kind": "permutation", "target": "analytic",
        "seed": {"master_seed": 5},
    }))
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"r{threads}.json"
        proc = _fresh_cli("verify", "--config", cfg, "--output", out, "--threads", threads)
        assert proc.returncode in (0, 4), proc.stderr
        runs.append((proc.returncode, out.read_bytes()))
    assert runs[0] == runs[1]


def test_analytic_kernel_cli_in_fresh_process_matches_in_process(tmp_path):
    doc = {
        "kind": "boot-km", "lambdas": [0.4, 0.6], "grid": [0.3, 0.8, 1.5], "tau": 2.0,
        "population": {"survival_exponential": {"fail_rates": [1.0, 1.5], "cens_rates": [0.5, 0.5]}},
    }
    cfg, mat = tmp_path / "k.json", tmp_path / "k.csv"
    cfg.write_text(json.dumps(doc))
    proc = _fresh_cli("kernel", "--config", cfg, "--output-matrix", mat,
                      "--output-meta", tmp_path / "k-meta.json")
    assert proc.returncode == 0, proc.stderr
    config = KernelConfig.from_dict(doc)
    matrix = assemble_kernel_matrix(config.kind, config.population, config.lambdas, config.grid)
    assert mat.read_text() == "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in matrix)

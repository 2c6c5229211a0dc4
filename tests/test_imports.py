"""Every module-level import in the package earns its place: the module
uses the name, re-exports it in __all__, or the benchmark's tracer wraps it
there (a bench/spans.py binding site)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lambert_tsallis"


def binding_sites():
    """(module file name, attribute) of every bench/spans.py binding."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(f"{mod}.py" if mod else "__init__.py", attr) for mod, attr, _ in module.BINDINGS}


def unused_imports(path, sites):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported and (path.name, name) not in sites)


def test_every_module_level_import_is_used():
    sites = binding_sites()
    unused = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := unused_imports(path, sites))}
    assert not unused, unused


def test_the_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "wq.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport sys\nfrom .qexp import exp_q, ln_q\n"
                      "__all__ = ['ln_q']\nx = math.pi\n")
    assert unused_imports(module, binding_sites()) == [(3, "sys")]

"""Every module-level import in the package earns its place: the module
uses the name, re-exports it in __all__, or the benchmark's tracer wraps it
there (a bench/spans.py binding site).  Likewise every module-level def and
class is referenced somewhere in the package outside its own body, or is
listed in an __all__."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
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
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported_names(tree) and (path.name, name) not in sites)


def exported_names(tree):
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return exported


def references(node):
    """How often each name is read in node: plain names and attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def dead_definitions(paths):
    """(file name, line, name) of each module-level def or class in paths
    that no module references outside its own body and no __all__ lists."""
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    refs = sum((references(tree) for tree in trees.values()), Counter())
    exported = set().union(*map(exported_names, trees.values()))
    return sorted((name, node.lineno, node.name) for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in exported
                  and refs[node.name] <= references(node)[node.name])


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


def test_every_module_level_definition_is_used():
    assert not dead_definitions(sorted(PACKAGE.glob("*.py")))


def test_the_guard_sees_a_dead_definition(tmp_path):
    (tmp_path / "qexp.py").write_text("__all__ = ['exp_q']\n"
                                      "def exp_q(q, z):\n    return _kernel(q, z)\n"
                                      "def _kernel(q, z):\n    return z\n"
                                      "def _orphan(n):\n    return _orphan(n - 1)\n"
                                      "class _Unused:\n    pass\n")
    (tmp_path / "wq.py").write_text("from . import qexp\nclass Interval:\n    pass\n"
                                    "def solve():\n    return qexp._kernel, Interval\n")
    assert dead_definitions(sorted(tmp_path.glob("*.py"))) == [
        ("qexp.py", 6, "_orphan"), ("qexp.py", 8, "_Unused"), ("wq.py", 4, "solve")]


def test_importing_the_package_loads_neither_fractions_nor_decimal():
    # the exact layer holds ints; fractions, which imports decimal, loads only
    # where a caller reads a Fraction (.value, .a, .b, rational_bounds)
    code = ("import sys\n"
            "import lambert_tsallis\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
            "import lambert_tsallis.cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
            "lambert_tsallis.Rational(1, 2).value\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines() == ["[]", "[]", "['decimal', 'fractions']"]

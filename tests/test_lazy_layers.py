"""The exact layer (exact, classify) and verify load on first use, through
the PEP 562 hooks of the package and of cli.  Inside pytest every module is
already loaded, so each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ["lambert_tsallis.exact", "lambert_tsallis.classify", "lambert_tsallis.verify", "csv"]


def fresh(code: str) -> object:
    """The JSON value a fresh interpreter prints last after running code."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    return json.loads(out.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """Which of LAYERS a fresh interpreter has loaded after running code."""
    return fresh(f"import json, sys\n{code}\n"
                 f"print(json.dumps([m for m in {LAYERS!r} if m in sys.modules]))")


def loaded_by_main(*argv: str) -> list[str]:
    return loaded_after("import contextlib, io\n"
                        "import lambert_tsallis.cli as cli\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    assert cli.main({list(argv)!r}) == 0\n")


def test_the_numeric_layer_loads_alone():
    assert loaded_after("import lambert_tsallis\nlambert_tsallis.wq(2, 1)") == []


@pytest.mark.parametrize("argv", [
    ["table", "wq", "--q", "1", "--z-from=-0.3", "--z-to", "3", "--steps", "50"],
    ["table", "expq", "--q", "1.5", "--z-from", "0", "--z-to", "3", "--steps", "50"],
    ["eval", "wq", "--q", "2", "--z", "1"],
    ["eval", "expq", "--q", "2", "--z", "1", "--format", "json"],
    ["branch-point", "--q", "1"],
])
def test_numeric_commands_load_neither_layer_nor_csv(argv):
    assert loaded_by_main(*argv) == []


def test_csv_loads_with_the_first_csv_output():
    assert loaded_by_main("eval", "wq", "--q", "2", "--z", "1", "--format", "csv") == ["csv"]


def test_classify_loads_the_exact_layer_but_not_verify():
    assert loaded_by_main("classify", "wq", "--q", "sqrt(2)", "--z", "1") == [
        "lambert_tsallis.exact", "lambert_tsallis.classify"]


def test_the_scan_loads_verify_but_not_the_exact_layer():
    assert loaded_by_main("verify", "--suite", "scan", "--degree-max", "1",
                          "--coeff-max", "2") == ["lambert_tsallis.verify"]


def test_every_public_name_is_its_defining_modules_object():
    # read cold, one at a time, each name takes its object from the submodule
    # that defines it; cli's lazy names likewise
    assert fresh("import json, sys\n"
                 "import lambert_tsallis as lt\n"
                 "import lambert_tsallis.cli as cli\n"
                 "wrong = [n for n in lt.__all__[1:]\n"
                 "         if getattr(sys.modules[getattr(lt, n).__module__], n) is not getattr(lt, n)]\n"
                 "wrong += [n for n in ('parse_exact', 'render_exact', 'classify_wq', 'classify_expq',\n"
                 "                      'classify_lnq_derivative', 'classify_tower', 'run_all',\n"
                 "                      'run_scan_suite') if getattr(cli, n) is not getattr(lt, n)]\n"
                 "suites = {k: f.__name__ for k, f in cli._SUITES.items()}\n"
                 "wrong += [k for k, f in cli._SUITES.items() if f is not getattr(lt, f.__name__)]\n"
                 "print(json.dumps([wrong, suites]))") == [[], {
                     "residual": "run_residual_suite", "derivative": "run_derivative_suite",
                     "eq5": "run_eq5_suite", "branch": "run_branch_suite", "all": "run_all"}]


def test_star_import_and_dir_cover_every_public_name():
    missing = fresh("import json\n"
                    "import lambert_tsallis as lt\n"
                    "listed = set(dir(lt))\n"
                    "namespace = {}\n"
                    "exec('from lambert_tsallis import *', namespace)\n"
                    "print(json.dumps([sorted(set(lt.__all__) - listed),\n"
                    "                  sorted(set(lt.__all__) - set(namespace)),\n"
                    "                  sorted({'exact', 'classify', 'verify'} - listed)]))")
    assert missing == [[], [], []]


def test_the_submodules_are_attributes_of_the_package():
    assert fresh("import json, sys\n"
                 "import lambert_tsallis as lt\n"
                 "print(json.dumps([lt.verify is sys.modules['lambert_tsallis.verify'],\n"
                 "                  'lambert_tsallis.exact' in sys.modules,\n"
                 "                  lt.classify is sys.modules['lambert_tsallis.classify'],\n"
                 "                  lt.exact is sys.modules['lambert_tsallis.exact']]))"
                 ) == [True, False, True, True]


@pytest.mark.parametrize("module", ["lambert_tsallis", "lambert_tsallis.cli"])
def test_an_unknown_attribute_raises_attribute_error(module):
    assert fresh("import importlib, json\n"
                 f"m = importlib.import_module({module!r})\n"
                 "try:\n"
                 "    m.no_such_name\n"
                 "except AttributeError as exc:\n"
                 "    print(json.dumps([str(exc), hasattr(m, 'wq_exact')]))\n"
                 ) == [f"module {module!r} has no attribute 'no_such_name'", False]


def test_the_tracer_installs_and_uninstalls_from_a_cold_import():
    # each binding site holds one wrapper over the unwrapped object while the
    # tracer is installed; a traced classify and verify call the wrappers
    # bound in cli; after uninstall no site holds a wrapper
    spans = ROOT / "bench" / "spans.py"
    result = fresh(
        "import contextlib, importlib, importlib.util, io, json\n"
        "import lambert_tsallis\n"
        f"spec = importlib.util.spec_from_file_location('bench_spans', {str(spans)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "def sites():\n"
        "    for mod, attr, _ in spans.BINDINGS:\n"
        "        yield importlib.import_module('lambert_tsallis' + (mod and '.' + mod)), attr\n"
        "    mod, attr, names = spans.SUITE_TABLE\n"
        "    table = getattr(importlib.import_module('lambert_tsallis.' + mod), attr)\n"
        "    for key in names:\n"
        "        yield table, key\n"
        "def read(target, attr):\n"
        "    return target[attr] if isinstance(target, dict) else getattr(target, attr)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "wrapped = all(hasattr(read(*s), '__wrapped__')\n"
        "              and not hasattr(read(*s).__wrapped__, '__wrapped__') for s in sites())\n"
        "cli = importlib.import_module('lambert_tsallis.cli')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['classify', 'wq', '--q', 'sqrt(2)', '--z', '1']),\n"
        "             cli.main(['verify', '--suite', 'eq5'])]\n"
        "tracer.uninstall()\n"
        "stats = tracer.snapshot()['stats']\n"
        "restored = not any(hasattr(read(*s), '__wrapped__') for s in sites())\n"
        "print(json.dumps([wrapped, codes, restored, {k: v[0] for k, v in stats.items()}]))")
    # the spans the same two calls record with every layer imported up front
    assert result == [True, [0, 0], True, {
        "cli.main": 2, "exact.parse_exact": 2, "exact.render_exact": 3,
        "classify.classify_wq": 1, "verify.eq5": 1, "verify.eq5_residual": 4, "wq.wq": 4}]


def test_the_package_table_is_the_one_table():
    # the lazy names of __all__ are the names of _LAYERS, each listed once;
    # cli's lazy names are package lazy names, or verify's _SUITES
    lazy, layered, cli_lazy = fresh(
        "import json\n"
        "import lambert_tsallis as lt\n"
        "import lambert_tsallis.cli as cli\n"
        "lazy = [n for n in lt.__all__ if n not in vars(lt)]\n"
        "layered = [n for names in lt._LAYERS.values() for n in names]\n"
        "print(json.dumps([lazy, layered, list(cli._LAZY)]))")
    assert len(layered) == len(set(layered)) and sorted(layered) == sorted(lazy)
    assert set(cli_lazy) - set(layered) == {"_SUITES"}


def test_cli_dispatches_verifys_own_suite_table():
    import argparse

    import lambert_tsallis.cli as cli
    import lambert_tsallis.verify as verify
    assert cli._SUITES is verify._SUITES
    commands, = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    suite, = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert sorted(suite.choices) == sorted([*verify._SUITES, "scan"])

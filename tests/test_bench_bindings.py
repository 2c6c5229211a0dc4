"""The benchmark's tracer wraps package functions where other modules bind
them (bench/spans.py).  A binding site that is renamed or deleted breaks only
traced benchmark runs, so this checks every site against the tested source."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(name):
    return importlib.import_module(f"lambert_tsallis.{name}" if name else "lambert_tsallis")


def test_every_binding_site_resolves_and_is_restored():
    spans = load_spans()
    sites = [(package_module(mod), attr) for mod, attr, _ in spans.BINDINGS]
    originals = [getattr(module, attr) for module, attr in sites]
    mod, attr, names = spans.SUITE_TABLE
    table = getattr(package_module(mod), attr)
    suites = {key: table[key] for key in names}
    assert all(callable(f) for f in [*originals, *suites.values()])

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
        for key, original in suites.items():
            assert table[key].__wrapped__ is original, key
    finally:
        tracer.uninstall()

    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, (module.__name__, attr)
    assert all(table[key] is original for key, original in suites.items())

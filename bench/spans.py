"""Spans around the calls into each module of the package, recorded from
the benchmark's side.

The package is not changed.  ``Tracer.install`` replaces each public function
at the names where other modules bind it (``cli.wq``, ``verify.wq``,
``wq.exp_q``, ``classify.sign``, the package namespace the benchmark itself
calls through, ...) with a wrapper that records a span, and ``uninstall``
puts the originals back.

Spans are aggregated as they close rather than stored: per span name the
call count, total and self time (duration minus the time covered by child
spans), and per (parent, child) name pair the call count.  Aggregating keeps
memory flat on a table pass, which opens about two million spans.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

# (module, attribute, span name).  The module "" is the package namespace.
BINDINGS = [
    ("", "exp_q", "qexp.exp_q"),
    ("wq", "exp_q", "qexp.exp_q"),
    ("verify", "exp_q", "qexp.exp_q"),
    ("cli", "exp_q", "qexp.exp_q"),
    ("", "ln_q", "qexp.ln_q"),
    ("cli", "ln_q", "qexp.ln_q"),
    ("", "wq", "wq.wq"),
    ("wq", "wq", "wq.wq"),
    ("verify", "wq", "wq.wq"),
    ("cli", "wq", "wq.wq"),
    ("", "dwq_dz", "wq.dwq_dz"),
    ("verify", "dwq_dz", "wq.dwq_dz"),
    ("cli", "dwq_dz", "wq.dwq_dz"),
    ("", "parse_exact", "exact.parse_exact"),
    ("cli", "parse_exact", "exact.parse_exact"),
    ("", "render_exact", "exact.render_exact"),
    ("cli", "render_exact", "exact.render_exact"),
    ("classify", "render_exact", "exact.render_exact"),
    ("", "to_real", "exact.to_real"),
    ("classify", "add", "exact.ops"),
    ("classify", "sub", "exact.ops"),
    ("classify", "mul", "exact.ops"),
    ("classify", "div", "exact.ops"),
    ("classify", "sign", "exact.ops"),
    ("", "classify_expq", "classify.classify_expq"),
    ("", "classify_wq", "classify.classify_wq"),
    ("", "classify_lnq_derivative", "classify.classify_lnq_derivative"),
    ("", "classify_tower", "classify.classify_tower"),
    ("cli", "classify_expq", "classify.classify_expq"),
    ("cli", "classify_wq", "classify.classify_wq"),
    ("cli", "classify_lnq_derivative", "classify.classify_lnq_derivative"),
    ("cli", "classify_tower", "classify.classify_tower"),
    ("cli", "run_all", "verify.all"),
    ("cli", "run_scan_suite", "verify.scan"),
    ("verify", "run_residual_suite", "verify.residual"),
    ("verify", "run_derivative_suite", "verify.derivative"),
    ("verify", "run_eq5_suite", "verify.eq5"),
    ("verify", "run_branch_suite", "verify.branch"),
    ("verify", "run_scan_suite", "verify.scan"),
    ("verify", "algebraicity_scan", "verify.algebraicity_scan"),
    ("verify", "residual_defining_eq", "verify.residual_defining_eq"),
    ("verify", "check_derivative_fd", "verify.check_derivative_fd"),
    ("verify", "eq5_residual", "verify.eq5_residual"),
    ("verify", "branch_point_check", "verify.branch_point_check"),
    ("cli", "main", "cli.main"),
]
# cli dispatches suites through this dict, a binding site of its own
SUITE_TABLE = ("cli", "_SUITES", {"residual": "verify.residual",
                                  "derivative": "verify.derivative",
                                  "eq5": "verify.eq5", "branch": "verify.branch",
                                  "all": "verify.all"})


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        stack, stats, edges = self._stack, self.stats, self.edges
        observe = _OBSERVERS.get(name)
        tracer = self

        def span(*args, **kwargs):
            frame = [name, 0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(tracer, args, kwargs, None, exc)
                raise
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = stats.get(name)
                if st is None:
                    st = stats[name] = Stat()
                st.calls += 1
                st.total_ns += dt
                st.self_ns += dt - frame[1]
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1
            if observe is not None:
                observe(tracer, args, kwargs, result, None)
            return result

        span.__wrapped__ = fn
        return span

    def install(self, package: str = "lambert_tsallis") -> None:
        for mod, attr, name in BINDINGS:
            module = importlib.import_module(f"{package}.{mod}" if mod else package)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        mod, attr, names = SUITE_TABLE
        table = getattr(importlib.import_module(f"{package}.{mod}"), attr)
        for key, name in names.items():
            self._saved.append((table, key, table[key]))
            table[key] = self.wrap(name, table[key])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: [s.calls, s.total_ns, s.self_ns] for k, s in self.stats.items()},
                "edges": [[p, c, n] for (p, c), n in self.edges.items()],
                "counters": dict(self.counters)}


def _observe_wq(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("wq.iterations", result.iterations)
        tracer.count("wq.solves")
        it = result.iterations
        if it > tracer.counters.get("wq.iterations_max", 0):
            tracer.counters["wq.iterations_max"] = it
    elif type(exc).__name__ == "ConvergenceError":
        tracer.count("wq.convergence_errors")


def _observe_classify(tracer, args, kwargs, result, exc):
    if exc is None:
        if result.verdict.value == "unknown":
            tracer.count("classify.unknown")
    elif isinstance(exc, ValueError) and type(exc).__name__ == "DomainError":
        tracer.count("classify.refused")


def _observe_scan(tracer, args, kwargs, result, exc):
    # polynomials the enumeration visits: leading coefficient 1..C, the
    # others -C..C, for every degree 0..degree_max
    degree_max = args[1] if len(args) > 1 else kwargs["degree_max"]
    coeff_max = args[2] if len(args) > 2 else kwargs["coeff_max"]
    if exc is None:
        tracer.count("verify.scan.polys",
                     sum(coeff_max * (2 * coeff_max + 1) ** d for d in range(degree_max + 1)))


_OBSERVERS = {
    "wq.wq": _observe_wq,
    "classify.classify_expq": _observe_classify,
    "classify.classify_wq": _observe_classify,
    "classify.classify_lnq_derivative": _observe_classify,
    "classify.classify_tower": _observe_classify,
    "verify.algebraicity_scan": _observe_scan,
}

"""The repository benchmark: times the package from outside and checks every
output against a high-precision oracle.

    python3 bench/run.py --workload {table,extremes,classify,verify}
                         --seed N --seconds S --trace {0,1}

It imports ``lambert_tsallis`` from the ``src/`` of the checkout it sits in
(refusing any other copy), builds the workload's inputs from the seed,
computes the oracle's references (cached under ``bench/.cache``), times the
set-up from fresh interpreters, runs the workload in a separate process for
S seconds, checks the outputs, and prints every metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
A full report goes to ``bench/.out``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

IMPORTTIME_STARTS = 5
WORKER_TIMEOUT_S = 150
WORKLOADS = ("table", "extremes", "classify", "verify")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "op_p50_us": "us", "op_p99_us": "us",
    "ok_share": "share", "ulp_max": "ulp", "dwq_ulp_max": "ulp",
    "expq_ulp_max": "ulp", "unknown_share": "share", "peak_rss_mb": "MB",
}
CLASSIFY_FNS = ("classify_expq", "classify_wq", "classify_lnq_derivative", "classify_tower")
VERIFY_SUITES = ("residual", "derivative", "eq5", "branch", "scan")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# context


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "scipy": version("scipy"), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# inputs


def workload_inputs(workload: str, seed: int) -> tuple[object, object, dict]:
    """(the generated inputs, what the worker gets, the first call)."""
    import inputs
    if workload == "table":
        tables = inputs.table_inputs(seed)
        first = inputs.table_argv(dict(tables[0], steps=2))
        return tables, [inputs.table_argv(t) for t in tables], {"kind": "cli", "argv": first}
    if workload == "extremes":
        items = inputs.extremes_inputs(seed)
        d = items[0]
        return items, items, {"kind": "wq", "args": [d["q"], d["z"], d["branch"]]}
    if workload == "classify":
        pairs = inputs.classify_inputs(seed)
        items = {"pairs": [{"q_text": d["q_text"], "z_text": d["z_text"]} for d in pairs],
                 "known": [list(k) for k in inputs.KNOWN_ANSWERS]}
        return pairs, items, {"kind": "classify_wq",
                              "args": [pairs[0]["q_text"], pairs[0]["z_text"]]}
    calls = inputs.verify_inputs(seed)
    first = ["verify", "--suite", "scan", "--degree-max", "1", "--coeff-max", "2",
             "--format", "json"]
    return calls, calls, {"kind": "cli", "argv": first}


# ---------------------------------------------------------------------------
# processes


def python_cmd(*args: str) -> list[str]:
    # -I: no PYTHONPATH, no user site, no script directory on sys.path
    return [sys.executable, "-I", *args]


def import_times() -> dict:
    """Cumulative import time of numpy and of the package, from
    `python -X importtime` in fresh interpreters (medians)."""
    from clock import Clock
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lambert_tsallis"
    numpy_s, pkg_s = [], []
    clock = Clock()
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run(python_cmd("-X", "importtime", "-c", code),
                              capture_output=True, text=True, timeout=60)
        f = clock.scale()
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                cumulative[name] = max(cumulative.get(name, 0.0), int(parts[1]) / 1e6)
        numpy_s.append(cumulative.get("numpy", 0.0) * f)
        pkg_s.append(cumulative.get("lambert_tsallis", 0.0) * f)
    return {"setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_pkg_s": statistics.median(pkg_s)}


def run_worker(spec: dict, work: Path) -> dict:
    tag = f"{spec['workload']}-{os.getpid()}"
    spec_path, result_path = work / f"spec-{tag}.json", work / f"result-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(python_cmd(str(BENCH / "worker.py"), str(spec_path), str(result_path)),
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())
    finally:
        spec_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# checks


def check_outputs(workload, seed, generated, outputs, cache):
    import checks
    import inputs
    if workload == "table":
        return checks.check_table(seed, generated, outputs, cache)
    if workload == "extremes":
        return checks.check_extremes(seed, generated, outputs, cache)
    if workload == "classify":
        return checks.check_classify(generated, inputs.KNOWN_ANSWERS, outputs)
    return checks.check_verify(generated, outputs)


def warm_references(workload, seed, generated, cache) -> dict:
    """Compute (or load) every reference before anything is timed, and
    cross-check the q = 1 ones against scipy."""
    import checks
    import inputs
    sweep = checks.sweep_refs(cache)
    points = [(d["q"], d["z"], d["branch"]) for d in inputs.sweep_wq()]
    records = sweep["wq"]
    if workload == "table":
        checks.table_refs(seed, generated, cache)
    expected_refusals = {}
    if workload == "extremes":
        refs = checks.extremes_refs(seed, generated, cache)
        points += [(d["q"], d["z"], d["branch"]) for d in generated]
        records = records + [r["root"] for r in refs]
        expected_refusals = {
            "out_of_domain": sum(r["root"][0] is None for r in refs),
            "root_not_representable": sum(r["root"][0] is not None and not r["root"][1]
                                          for r in refs)}
    elif workload == "classify":
        expected_refusals = {"known_domain_errors": sum(
            "DomainError" in accepted for _, _, accepted in inputs.KNOWN_ANSWERS)}
    n, worst = checks.scipy_crosscheck(points, records)
    return {"sweep": sweep, "scipy_points": n, "scipy_worst": worst,
            "expected_refusals": expected_refusals}


# ---------------------------------------------------------------------------
# metrics


def per_layer(trace: dict, traced: dict, untraced_run_s: float, imports: dict) -> dict:
    """Per-module metrics, per pass.  Span times are raw wall time over all
    passes; they are brought to the scale of run_s by the traced run's
    ratio of scaled to raw pass time."""
    stats = trace["stats"]
    counters = trace["counters"]
    passes = len(traced["wall_s"])
    traced_run_s = traced["run_s"]
    to_run = traced_run_s / statistics.mean(traced["wall_s"])

    def calls(name):
        return stats.get(name, [0, 0, 0])[0] / passes

    def self_s(name):
        return stats.get(name, [0, 0, 0])[2] / 1e9 / passes * to_run

    def total_s(name):
        return stats.get(name, [0, 0, 0])[1] / 1e9 / passes * to_run

    def per_call(name, unit):
        c, total, _ = stats.get(name, [0, 0, 0])
        return total / c / unit * to_run if c else 0.0

    edges = {(p, c): n for p, c, n in trace["edges"]}
    solves = counters.get("wq.solves", 0)
    wq_calls = stats.get("wq.wq", [0])[0]
    from_verify = sum(n for (p, c), n in edges.items()
                      if p.startswith("verify.") and c in ("wq.wq", "wq.dwq_dz"))
    m = dict(imports)
    m.update({
        "qexp.exp_q.calls": calls("qexp.exp_q"),
        "qexp.exp_q.ns_per_call": per_call("qexp.exp_q", 1),
        "qexp.ln_q.ns_per_call": per_call("qexp.ln_q", 1),
        "wq.wq.calls": calls("wq.wq"),
        "wq.wq.self_s": self_s("wq.wq"),
        "wq.iterations_mean": counters.get("wq.iterations", 0) / solves if solves else 0.0,
        "wq.iterations_max": counters.get("wq.iterations_max", 0),
        "wq.exp_q_calls_per_solve": edges.get(("wq.wq", "qexp.exp_q"), 0) / wq_calls
        if wq_calls else 0.0,
        "wq.convergence_errors": counters.get("wq.convergence_errors", 0) / passes,
        "wq.dwq_dz.self_s": self_s("wq.dwq_dz"),
        "exact.parse_exact.us_per_call": per_call("exact.parse_exact", 1e3),
        "exact.render_exact.us_per_call": per_call("exact.render_exact", 1e3),
        "exact.to_real.us_per_call": per_call("exact.to_real", 1e3),
        "exact.ops.calls": calls("exact.ops"),
    })
    for fn in CLASSIFY_FNS:
        m[f"classify.{fn}.calls"] = calls(f"classify.{fn}")
        m[f"classify.{fn}.self_s"] = self_s(f"classify.{fn}")
    m["classify.unknown"] = counters.get("classify.unknown", 0) / passes
    m["classify.refused"] = counters.get("classify.refused", 0) / passes
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}_s"] = total_s(f"verify.{suite}")
    m["verify.scan.polys"] = counters.get("verify.scan.polys", 0) / passes
    m["verify.wq.calls"] = from_verify / passes
    m["verify.self_s"] = sum(s[2] for k, s in stats.items()
                             if k.startswith("verify.")) / 1e9 / passes * to_run
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.rows"] = counters.get("cli.rows", 0) / passes
    m["cli.bytes_out"] = counters.get("cli.bytes_out", 0) / passes
    span_self = sum(s[2] for s in stats.values()) / 1e9 / passes * to_run
    m["trace.run_s"] = traced_run_s
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    m["trace.span_self_sum_s"] = span_self
    m["trace.unattributed_s"] = traced_run_s - span_self
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_call"):
        return "ns"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("calls_per_solve"):
        return "calls/solve"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lambert_tsallis" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import selfcheck
    failures = selfcheck.run()
    if failures:
        print("error: benchmark self-checks failed: " + "; ".join(failures), file=sys.stderr)
        return 3

    from clock import pin_to_one_core
    core = pin_to_one_core()
    work, cache, out_dir = BENCH / ".work", BENCH / ".cache", BENCH / ".out"
    for d in (work, cache, out_dir):
        d.mkdir(exist_ok=True)
    started = time.time()
    import inputs
    generated, items, first = workload_inputs(args.workload, args.seed)
    oracle_info = warm_references(args.workload, args.seed, generated, cache)
    problems = []
    if oracle_info["scipy_worst"] > 1.0:
        problems.append(f"mpmath and scipy disagree at q = 1 "
                        f"({oracle_info['scipy_worst']:.3g} x tolerance)")

    first_path = work / f"first-{os.getpid()}.json"
    first_path.write_text(json.dumps(dict(first, src=str(SRC))))
    spec = {"workload": args.workload, "items": items, "first": first,
            "first_path": str(first_path),
            "seconds": args.seconds, "trace": bool(args.trace), "src": str(SRC),
            "sweep_wq": inputs.sweep_wq(), "sweep_expq": inputs.sweep_expq(),
            "known": [list(k) for k in inputs.KNOWN_ANSWERS]}
    try:
        result = run_worker(spec, work)
    finally:
        first_path.unlink(missing_ok=True)
    untraced = result["untraced"]
    if len(set(untraced["hashes"])) != 1:
        problems.append("outputs differ between passes")
    verdicts = check_outputs(args.workload, args.seed, generated, untraced["outputs"], cache)
    problems += verdicts.problems

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "package_file": result["package_file"],
              "git_commit": git_commit(), "machine": machine(),
              "inputs": dict(inputs.summary(args.workload, generated),
                             expected_refusals=oracle_info["expected_refusals"]),
              "load": "closed loop, one caller, sequential calls in one process",
              "oracle": {"dps": 50, "scipy_points": oracle_info["scipy_points"],
                         "scipy_worst_over_tolerance": oracle_info["scipy_worst"]},
              "core": core, "passes": len(untraced["wall_s"]),
              "pass_wall_s": untraced["wall_s"],
              "ops_per_pass": untraced["ops_per_pass"],
              "latency": untraced["latency"],
              "wrong_kinds": verdicts.wrong_kinds, "problems": problems,
              "diag": untraced.get("diag")}

    if args.trace:
        traced = result["traced"]
        if set(traced["hashes"]) != set(untraced["hashes"]):
            problems.append("traced outputs differ from untraced outputs")
        if args.workload in ("table", "verify"):  # rows or checks, and bytes printed
            n = len(traced["wall_s"])
            result["trace"]["counters"]["cli.rows"] = untraced["ops_per_pass"] * n
            result["trace"]["counters"]["cli.bytes_out"] = n * sum(
                len(out.encode()) for _, out, _ in untraced["outputs"])
        metrics = per_layer(result["trace"], traced, untraced["run_s"], import_times())
        units = {k: layer_unit(k) for k in metrics}
    else:
        import checks
        conf = checks.conformance_metrics(result["conformance"], oracle_info["sweep"])
        lat = untraced["latency"]
        metrics = {
            "setup_s": untraced["setup_s"],
            "run_s": untraced["run_s"],
            "op_p50_us": lat["p50_us"],
            "op_p99_us": lat["tail_us"],
            "ok_share": 1.0 - verdicts.wrong / verdicts.judged if verdicts.judged else 0.0,
            **conf,
            "peak_rss_mb": untraced["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
    report["wrong_share"] = verdicts.wrong / verdicts.judged if verdicts.judged else None
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["elapsed_s"] = time.time() - started
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"package {result['package_file']}  commit {report['git_commit'] or 'unknown'}")
    print("context " + json.dumps({"machine": report["machine"], "inputs": report["inputs"]}))
    print(f"passes {report['passes']}  ops/pass {report['ops_per_pass']}  latency tail is "
          f"p{untraced['latency']['tail_percentile']:.4g} of {untraced['latency']['samples']} "
          f"samples ({untraced['latency']['beyond_tail']} beyond)")
    print(f"checked {verdicts.judged} operations, {verdicts.wrong} wrong "
          f"(wrong_share {report['wrong_share']:.6g})"
          + (f": {json.dumps(verdicts.wrong_kinds)}" if verdicts.wrong else ""))
    for p in problems:
        print("PROBLEM " + p)
    for name, m in report["metrics"].items():
        print(f"  {name:<40} {m['value']:>18.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": verdicts.judged,
                      "failed": verdicts.wrong, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

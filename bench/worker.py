"""Workload process: imports the package from the checkout's src/, runs a
workload's passes and writes what it saw to a JSON file.

Usage: python3 -I bench/worker.py SPEC.json RESULT.json
       python3 -I bench/worker.py --first-call SPEC.json

This is the only benchmark process that imports the package, and it imports
no oracle (mpmath, scipy), so its peak resident memory is the workload's.
It times; the parent checks.  The spec names the workload, its inputs, the
seconds to measure and whether to make a traced run as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

MIN_PASSES = 3
LATENCY_PASSES = 30
SETUP_STARTS = 9
# `verify --suite scan` is numpy's memory-bound enumeration, which the
# machine's slow phase slows about half as much, in log terms, as
# interpreted code: fitted per run, the exponent of the kernel ratio fell
# between 0.35 and 0.6 on verify and near 1 elsewhere (see clock.py).
SCAN_EXPONENT = 0.5


def import_package(src: Path):
    """Import lambert_tsallis from src, refusing any other copy."""
    sys.path.insert(0, str(src))
    import lambert_tsallis as lt
    origin = Path(lt.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"lambert_tsallis imported from {origin}, not from {src}")
    return lt


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


# ---------------------------------------------------------------------------
# one pass of each workload: returns (outputs, per-operation ns)


def pass_cli(lt, calls):
    """CLI calls.  An operation is a table row or a verify check; each gets
    its call's time spread evenly over the call's operations."""
    import lambert_tsallis.cli as cli
    outputs, ns = [], []
    for argv in calls:
        t0 = time.perf_counter_ns()
        res = run_cli(cli, argv)
        dt = time.perf_counter_ns() - t0
        ops = max(_cli_ops(argv, res[1]), 1)
        ns.append((dt // ops, ops))
        outputs.append(res)
    return outputs, ns


def _cli_ops(argv: list[str], text: str) -> int:
    if argv[0] == "verify":
        return text.count('"name":')
    if "json" in argv:
        return text.count('{"z":')
    return text.count("\n") - 1


def _call(fn, *args):
    """(value or error name, (ns, 1)) for one public call.  An exception that is
    not the package's own is named with a leading "!" so the checks can tell
    it from a refusal."""
    t0 = time.perf_counter_ns()
    try:
        value = fn(*args)
    except Exception as exc:  # recorded and judged by the parent
        own = type(exc).__module__.startswith("lambert_tsallis.")
        name = type(exc).__name__
        return (name if own else "!" + name), (time.perf_counter_ns() - t0, 1)
    return value, (time.perf_counter_ns() - t0, 1)


def pass_extremes(lt, items):
    outputs, ns = [], []
    for d in items:
        res, t = _call(lt.wq, d["q"], d["z"], d["branch"])
        ns.append(t)
        row = [res if isinstance(res, str) else res.w]
        if d["dwq"]:
            res, t = _call(lt.dwq_dz, d["q"], d["z"], d["branch"])
            ns.append(t)
            row.append(res)
        if d["lnq"]:
            res, t = _call(lt.ln_q, d["q"], d["z"])
            ns.append(t)
            row.append(res)
        outputs.append(row)
    return outputs, ns


CLASSIFIERS = ("classify_expq", "classify_wq", "classify_lnq_derivative")


def _verdict(res, ns):
    """Outcome text and the record's round trip of a classify call."""
    if isinstance(res, str):
        return [res, None]
    t0 = time.perf_counter_ns()
    rec = res.to_record()
    ns.append((time.perf_counter_ns() - t0, 1))
    return [f"{rec['verdict']}/{rec['rule']}", rec["exact_value"]]


def pass_classify(lt, spec):
    outputs, ns = [], []
    for d in spec["pairs"]:
        row = {}
        parsed = []
        for key in ("q_text", "z_text"):
            x, t = _call(lt.parse_exact, d[key])
            ns.append(t)
            parsed.append(x)
        q, z = parsed
        if isinstance(q, str) or isinstance(z, str):
            outputs.append({"parse": [q if isinstance(q, str) else None,
                                      z if isinstance(z, str) else None]})
            continue
        for name in CLASSIFIERS:
            res, t = _call(getattr(lt, name), q, z)
            ns.append(t)
            row[name] = _verdict(res, ns)
        res, t = _call(lt.classify_tower, z)
        ns.append(t)
        row["classify_tower"] = _verdict(res, ns)
        for key, x in (("q", q), ("z", z)):
            text, t = _call(lt.render_exact, x)
            ns.append(t)
            back, t = _call(lt.parse_exact, text)
            ns.append(t)
            real, t = _call(lt.to_real, x)
            ns.append(t)
            row[key] = [text, back == x, real]
        outputs.append(row)
    for fn, args, _ in spec["known"]:
        ops = []
        for a in args:
            x, t = _call(lt.parse_exact, a)
            ns.append(t)
            ops.append(x)
        if any(isinstance(x, str) for x in ops):
            outputs.append(["!unparsed", None])
            continue
        res, t = _call(getattr(lt, KNOWN_FN[fn]), *ops)
        ns.append(t)
        outputs.append(_verdict(res, ns))
    return outputs, ns


KNOWN_FN = {"expq": "classify_expq", "wq": "classify_wq",
            "lnq-deriv": "classify_lnq_derivative", "tower": "classify_tower"}


# ---------------------------------------------------------------------------


def conformance(lt, spec):
    """The pinned accuracy sweep and known-answer set, outside any timing."""
    wq = [_call(lambda d=d: lt.wq(d["q"], d["z"], d["branch"]).w)[0] for d in spec["sweep_wq"]]
    dwq = [_call(lt.dwq_dz, d["q"], d["z"], d["branch"])[0] for d in spec["sweep_wq"]]
    expq = [_call(lt.exp_q, d["q"], d["z"])[0] for d in spec["sweep_expq"]]
    known = pass_classify(lt, {"pairs": [], "known": spec["known"]})[0]
    return {"wq": wq, "dwq": dwq, "expq": expq, "known": known}


def first_call(lt, first: dict) -> None:
    """The workload's first call; a fresh interpreter timing it is setup."""
    if first["kind"] == "cli":
        import lambert_tsallis.cli as cli
        code = run_cli(cli, first["argv"])[0]
        if code != 0:
            raise SystemExit(f"first call {first['argv']} exited with {code}")
    else:  # a refusal is as much a first call as an answer
        try:
            if first["kind"] == "classify_wq":
                lt.classify_wq(*[lt.parse_exact(a) for a in first["args"]])
            else:
                lt.wq(*first["args"])
        except lt.LambertTsallisError:
            pass


def units(workload: str, items) -> list:
    """A pass split into the units the calibration clock scales one by one,
    each with its scaling exponent: each CLI call, or chunks of about 25 ms
    of direct calls."""
    if workload in ("table", "verify"):
        return [([argv], SCAN_EXPONENT if "scan" in argv else 1.0) for argv in items]
    if workload == "extremes":
        return [(items[i:i + 500], 1.0) for i in range(0, len(items), 500)]
    pairs = items["pairs"]
    return ([({"pairs": pairs[i:i + 100], "known": []}, 1.0) for i in range(0, len(pairs), 100)]
            + [({"pairs": [], "known": items["known"]}, 1.0)])


def measure(lt, workload, items, seconds: float, first_path: str | None = None):
    """Passes until `seconds` have elapsed, at least MIN_PASSES of them.

    Each unit of a pass is scaled by the calibration clock (see clock.py),
    which samples its kernel during the unit as well.
    The pass time is the sum over units of each unit's median scaled time;
    each operation's latency is its median scaled time over the first
    LATENCY_PASSES passes, which also bounds the memory kept.  With
    first_path, SETUP_STARTS cold starts (fresh interpreters making the
    first call) are spread over the run, between units.
    """
    from array import array

    from clock import Clock
    from stats import latency_summary
    run_unit = PASSES[workload]
    pass_units = units(workload, items)
    clock = Clock()
    unit_s = [[] for _ in pass_units]  # per unit: scaled seconds per visit
    lat = []  # per sampled pass: scaled ns per operation
    weights = array("q")
    starts = []  # scaled seconds per cold start
    wall, hashes, first = [], [], None
    start = time.perf_counter()
    while len(wall) < MIN_PASSES or time.perf_counter() - start < seconds:
        outputs, t_wall, row = [], 0, array("q")
        for j, (unit, exponent) in enumerate(pass_units):
            clock.start()
            t0 = time.perf_counter_ns()
            out, ns = run_unit(lt, unit)
            dt = time.perf_counter_ns() - t0 - round(clock.stop() * 1e9)
            f = clock.scale() ** exponent
            unit_s[j].append(dt * f / 1e9)
            t_wall += dt
            outputs.extend(out)
            if len(lat) < LATENCY_PASSES:
                if not lat:
                    weights.extend(k for _, k in ns)
                row.extend(round(x * f) for x, _ in ns)
            if first_path and len(starts) < SETUP_STARTS and (
                    time.perf_counter() - start >= len(starts) * seconds / SETUP_STARTS):
                starts.append(cold_start(first_path, clock))
        if len(lat) < LATENCY_PASSES:
            lat.append(row)
        wall.append(t_wall / 1e9)
        hashes.append(hashlib.sha256(repr(outputs).encode()).hexdigest())
        if first is None:
            first = outputs
    while first_path and len(starts) < SETUP_STARTS:
        starts.append(cold_start(first_path, clock))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_op = array("q", (round(statistics.median(col)) for col in zip(*lat)))
    result = {"run_s": sum(statistics.median(v) for v in unit_s), "wall_s": wall,
              "hashes": hashes, "outputs": first, "latency": latency_summary(per_op, weights),
              "peak_rss_kb": rss_kb, "ops_per_pass": sum(weights)}
    if first_path:
        result["setup_s"] = statistics.median(starts)
    return result


def cold_start(first_path: str, clock) -> float:
    """Scaled time of a fresh interpreter that imports the package and makes
    the workload's first call."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", __file__, "--first-call", first_path],
                          capture_output=True, text=True, timeout=60)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"first call failed: {proc.stderr.strip()[-500:]}")
    return dt * clock.scale()


PASSES = {"table": pass_cli, "verify": pass_cli, "extremes": pass_extremes,
          "classify": pass_classify}


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    lt = import_package(Path(spec["src"]))
    first_call(lt, spec["first"])
    sys.path.insert(0, str(BENCH))
    workload = spec["workload"]
    result = {"package_file": lt.__file__}
    seconds = spec["seconds"]
    if spec["trace"]:
        from spans import Tracer
        result["untraced"] = measure(lt, workload, spec["items"], seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = measure(lt, workload, spec["items"], seconds / 2)
        finally:
            tracer.uninstall()
        result["trace"] = tracer.snapshot()
        result["traced"].pop("outputs")
    else:
        result["untraced"] = measure(lt, workload, spec["items"], seconds, spec["first_path"])
        result["conformance"] = conformance(lt, spec)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "--first-call":
        first = json.loads(Path(sys.argv[2]).read_text())
        first_call(import_package(Path(first["src"])), first)
    else:
        main(sys.argv[1], sys.argv[2])

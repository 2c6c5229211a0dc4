"""Paired benchmark runs of a base commit and this checkout, written as one
``BENCH_<pr>.json`` record at the repository root.

    python3 tools/bench_pairs.py --base REV --pairs N --seconds S --seed-from K \
        --workloads classify table --out BENCH_32.json

The base commit's tree is extracted with ``git archive`` into a temporary
directory, and the checkout's ``bench/.cache`` is copied into it, so both
sides are judged against the same references and the base side does not
rebuild them.  Each side runs its own ``bench/run.py``, which imports the
package from the tree it sits in.  Per workload, pair i runs seed K + i on
both sides, one after the other; the side that goes first alternates from
pair to pair, so a drift of the machine's speed falls on both sides alike
(bench/README.md).  Then one ``--trace 1`` run per side adds the per-layer
metrics.  The temporary tree is removed at the end, also on failure.
Nothing is written under ``bench/`` but its ignored ``.cache``, ``.work``
and ``.out`` directories.

The record holds the two commits, the command line, the machine from the
runs' context line, and per workload and metric the unit and direction that
``BENCHMARK.json`` declares, each pair's two values, both medians and
interquartile ranges, and in how many pairs the head side is better; beside
them each run's failed count and wrong operations by kind, and the traced
runs' per-layer metrics.  ``tests/test_bench_records.py`` checks every
record against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the commit to compare with, any git rev")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--seed-from", type=int, default=1, help="pair i runs seed K + i")
    p.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    p.add_argument("--out", type=Path, required=True, help="the record to write")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed tree of rev, written into dest: git archive piped to tar."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def share_cache(src: Path, dst: Path) -> None:
    """Copy the references src/bench/.cache has and dst/bench/.cache lacks."""
    have = src / "bench" / ".cache"
    if not have.is_dir():
        return
    want = dst / "bench" / ".cache"
    want.mkdir(parents=True, exist_ok=True)
    for path in have.iterdir():
        if not (want / path.name).exists():
            shutil.copy2(path, want / path.name)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in tree: its result line, context and report."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    context = next(json.loads(line[len("context "):]) for line in lines
                   if line.startswith("context "))
    report = json.loads((tree / "bench" / ".out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(lines[-1]), "context": context,
            "wrong_kinds": report["wrong_kinds"], "problems": report["problems"]}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(declared: dict, runs: dict) -> dict:
    """Per metric: unit, direction, the pairs' values, medians, IQRs and the
    number of pairs in which the head side is better."""
    metrics = {}
    for name, spec in declared.items():
        base = [r["result"]["metrics"][name]["value"] for r in runs["base"]]
        head = [r["result"]["metrics"][name]["value"] for r in runs["head"]]
        units = {r["result"]["metrics"][name]["unit"] for r in runs["base"] + runs["head"]}
        if units != {spec["unit"]}:
            raise SystemExit(f"{name}: the runs print unit {units}, BENCHMARK.json "
                             f"declares {spec['unit']}")
        sign = 1 if spec["better"] == "higher" else -1
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "base": base, "head": head,
            "base_median": statistics.median(base), "head_median": statistics.median(head),
            "base_iqr": iqr(base), "head_iqr": iqr(head),
            "head_better_in": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    unknown = set(workloads) - {w["name"] for w in bench["workloads"]}
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    record = {
        "command": ["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])],
        "base": {"rev": args.base, "commit": git("rev-parse", f"{args.base}^{{commit}}")},
        "head": {"commit": git("rev-parse", "HEAD"),
                 "uncommitted_changes": bool(git("status", "--porcelain", "src", "bench"))},
        "pairs": args.pairs, "seconds": args.seconds, "seed_from": args.seed_from,
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        base_tree = scratch / "base"
        base_tree.mkdir()
        extract(record["base"]["commit"], base_tree)
        share_cache(ROOT, base_tree)
        trees = {"base": base_tree, "head": ROOT}
        for workload in workloads:
            runs, first = {"base": [], "head": []}, []
            for i in range(args.pairs):
                seed = args.seed_from + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                first.append(order[0])
                for side in order:
                    runs[side].append(run(trees[side], workload, seed, args.seconds, 0))
                    other = "head" if side == "base" else "base"
                    share_cache(trees[side], trees[other])
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}): run_s base "
                      f"{runs['base'][-1]['result']['metrics']['run_s']['value']:.4g} head "
                      f"{runs['head'][-1]['result']['metrics']['run_s']['value']:.4g}",
                      file=sys.stderr, flush=True)
            traced = {side: run(trees[side], workload, args.seed_from, args.seconds, 1)
                      for side in ("base", "head")}
            record.setdefault("machine", runs["head"][0]["context"]["machine"])
            record["workloads"][workload] = {
                "seeds": [args.seed_from + i for i in range(args.pairs)],
                "first": first,
                "metrics": summarize(declared, runs),
                "correct": {s: [r["result"]["correct"] for r in runs[s]] for s in runs},
                "failed": {s: [r["result"]["failed"] for r in runs[s]] for s in runs},
                "wrong_kinds": {s: [r["wrong_kinds"] for r in runs[s]] for s in runs},
                "problems": {s: sorted({p for r in runs[s] for p in r["problems"]})
                             for s in runs},
                "layers": {s: traced[s]["result"]["metrics"] for s in traced},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

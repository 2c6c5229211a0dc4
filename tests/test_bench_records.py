"""Every BENCH_<pr>.json record at the repository root, as
tools/bench_pairs.py writes it, parses and agrees with BENCHMARK.json: its
workloads and metric names are the declared ones, each with the declared
unit and direction, and each list of pairs has the record's stated length.
With no record there is nothing to check, and the test passes; no
benchmark runs."""

import copy
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def problems(record: dict) -> list[str]:
    """What in record disagrees with BENCHMARK.json or with its own length."""
    found = []
    n = record["pairs"]
    if not (isinstance(n, int) and n >= 1):
        return [f"pairs is {n!r}"]
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m for m in BENCHMARK["per_layer"]}
    for side in ("base", "head"):
        if len(record[side]["commit"]) != 40:
            found.append(f"{side} commit {record[side]['commit']!r}")
    if not record["workloads"]:
        found.append("no workload")
    for workload, w in record["workloads"].items():
        if workload not in workloads:
            found.append(f"undeclared workload {workload}")
        if set(w["metrics"]) != set(end_to_end):
            found.append(f"{workload}: metrics {sorted(set(w['metrics']) ^ set(end_to_end))}")
        lists = {"seeds": w["seeds"], "first": w["first"]}
        for side in ("base", "head"):
            lists.update({f"{key}.{side}": w[key][side]
                          for key in ("correct", "failed", "wrong_kinds")})
        for name, m in w["metrics"].items():
            spec = end_to_end.get(name, {})
            if (m["unit"], m["better"]) != (spec.get("unit"), spec.get("better")):
                found.append(f"{workload}.{name}: {m['unit']}, {m['better']}")
            lists.update({f"{name}.base": m["base"], f"{name}.head": m["head"]})
            if not 0 <= m["head_better_in"] <= n:
                found.append(f"{workload}.{name}: better in {m['head_better_in']} of {n}")
        found += [f"{workload}.{key}: {len(values)} values, not {n}"
                  for key, values in lists.items() if len(values) != n]
        for side, layers in w["layers"].items():
            for name, m in layers.items():
                if m["unit"] != per_layer.get(name, {}).get("unit"):
                    found.append(f"{workload} {side} layer {name}: {m['unit']}")
    return found


def test_every_bench_record_matches_the_benchmark():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        assert problems(record) == [], path.name


def test_the_check_sees_a_wrong_record():
    metrics = {m["name"]: {"unit": m["unit"], "better": m["better"], "base": [1.0, 2.0],
                           "head": [1.0, 2.0], "head_better_in": 0}
               for m in BENCHMARK["end_to_end"]}
    record = {"pairs": 2, "base": {"commit": "a" * 40}, "head": {"commit": "b" * 40},
              "workloads": {"classify": {
                  "seeds": [1, 2], "first": ["base", "head"], "metrics": metrics,
                  "correct": {"base": [True, True], "head": [True, True]},
                  "failed": {"base": [0, 0], "head": [0, 0]},
                  "wrong_kinds": {"base": [{}, {}], "head": [{}, {}]},
                  "layers": {"base": {"exact.ops.calls": {"value": 1.0, "unit": "count"}}}}}}
    assert problems(record) == []
    wrong = copy.deepcopy(record)
    w = wrong["workloads"]["classify"]
    w["metrics"]["run_s"]["unit"] = "ms"
    w["metrics"]["op_p50_us"]["head"].append(3.0)
    w["failed"]["base"].pop()
    w["layers"]["base"]["exact.ops.calls"]["unit"] = "s"
    del w["metrics"]["peak_rss_mb"]
    assert problems(wrong) == [
        "classify: metrics ['peak_rss_mb']",
        "classify.run_s: ms, lower",
        "classify.failed.base: 1 values, not 2",
        "classify.op_p50_us.head: 3 values, not 2",
        "classify base layer exact.ops.calls: s",
    ]

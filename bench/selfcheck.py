"""Self-checks of the benchmark's own helpers.

Run standalone with ``python3 bench/selfcheck.py``; ``run.py`` also runs
them before every measurement and refuses to measure if one fails.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mpmath import mp, mpf  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
from stats import TAIL_BEYOND, tail_rank  # noqa: E402

OMEGA = "0.56714329040978387299996866221035554975381578718651"


def _expect(cond: bool, what: str, failures: list[str]) -> None:
    if not cond:
        failures.append(what)


def run() -> list[str]:
    """Every failed self-check, by name; empty when all pass."""
    bad: list[str] = []
    # ulp distance: neighbours are 1 apart on both sides of a power of two,
    # through zero and the subnormals, and at the top of the range
    for x in (1.0, 0.75, 2.0 ** -1022, 5e-324, 1e300, -3.5):
        for direction in (math.inf, -math.inf):
            n = math.nextafter(x, direction)
            _expect(oracle.ulp_distance(n, x) == 1.0, f"ulp(nextafter({x!r})) == 1", bad)
    _expect(oracle.ulp_distance(0.0, 0) == 0.0, "ulp(0, ref 0) == 0", bad)
    _expect(oracle.ulp_distance(5e-324, 0) == 1.0, "ulp(min subnormal, ref 0) == 1", bad)
    _expect(oracle.ulp_distance(-0.0, 0) == 0.0, "ulp(-0.0, ref 0) == 0", bad)
    with mp.workdps(40):
        half = mpf(5e-324) / 2
        _expect(oracle.ulp_distance(0.0, half) == 0.5, "ulp(0, ref half a subnormal) == 0.5", bad)
        _expect(oracle.ulp_distance(math.inf, mpf(10) ** 400) == 0.0, "ulp(inf, ref 1e400) == 0", bad)
        _expect(oracle.ulp_distance(1.0, mpf(1) + mpf(2) ** -54) == 0.25,
                "ulp(1, ref 1 + 2^-54) == 0.25", bad)
    # the tail percentile keeps TAIL_BEYOND samples beyond it
    for n in (11, 12, 57, 999, 1000, 1010, 5000, 123457):
        rank, pct = tail_rank(n)
        _expect(n - 1 - rank >= TAIL_BEYOND, f"tail of {n} samples has {TAIL_BEYOND} beyond", bad)
        if n >= 1010:
            _expect(pct == 99.0 or abs(pct - 99.0) < 100.0 / n, f"tail of {n} samples is p99", bad)
    try:
        tail_rank(TAIL_BEYOND)
        bad.append("tail_rank refuses too few samples")
    except ValueError:
        pass
    # the oracle reproduces closed forms
    with mp.workdps(oracle.DPS):
        r = oracle.wq_ref(1.0, 1.0)
        _expect(abs(r.w - mpf(OMEGA)) < mpf(10) ** -45, "oracle W(1) is the omega constant", bad)
        r = oracle.wq_ref(2.0, 3.0)
        _expect(abs(r.w - mpf(3) / 4) < mpf(10) ** -45, "oracle W_2(3) = 3/4", bad)
        r = oracle.wq_ref(0.0, -0.1875, upper=False)
        _expect(abs(r.w - mpf(-0.75)) < mpf(10) ** -45, "oracle lower W_0(-3/16) = -3/4", bad)
        _expect(oracle.wq_ref(1.0, -1.0).w is None, "oracle refuses z below z_b", bad)
    # output validation rejects corrupted rows and outputs
    w = 0.5671432904097838
    _expect(checks._wq_row_ok(1.0, "upper", 1.0, w, (-1 / math.e, -1.0)), "true wq row passes", bad)
    _expect(not checks._wq_row_ok(1.0, "upper", 1.0, w * (1 + 1e-6), (-1 / math.e, -1.0)),
            "corrupted wq row fails", bad)
    _expect(not checks._expq_row_ok(2.0, 3.0, 0.5), "expq row in the cutoff must be 0", bad)
    table = {"subject": "wq", "format": "csv"}
    try:
        checks._parse_table(table, "z,value,residual\n1,0.5,x\n")
        bad.append("garbled csv row is rejected")
    except ValueError:
        pass
    rec = checks.root_record(1.0, 1.0, "upper")
    _expect(checks.judge_root(w, rec, False)[0], "true wq value passes the gate", bad)
    _expect(not checks.judge_root(w * (1 + 1e-6), rec, False)[0], "corrupted wq value fails", bad)
    _expect(not checks.judge_root("ConvergenceError", rec, False)[0],
            "refusing a representable root fails", bad)
    v = checks.check_verify([["verify", "--suite", "scan"]], [[1, '{"checks": ['
                            '{"name": "a", "passed": true}, {"name": "b", "passed": false},'
                            '{"name": "c", "passed": true}]}', ""]])
    _expect(v.wrong == 1 and v.judged == 3, "a failing verify check is counted", bad)
    _expect(not checks.known_ok("transcendental/theorem3", ("DomainError",)),
            "a verdict against a known refusal fails", bad)
    _expect(not checks.judge_verdict("classify_wq", ((0, 1), (1, 1), 2), ((-100, 1), (0, 1), 0),
                                     "transcendental/theorem3", None)[0],
            "a verdict below z_b fails", bad)
    return bad


if __name__ == "__main__":
    failures = run()
    for f in failures:
        print("FAIL", f)
    print("self-checks:", "all passed" if not failures else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)

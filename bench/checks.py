"""Correctness checks of the worker's outputs against the oracle.

Each check returns a ``Verdicts`` tally: operations judged, operations
wrong, and problems that make the run itself untrustworthy (missing or
malformed output), which turn the run's ``correct`` flag off.

An operation is wrong when it raised an exception that is not one of the
package's, refused (ConvergenceError) a request whose root is a
representable double, refused an in-domain request or answered an
out-of-domain one, returned a value whose relative error exceeds
GATE * max(1, condition number), gave a verdict that contradicts a known
answer or the numbers behind its rule, or is a failing verify check.
Correct refusals do not count.  Within BAND (relative) of a branch point
either outcome is accepted, because the program's double z_b and the exact
one may fall on different sides of z.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import inputs
import oracle

GATE = 1e-8
BAND = 1e-12
DOMAIN_ERRORS = ("DomainError", "NoBranchPointError")
CACHE_VERSION = "1"


class Verdicts:
    def __init__(self):
        self.judged = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.wrong_kinds: dict[str, int] = {}

    def judge(self, ok: bool, kind: str = "") -> None:
        self.judged += 1
        if not ok:
            self.wrong += 1
            self.wrong_kinds[kind] = self.wrong_kinds.get(kind, 0) + 1

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# ---------------------------------------------------------------------------
# reference cache: one JSON file per (kind, inputs), under the checkout


def cached(cache_dir: Path, kind: str, key, compute):
    digest = hashlib.sha256(json.dumps([CACHE_VERSION, oracle.DPS, key]).encode()).hexdigest()
    path = cache_dir / f"{kind}-{digest[:20]}.json"
    if path.exists():
        return json.loads(path.read_text())
    value = compute()
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{random.getrandbits(32)}")
    tmp.write_text(json.dumps(value))
    tmp.replace(path)
    return value


def _s(x):
    return None if x is None else mpmath.nstr(x, oracle.DPS, min_fixed=1, max_fixed=0)


def root_record(q: float, z: float, branch: str) -> list:
    r = oracle.wq_ref(q, z, branch == "upper")
    return [_s(r.w), r.representable, r.kappa, _s(r.dwdz), r.kappa_d]


def lnq_record(q: float, z: float) -> list:
    with mp.workdps(oracle.DPS + 10):
        qm, zm = mpf(q), mpf(z)
        if q == 1.0:
            v = mpmath.log(zm)
            kappa = abs(1 / v) if v != 0 else mpf(1)
        else:
            p = zm ** (1 - qm)
            v = (p - 1) / (1 - qm)
            kappa = abs(p / v) if v != 0 else mpf(1)
        return [_s(v), float(min(kappa, mpf(1e300)))]


def _mpf(text):
    return None if text is None else mpf(text)


def in_band(q: float, z: float) -> bool:
    if q >= 2.0:
        return False
    with mp.workdps(30):
        z_b = oracle.branch_point_ref(mpf(q))[0]
        return abs(mpf(z) - z_b) <= BAND * abs(z_b)


def rel_ok(value: float, ref, kappa: float) -> bool:
    """Relative error within GATE * max(1, kappa); references beyond the
    double range must come back as the matching infinity."""
    if not isinstance(value, float) or math.isnan(value):
        return False
    with mp.workdps(oracle.DPS):
        if mpmath.isinf(ref) or abs(ref) > oracle._MAX:
            return math.isinf(value) and (value > 0) == (ref > 0)
        if math.isinf(value):
            return False
        if ref == 0:
            return value == 0.0
        return abs((mpf(value) - ref) / ref) <= GATE * max(1.0, kappa)


def judge_root(out, rec, band: bool, value_ref: int = 0, kappa_at: int = 2,
               upper: bool = True) -> tuple[bool, str]:
    """Judge a wq (value_ref=0) or dwq_dz (value_ref=3) outcome."""
    w, representable = _mpf(rec[0]), rec[1]
    if value_ref == 3 and w is not None and mpmath.isinf(w) and isinstance(out, float):
        # the root lies beyond the double range, where the oracle has no
        # derivative; only its sign (that of f' on the branch) is judged
        return out != 0.0 and (out > 0) == upper, "derivative of the wrong sign"
    ref = _mpf(rec[value_ref])
    kappa = rec[kappa_at]
    if isinstance(out, str):
        if out.startswith("!"):
            return False, "unexpected " + out[1:]
        if w is None:
            return out in DOMAIN_ERRORS, "out of domain, got " + out
        if band:
            return True, ""
        if out == "ConvergenceError":
            return not representable, "ConvergenceError on a representable root"
        if out == "DerivativeSingularError":
            return ref is None, "DerivativeSingularError away from the branch point"
        if out == "DomainError" and not representable:
            return True, ""
        return False, f"{out} in domain"
    if w is None:
        return band, "answered out of domain"
    if ref is None:
        return False, "answered where the value diverges"
    return rel_ok(out, ref, kappa), "relative error above gate"


# ---------------------------------------------------------------------------
# table


def table_samples(seed: int, tables: list[dict]) -> list[list[int]]:
    rng = random.Random(f"table-sample:{seed}")
    return [sorted(rng.sample(range(t["steps"]), 20 if t["subject"] == "wq" else 10))
            for t in tables]


def table_refs(seed: int, tables: list[dict], cache_dir: Path) -> list[list]:
    samples = table_samples(seed, tables)

    def compute():
        out = []
        for t, idx in zip(tables, samples):
            grid = inputs.table_grid(t)
            if t["subject"] == "wq":
                out.append([root_record(t["q"], grid[i], t["branch"]) for i in idx])
            else:
                out.append([[_s(oracle.exp_q_ref(t["q"], grid[i])),
                             oracle.exp_q_cond(t["q"], grid[i])] for i in idx])
        return out

    return cached(cache_dir, "table", [seed, tables], compute)


def _parse_table(t: dict, text: str) -> list[tuple[float, ...]]:
    if t["format"] == "json":
        doc = json.loads(text)
        if doc.get("clipped") != 0 or doc.get("subject") != t["subject"]:
            raise ValueError(f"unexpected table header {doc.get('subject')} clipped={doc.get('clipped')}")
        keys = ("z", "value", "residual") if t["subject"] == "wq" else ("z", "value")
        return [tuple(_num(r[k]) for k in keys) for r in doc["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    header = ["z", "value", "residual"] if t["subject"] == "wq" else ["z", "value"]
    if rows[0] != header:
        raise ValueError(f"unexpected csv header {rows[0]}")
    return [tuple(float(x) for x in r) for r in rows[1:]]


def _num(x):
    """JSON numbers come back as int when they print without a point ("0"),
    and infinities as the strings "inf"/"-inf"."""
    return float(x)


def _f_float(q: float, w: float) -> tuple[float, float]:
    """f(w) and f'(w) in plain floats, from the definition."""
    if q == 1.0:
        e = math.exp(w)
        return w * e, e * (1.0 + w)
    base = 1.0 + (1.0 - q) * w
    if base <= 0.0:
        return math.nan, math.nan
    le = math.log1p((1.0 - q) * w) / (1.0 - q)
    e = math.exp(le)
    return w * e, math.exp(q * le) * (1.0 + (2.0 - q) * w)


def check_table(seed: int, tables: list[dict], outputs: list, cache_dir: Path) -> Verdicts:
    v = Verdicts()
    refs = table_refs(seed, tables, cache_dir)
    samples = table_samples(seed, tables)
    for t, out, ref, idx in zip(tables, outputs, refs, samples):
        code, text, err = out
        grid = inputs.table_grid(t)
        try:
            if code != 0 or err:
                raise ValueError(f"exit {code}, stderr {err[:200]!r}")
            rows = _parse_table(t, text)
            if len(rows) != len(grid):
                raise ValueError(f"{len(rows)} rows for {len(grid)} grid points")
        except (ValueError, KeyError, IndexError) as exc:
            v.problem(f"table {t['subject']} q={t['q']} {t['branch']}: {exc}")
            for _ in grid:
                v.judge(False, "table output unreadable")
            continue
        bp = inputs.branch_point(t["q"])
        for i, (row, z) in enumerate(zip(rows, grid)):
            if row[0] != z:
                v.problem(f"table q={t['q']}: z column {row[0]!r} != {z!r}")
                v.judge(False, "z column")
                continue
            if t["subject"] == "wq":
                v.judge(_wq_row_ok(t["q"], t["branch"], z, row[1], bp), "wq row")
            else:
                v.judge(_expq_row_ok(t["q"], z, row[1]), "expq row")
        # the seeded sample against the high-precision oracle
        for i, rec in zip(idx, ref):
            value = rows[i][1]
            if t["subject"] == "wq":
                ok, kind = judge_root(value, rec, False)
            else:
                ok, kind = rel_ok(value, mpf(rec[0]), rec[1]), "expq vs oracle"
            v.judge(ok, kind)
    return v


def _wq_row_ok(q, branch, z, w, bp) -> bool:
    if not math.isfinite(w):
        return False
    if bp is not None and (w - bp[1]) * (1 if branch == "upper" else -1) < -1e-6 * abs(bp[1]):
        return False  # the other branch's root
    f, fp = _f_float(q, w)
    return abs(f - z) <= GATE * max(abs(z), abs(w * fp))


def _expq_row_ok(q, z, value) -> bool:
    if q == 1.0:
        return value == math.exp(z) or abs(value - math.exp(z)) <= GATE * max(1.0, abs(z)) * value
    base = 1 + (1 - Fraction(q)) * Fraction(z)
    if base < 0:
        return value == 0.0
    if base == 0:
        return value == (0.0 if q < 1.0 else math.inf)
    ref = math.exp(math.log1p((1.0 - q) * z) / (1.0 - q))
    kappa = abs(z / float(base))
    return abs(value - ref) <= GATE * max(1.0, kappa) * ref


# ---------------------------------------------------------------------------
# extremes


def extremes_refs(seed: int, items: list[dict], cache_dir: Path) -> list[dict]:
    def compute():
        out = []
        for d in items:
            rec = {"root": root_record(d["q"], d["z"], d["branch"]),
                   "band": in_band(d["q"], d["z"])}
            if d["lnq"]:
                rec["lnq"] = lnq_record(d["q"], d["z"])
            out.append(rec)
        return out

    return cached(cache_dir, "extremes", [seed, items], compute)


def check_extremes(seed: int, items: list[dict], outputs: list, cache_dir: Path) -> Verdicts:
    v = Verdicts()
    refs = extremes_refs(seed, items, cache_dir)
    if len(outputs) != len(items):
        v.problem(f"{len(outputs)} outputs for {len(items)} requests")
        return v
    for d, out, ref in zip(items, outputs, refs):
        ok, kind = judge_root(out[0], ref["root"], ref["band"])
        v.judge(ok, "wq: " + kind)
        k = 1
        if d["dwq"]:
            ok, kind = judge_root(out[k], ref["root"], ref["band"], value_ref=3, kappa_at=4,
                                  upper=d["branch"] == "upper")
            v.judge(ok, "dwq_dz: " + kind)
            k += 1
        if d["lnq"]:
            val, lref = out[k], ref["lnq"]
            v.judge(not isinstance(val, str) and rel_ok(val, mpf(lref[0]), lref[1]),
                    "ln_q: relative error above gate")
    return v


# ---------------------------------------------------------------------------
# classify


def _exists_wq(q, z) -> bool | None:
    """Whether W_q(z) has a real value on the upper branch (q, z mpf);
    None inside the band around z_b, where either answer is accepted."""
    if q < 2:
        z_b = oracle.branch_point_ref(q)[0]
        if abs(z - z_b) <= BAND * abs(z_b):
            return None
        return z >= z_b
    if q == 2:
        return z > -1
    return True


def _is_rational(x) -> bool:
    return not isinstance(x, str) and x[1][0] == 0


def _is_surd(x) -> bool:
    """Irrational quadratic surd: b != 0 and d not a perfect square."""
    return not isinstance(x, str) and x[1][0] != 0 and math.isqrt(x[2]) ** 2 != x[2]


def _rat_value(x) -> Fraction | None:
    if isinstance(x, str):
        return None
    if x[1][0] == 0:
        return Fraction(*x[0])
    r = math.isqrt(x[2])
    if r * r == x[2]:
        return Fraction(*x[0]) + Fraction(*x[1]) * r
    return None


def _value_text(text: str):
    """mpf of an exact_value text in the package grammar (a, a+b*sqrt(d), ...)."""
    s = text.replace(" ", "")
    if "sqrt" not in s:
        return mpf(Fraction(s).numerator) / Fraction(s).denominator
    head, _, d = s.partition("sqrt(")
    d = int(d.rstrip(")"))
    head = head.rstrip("*")
    # split head into a and the signed coefficient of the root
    cut = max(head.rfind("+"), head.rfind("-"))
    if cut <= 0:
        a, b = "0", head
    else:
        a, b = head[:cut], head[cut:]
    b = {"": "1", "+": "1", "-": "-1"}.get(b, b)
    fa, fb = Fraction(a), Fraction(b)
    return mpf(fa.numerator) / fa.denominator + mpf(fb.numerator) / fb.denominator * mpmath.sqrt(d)


def judge_verdict(fn: str, q, z, outcome: str, exact_value: str | None) -> tuple[bool, str]:
    """Judge one classify outcome from the operands' structure and values."""
    if outcome.startswith("!"):
        return False, "unexpected " + outcome[1:]
    with mp.workdps(oracle.DPS):
        zv = inputs.operand_value(z)
        qv = inputs.operand_value(q) if q is not None else None
        if fn == "classify_tower":
            r_neg = not isinstance(z, str) and zv < 0
            if outcome == "DomainError" or r_neg:
                return (outcome == "DomainError") == r_neg, "tower refusal"
            if outcome.startswith("transcendental/theorem6"):
                rv = _rat_value(z)
                return rv is not None and rv > 0 and rv.denominator != 1, "theorem6 hypotheses"
            return outcome.startswith("unknown/"), "tower rule"
        if fn == "classify_lnq_derivative":
            z_nonpos = not isinstance(z, str) and zv <= 0
            if outcome == "DomainError" or z_nonpos:
                return (outcome == "DomainError") == z_nonpos, "lnq-deriv refusal"
        if fn == "classify_wq":
            exists = _exists_wq(qv, zv)
            if outcome == "DomainError":
                return exists is not True, "wq refused where the value exists"
            if exists is False and not outcome.startswith("unknown/"):
                return False, "wq verdict where no real value exists"
        if outcome in DOMAIN_ERRORS or "/" not in outcome:
            return False, f"{fn} raised {outcome}"
        verdict, rule = outcome.split("/")
        if rule == "guard_fallthrough":
            return verdict == "unknown", "guard_fallthrough with a verdict"
        if verdict == "unknown":
            return False, "unknown verdict with a deciding rule"
        if exact_value is not None:
            ev = _value_text(exact_value)
            want = "algebraic_irrational" if "sqrt" in exact_value else "rational"
            if verdict != want:
                return False, "verdict does not match the exact value"
            truth = _true_value(fn, qv, zv)
            if truth is None or abs(ev - truth) > mpf(10) ** -30 * max(1, abs(truth)):
                return False, "exact value is not the function value"
            return True, ""
        return _rule_holds(fn, rule, q, z, qv, zv), f"{rule} hypotheses"


def _true_value(fn, q, z):
    if fn == "classify_expq":
        return oracle.exp_q_ref_mp(q, z)
    if fn == "classify_wq":
        if z == 0:
            return mpf(0)
        return z / (1 + z) if q == 2 else None
    if fn == "classify_lnq_derivative":
        return z ** (-q)
    return None


def _rule_holds(fn, rule, q, z, qv, zv) -> bool:
    bracket = 1 + (1 - qv) * zv
    algebraic_z = not isinstance(z, str)
    nonzero_z = zv != 0
    if rule == "cutoff_zero":
        return fn == "classify_expq" and bracket < 0
    if rule == "classical_exp":
        return fn == "classify_expq" and qv == 1 and algebraic_z and nonzero_z
    if rule == "theorem2":
        return fn == "classify_expq" and _is_surd(q) and algebraic_z and nonzero_z and bracket > 0
    if rule == "theorem5":
        return (fn == "classify_expq" and _is_rational(q) and qv != 1
                and isinstance(z, str) and bracket > 0)
    if rule == "classical_w1":
        return fn == "classify_wq" and qv == 1 and zv == 1
    if rule == "theorem1":
        return fn == "classify_wq" and _is_surd(q) and zv == 1
    if rule == "theorem3":
        return fn == "classify_wq" and _is_surd(q) and algebraic_z and nonzero_z
    if rule == "theorem4":
        return (fn == "classify_lnq_derivative" and _is_surd(q) and algebraic_z
                and zv > 0 and zv != 1)
    return False


def check_classify(pairs: list[dict], known: tuple, outputs: list) -> Verdicts:
    v = Verdicts()
    if len(outputs) != len(pairs) + len(known):
        v.problem(f"{len(outputs)} outputs for {len(pairs) + len(known)} inputs")
        return v
    for d, row in zip(pairs, outputs):
        if "parse" in row:
            v.judge(False, f"parse failed: {row['parse']}")
            continue
        for fn in ("classify_expq", "classify_wq", "classify_lnq_derivative", "classify_tower"):
            outcome, ev = row[fn]
            ok, kind = judge_verdict(fn, d["q"], d["z"], outcome, ev)
            v.judge(ok, f"{fn}: {kind}")
        for key in ("q", "z"):
            text, round_trips, real = row[key]
            v.judge(round_trips is True, "render/parse round trip")
            with mp.workdps(oracle.DPS):
                exact = inputs.operand_value(d[key])
                v.judge(isinstance(real, float) and oracle.ulp_distance(real, exact) <= 1.0,
                        "to_real off by more than 1 ulp")
    for (fn, args, accepted), (outcome, _) in zip(known, outputs[len(pairs):]):
        v.judge(known_ok(outcome, accepted), f"known answer {fn}{args}")
    return v


def known_ok(outcome: str, accepted) -> bool:
    for a in accepted:
        if a.endswith("/*") and outcome.startswith(a[:-1]):
            return True
        if outcome == a:
            return True
    return False


# ---------------------------------------------------------------------------
# verify

VERIFY_CHECKS = {"all": 59, "scan": 3}


def check_verify(calls: list[list[str]], outputs: list) -> Verdicts:
    v = Verdicts()
    for argv, (code, text, err) in zip(calls, outputs):
        suite = argv[argv.index("--suite") + 1]
        try:
            doc = json.loads(text)
            checks = doc["checks"]
            if len(checks) != VERIFY_CHECKS[suite]:
                raise ValueError(f"{len(checks)} checks, expected {VERIFY_CHECKS[suite]}")
        except (ValueError, KeyError) as exc:
            v.problem(f"verify {suite}: {exc}")
            for _ in range(VERIFY_CHECKS[suite]):
                v.judge(False, "verify output unreadable")
            continue
        for c in checks:
            v.judge(c["passed"] is True, f"verify check {c['name']}")
        if (code == 0) != all(c["passed"] for c in checks):
            v.problem(f"verify {suite}: exit code {code} disagrees with the checks")
    return v


# ---------------------------------------------------------------------------
# conformance: the pinned sweep, the same on every workload


def sweep_refs(cache_dir: Path) -> dict:
    def compute():
        wq = [root_record(d["q"], d["z"], d["branch"]) for d in inputs.sweep_wq()]
        expq = [_s(oracle.exp_q_ref(d["q"], d["z"])) for d in inputs.sweep_expq()]
        return {"wq": wq, "expq": expq}

    return cached(cache_dir, "sweep", [inputs.sweep_wq(), inputs.sweep_expq()], compute)


def conformance_metrics(conf: dict, refs: dict) -> dict:
    """Worst ulp errors over every answer the sweep got, and the unknown
    share of the known-answer set."""
    def worst(values, ref_texts):
        out = 0.0
        for val, ref in zip(values, ref_texts):
            if isinstance(val, float) and ref is not None:
                out = max(out, oracle.ulp_distance(val, mpf(ref)))
        return out

    with mp.workdps(oracle.DPS + 10):
        finite = [r[0] if r[0] is not None and r[1] else None for r in refs["wq"]]
        dfinite = [r[3] if r[0] is not None and r[1] else None for r in refs["wq"]]
        ulp = worst(conf["wq"], finite)
        dulp = worst(conf["dwq"], dfinite)
        eulp = worst(conf["expq"], refs["expq"])
    unknown = sum(o.startswith("unknown/") for o, _ in conf["known"])
    return {"ulp_max": ulp, "dwq_ulp_max": dulp, "expq_ulp_max": eulp,
            "unknown_share": unknown / len(conf["known"])}


def scipy_crosscheck(points: list[tuple[float, float, str]], records: list[list]) -> tuple[int, float]:
    """Compare the q = 1 references with scipy.special.lambertw; returns the
    number compared and the worst disagreement in units of the tolerance
    1e-13 * max(1, kappa) (relative).  Above 1 means the oracles disagree.
    Points within relative distance 1e-4 of the branch point -1/e are left
    out: scipy's own error grows much faster than the conditioning there."""
    worst, n = 0.0, 0
    for (q, z, branch), rec in zip(points, records):
        if (q != 1.0 or rec[0] is None or not rec[1] or abs(z) < 1e-300
                or abs(z * math.e + 1.0) < 1e-4):
            continue
        s = oracle.scipy_w(z, branch == "upper")
        w = mpf(rec[0])
        if w == 0:
            continue
        err = float(abs((mpf(s) - w) / w)) / (1e-13 * max(1.0, rec[2]))
        worst, n = max(worst, err), n + 1
    return n, worst

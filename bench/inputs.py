"""Seeded workload inputs and the pinned conformance sets.

Every generator is a pure function of the seed.  The package under test is
never imported here: grids, branch points and domains come from the
benchmark's own formulas (``oracle``), so the program only ever receives the
generated inputs.
"""

from __future__ import annotations

import math
import random

import mpmath
from mpmath import mp, mpf

import oracle

# q values of the package's residual grid (verify.RESIDUAL_Q_GRID), repeated
# here so the benchmark does not import the program to build its inputs.
Q_GRID = (0.0, 0.5, 1.0, 1.5, math.sqrt(2.0), 2.0, 2.5, 3.0)
Q_NEAR_ONE = (1.0 - 1e-13, 1.0 + 1e-13)
TABLE_STEPS = 10_000


def branch_point(q: float):
    """(z_b, w_b) as doubles for q < 2, with z_b rounded up so it lies inside
    the exact domain; None for q >= 2."""
    if q >= 2.0:
        return None
    with mp.workdps(oracle.DPS):
        z_b, w_b = oracle.branch_point_ref(mpf(q))
        z = float(z_b)
        if mpf(z) < z_b:
            z = math.nextafter(z, math.inf)
        return z, float(w_b)


def wall(q: float) -> float | None:
    return None if q == 1.0 else 1.0 / (q - 1.0)


# ---------------------------------------------------------------------------
# table


def _upper_range(q: float) -> tuple[float, float]:
    """The z range of the package's upper-branch residual grid."""
    bp = branch_point(q)
    if bp is not None:
        return bp[0], bp[0] + 25.0
    if q == 2.0:
        return -0.95, 24.0
    return -20.0, 25.0


def table_inputs(seed: int) -> list[dict]:
    """Every table the pass prints: wq upper for each q of the grid, wq lower
    for q < 2, and exp_q for each q, 10^4 steps each.  The seed moves each
    end inward by a fraction of one step; formats are fixed per table."""
    rng = random.Random(f"table:{seed}")
    out = []

    def add(subject, q, branch, lo, hi, fmt):
        step = (hi - lo) / (TABLE_STEPS - 1)
        z_from = lo + rng.uniform(0.01, 0.99) * step
        z_to = hi - rng.uniform(0.01, 0.99) * step
        out.append({"subject": subject, "q": q, "branch": branch,
                    "z_from": z_from, "z_to": z_to, "steps": TABLE_STEPS,
                    "format": fmt})

    for q in Q_GRID:
        add("wq", q, "upper", *_upper_range(q), "csv")
        bp = branch_point(q)
        if bp is not None:
            add("wq", q, "lower", bp[0], bp[0] * 1e-3, "json")
    for i, q in enumerate(Q_GRID):
        add("expq", q, "upper", -20.0, 25.0, "json" if i % 2 == 0 else "csv")
    return out


def table_argv(t: dict) -> list[str]:
    argv = ["table", t["subject"], "--q", repr(t["q"]), "--z-from", repr(t["z_from"]),
            "--z-to", repr(t["z_to"]), "--steps", str(t["steps"]),
            "--format", t["format"]]
    if t["subject"] == "wq":
        argv += ["--branch", t["branch"]]
    return argv


def table_grid(t: dict) -> list[float]:
    """The z column the CLI prints, computed the way the CLI computes it."""
    step = (t["z_to"] - t["z_from"]) / (t["steps"] - 1)
    return [t["z_from"] + i * step for i in range(t["steps"])]


# ---------------------------------------------------------------------------
# extremes

N_DRAWS = 3000


def _root_near_wall(q: float, k: int) -> float:
    """z whose root sits at relative distance 10^-k inside the wall."""
    with mp.workdps(oracle.DPS):
        qm = mpf(q)
        w = (1 / (qm - 1)) * (1 - mpf(10) ** -k)
        return float(w * mpmath.exp(oracle.ln_e(qm, w)))


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


STRATA = 100


def _stratified(design: random.Random, rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1): draw i lies in stratum k_i of STRATA equal
    strata, where the k_i cover the strata evenly in an order fixed by the
    design, and the seed places it within its stratum.  The mix of inputs
    is then the same for every seed and every value still moves with it,
    which keeps shares and timings steady from seed to seed."""
    strata = [i * STRATA // n for i in range(n)]
    design.shuffle(strata)
    return [(k + rng.random()) / STRATA for k in strata]


def _balanced(design: random.Random, n: int, weights: dict[str, float]) -> list[str]:
    """n labels in the given proportions (rounded), in the design's order."""
    labels = [k for k, w in weights.items() for _ in range(round(w * n))]
    labels = (labels + [next(iter(weights))] * n)[:n]
    design.shuffle(labels)
    return labels


def extremes_inputs(seed: int) -> list[dict]:
    """Seeded wq requests over the whole branch domain.

    q is a value of the grid (40%), uniform on [0, 3] (40%) or 1 +- 1e-13
    (20%).  78% of requests are in-domain with |z| log-uniform between
    1e-300 and the domain's edge (1e300 or |z_b|), 10% sit at relative
    distance 10^-k from z_b, 10% have their root 10^-k inside the
    positivity wall, and 2% are out of domain and expect a refusal.  Every
    third request also asks for dwq_dz, and every fourth request with z > 0
    also asks for ln_q(q, z).  Each factor is drawn stratified (see
    _stratified).
    """
    design, rng = random.Random("extremes-design"), random.Random(f"extremes:{seed}")
    n = N_DRAWS
    qclass = _balanced(design, n, {"grid": 0.4, "uniform": 0.4, "near1": 0.2})
    kinds = _balanced(design, n, {"in": 0.78, "near_zb": 0.1, "near_wall": 0.1, "ood": 0.02})
    u_q, u_a, u_b = (_stratified(design, rng, n) for _ in range(3))
    out = []
    for i in range(n):
        if qclass[i] == "grid":
            q = Q_GRID[int(u_q[i] * len(Q_GRID))]
        elif qclass[i] == "uniform":
            q = 3.0 * u_q[i]
        else:
            q = Q_NEAR_ONE[int(u_q[i] * 2)]
        bp = branch_point(q)
        kind, a, b = kinds[i], u_a[i], u_b[i]
        z = None
        if kind == "ood":
            branch, z = _out_of_domain(q, bp, a, b)
        elif kind == "near_zb" and bp is not None:
            branch = "upper" if a < 0.5 else "lower"
            z = bp[0] * (1.0 - 10.0 ** -(1 + int(b * 15)))
        elif kind == "near_wall" and abs(q - 1.0) > 1e-3:
            branch = "upper" if q > 1.0 else "lower"
            z = _root_near_wall(q, 1 + int(b * 16))
            if not math.isfinite(z) or z == 0.0:  # f overflows or underflows there
                z = None
        if z is None:
            branch, z = _in_domain(q, bp, a, b)
        out.append({"q": q, "z": z, "branch": branch, "dwq": i % 3 == 0,
                    "lnq": i % 4 == 0 and z > 0.0})
    return out


def _in_domain(q: float, bp, a: float, b: float) -> tuple[str, float]:
    """Branch and sign from a, magnitude from b."""
    if bp is not None:
        if a < 0.3:
            return "lower", -_log_uniform(1e-300, -bp[0], b)
        if a < 0.72:
            return "upper", _log_uniform(1e-300, 1e300, b)
        return "upper", -_log_uniform(1e-300, -bp[0], b)
    if a < 0.6:
        return "upper", _log_uniform(1e-300, 1e300, b)
    if q == 2.0:
        return "upper", -_log_uniform(1e-300, 1.0 - 1e-9, b)
    return "upper", -_log_uniform(1e-300, 1e300, b)


def _out_of_domain(q: float, bp, a: float, b: float) -> tuple[str, float]:
    if bp is None:
        if q == 2.0 and a < 0.5:
            return "upper", -_log_uniform(1.0, 1e300, b)
        return "lower", -_log_uniform(1e-300, 1.0, b)
    if a < 0.5:
        return ("upper" if a < 0.25 else "lower"), bp[0] * (1.0 + 10.0 ** -(1 + int(b * 8)))
    return "lower", _log_uniform(1e-300, 1e300, b)


# ---------------------------------------------------------------------------
# classify

# An exact operand is kept as structure, (a, b, d) for a + b*sqrt(d) with
# rational a, b given as (num, den) pairs, or the name of a constant.  The
# benchmark computes its numeric value from this structure; the program
# only sees the text.

RADICANDS = (2, 3, 5, 6, 7, 8, 12, 18, 50)
# a - b*sqrt(d) pairs where a*a - b*b*d is +-1: the surd nearly cancels
CANCELLING = ((3, 2, 2), (577, 408, 2), (2, 1, 3), (7, 4, 3), (5, 2, 6),
              (9, 4, 5), (8, 3, 7), (99, 70, 2))


def _rat(rng: random.Random, big: bool = False) -> tuple[int, int]:
    if big:
        return (rng.randrange(-10 ** 50, 10 ** 50), rng.randrange(1, 10 ** 50))
    return (rng.randint(-20, 20), rng.randint(1, 12))


def _rat_text(r: tuple[int, int]) -> str:
    n, d = r
    return str(n) if d == 1 else f"{n}/{d}"


def operand_text(x) -> str:
    """Text in the package's exact-number grammar for an operand."""
    if isinstance(x, str):
        return x
    a, b, d = x
    if b[0] == 0:
        return _rat_text(a)
    mag = f"sqrt({d})" if abs(b[0]) == b[1] else f"{_rat_text((abs(b[0]), b[1]))}*sqrt({d})"
    if a[0] == 0:
        return mag if b[0] > 0 else f"-{mag}"
    return f"{_rat_text(a)}{'+' if b[0] > 0 else '-'}{mag}"


def operand_value(x):
    """mpf value of an operand at the benchmark's working precision."""
    if x == "e":
        return mpmath.e
    if x == "pi":
        return mpmath.pi
    a, b, d = x
    return mpf(a[0]) / a[1] + mpf(b[0]) / b[1] * mpmath.sqrt(d)


def _operand(rng: random.Random, u: float, field: int | None = None):
    """An operand of the kind u selects (u uniform on [0, 1))."""
    if u < 0.25:
        return (_rat(rng), (0, 1), 0)
    if u < 0.35:
        return (_rat(rng, big=True), (0, 1), 0)
    if u < 0.45:
        a, b, d = rng.choice(CANCELLING)
        return ((a, 1), (-b, 1), d)
    if u < 0.9:
        b = _rat(rng)
        if b[0] == 0:
            b = (1, 1)
        return (_rat(rng), b, field or rng.choice(RADICANDS))
    return rng.choice(("e", "pi"))


def classify_inputs(seed: int) -> list[dict]:
    """Seeded (q, z) operand pairs: rationals (small and 50-digit), surds
    over several radicands (nearly cancelling ones included), mixed-field
    pairs, and the constants e and pi.  q leans towards the values the
    rules single out (1, 2, surds)."""
    design, rng = random.Random("classify-design"), random.Random(f"classify:{seed}")
    n = N_CLASSIFY
    qkind = _balanced(design, n, {"special": 0.1, "operand": 0.4, "surd": 0.5})
    u_q, u_z, u_same = (_stratified(design, rng, n) for _ in range(3))
    out = []
    for i in range(n):
        if qkind[i] == "special":
            q = ((1 if u_q[i] < 0.5 else 2, 1), (0, 1), 0)
        elif qkind[i] == "operand":
            q = _operand(rng, u_q[i])
        else:  # surd q; z from the same field one time in three
            q = (_rat(rng), (rng.choice((1, -1, 2, -3)), rng.choice((1, 2))),
                 RADICANDS[int(u_q[i] * len(RADICANDS))])
        same = isinstance(q, tuple) and q[1][0] != 0 and u_same[i] < 1 / 3
        z = _operand(rng, u_z[i], q[2] if same else None)
        out.append({"q": q, "z": z, "q_text": operand_text(q), "z_text": operand_text(z)})
    return out


N_CLASSIFY = 1200

# Pinned known answers.  Each entry: function, operand texts, accepted
# outcomes.  An outcome is "verdict/rule", or "DomainError".  Where the
# package answers `unknown` but the truth is decidable, both are accepted,
# so a later change that decides more inputs still conforms.
KNOWN_ANSWERS = (
    ("expq", ("1/2", "0"), ("rational/exact_value",)),
    ("expq", ("1", "2"), ("transcendental/classical_exp",)),
    ("expq", ("1", "sqrt(2)"), ("transcendental/classical_exp",)),
    ("expq", ("3", "1"), ("rational/cutoff_zero",)),
    ("expq", ("sqrt(2)", "1"), ("transcendental/theorem2",)),
    ("expq", ("sqrt(2)", "-1"), ("transcendental/theorem2",)),
    ("expq", ("1+sqrt(2)", "1"), ("rational/cutoff_zero",)),
    ("expq", ("1/2", "pi"), ("transcendental/theorem5",)),
    ("expq", ("0", "e"), ("transcendental/theorem5",)),
    ("expq", ("2", "e"), ("rational/cutoff_zero",)),
    ("expq", ("3", "pi"), ("rational/cutoff_zero",)),
    ("expq", ("1/2", "2"), ("unknown/guard_fallthrough", "rational/*")),
    ("expq", ("sqrt(2)", "sqrt(3)"), ("unknown/guard_fallthrough", "transcendental/theorem2")),
    ("expq", ("sqrt(3)", "sqrt(2)"), ("unknown/guard_fallthrough", "rational/cutoff_zero")),
    ("expq", ("sqrt(2)", "1+sqrt(2)"), ("unknown/guard_fallthrough",)),
    ("expq", ("pi", "1"), ("unknown/guard_fallthrough",)),
    ("wq", ("3/2", "0"), ("rational/exact_value",)),
    ("wq", ("2", "sqrt(2)"), ("algebraic_irrational/closed_form_q2",)),
    ("wq", ("2", "1"), ("rational/closed_form_q2",)),
    ("wq", ("2", "-1"), ("DomainError",)),
    ("wq", ("2", "-3/2"), ("DomainError",)),
    ("wq", ("1", "1"), ("transcendental/classical_w1",)),
    ("wq", ("sqrt(2)", "1"), ("transcendental/theorem1",)),
    ("wq", ("sqrt(2)", "3"), ("transcendental/theorem3",)),
    ("wq", ("sqrt(2)", "-1/4"), ("transcendental/theorem3",)),
    ("wq", ("sqrt(2)", "sqrt(3)"), ("transcendental/theorem3",)),
    ("wq", ("1+sqrt(2)", "-100"), ("transcendental/theorem3",)),
    ("wq", ("3-2*sqrt(2)", "-10"), ("DomainError",)),
    ("wq", ("sqrt(2)", "-100"), ("DomainError",)),
    ("wq", ("1", "2"), ("unknown/guard_fallthrough", "transcendental/*")),
    ("wq", ("1/2", "1"), ("unknown/guard_fallthrough", "algebraic_irrational/*")),
    ("wq", ("pi", "1"), ("unknown/guard_fallthrough",)),
    ("lnq-deriv", ("sqrt(2)", "1"), ("rational/exact_value",)),
    ("lnq-deriv", ("sqrt(2)", "2"), ("transcendental/theorem4",)),
    ("lnq-deriv", ("2", "3/2"), ("rational/exact_value",)),
    ("lnq-deriv", ("1/2", "2"), ("unknown/guard_fallthrough", "algebraic_irrational/*")),
    ("lnq-deriv", ("sqrt(2)", "-1"), ("DomainError",)),
    ("lnq-deriv", ("1", "0"), ("DomainError",)),
    ("lnq-deriv", ("e", "2"), ("unknown/guard_fallthrough",)),
    ("lnq-deriv", ("sqrt(2)", "pi"), ("unknown/guard_fallthrough",)),
    ("tower", ("1/2",), ("transcendental/theorem6",)),
    ("tower", ("3/4",), ("transcendental/theorem6",)),
    ("tower", ("2",), ("unknown/guard_fallthrough",)),
    ("tower", ("-1/2",), ("DomainError",)),
    ("tower", ("-2",), ("DomainError",)),
    ("tower", ("sqrt(2)",), ("unknown/guard_fallthrough",)),
    ("tower", ("1-sqrt(2)",), ("DomainError",)),
    ("tower", ("pi",), ("unknown/guard_fallthrough",)),
)


# ---------------------------------------------------------------------------
# verify


def verify_inputs(seed: int) -> list[list[str]]:
    """The two verify invocations of a pass, in seeded order, with the scan's
    hit threshold drawn from [1e-9, 1e-8] (it moves no work)."""
    rng = random.Random(f"verify:{seed}")
    eps = repr(10.0 ** rng.uniform(-9.0, -8.0))
    calls = [["verify", "--suite", "all", "--format", "json"],
             ["verify", "--suite", "scan", "--degree-max", "4", "--eps", eps,
              "--format", "json"]]
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# pinned accuracy sweep (the same for every seed and every workload)

SWEEP_Q = Q_GRID + Q_NEAR_ONE


def sweep_wq() -> list[dict]:
    """wq requests on a fixed grid: log-spaced |z| from 1e-300 to 1e300 on
    both signs and both branches, z at relative distance 10^-k from z_b,
    and roots at relative distance 10^-k inside the positivity wall."""
    out = []
    decades = [10.0 ** e for e in range(-300, 301, 20)] + [0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
    shrink = [0.9, 0.5, 0.1, 1e-2, 1e-5, 1e-10, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300]
    for q in SWEEP_Q:
        bp = branch_point(q)
        out += [{"q": q, "z": z, "branch": "upper"} for z in decades]
        if bp is not None:
            for t in shrink:
                out.append({"q": q, "z": bp[0] * t, "branch": "upper"})
                out.append({"q": q, "z": bp[0] * t, "branch": "lower"})
            for k in range(1, 16):
                z = bp[0] * (1.0 - 10.0 ** -k)
                out.append({"q": q, "z": z, "branch": "upper"})
                out.append({"q": q, "z": z, "branch": "lower"})
        elif q == 2.0:
            out += [{"q": q, "z": -t, "branch": "upper"} for t in shrink]
        else:
            out += [{"q": q, "z": -z, "branch": "upper"} for z in decades]
        if abs(q - 1.0) > 1e-3:
            branch = "upper" if q > 1.0 else "lower"
            for k in range(1, 17):
                z = _root_near_wall(q, k)
                if math.isfinite(z) and z != 0.0:
                    out.append({"q": q, "z": z, "branch": branch})
    return out


def sweep_expq() -> list[dict]:
    """exp_q on a fixed grid: log-spaced |z| from 1e-300 to 1e300 on both
    signs, ordinary z, and z at relative distance 10^-k from the cutoff."""
    out = []
    zs = [s * 10.0 ** e for e in range(-300, 301, 20) for s in (1.0, -1.0)]
    zs += [float(z) for z in range(-20, 26, 3)] + [700.0, -700.0]
    for q in SWEEP_Q:
        out += [{"q": q, "z": z} for z in zs]
        c = wall(q)
        if c is not None and abs(c) < 1e12:
            for k in range(1, 16):
                out.append({"q": q, "z": c * (1.0 - 10.0 ** -k)})
                out.append({"q": q, "z": c * (1.0 + 10.0 ** -k)})
    return out


def summary(workload: str, items) -> dict:
    """Counts of the generated inputs, for the run's context record."""
    if workload == "table":
        return {"tables": len(items),
                "by_subject_branch": _count(f"{t['subject']}:{t['branch']}" for t in items),
                "formats": _count(t["format"] for t in items),
                "rows": sum(t["steps"] for t in items)}
    if workload == "extremes":
        grid = set(Q_GRID)
        def qclass(q):
            return f"{q:g}" if q in grid else "near1" if q in Q_NEAR_ONE else "uniform"
        return {"requests": len(items),
                "by_q_branch": _count(f"{qclass(d['q'])}:{d['branch']}" for d in items),
                "dwq_calls": sum(d["dwq"] for d in items),
                "lnq_calls": sum(d["lnq"] for d in items)}
    if workload == "classify":
        def kind(x):
            if isinstance(x, str):
                return x
            return "rational" if x[1][0] == 0 else f"surd{x[2]}"
        return {"pairs": len(items), "known_answers": len(KNOWN_ANSWERS),
                "q_kinds": _count(kind(d["q"]) for d in items),
                "z_kinds": _count(kind(d["z"]) for d in items)}
    return {"calls": [" ".join(c) for c in items]}


def _count(keys) -> dict:
    out: dict = {}
    for k in keys:
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))

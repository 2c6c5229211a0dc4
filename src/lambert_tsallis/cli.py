"""Command line front end.

Subcommands
    eval          one numeric evaluation (expq, lnq, dlnq, wq, dwq)
    branch-point  branch point location for a given q
    classify      exact arithmetic-nature verdict for a symbolic input
    table         (z, value) rows over an inclusive grid
    verify        run the numerical cross-check suites

Exit codes: 0 success, 1 domain error or failed check, 2 malformed input or
bad configuration (argparse errors land on 2 as well).

Each command but table builds its result once and _emit prints it.  json:
one document, floats to 17 significant digits so values round-trip, and
inf, -inf, nan as strings (JSON has no literal for them).  csv: a header,
then one line per record with minimal quoting, floats to 17 significant
digits, booleans as true/false, an absent exact value as an empty field.
plain: lines for humans, values to 10 significant digits (verify's
measurements and thresholds as %.3e).  table prints the json and csv rules
through one %.17g row template per table, each distinct residual's text
formatted once per table.

What loads when: importing cli loads argparse and the numeric layer
(`qexp`, `wq`).  The exact layer (`exact`, `classify`) loads at the first
`classify` command and `verify` at the first `verify` command, through the
module `__getattr__` (PEP 562), which binds that submodule's names here;
`json` loads with the first JSON document and `csv` with the first csv
`_emit`.  So `eval`, `branch-point` and `table` load neither layer, and
`table`, whose rows are formatted by hand, loads no `csv`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import re
import sys

from .errors import ConfigurationError, LambertTsallisError, MalformedInputError
from .qexp import _exp_q, _require_finite, dlnq_dz, exp_q, ln_q
from .wq import (DEFAULT_TOL, Branch, _check_settings, _solve, branch_domain, branch_point,
                 dwq_dz, wq)

__all__ = ["main", "entry", "render_json"]

# the names cli binds from each lazy submodule; verify binds _SUITES too,
# its suite functions by --suite name
_LAYERS = {
    "exact": ("parse_exact", "render_exact"),
    "classify": ("classify_expq", "classify_lnq_derivative", "classify_tower",
                 "classify_wq"),
    "verify": ("run_all", "run_scan_suite"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}
_LAYER_OF["_SUITES"] = "verify"


def _bound(name: str) -> object:
    """The object bound here at name.  A lazy name's first read imports its
    submodule and binds all of that submodule's names here; a name already
    bound keeps its object.  The commands read their lazy names through
    this when they run, so an object bound in a name's place (bench/spans.py
    wraps them here) is the one they call."""
    namespace = globals()
    if name not in namespace:
        layer = _LAYER_OF.get(name)
        if layer is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        module = importlib.import_module(f".{layer}", __package__)
        for key in _LAYERS[layer]:
            namespace.setdefault(key, getattr(module, key))
        if layer == "verify":
            namespace.setdefault("_SUITES", {
                "residual": module.run_residual_suite,
                "derivative": module.run_derivative_suite,
                "eq5": module.run_eq5_suite,
                "branch": module.run_branch_suite,
                "all": module.run_all,
            })
    return namespace[name]


# PEP 562 hook, which the interpreter calls for a name not bound here
__getattr__ = _bound


def _json_float(x: float) -> str:
    """A float as JSON: 17 significant digits, non-finite values as the
    strings "inf", "-inf" and "nan"."""
    s = format(x, ".17g")
    return s if math.isfinite(x) else f'"{s}"'


def render_json(doc: object) -> str:
    """JSON with deterministic float formatting (17 significant digits,
    infinities as strings)."""
    import json  # loaded with the first document, not with cli
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return _json_float(doc)
    if isinstance(doc, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in doc) + "]"
    if isinstance(doc, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {render_json(v)}"
                               for k, v in doc.items()) + "}"
    raise TypeError(f"cannot render {type(doc).__name__} as JSON")


def _cell(v: object) -> object:
    # csv.writer itself writes None as an empty field
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else v


# Negative values that argparse must read as values, not options: its own
# pattern (3.10 to 3.13) takes only -N and -N.N, so "--z -1e-3", "--z -inf"
# and the exact "--z -1/2" or "--r -sqrt(2)" failed with "expected one
# argument".  No option here starts with a digit, a point, inf, nan or sqrt,
# so a minus before one of them begins a value: every negative float literal
# and every negative exact-number text.  A malformed one then fails where it
# is converted, with that conversion's message.
_NEGATIVE_NUMBER = re.compile(r"^-\s*(\d|\.\d|inf|nan|sqrt)", re.IGNORECASE)


# built once per process: parse_args leaves the parser as it found it, and
# building it costs about as much as a short command
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambert-tsallis",
        description="Deformed exponentials, their Lambert-style inverse, and "
                    "exact arithmetic-nature classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one quantity at a point")
    p_eval.add_argument("subject", choices=["expq", "lnq", "dlnq", "wq", "dwq"])
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--branch", choices=["upper", "lower"], default="upper")
    p_eval.add_argument("--format", choices=["plain", "json", "csv"],
                        default="plain")

    p_bp = sub.add_parser("branch-point", help="branch point for a given q")
    p_bp.add_argument("--q", type=float, required=True)
    p_bp.add_argument("--format", choices=["plain", "json", "csv"],
                      default="plain")

    p_cls = sub.add_parser("classify",
                           help="exact verdict: rational, algebraic "
                                "irrational, transcendental, or unknown")
    p_cls.add_argument("subject", choices=["wq", "expq", "lnq-deriv", "tower"])
    p_cls.add_argument("--q", type=str, default=None,
                       help="exact number, e.g. 3/2, sqrt(2), 1+2*sqrt(3), pi")
    p_cls.add_argument("--z", type=str, default=None)
    p_cls.add_argument("--z0", type=str, default=None,
                       help="evaluation point for the lnq derivative")
    p_cls.add_argument("--r", type=str, default=None,
                       help="exact base r of the finite tower r^(r^r), e.g. 3/2")
    p_cls.add_argument("--format", choices=["plain", "json", "csv"],
                       default="plain")

    p_tab = sub.add_parser("table", help="(z, value) rows over a grid")
    p_tab.add_argument("subject", choices=["wq", "expq"])
    p_tab.add_argument("--q", type=float, required=True)
    p_tab.add_argument("--z-from", type=float, required=True, dest="z_from")
    p_tab.add_argument("--z-to", type=float, required=True, dest="z_to")
    p_tab.add_argument("--steps", type=int, required=True)
    p_tab.add_argument("--branch", choices=["upper", "lower"], default="upper")
    p_tab.add_argument("--format", choices=["csv", "json"], default="csv")

    p_ver = sub.add_parser("verify", help="run numerical cross-check suites")
    p_ver.add_argument("--suite",
                       choices=["residual", "derivative", "eq5", "branch",
                                "scan", "all"],
                       default="all")
    p_ver.add_argument("--degree-max", type=int, default=3)
    p_ver.add_argument("--coeff-max", type=int, default=30)
    p_ver.add_argument("--eps", type=float, default=1e-8)
    p_ver.add_argument("--format", choices=["plain", "json", "csv"],
                       default="plain")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _emit(fmt: str, doc: dict[str, object], records: list[dict[str, object]],
          columns: list[str], plain: list[str]) -> None:
    """Print a command's result: json as render_json(doc); csv as the
    columns header and one row of _cell values per record; plain as its
    lines."""
    if fmt == "json":
        print(render_json(doc))
    elif fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(record[c]) for c in columns] for record in records)
    else:
        print("\n".join(plain))


def _cmd_eval(args: argparse.Namespace) -> int:
    doc: dict[str, object] = {"command": "eval", "subject": args.subject,
                              "q": args.q, "z": args.z}
    plain: list[str] = []
    # built per call, so the module's names stay the binding site bench/spans.py wraps
    direct = {"expq": exp_q, "lnq": ln_q, "dlnq": dlnq_dz}
    if args.subject in direct:
        value = direct[args.subject](args.q, args.z)
    else:
        branch = Branch(args.branch)
        doc["branch"] = branch.value
        if args.subject == "wq":
            res = wq(args.q, args.z, branch)
            value = res.w
            doc.update(residual=res.residual, iterations=res.iterations)
            plain.append(f"residual={res.residual:.10g} iterations={res.iterations}")
        else:  # dwq
            value = dwq_dz(args.q, args.z, branch)
        doc["meta"] = {"tol": DEFAULT_TOL}
    doc["value"] = value
    _emit(args.format, doc, [doc],
          [key for key in ("value", "residual", "iterations") if key in doc],
          [f"{value:.10g}", *plain])
    return 0


def _cmd_branch_point(args: argparse.Namespace) -> int:
    bp = branch_point(args.q)
    body = None if bp is None else {"z_b": bp.z_b, "w_b": bp.w_b}
    plain = ([f"no branch point for q = {args.q:g} (exists only for q < 2)"]
             if body is None else [f"{k} = {v:.10g}" for k, v in body.items()])
    _emit(args.format, {"command": "branch-point", "q": args.q, "branch_point": body},
          [] if body is None else [body], ["z_b", "w_b"], plain)
    return 0


# each classify subject's function and operand flags
_CLASSIFIERS = {
    "wq": ("classify_wq", ["q", "z"]),
    "expq": ("classify_expq", ["q", "z"]),
    "lnq-deriv": ("classify_lnq_derivative", ["q", "z0"]),
    "tower": ("classify_tower", ["r"]),
}


def _cmd_classify(args: argparse.Namespace) -> int:
    classifier, names = _CLASSIFIERS[args.subject]
    for name in names:
        if getattr(args, name) is None:
            raise ConfigurationError(f"classify {args.subject} requires --{name}")
    parse_exact, render_exact = _bound("parse_exact"), _bound("render_exact")
    operands = {name: parse_exact(getattr(args, name)) for name in names}
    result = _bound(classifier)(*operands.values())
    inputs = {name: render_exact(x) for name, x in operands.items()}
    record = result.to_record()
    plain = [f"{name} = {value}" for name, value in inputs.items()]
    plain += [f"verdict: {record['verdict']}", f"rule: {record['rule']}"]
    if record["exact_value"] is not None:
        plain.append(f"exact value: {record['exact_value']}")
    plain.append(f"justification: {record['justification']}")
    _emit(args.format, {"command": "classify", "subject": args.subject,
                        "inputs": inputs, **record},
          [record], ["verdict", "rule", "exact_value", "justification"], plain)
    return 0


# A residual |h| is the sum of two near-cancelling doubles, so it is a small
# multiple of an ulp and the same few values recur down a table; a small
# double's %.17g text is the costliest field of a row.
class _ResidualText(dict):
    """The %.17g text of each residual, formatted at its first lookup and
    kept for the one table.  A zero is formatted at every lookup and never
    kept: 0.0 and -0.0 are one key but two texts."""

    def __missing__(self, x: float) -> str:
        s = "%.17g" % x
        if x:
            self[x] = s
        return s


# a value's %.17g text as it follows its key in a JSON row, when not finite
_NON_FINITE = re.compile(r": (-?inf|nan)\b")


def _cmd_table(args: argparse.Namespace) -> int:
    """Checks --steps, then the rest once, in the order a per-row call of
    the public functions would, the ends' order after their finiteness; then
    evaluates the rows with the unchecked kernels:
    _exp_q per row, or one wq._solve over the kept grid, which may start a
    row from the roots before it.  Each wq row meets wq's stopping rule,
    but from the eighth row on may differ from a per-point wq in the last
    bits.  Each row goes straight to its line through one %.17g template,
    a residual's text through _ResidualText, and a JSON body holding inf or
    nan has those tokens quoted in place."""
    if args.steps < 2:
        raise ConfigurationError(f"--steps must be >= 2, got {args.steps}")
    q = _require_finite("q", args.q)
    # every grid point is finite once both ends are; a nan end has no order
    _require_finite("z", args.z_from)
    _require_finite("z", args.z_to)
    if not (args.z_from < args.z_to):
        raise ConfigurationError(
            f"--z-from must be less than --z-to, got {args.z_from} and {args.z_to}")
    n = args.steps - 1
    step = (args.z_to - args.z_from) / n
    # z_from + i*step rises with i, so its last point bounds the grid.  It is
    # not finite for a range wider than the largest double or an end next to it
    if math.isfinite(args.z_from + n * step):
        grid = [args.z_from + i * step for i in range(args.steps)]
    else:
        grid = [args.z_from * (1.0 - i / n) + args.z_to * (i / n) for i in range(args.steps)]
    branch = Branch(args.branch)

    if args.subject == "wq":
        dom = branch_domain(q, branch)
        # dom.contains inline, with no call per point; hi is open on every branch
        lo, hi, lo_closed, _ = dom
        kept = ([z for z in grid if lo <= z < hi] if lo_closed
                else [z for z in grid if lo < z < hi])
        clipped = len(grid) - len(kept)
        if clipped:
            print(f"warning: {clipped} of {len(grid)} grid points fall outside "
                  f"the {branch.value} branch domain {dom} and were dropped",
                  file=sys.stderr)
        _check_settings(q, branch)
        if not kept:
            print("error: no grid points inside the branch domain", file=sys.stderr)
            return 1
        keys = ["z", "value", "residual"]
    else:
        clipped = 0
        keys = ["z", "value"]
    # a residual's field takes its text from _ResidualText
    fields = ["%.17g", "%.17g", "%s"][:len(keys)]
    if args.format == "json":
        template = "{%s}" % ", ".join(f'"{key}": {field}' for key, field in zip(keys, fields))
    else:
        template = ",".join(fields)  # csv.writer would quote none of these fields
    if args.subject == "wq":
        text = _ResidualText()
        solved = _solve(q, kept, branch, branch_point(q))
        lines = [template % (z, w, text[residual])
                 for z, (w, residual, _) in zip(kept, solved)]
    else:
        lines = [template % (z, _exp_q(q, z)) for z in grid]

    if args.format == "json":
        doc: dict[str, object] = {"command": "table", "subject": args.subject,
                                  "q": args.q, "branch": branch.value,
                                  "clipped": clipped}
        if args.subject == "wq":
            doc["meta"] = {"tol": DEFAULT_TOL}
        body = ", ".join(lines)
        # neither a key nor the %.17g text of a finite double has an n, so the
        # body has one exactly when a value is inf or nan, which JSON quotes
        if "n" in body:
            body = _NON_FINITE.sub(r': "\1"', body)
        # the rows are the document's last key: render the rest, reopen it
        head = render_json(doc)[:-1]
        print(f'{head}, "rows": [{body}]}}')
    else:
        print("\n".join([",".join(keys), *lines]))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scan = {"degree_max": args.degree_max, "coeff_max": args.coeff_max, "eps": args.eps}
    if args.suite == "scan":
        checks = _bound("run_scan_suite")(**scan)
    else:
        suite = _bound("_SUITES")[args.suite]
        checks = suite(**scan) if args.suite == "all" else suite()
    ok = all(c.passed for c in checks)
    records = [{"name": c.name, "passed": c.passed, "measured": c.measured,
                "threshold": c.threshold} for c in checks]
    plain = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: measured {c.measured:.3e} "
             f"(threshold {c.threshold:.3e})" for c in checks]
    plain.append(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
                 f"({sum(c.passed for c in checks)}/{len(checks)})")
    _emit(args.format, {"command": "verify", "suite": args.suite, "passed": ok,
                        "checks": records},
          records, ["name", "passed", "measured", "threshold"], plain)
    return 0 if ok else 1


_DISPATCH = {
    "eval": _cmd_eval,
    "branch-point": _cmd_branch_point,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (MalformedInputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LambertTsallisError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

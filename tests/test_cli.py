"""Command line interface: exit codes, output formats, JSON round-trip
stability."""

import csv
import importlib
import io
import json
import math
import subprocess
import sys

import pytest

from lambert_tsallis.classify import (classify_expq, classify_lnq_derivative,
                                      classify_tower, classify_wq)
from lambert_tsallis.cli import main, render_json
from lambert_tsallis.errors import ConvergenceError
from lambert_tsallis.exact import parse_exact, render_exact
from lambert_tsallis.qexp import dlnq_dz, exp_q, ln_q
from lambert_tsallis.verify import run_branch_suite, run_eq5_suite
from lambert_tsallis.wq import (DEFAULT_MAX_ITER, DEFAULT_TOL, Branch, branch_domain,
                                branch_point, dwq_dz, wq)

CLI = [sys.executable, "-m", "lambert_tsallis"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


# -------------------------------------------------------------- exit codes

def test_exit_zero_on_success():
    assert run_cli("eval", "wq", "--q", "2", "--z", "1").returncode == 0


def test_exit_one_on_domain_error():
    p = run_cli("eval", "wq", "--q", "1.5", "--z", "-9")
    assert p.returncode == 1
    assert "outside" in p.stderr


def test_exit_one_on_lower_branch_refusal():
    p = run_cli("eval", "wq", "--q", "2", "--z", "-0.5", "--branch", "lower")
    assert p.returncode == 1


def test_exit_one_on_singular_derivative():
    p = run_cli("eval", "dwq", "--q", "1", "--z", "-0.36787944117144233")
    assert p.returncode == 1


def test_exit_one_on_classify_pole():
    p = run_cli("classify", "wq", "--q", "2", "--z", "-1")
    assert p.returncode == 1


def test_exit_two_on_bad_float():
    p = run_cli("eval", "wq", "--q", "nope", "--z", "1")
    assert p.returncode == 2


def test_exit_two_on_bad_exact_grammar():
    for bad in ("2/0", "sqrt(-4)", "1..5", "sqrt(2)+1"):
        p = run_cli("classify", "wq", "--q", bad, "--z", "1")
        assert p.returncode == 2, bad


def test_exit_two_on_missing_classify_operand():
    p = run_cli("classify", "wq", "--q", "2")
    assert p.returncode == 2
    assert "--z" in p.stderr


def test_exit_two_on_bad_steps():
    p = run_cli("table", "wq", "--q", "1", "--z-from", "0", "--z-to", "1",
                "--steps", "1")
    assert p.returncode == 2


def test_exit_two_on_reversed_range():
    p = run_cli("table", "wq", "--q", "1", "--z-from", "2", "--z-to", "1",
                "--steps", "5")
    assert p.returncode == 2


def test_exit_two_on_bad_tol():
    p = run_cli("eval", "wq", "--q", "1", "--z", "1", "--tol", "-1")
    assert p.returncode == 2


def test_exit_one_on_empty_table_intersection():
    p = run_cli("table", "wq", "--q", "1", "--z-from", "-8", "--z-to", "-4",
                "--steps", "3")
    assert p.returncode == 1
    assert "warning" in p.stderr


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string digit limit")
@pytest.mark.parametrize("args", [
    ("classify", "lnq-deriv", "--q", "20000", "--z0", "3/2"),
    # W_2(z) = z/(1+z) has terms of about 5000 digits here
    ("classify", "wq", "--q", "2", "--z", f"{'7' * 2500}+{'7' * 2500}*sqrt(2)"),
], ids=["lnq-deriv", "wq-closed-form"])
def test_exit_two_past_the_int_string_digit_limit(args):
    p = run_cli(*args)
    assert p.returncode == 2
    # one error line, no traceback
    assert p.stderr.startswith("error: ") and p.stderr.count("\n") == 1


def test_exit_two_on_unknown_subcommand():
    assert run_cli("frobnicate").returncode == 2


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0


# ------------------------------------------------------------------ output

def test_eval_plain_digits():
    p = run_cli("eval", "wq", "--q", "1", "--z", "1")
    line = p.stdout.splitlines()[0]
    # 10 significant digits in plain mode
    assert line == "0.5671432904"
    assert "residual=" in p.stdout and "iterations=" in p.stdout


def test_eval_json_round_trips():
    p = run_cli("eval", "wq", "--q", "1", "--z", "1", "--format", "json")
    doc = json.loads(p.stdout)
    assert doc["command"] == "eval"
    assert abs(doc["value"] - 0.5671432904097838) < 1e-12
    assert doc["residual"] <= 1e-12
    assert doc["meta"]["max_iter"] == 200
    # 17 significant digits: parsing and re-rendering is the identity
    assert render_json(doc) == p.stdout.strip()


def test_eval_csv():
    p = run_cli("eval", "wq", "--q", "2", "--z", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(p.stdout)))
    assert rows[0] == ["value", "residual", "iterations"]
    assert float(rows[1][0]) == 0.5


def test_eval_expq_csv_has_no_solver_columns():
    p = run_cli("eval", "expq", "--q", "2", "--z", "0.5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(p.stdout)))
    assert rows[0] == ["value"]
    assert float(rows[1][0]) == 2.0


def test_infinity_renders_as_string():
    p = run_cli("eval", "expq", "--q", "3", "--z", "0.5", "--format", "json")
    doc = json.loads(p.stdout)
    assert doc["value"] == "inf"


def test_branch_point_json_null_when_absent():
    doc = json.loads(run_cli("branch-point", "--q", "2.5",
                             "--format", "json").stdout)
    assert doc["branch_point"] is None
    doc = json.loads(run_cli("branch-point", "--q", "1",
                             "--format", "json").stdout)
    assert doc["branch_point"]["w_b"] == -1.0
    assert abs(doc["branch_point"]["z_b"] + 1.0 / math.e) < 1e-15


def test_classify_json_fields():
    p = run_cli("classify", "expq", "--q", "1/2", "--z", "pi",
                "--format", "json")
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "transcendental"
    assert doc["rule"] == "theorem5"
    assert doc["inputs"] == {"q": "1/2", "z": "pi"}
    assert doc["exact_value"] is None


def test_classify_plain_reports_exact_value():
    p = run_cli("classify", "wq", "--q", "2", "--z", "1")
    assert "verdict: rational" in p.stdout
    assert "exact value: 1/2" in p.stdout


def test_table_csv_shape_and_values():
    p = run_cli("table", "wq", "--q", "2", "--z-from", "0", "--z-to", "4",
                "--steps", "5")
    rows = list(csv.reader(io.StringIO(p.stdout)))
    assert rows[0] == ["z", "value", "residual"]
    assert len(rows) == 6
    zs = [float(r[0]) for r in rows[1:]]
    vals = [float(r[1]) for r in rows[1:]]
    assert zs == [0.0, 1.0, 2.0, 3.0, 4.0]
    for z, v in zip(zs, vals):
        assert abs(v - z / (1 + z)) < 1e-10
    assert all(float(r[2]) <= 1e-12 * max(1.0, float(r[0])) for r in rows[1:])


def test_table_expq_csv_has_no_residual_column():
    p = run_cli("table", "expq", "--q", "1", "--z-from", "0", "--z-to", "1",
                "--steps", "2")
    rows = list(csv.reader(io.StringIO(p.stdout)))
    assert rows[0] == ["z", "value"]
    assert float(rows[2][1]) == pytest.approx(math.e, rel=1e-15)


def test_table_wq_json_carries_meta():
    doc = json.loads(run_cli("table", "wq", "--q", "1", "--z-from", "0",
                             "--z-to", "2", "--steps", "3", "--tol", "1e-10",
                             "--format", "json").stdout)
    assert doc["meta"] == {"tol": 1e-10, "max_iter": 200}
    assert all(abs(r["residual"]) <= 1e-10 * max(1.0, r["z"])
               for r in doc["rows"])


def test_table_clips_and_warns():
    p = run_cli("table", "wq", "--q", "1", "--z-from", "-1", "--z-to", "1",
                "--steps", "9")
    assert p.returncode == 0
    assert "dropped" in p.stderr
    rows = list(csv.reader(io.StringIO(p.stdout)))
    assert all(float(r[0]) >= -1.0 / math.e - 1e-12 for r in rows[1:])


def test_table_json():
    doc = json.loads(run_cli("table", "expq", "--q", "1", "--z-from", "0",
                             "--z-to", "1", "--steps", "3",
                             "--format", "json").stdout)
    assert doc["clipped"] == 0
    assert [r["z"] for r in doc["rows"]] == [0.0, 0.5, 1.0]
    assert doc["rows"][2]["value"] == pytest.approx(math.e, rel=1e-15)


def test_verify_scan_suite_cli():
    p = run_cli("verify", "--suite", "scan", "--format", "json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 3


def test_verify_plain_has_line_per_check():
    p = run_cli("verify", "--suite", "eq5")
    lines = [l for l in p.stdout.splitlines() if l.startswith("PASS")]
    assert len(lines) == 4
    assert p.returncode == 0


def test_verify_all_applies_the_scan_flags(capsys):
    # the default suite is all; its scan takes the flags as --suite scan does
    code, out, _ = run_main(capsys, "verify", "--degree-max", "1", "--coeff-max", "2",
                            "--eps", "1e-3")
    assert code == 0
    assert ("PASS  scan W(1) no hit deg<=1 coeff<=2: measured 1.343e-01 "
            "(threshold 1.000e-03)") in out.splitlines()


# ------------------------------------------------- in-process entry point

def test_main_callable_in_process(capsys):
    assert main(["eval", "wq", "--q", "2", "--z", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0.5"


def test_main_returns_two_without_exiting(capsys):
    assert main(["eval", "wq", "--q", "bad", "--z", "1"]) == 2
    assert main([]) == 2


def test_render_json_primitives():
    assert render_json({"a": [1, 2.5, True, None, "x"]}) == \
        '{"a": [1, 2.5, true, null, "x"]}'
    assert render_json(float("-inf")) == '"-inf"'
    assert json.loads(render_json(0.1 + 0.2)) == 0.1 + 0.2


def run_main(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------ negative numbers as option values

def test_negative_exponent_value_after_a_space(capsys):
    spaced = run_main(capsys, "eval", "wq", "--q", "1", "--z", "-1e-3")
    joined = run_main(capsys, "eval", "wq", "--q", "1", "--z=-1e-3")
    assert spaced == joined
    assert spaced[0] == 0
    table = ["table", "expq", "--q", "1", "--z-to", "1e308", "--steps", "5"]
    assert run_main(capsys, *table, "--z-from", "-1e308") == \
        run_main(capsys, *table, "--z-from=-1e308")


def test_negative_infinity_value_after_a_space(capsys):
    code, out, err = run_main(capsys, "eval", "wq", "--q", "1", "--z", "-inf")
    assert code == 2
    assert err == "error: z must be a finite real, got -inf\n"


# ------------------------- record commands, pinned to the library's results

def _csv_text(*rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _eval_reference(fmt, subject, q, z, branch="upper"):
    """(argv, exit code, stdout) of `eval`, from the public functions."""
    doc = {"command": "eval", "subject": subject, "q": q, "z": z}
    if subject in ("wq", "dwq"):
        doc["branch"] = branch
    if subject == "wq":
        res = wq(q, z, Branch(branch))
        value = res.w
        doc.update(residual=res.residual, iterations=res.iterations)
        plain = f"{value:.10g}\nresidual={res.residual:.10g} iterations={res.iterations}\n"
        csv_text = _csv_text(["value", "residual", "iterations"],
                             [format(value, ".17g"), format(res.residual, ".17g"),
                              res.iterations])
    else:
        value = {"expq": exp_q, "lnq": ln_q, "dlnq": dlnq_dz,
                 "dwq": lambda q, z: dwq_dz(q, z, Branch(branch))}[subject](q, z)
        plain = f"{value:.10g}\n"
        csv_text = _csv_text(["value"], [format(value, ".17g")])
    if subject in ("wq", "dwq"):
        doc["meta"] = {"tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER}
    doc["value"] = value
    argv = ["eval", subject, "--q", repr(q), f"--z={z!r}", "--branch", branch]
    return argv, 0, {"json": render_json(doc) + "\n", "csv": csv_text, "plain": plain}[fmt]


def _branch_point_reference(fmt, q):
    bp = branch_point(q)
    if bp is None:
        body, rows = None, []
        plain = f"no branch point for q = {q:g} (exists only for q < 2)\n"
    else:
        body = {"z_b": bp.z_b, "w_b": bp.w_b}
        rows = [[format(bp.z_b, ".17g"), format(bp.w_b, ".17g")]]
        plain = f"z_b = {bp.z_b:.10g}\nw_b = {bp.w_b:.10g}\n"
    doc = {"command": "branch-point", "q": q, "branch_point": body}
    return (["branch-point", "--q", repr(q)], 0,
            {"json": render_json(doc) + "\n", "csv": _csv_text(["z_b", "w_b"], *rows),
             "plain": plain}[fmt])


def _classify_reference(fmt, subject, **texts):
    classifier = {"wq": classify_wq, "expq": classify_expq,
                  "lnq-deriv": classify_lnq_derivative, "tower": classify_tower}[subject]
    operands = {name: parse_exact(text) for name, text in texts.items()}
    record = classifier(*operands.values()).to_record()
    inputs = {name: render_exact(x) for name, x in operands.items()}
    doc = {"command": "classify", "subject": subject, "inputs": inputs, **record}
    plain = [f"{name} = {text}" for name, text in inputs.items()]
    plain += [f"verdict: {record['verdict']}", f"rule: {record['rule']}"]
    if record["exact_value"] is not None:
        plain.append(f"exact value: {record['exact_value']}")
    plain.append(f"justification: {record['justification']}")
    csv_text = _csv_text(["verdict", "rule", "exact_value", "justification"],
                         [record["verdict"], record["rule"], record["exact_value"] or "",
                          record["justification"]])
    argv = ["classify", subject, *[a for n, t in texts.items() for a in (f"--{n}", t)]]
    return argv, 0, {"json": render_json(doc) + "\n", "csv": csv_text,
                     "plain": "\n".join(plain) + "\n"}[fmt]


def _verify_reference(fmt, suite):
    checks = {"eq5": run_eq5_suite, "branch": run_branch_suite}[suite]()
    ok = all(c.passed for c in checks)
    doc = {"command": "verify", "suite": suite, "passed": ok,
           "checks": [{"name": c.name, "passed": c.passed, "measured": c.measured,
                       "threshold": c.threshold} for c in checks]}
    csv_text = _csv_text(["name", "passed", "measured", "threshold"],
                         *[[c.name, "true" if c.passed else "false",
                            format(c.measured, ".17g"), format(c.threshold, ".17g")]
                           for c in checks])
    plain = "".join(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: measured "
                    f"{c.measured:.3e} (threshold {c.threshold:.3e})\n" for c in checks)
    plain += (f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
              f"({sum(c.passed for c in checks)}/{len(checks)})\n")
    return (["verify", "--suite", suite], 0 if ok else 1,
            {"json": render_json(doc) + "\n", "csv": csv_text, "plain": plain}[fmt])


RECORD_CASES = [
    (_eval_reference, {"subject": "expq", "q": 0.5, "z": 1.5}),
    (_eval_reference, {"subject": "lnq", "q": 1.5, "z": 0.3}),
    (_eval_reference, {"subject": "dlnq", "q": -2.0, "z": 3.0}),
    (_eval_reference, {"subject": "wq", "q": 1.5, "z": 0.7}),
    (_eval_reference, {"subject": "wq", "q": 1.0, "z": -0.2, "branch": "lower"}),
    (_eval_reference, {"subject": "dwq", "q": 0.5, "z": -0.1, "branch": "lower"}),
    (_eval_reference, {"subject": "expq", "q": 3.0, "z": 0.5}),  # inf
    (_branch_point_reference, {"q": 1.0}),
    (_branch_point_reference, {"q": 3.0}),  # none: the csv is its header only
    (_classify_reference, {"subject": "wq", "q": "2", "z": "1"}),  # exact value
    (_classify_reference, {"subject": "tower", "r": "3/4"}),  # no exact value
    # commas in the justification: the csv field is quoted
    (_classify_reference, {"subject": "lnq-deriv", "q": "sqrt(2)", "z0": "2"}),
    (_verify_reference, {"suite": "eq5"}),
    (_verify_reference, {"suite": "branch"}),
]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("reference, kw", RECORD_CASES,
                         ids=[f"{r.__name__[1:-10]}-{'-'.join(map(str, kw.values()))}"
                              for r, kw in RECORD_CASES])
def test_record_commands_match_the_library_rendering(capsys, reference, kw, fmt):
    argv, code, out = reference(fmt, **kw)
    assert run_main(capsys, *argv, "--format", fmt) == (code, out, "")
    if kw.get("subject") == "lnq-deriv" and fmt == "csv":
        # the justification holds commas, so its field comes out quoted
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        assert "," in row[3] and f'"{row[3]}"' in out


# ------------------------------------- table rendering, pinned to the old one

def _table_reference(subject, q, z_from, z_to, steps, branch="upper", fmt="csv",
                     solved=None):
    """(stdout, stderr) of `table` built the way the CLI first built them:
    the public wq or exp_q per row, a dict document through render_json,
    and csv.writer.  solved, given, replaces the per-row wq results by
    (value, residual) pairs."""
    step = (z_to - z_from) / (steps - 1)
    grid = [z_from + i * step for i in range(steps)]
    err = ""
    if subject == "wq":
        dom = branch_domain(q, branch)
        kept = [z for z in grid if dom.contains(z)]
        clipped = steps - len(kept)
        if clipped:
            err = (f"warning: {clipped} of {steps} grid points fall outside the "
                   f"{branch} branch domain {dom} and were dropped\n")
        if solved is None:
            solved = [(r.w, r.residual) for r in (wq(q, z, Branch(branch)) for z in kept)]
        rows = [(z, *s) for z, s in zip(kept, solved)]
        header = ["z", "value", "residual"]
    else:
        clipped = 0
        rows = [(z, exp_q(q, z)) for z in grid]
        header = ["z", "value"]
    if fmt == "json":
        doc = {"command": "table", "subject": subject, "q": q, "branch": branch,
               "clipped": clipped}
        if subject == "wq":
            doc["meta"] = {"tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER}
        doc["rows"] = [dict(zip(header, row)) for row in rows]
        return render_json(doc) + "\n", err
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(x, ".17g") for x in row] for row in rows)
    return buf.getvalue(), err


@pytest.mark.parametrize("subject, q, z_from, z_to, steps, branch, fmt", [
    ("wq", 1.0, -1.0, 3.0, 17, "upper", "csv"),        # clipped below z_b
    ("wq", 0.5, -0.4, -1e-3, 40, "lower", "json"),     # clipped, wall side
    ("wq", 2.5, -3.0, 1e6, 9, "upper", "json"),        # no branch point
    ("expq", 1.0, 700.0, 720.0, 21, "upper", "csv"),   # inf rows from z = 710
    ("expq", 1.0, 700.0, 720.0, 21, "upper", "json"),
    ("expq", 0.5, -5.0, 5.0, 11, "upper", "csv"),      # 0.0 rows past the cutoff
    ("expq", 0.5, -5.0, 5.0, 11, "upper", "json"),
    ("expq", 3.0, -5.0, 5.0, 21, "upper", "json"),     # inf at the boundary
    ("wq", 1.0, -1e-300, 1e-300, 7, "upper", "csv"),   # tiny, negative
    ("wq", 1.0, -1e-300, 1e-300, 7, "upper", "json"),
    ("expq", 1.5, -1e-300, 1e-300, 7, "upper", "json"),
    ("wq", 1.0, -1e-323, 1.5e-323, 6, "upper", "json"),  # subnormal z, w and residual
    ("expq", 1.0, -750.0, -740.0, 11, "upper", "csv"),   # 0 and subnormal values
])
def test_table_matches_the_dict_and_csv_writer_rendering(
        capsys, subject, q, z_from, z_to, steps, branch, fmt):
    code, out, err = run_main(capsys, "table", subject, "--q", repr(q),
                              f"--z-from={z_from!r}", f"--z-to={z_to!r}",
                              "--steps", str(steps), "--branch", branch,
                              "--format", fmt)
    assert code == 0
    if subject == "expq":
        assert (out, err) == _table_reference(subject, q, z_from, z_to, steps, branch, fmt)
        return
    # a wq row may differ from a per-point wq in the last bits: render the
    # table's own values again, and check them against wq separately
    rows = _parse_table(out, fmt)
    solved = [(v, r) for _, v, r in rows]
    assert (out, err) == _table_reference(subject, q, z_from, z_to, steps, branch, fmt,
                                          solved)
    for z, v, _ in rows:
        _assert_near_wq(q, z, branch, v)


def _parse_table(out, fmt):
    """(z, value, residual) rows of a wq table's stdout."""
    if fmt == "json":
        return [(r["z"], r["value"], r["residual"]) for r in json.loads(out)["rows"]]
    return [tuple(map(float, row)) for row in list(csv.reader(io.StringIO(out)))[1:]]


def _assert_near_wq(q, z, branch, v):
    """v is within 4 max(1, kappa) max(1, |log(w/z)|) ulp of the per-point
    wq = w, with kappa the root's condition number |z W'(z) / W|.  The log
    residual cancels two logarithms of size |log(w/z)|, so its rounding
    moves a root by about that many times kappa ulp: both v and w stop
    somewhere in that band (on the lower branch at q = sqrt(2), z =
    -0.3951521733234387, wq is 1 ulp from the true root and a table row 10
    ulp, with kappa = 2.2).  Returns the per-point result."""
    point = wq(q, z, Branch(branch))
    w = point.w
    bp = branch_point(q)
    if w == 0.0 or (bp is not None and z == bp.z_b):
        assert v == w  # the roots wq returns without solving
        return point
    kappa = abs(z * dwq_dz(q, z, Branch(branch)) / w)
    noise = max(1.0, abs(math.log(w / z)))
    assert abs(v - w) <= 4.0 * max(1.0, kappa) * noise * math.ulp(w), (q, z, v, w)
    return point


def test_table_reference_cases_cover_inf_zero_and_clipping(capsys):
    # the cases above print what they are there for
    assert '"inf"' in run_main(capsys, "table", "expq", "--q", "1", "--z-from", "700",
                               "--z-to", "720", "--steps", "21", "--format", "json")[1]
    assert "\n-5,0\n" in run_main(capsys, "table", "expq", "--q", "0.5", "--z-from=-5",
                                   "--z-to", "5", "--steps", "11")[1]
    assert "dropped" in run_main(capsys, "table", "wq", "--q", "0.5", "--z-from=-0.4",
                                 "--z-to=-1e-3", "--steps", "40", "--branch", "lower")[2]


# Doubles whose text is easiest to get wrong.  The CLI's own grids produce
# no -0.0, so the kernels are replaced and the rows go through _cmd_table.
_AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max]


@pytest.mark.parametrize("subject", ["wq", "expq"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("last", [1.0, math.inf, -math.inf, math.nan])
def test_table_rows_render_awkward_doubles_as_format_and_render_json(
        monkeypatch, capsys, subject, fmt, last):
    cli = importlib.import_module("lambert_tsallis.cli")
    values = [*_AWKWARD, last]
    residuals = values[::-1]
    by_z = dict(zip([-1e-323, -5e-324, 0.0, 5e-324, 1e-323, 1.5e-323], values))
    monkeypatch.setattr(cli, "_exp_q", lambda q, z: by_z[z])
    monkeypatch.setattr(cli, "_solve", lambda q, zs, *rest: zip(values, residuals, range(6)))
    code, out, err = run_main(capsys, "table", subject, "--q", "1", "--z-from=-1e-323",
                              "--z-to=1.5e-323", "--steps", "6", "--format", fmt)
    assert (code, err) == (0, "")
    header = ["z", "value", "residual"] if subject == "wq" else ["z", "value"]
    rows = [row[:len(header)] for row in zip(by_z, values, residuals)]
    if fmt == "csv":
        expected = [",".join(header)] + [",".join(format(x, ".17g") for x in row)
                                         for row in rows]
        assert out == "\n".join(expected) + "\n"
        return
    doc = {"command": "table", "subject": subject, "q": 1.0, "branch": "upper",
           "clipped": 0}
    if subject == "wq":
        doc["meta"] = {"tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER}
    doc["rows"] = [dict(zip(header, row)) for row in rows]
    assert out == render_json(doc) + "\n"
    assert '"value": -0' in out and '"value": 4.9406564584124654e-324' in out


# ----------------------------------------------- table error precedence

TABLE_WQ = ["table", "wq", "--q", "1", "--steps", "9"]


def test_table_bad_tol_with_points_kept_exits_two(capsys):
    code, out, err = run_main(capsys, *TABLE_WQ, "--z-from", "-1", "--z-to", "1",
                              "--tol", "0")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "warning: 3 of 9 grid points fall outside the upper branch domain "
        "[-0.367879, inf) and were dropped",
        "error: tol must be a positive finite real, got 0.0"]


def test_table_bad_tol_with_every_point_clipped_exits_one(capsys):
    code, out, err = run_main(capsys, *TABLE_WQ, "--z-from", "1", "--z-to", "2",
                              "--branch", "lower", "--tol", "0")
    assert (code, out) == (1, "")
    assert err.endswith("error: no grid points inside the branch domain\n")


def test_table_non_convergence_exits_one_with_the_solver_text(capsys):
    with pytest.raises(ConvergenceError) as exc:
        wq(1.0, 1.0, Branch.UPPER, DEFAULT_TOL, 1)
    code, out, err = run_main(capsys, *TABLE_WQ, "--z-from", "1", "--z-to", "2",
                              "--max-iter", "1")
    assert (code, out, err) == (1, "", f"error: {exc.value}\n")


def test_table_expq_non_finite_grid_exits_two(capsys):
    code, out, err = run_main(capsys, "table", "expq", "--q", "1", "--z-from=-inf",
                              "--z-to=1e308", "--steps", "5")
    assert (code, out, err) == (2, "", "error: z must be a finite real, got -inf\n")
    code, out, err = run_main(capsys, "table", "expq", "--q", "1", "--z-from=0",
                              "--z-to=inf", "--steps", "5")
    assert (code, out, err) == (2, "", "error: z must be a finite real, got inf\n")


@pytest.mark.parametrize("ends, given", [(["--z-from=-inf", "--z-to=1"], "-inf"),
                                         (["--z-from=0", "--z-to=inf"], "inf")])
def test_table_wq_infinite_end_exits_two(capsys, ends, given):
    code, out, err = run_main(capsys, "table", "wq", "--q", "1", *ends, "--steps", "5")
    assert (code, out, err) == (2, "", f"error: z must be a finite real, got {given}\n")


@pytest.mark.parametrize("subject", ["expq", "wq"])
def test_table_checks_q_before_an_infinite_end(capsys, subject):
    code, out, err = run_main(capsys, "table", subject, "--q", "nan", "--z-from=0",
                              "--z-to=inf", "--steps", "5")
    assert (code, out, err) == (2, "", "error: q must be a finite real, got nan\n")


@pytest.mark.parametrize("subject", ["expq", "wq"])
def test_table_over_a_range_wider_than_the_largest_double(capsys, subject):
    # z_to - z_from overflows; the grid still runs from end to end
    code, out, err = run_main(capsys, "table", subject, "--q", "1", "--z-from=-1e308",
                              "--z-to=1e308", "--steps", "5")
    assert code == 0
    zs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    if subject == "expq":
        assert (zs, err) == ([-1e308, -5e307, 0.0, 5e307, 1e308], "")
    else:  # the two negative points lie below z_b = -1/e
        assert zs == [0.0, 5e307, 1e308]
        assert err.startswith("warning: 2 of 5 grid points fall outside")


def test_table_ending_at_the_largest_double(capsys):
    # step = DBL_MAX/3 is finite, but 3*step rounds up to inf
    top = sys.float_info.max
    code, out, err = run_main(capsys, "table", "expq", "--q", "2", "--z-from=0",
                              f"--z-to={top!r}", "--steps", "4")
    zs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert (code, err, zs[0], zs[-1]) == (0, "", 0.0, top)


# ------------------------------------------------ wq tables by continuation

def _wq_table(capsys, q, z_from, z_to, branch):
    """(z, value, residual) rows of a 1000-step csv table."""
    code, out, err = run_main(capsys, "table", "wq", "--q", repr(q), f"--z-from={z_from!r}",
                              f"--z-to={z_to!r}", "--steps", "1000", "--branch", branch)
    assert code == 0, err
    return _parse_table(out, "csv")


def _continuation_tables():
    for q in [0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 3.0]:
        bp = branch_point(q)
        if bp is None:
            yield q, -0.999 if q == 2.0 else -20.0, 25.0, "upper"
        else:  # both branches from z_b itself
            yield q, bp.z_b, 25.0, "upper"
            yield q, bp.z_b, bp.z_b * 1e-6, "lower"


@pytest.mark.parametrize("q, z_from, z_to, branch", list(_continuation_tables()))
def test_table_rows_by_continuation_are_accurate(capsys, q, z_from, z_to, branch):
    rows = _wq_table(capsys, q, z_from, z_to, branch)
    assert len(rows) == 1000 and rows[0][0] == z_from
    for i, (z, v, residual) in enumerate(rows):
        point = _assert_near_wq(q, z, branch, v)
        # a step under 4 ulp also stops the loop, where conditioning puts
        # tol out of reach: at q = 0 next to the wall, wq's residual is 1.3e-10
        assert residual <= max(DEFAULT_TOL, point.residual), (q, z, residual)
        if i < 5:  # the cubic start needs four roots and a row to compare on
            assert (repr(v), repr(residual)) == (repr(point.w), repr(point.residual)), (q, z)
    bp = branch_point(q)
    if bp is not None:  # the table starts at z_b, where wq returns w_b unsolved
        assert rows[0] == (bp.z_b, bp.w_b, 0.0)


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0, 3.0])
def test_table_row_at_zero_is_exact(capsys, q):
    code, out, err = run_main(capsys, "table", "wq", "--q", repr(q), "--z-from=-0.25",
                              "--z-to=0.25", "--steps", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "0,0,0"


def _evaluations(monkeypatch, capsys, q, z_from, z_to, branch):
    """Residual evaluations of a 1000-step table and of a per-point wq on
    each of its rows."""
    solver = importlib.import_module("lambert_tsallis.wq")
    count = [0]
    log_residual = solver._log_residual

    def counted(*args):
        count[0] += 1
        return log_residual(*args)

    monkeypatch.setattr(solver, "_log_residual", counted)
    rows = _wq_table(capsys, q, z_from, z_to, branch)
    table, count[0] = count[0], 0
    for z, _, _ in rows:
        wq(q, z, Branch(branch))
    return table, count[0]


@pytest.mark.parametrize("q, z_from, z_to, branch", [
    (1.0, -0.3, 25.0, "upper"),
    (0.5, -0.5, -1e-3, "lower"),
    (3.0, -20.0, 25.0, "upper"),
])
def test_table_continuation_saves_evaluations_on_smooth_tables(
        monkeypatch, capsys, q, z_from, z_to, branch):
    table, per_point = _evaluations(monkeypatch, capsys, q, z_from, z_to, branch)
    assert table <= 0.6 * per_point, (table, per_point)


def test_table_builds_no_solve_result(monkeypatch, capsys):
    # the solver yields plain tuples; only the public wq builds a SolveResult
    solver = importlib.import_module("lambert_tsallis.wq")
    built = [0]

    class Counted(solver.SolveResult):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(solver, "SolveResult", Counted)
    rows = _wq_table(capsys, 1.0, -0.3, 25.0, "upper")
    assert (len(rows), built[0]) == (1000, 0)
    result = wq(1.0, 1.0)
    assert (built[0], type(result)) == (1, Counted)
    assert result.branch is Branch.UPPER and type(result.iterations) is int


@pytest.mark.parametrize("q, z_from, z_to", [
    (2.0, -0.999, 1.0),
    (2.5, -1e6, 1e6),
    (2.8335, -1e6, 1e6),
])
def test_table_continuation_keeps_a_near_exact_start(monkeypatch, capsys, q, z_from, z_to):
    # the analytic start is within an evaluation or so of the root here, so
    # extrapolating every row would cost more than it saves
    table, per_point = _evaluations(monkeypatch, capsys, q, z_from, z_to, "upper")
    assert table <= 1.1 * per_point, (table, per_point)

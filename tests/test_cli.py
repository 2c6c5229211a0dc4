"""Command line interface: exit codes, output formats, JSON round-trip
stability."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from lambert_tsallis.cli import main, render_json
from lambert_tsallis.errors import ConvergenceError
from lambert_tsallis.qexp import exp_q
from lambert_tsallis.wq import (DEFAULT_MAX_ITER, DEFAULT_TOL, Branch, branch_domain,
                                wq)

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


# ------------------------------------- table rendering, pinned to the old one

def _table_reference(subject, q, z_from, z_to, steps, branch="upper", fmt="csv"):
    """(stdout, stderr) of `table` built the way the CLI first built them:
    the public wq or exp_q per row, a dict document through render_json,
    and csv.writer."""
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
        solved = [wq(q, z, Branch(branch)) for z in kept]
        rows = [(z, r.w, r.residual) for z, r in zip(kept, solved)]
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
])
def test_table_matches_the_dict_and_csv_writer_rendering(
        capsys, subject, q, z_from, z_to, steps, branch, fmt):
    code, out, err = run_main(capsys, "table", subject, "--q", repr(q),
                              f"--z-from={z_from!r}", f"--z-to={z_to!r}",
                              "--steps", str(steps), "--branch", branch,
                              "--format", fmt)
    assert code == 0
    assert (out, err) == _table_reference(subject, q, z_from, z_to, steps, branch, fmt)


def test_table_reference_cases_cover_inf_zero_and_clipping(capsys):
    # the cases above print what they are there for
    assert '"inf"' in run_main(capsys, "table", "expq", "--q", "1", "--z-from", "700",
                               "--z-to", "720", "--steps", "21", "--format", "json")[1]
    assert "\n-5,0\n" in run_main(capsys, "table", "expq", "--q", "0.5", "--z-from=-5",
                                   "--z-to", "5", "--steps", "11")[1]
    assert "dropped" in run_main(capsys, "table", "wq", "--q", "0.5", "--z-from=-0.4",
                                 "--z-to=-1e-3", "--steps", "40", "--branch", "lower")[2]


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
    code, out, err = run_main(capsys, "table", "expq", "--q", "1", "--z-from=-1e308",
                              "--z-to=1e308", "--steps", "5")
    assert (code, out, err) == (2, "", "error: z must be a finite real, got nan\n")

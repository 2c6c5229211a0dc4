"""Command line interface: exit codes, output formats, JSON round-trip
stability."""

import csv
import gc
import importlib
import io
import json
import math
import re
import subprocess
import sys

import pytest

from lambert_tsallis.classify import (classify_expq, classify_lnq_derivative,
                                      classify_tower, classify_wq)
from lambert_tsallis.cli import build_parser, entry, main, render_json
from lambert_tsallis.errors import ConvergenceError, DomainError, NoBranchPointError
from lambert_tsallis.exact import parse_exact, render_exact
from lambert_tsallis.qexp import dlnq_dz, exp_q, ln_q
from lambert_tsallis.verify import run_branch_suite, run_eq5_suite
from lambert_tsallis.wq import DEFAULT_TOL, Branch, branch_domain, branch_point, dwq_dz, wq

CLI = [sys.executable, "-m", "lambert_tsallis"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


# -------------------------------------------------------------- exit codes

def test_exit_zero_on_success():
    p = run_cli("eval", "wq", "--q", "2", "--z", "1")
    assert p.returncode == 0
    assert p.stdout.splitlines()[0] == "0.5"


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


@pytest.mark.parametrize("q,message", [
    ("1/0", "zero denominator in rational 1/0"),
    ("sqrt(-2)", "a negative radicand has no real square root"),
])
def test_malformed_exact_operand_prints_one_error_line(capsys, q, message):
    # Rational and QuadSurd refuse these where the parsed number is built
    code, out, err = run_main(capsys, "classify", "expq", "--q", q, "--z", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("subject", ["wq", "dwq"])
def test_refusal_beyond_the_double_range_prints_its_values(capsys, subject):
    # ConvergenceError builds its text from its values when the CLI reads it
    code, out, err = run_main(capsys, "eval", subject, "--q", "2.5", "--z", "-4e219")
    assert (code, out, err) == (1, "", (
        "error: no double approximates the root for q = 2.5, z = -4e+219 (upper branch): "
        "it lies next to the wall or beyond the double range; "
        "best w = -1.7976931348623157e+308\n"))


def test_exit_two_on_missing_classify_operand():
    p = run_cli("classify", "wq", "--q", "2")
    assert p.returncode == 2
    assert "--z" in p.stderr


def test_exit_two_on_bad_steps(capsys):
    assert run_main(capsys, "table", "wq", "--q", "1", "--z-from", "0", "--z-to", "1",
                    "--steps", "1") == (2, "", "error: --steps must be >= 2, got 1\n")


def test_exit_two_on_reversed_range(capsys):
    assert run_main(capsys, "table", "wq", "--q", "1", "--z-from", "2", "--z-to", "1",
                    "--steps", "5") == (
        2, "", "error: --z-from must be less than --z-to, got 2.0 and 1.0\n")


@pytest.mark.parametrize("ends", [["--z-from", "nan", "--z-to", "1"],
                                  ["--z-from", "0", "--z-to", "nan"]])
def test_table_nan_end_is_refused_as_not_finite(capsys, ends):
    # a nan end has no order: this read "--z-from must be less than --z-to"
    assert run_main(capsys, "table", "wq", "--q", "1", *ends, "--steps", "3") == (
        2, "", "error: z must be a finite real, got nan\n")


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
    assert doc["meta"] == {"tol": 1e-12}
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
                             "--z-to", "2", "--steps", "3", "--format", "json").stdout)
    # the solver's fixed stopping constant, which every row here meets
    assert doc["meta"] == {"tol": DEFAULT_TOL} == {"tol": 1e-12}
    assert len(doc["rows"]) == 3 and all(r["residual"] <= DEFAULT_TOL for r in doc["rows"])


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


def test_entry_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lambert-tsallis", "eval", "wq", "--q", "2", "--z", "1"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.5"
    monkeypatch.setattr(sys, "argv", ["lambert-tsallis", "eval", "wq", "--q", "2"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 2


@pytest.mark.parametrize("subject, flags, missing", [
    ("wq", ["--q", "2"], "z"),
    ("expq", ["--z", "1"], "q"),
    ("lnq-deriv", ["--q", "2"], "z0"),
    ("tower", [], "r"),
])
def test_classify_refuses_a_missing_operand_flag(capsys, subject, flags, missing):
    code, out, err = run_main(capsys, "classify", subject, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: classify {subject} requires --{missing}\n"


@pytest.mark.parametrize("argv", [
    ["eval", "wq", "--q", "1", "--z", "1"],
    ["table", "wq", "--q", "1", "--z-from", "0", "--z-to", "1", "--steps", "3"],
])
def test_the_solver_takes_no_flags(capsys, argv):
    # every solve ends by construction and stops at the fixed DEFAULT_TOL,
    # so there is neither an iteration budget nor a tolerance to set
    for flag in (["--tol", "1e-9"], ["--max-iter", "200"]):
        assert main([*argv, *flag]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_the_parser_is_built_once_and_carries_nothing_between_calls(capsys):
    assert build_parser() is build_parser()
    assert main(["eval", "wq", "--q", "1", "--z", "1", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lambert-tsallis")
    docs = [json.loads(run_main(capsys, "eval", "wq", "--q", "1", "--z=-0.1",
                                "--format", "json", *flags)[1])
            for flags in (["--branch", "lower"], [])]
    assert [doc["branch"] for doc in docs] == ["lower", "upper"]
    assert [doc["value"] for doc in docs] == [wq(1.0, -0.1, b).w for b in ("lower", "upper")]


def test_render_json_primitives():
    assert render_json({"a": [1, 2.5, True, None, "x"]}) == \
        '{"a": [1, 2.5, true, null, "x"]}'
    assert render_json(float("-inf")) == '"-inf"'
    assert json.loads(render_json(0.1 + 0.2)) == 0.1 + 0.2
    assert render_json(False) == "false"
    assert render_json((False, {1: "a"})) == '[false, {"1": "a"}]'


@pytest.mark.parametrize("doc", [object(), {"a": {1, 2}}, [1, b"x"]])
def test_render_json_refuses_what_json_cannot_hold(doc):
    with pytest.raises(TypeError, match="^cannot render (object|set|bytes) as JSON$"):
        render_json(doc)


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


@pytest.mark.parametrize("argv", [
    ("classify", "wq", "--q", "sqrt(2)", "--z", "-1/4"),
    ("classify", "expq", "--q", "sqrt(2)", "--z", "-sqrt(2)"),
    ("classify", "expq", "--q", "sqrt(2)", "--z", "-1-sqrt(2)"),
    ("classify", "expq", "--q", "3", "--z", "-2/5*SQRT(7)"),
    ("classify", "tower", "--r", "-1/2"),
], ids=["fraction", "surd", "rational-minus-surd", "coefficient", "tower"])
def test_negative_exact_value_after_a_space(capsys, argv):
    # argparse's own pattern took only -N and -N.N as a value: these exited
    # 2 with "expected one argument"
    spaced = run_main(capsys, *argv)
    joined = run_main(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert spaced == joined
    code, out, err = spaced
    assert code in (0, 1) and argv[-1].lower() in out + err


def test_negative_infinity_value_after_a_space(capsys):
    code, out, err = run_main(capsys, "eval", "wq", "--q", "1", "--z", "-inf")
    assert code == 2
    assert err == "error: z must be a finite real, got -inf\n"


# ------------------------------------------- classify JSON, pinned byte for byte

_BIG = "12345678901234567890123456789012345678901234567891"

# a fractional negative surd coefficient, a surd q with negative z, a
# 50-digit rational, e, an exact power and a tower: every record,
# justification and rendered value as the exact layer prints it
_PINNED_CLASSIFY_JSON = [
    pytest.param(("wq", "--q", "2", "--z", "1/3-2/5*sqrt(7)"),
                 '{"command": "classify", "subject": "wq", "inputs": {"q": "2", '
                 '"z": "1/3-2/5*sqrt(7)"}, "verdict": "algebraic_irrational", '
                 '"rule": "closed_form_q2", "justification": "q = 2 has the closed '
                 'form W_2(z) = z/(1+z) = -38/37-45/74*sqrt(7); its arithmetic '
                 'class is read off the exact value.", "exact_value": '
                 '"-38/37-45/74*sqrt(7)"}\n',
                 id="negative-surd-coefficient"),
    pytest.param(("wq", "--q", "1/2-3/7*sqrt(5)", "--z=-1/10"),
                 '{"command": "classify", "subject": "wq", "inputs": {"q": '
                 '"1/2-3/7*sqrt(5)", "z": "-1/10"}, "verdict": "transcendental", '
                 '"rule": "theorem3", "justification": "q = 1/2-3/7*sqrt(5) is '
                 'algebraic irrational and z = -1/10 is nonzero algebraic; were '
                 'W_q(z) algebraic, exp_q(W_q(z)) = z/W_q(z) would be algebraic, '
                 'contradicting the Theorem-2 argument at the nonzero algebraic '
                 'argument W_q(z) (the bracket 1 + (1-q) W is positive wherever the '
                 'branch value exists).", "exact_value": null}\n',
                 id="surd-q-negative-z"),
    pytest.param(("expq", "--q", "sqrt(2)", f"--z=-{_BIG}/7"),
                 '{"command": "classify", "subject": "expq", "inputs": {"q": '
                 '"sqrt(2)", "z": "-123456789012345678901234567890123456789012345678'
                 '91/7"}, "verdict": "transcendental", "rule": "theorem2", '
                 '"justification": "q = sqrt(2) is algebraic irrational and z = '
                 '-12345678901234567890123456789012345678901234567891/7 is nonzero '
                 'algebraic with 1 + (1-q) z > 0; the base 1 + (1-q) z is '
                 'algebraic, neither 0 nor 1, and the exponent 1/(1-q) is algebraic '
                 'irrational, so Gelfond-Schneider makes exp_q(z) transcendental.", '
                 '"exact_value": null}\n',
                 id="50-digit-rational"),
    pytest.param(("expq", "--q", "1/2", "--z", "e"),
                 '{"command": "classify", "subject": "expq", "inputs": {"q": "1/2", '
                 '"z": "e"}, "verdict": "transcendental", "rule": "theorem5", '
                 '"justification": "z = e is transcendental and q is rational with '
                 'q != 1, and 1 + (1-q) z > 0 (certified enclosure): the base 1 + '
                 '(1-q) z is transcendental and the exponent 1/(1-q) is a nonzero '
                 'rational, so exp_q(z) is transcendental.", "exact_value": null}\n',
                 id="e"),
    pytest.param(("lnq-deriv", "--q", "3", "--z0", f"7/{_BIG}"),
                 '{"command": "classify", "subject": "lnq-deriv", "inputs": {"q": '
                 '"3", "z0": "7/12345678901234567890123456789012345678901234567891"}'
                 ', "verdict": "rational", "rule": "exact_value", "justification": '
                 '"integer q = 3 gives the exact rational power z0^(-q) = '
                 '188167637235365777254671604059528675537453820316745037140090056832'
                 '854371392670354749955565340039416176565063740470416567276445174145'
                 '3861189657928971/343.", "exact_value": '
                 '"18816763723536577725467160405952867553745382031674503714009005683'
                 '285437139267035474995556534003941617656506374047041656727644517414'
                 '53861189657928971/343"}\n',
                 id="exact-power"),
    pytest.param(("tower", "--r", f"{_BIG}/2"),
                 '{"command": "classify", "subject": "tower", "inputs": {"r": '
                 '"12345678901234567890123456789012345678901234567891/2"}, '
                 '"verdict": "transcendental", "rule": "theorem6", "justification": '
                 '"r = 12345678901234567890123456789012345678901234567891/2 is a '
                 'positive non-integer rational, so r^r is algebraic irrational '
                 '(irrationality of rational powers of non-integer rationals, taken '
                 'as given); Gelfond-Schneider with algebraic base r not 0 or 1 and '
                 'algebraic irrational exponent r^r then makes the '
                 'right-associative tower r^(r^r) transcendental.", "exact_value": '
                 'null}\n',
                 id="tower"),
]


@pytest.mark.parametrize("argv, expected", _PINNED_CLASSIFY_JSON)
def test_classify_json_is_pinned(capsys, argv, expected):
    assert run_main(capsys, "classify", *argv, "--format", "json") == (0, expected, "")


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
        doc["meta"] = {"tol": DEFAULT_TOL}
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
            doc["meta"] = {"tol": DEFAULT_TOL}
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
        doc["meta"] = {"tol": DEFAULT_TOL}
    doc["rows"] = [dict(zip(header, row)) for row in rows]
    assert out == render_json(doc) + "\n"
    assert '"value": -0' in out and '"value": 4.9406564584124654e-324' in out


# A wq table formats each distinct residual once.  0.0 and -0.0 are one dict
# key, nan is unequal to itself, and math.nan is one object: each row must
# still print its own residual's text
_RESIDUALS = {
    "repeated": [0.0, -0.0, math.nan, math.nan, float("nan"), -math.nan, math.inf,
                 -math.inf, 2.220446049250313e-16, 2.220446049250313e-16, -0.0, 0.0,
                 4.440892098500626e-16, math.inf, 2.220446049250313e-16, -0.0],
    "distinct": [0.0, 5e-324, 2.220446049250313e-16, 4.440892098500626e-16, 1e-300,
                 0.1, 1.0, sys.float_info.max],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_RESIDUALS))
def test_table_residuals_render_as_format_and_render_json(monkeypatch, capsys, fmt, case):
    cli = importlib.import_module("lambert_tsallis.cli")
    residuals = _RESIDUALS[case]
    n = len(residuals)
    monkeypatch.setattr(cli, "_solve", lambda q, zs, *rest: [
        (z / 3.0, residual, 1) for z, residual in zip(zs, residuals)])
    code, out, err = run_main(capsys, "table", "wq", "--q", "1", "--z-from", "0",
                              "--z-to", str(n - 1), "--steps", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    rows = [(float(i), i / 3.0, residual) for i, residual in enumerate(residuals)]
    if fmt == "csv":
        assert out.splitlines() == ["z,value,residual"] + [
            ",".join(format(x, ".17g") for x in row) for row in rows]
        return
    doc = {"command": "table", "subject": "wq", "q": 1.0, "branch": "upper", "clipped": 0,
           "meta": {"tol": DEFAULT_TOL},
           "rows": [dict(zip(["z", "value", "residual"], row)) for row in rows]}
    assert out == render_json(doc) + "\n"


# ----------------------------------------------- table error precedence

@pytest.mark.parametrize("q, flags", [
    ("2.5", ["--branch", "lower"]),
    ("1", []),
], ids=["no-lower-branch", "outside-the-domain"])
def test_table_with_every_point_clipped_reports_wq_checks_first(capsys, q, flags):
    # every grid point lies outside the domain: below z_b = -1/e at q = 1, and
    # there is no lower branch at q = 2.5.  A missing branch reads as a
    # per-point wq reads; a request wq would only refuse on its domain keeps
    # the table's message
    code, out, err = run_main(capsys, "table", "wq", "--q", q, "--z-from=-5", "--z-to=-4",
                              "--steps", "3", *flags)
    point = run_main(capsys, "eval", "wq", "--q", q, "--z=-5", *flags)
    assert out == "" and err.startswith("warning: 3 of 3 grid points fall outside")
    last = err.splitlines()[-1]
    if flags:
        assert (code, f"{last}\n") == (point[0], point[2])
    else:
        assert point[0] == 1 and "outside the upper-branch domain" in point[2]
        assert (code, last) == (1, "error: no grid points inside the branch domain")


def test_table_non_convergence_exits_one_with_the_solver_text(capsys):
    # past the exact-double wall 1/2 at q = 3 the root's nearest double is
    # the wall itself: no double inside it approximates the root, and the
    # first row ends the table
    with pytest.raises(ConvergenceError) as exc:
        wq(3.0, 1e200)
    code, out, err = run_main(capsys, "table", "wq", "--q", "3", "--steps", "9",
                              "--z-from", "1e200", "--z-to", "2e200")
    assert (code, out, err) == (1, "", f"error: {exc.value}\n")


def test_dwq_at_the_branch_point_reports_a_bad_configuration_first():
    # the request checks run before the z_b singularity check
    z_b = branch_point(1.0).z_b
    with pytest.raises(ValueError, match="is not a valid Branch"):
        dwq_dz(1.0, z_b, "sideways")


@pytest.mark.parametrize("q, branch, interval", [
    (0.0, "upper", "[-0.25, inf)"), (0.0, "lower", "[-0.25, 0)"),
    (1.0, "upper", "[-0.367879, inf)"), (1.0, "lower", "[-0.367879, 0)"),
    (2.0, "upper", "(-1, inf)"), (2.0, "lower", "(empty)"),
    (2.5, "upper", "(-inf, inf)"), (2.5, "lower", "(empty)"),
])
def test_branch_domain_wq_and_table_name_one_interval(capsys, q, branch, interval):
    assert str(branch_domain(q, branch)) == interval
    z_out = -1e3 if branch == "upper" else 1.0
    if interval == "(-inf, inf)":
        assert wq(q, z_out, branch).w < 0.0  # no z lies outside
    elif interval == "(empty)":
        with pytest.raises(NoBranchPointError):
            wq(q, z_out, branch)
    else:
        with pytest.raises(DomainError) as exc:
            wq(q, z_out, branch)
        assert re.search(r"-branch domain (.*) for q = ", str(exc.value))[1] == interval
    # -1e3 and -499.5 lie below every lower end, 1 above every lower branch
    code, out, err = run_main(capsys, "table", "wq", "--q", repr(q), "--z-from", "-1e3",
                              "--z-to", "1", "--steps", "3", "--branch", branch)
    warning = re.search(r"branch domain (.*) and were dropped", err)
    if interval == "(-inf, inf)":
        assert (code, warning) == (0, None)
    else:
        assert warning[1] == interval


@pytest.mark.parametrize("q, z_from, z_to, steps, branch, clipped", [
    (0.0, -0.25, 0.25, 3, "upper", 0),  # z_b = -0.25 is a closed end: kept
    (0.0, -0.25, 0.25, 3, "lower", 2),  # and 0 an open one: dropped
    (2.0, -2.0, 1.0, 4, "upper", 2),  # the open end -1 is dropped
    (1.0, -1e308, 1e308, 5, "upper", 2),  # z_to - z_from overflows: the other grid
    (2.5, -1e3, 1e3, 5, "upper", 0),  # the whole line: nothing dropped
])
def test_table_keeps_exactly_the_points_its_domain_contains(
        capsys, q, z_from, z_to, steps, branch, clipped):
    ends = [f"--z-from={z_from!r}", f"--z-to={z_to!r}", "--steps", str(steps)]
    # an expq table prints the whole grid
    grid = [z for z, _ in (map(float, line.split(",")) for line in
                           run_main(capsys, "table", "expq", "--q", repr(q), *ends)[1]
                           .splitlines()[1:])]
    dom = branch_domain(q, branch)
    kept = [z for z in grid if dom.contains(z)]
    code, out, err = run_main(capsys, "table", "wq", "--q", repr(q), *ends, "--branch", branch)
    assert code == 0 and [row[0] for row in _parse_table(out, "csv")] == kept
    assert len(grid) - len(kept) == clipped
    assert err == (f"warning: {clipped} of {len(grid)} grid points fall outside the "
                   f"{branch} branch domain {dom} and were dropped\n" if clipped else "")


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

def _wq_table(capsys, q, z_from, z_to, branch, steps=1000):
    """(z, value, residual) rows of a csv table, 1000 steps by default."""
    code, out, err = run_main(capsys, "table", "wq", "--q", repr(q), f"--z-from={z_from!r}",
                              f"--z-to={z_to!r}", "--steps", str(steps), "--branch", branch)
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
        # DEFAULT_TOL out of reach: at q = 0 next to the wall, wq's residual
        # is 1.3e-10
        assert residual <= max(DEFAULT_TOL, point.residual), (q, z, residual)
        if i < 7:  # the extrapolant needs six roots and a row to compare on
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


@pytest.mark.parametrize("q, z_from, z_to, branch", list(_continuation_tables()))
def test_table_extrapolation_saves_brackets_on_coarse_grids(
        monkeypatch, capsys, q, z_from, z_to, branch):
    # the degree-5 start pays off at 1000 steps too: 1.15-1.55 evaluations per
    # row here, and 1.1-7.9% of rows build the bracket (13.6-54.3% when every
    # row after a second evaluation compared the two starts)
    evaluations = _counted(monkeypatch, "_log_residual")
    brackets = _counted(monkeypatch, "_bracket")
    rows = len(_wq_table(capsys, q, z_from, z_to, branch))
    assert evaluations[0] <= 1.7 * rows, (evaluations[0], rows)
    assert brackets[0] <= 0.10 * rows, (brackets[0], rows)


def _counted(monkeypatch, name):
    """A one-item list that counts the calls of the solver module's
    function name, which the solver looks up through the module."""
    solver = importlib.import_module("lambert_tsallis.wq")
    count = [0]
    original = getattr(solver, name)

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(solver, name, counted)
    return count


def _evaluations(monkeypatch, capsys, q, z_from, z_to, branch):
    """Residual evaluations of a 1000-step table and of a per-point wq on
    each of its rows."""
    count = _counted(monkeypatch, "_log_residual")
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


@pytest.mark.parametrize("q, z_from, z_to, branch", [
    (1.0, -0.3, 25.0, "upper"),
    (0.5, -0.5, -1e-3, "lower"),
    (3.0, -20.0, 25.0, "upper"),
])
def test_table_continuation_rows_skip_the_bracket(monkeypatch, capsys, q, z_from, z_to, branch):
    # a row after one that the extrapolant started and finished at its first
    # evaluation starts from the extrapolant inside the fixed ends, with no
    # _bracket; at 10^4 steps that is nearly every row (a per-point wq makes 1.0)
    brackets = _counted(monkeypatch, "_bracket")
    rows = _wq_table(capsys, q, z_from, z_to, branch, steps=10_000)
    # the lower branch keeps the 5 918 grid points above z_b
    assert len(rows) > 5000 and brackets[0] <= 0.5 * len(rows), (brackets[0], len(rows))
    for z, v, _ in rows[::7]:
        _assert_near_wq(q, z, branch, v)


def test_table_next_to_the_q3_wall_skips_the_bracket(monkeypatch, capsys):
    # next to the wall h' is about 2 500, so a row takes a second evaluation
    # from any start; the analytic start is some 10^9 ulp off there and never
    # wins, so those rows keep the extrapolant instead of re-checking it
    # (1 284 _bracket calls when each such row was followed by one)
    brackets = _counted(monkeypatch, "_bracket")
    evaluations = _counted(monkeypatch, "_log_residual")
    rows = _wq_table(capsys, 3.0, -20.0, 25.0, "upper", steps=10_000)
    assert len(rows) == 10_000
    assert brackets[0] <= 16, brackets[0]
    # 11 289 here; the slack covers another libm
    assert evaluations[0] <= 11_400, evaluations[0]


@pytest.mark.parametrize("q, z_from, z_to, branch, steps, most", [
    (8.0, -20.0, 25.0, "upper", 10_000, 10_800),  # the wall tail, from z ~ 1.8
    (10.0, -0.999, 1.0, "upper", 10_000, 12_700),  # the wall tail, from z ~ 0.86
    (2.8335, -1e6, 1e6, "upper", 1000, 1090),  # the power tail below z ~ -2e5
    (1.99, -0.9545484566618334, -0.0009545484566618334, "lower", 10_000, 11_000),
])
def test_table_rechecks_a_start_that_becomes_all_but_exact(
        monkeypatch, capsys, q, z_from, z_to, branch, steps, most):
    # on these tables the analytic start becomes all but exact partway, after
    # the extrapolant has won every comparison: rows the extrapolant needs two
    # or three evaluations for must still compare it with the start there.
    # Keeping the extrapolant through them took 12 955, 12 887, 1115 and
    # 15 678 evaluations, against 10 564, 12 501, 1068 and 10 718
    evaluations = _counted(monkeypatch, "_log_residual")
    rows = _wq_table(capsys, q, z_from, z_to, branch, steps=steps)
    assert len(rows) > steps // 2
    assert evaluations[0] <= most, evaluations[0]


def test_table_rows_evaluate_their_start_once(monkeypatch, capsys):
    # a table's residual evaluations are the sum of its rows' iterations: no
    # row evaluates its start twice.  No row of this table closes a bracket on
    # adjacent doubles, whose end checks iterations leaves out
    cli = importlib.import_module("lambert_tsallis.cli")
    evaluations = _counted(monkeypatch, "_log_residual")
    iterations = []
    solve = cli._solve

    def recorded(*args):
        for row in solve(*args):
            iterations.append(row[2])
            yield row

    monkeypatch.setattr(cli, "_solve", recorded)
    rows = _wq_table(capsys, 3.0, -0.3, 25.0, "upper")
    assert len(iterations) == len(rows) == 1000
    assert evaluations[0] == sum(iterations), (evaluations[0], sum(iterations))


def test_table_builds_no_solve_result(monkeypatch, capsys):
    # the solver yields plain tuples; only the public wq builds a SolveResult.
    # It builds it with tuple.__new__, which runs no Python __new__ or
    # __init__, so a record of the patched type is counted when it is freed
    solver = importlib.import_module("lambert_tsallis.wq")
    freed = [0]

    class Counted(solver.SolveResult):
        __slots__ = ()

        def __del__(self):
            freed[0] += 1

    monkeypatch.setattr(solver, "SolveResult", Counted)
    rows = _wq_table(capsys, 1.0, -0.3, 25.0, "upper")
    gc.collect()  # a record held in a reference cycle is freed only here
    assert (len(rows), freed[0]) == (1000, 0)
    result = wq(1.0, 1.0)
    assert type(result) is Counted
    assert result.branch is Branch.UPPER and type(result.iterations) is int
    del result
    gc.collect()
    assert freed[0] == 1


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

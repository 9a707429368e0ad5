import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gibbskit import cli
from gibbskit.checks import CheckResult

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIELDS = REPO / "sample_fields"


def run_cli(args):
    """In-process invocation capturing stdout."""
    out = io.StringIO()
    parser = cli.build_parser()
    try:
        ns = parser.parse_args(args)
        code = cli.run(ns, out)
    except cli._CliError as exc:
        return exc.code, out.getvalue(), str(exc)
    return code, out.getvalue(), ""


def run_module(args):
    """Subprocess invocation of python -m gibbskit."""
    return subprocess.run(
        [sys.executable, "-m", "gibbskit", *args],
        cwd=str(REPO),
        text=True,
        capture_output=True,
    )


def test_eval_rotation_example():
    code, out, _ = run_cli(
        [
            "eval",
            "--field", str(FIELDS / "rotation.json"),
            "--point", "1", "0", "0",
            "--bind", "dr=0,1,0",
            "dr · (∇⊗v)",
        ]
    )
    assert code == 0
    assert out.strip() == "(-1, 0, 0)"


def test_eval_json_output():
    code, out, _ = run_cli(
        [
            "eval",
            "--field", str(FIELDS / "shear.json"),
            "--point", "0", "0", "0",
            "--bind", "dr=0,1,0",
            "--output", "json",
            "dr · (∇⊗v)",
        ]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {"expression": "dr · (∇⊗v)", "kind": "vector", "value": [1.0, 0.0, 0.0]}


def test_eval_multivector_json():
    code, out, _ = run_cli(
        [
            "eval",
            "--field", str(FIELDS / "shear.json"),
            "--output", "json",
            "∇ ∧ v",
        ]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "multivector"
    assert obj["value"]["e12"] == -1.0
    assert set(obj["value"]) == {"1", "e1", "e2", "e3", "e12", "e13", "e23", "e123"}


def test_eval_script_mode(tmp_path):
    script = tmp_path / "exprs.txt"
    script.write_text("∇ · v\ndr · (∇⊗v)\n\n", encoding="utf-8")
    code, out, _ = run_cli(
        [
            "eval",
            "--field", str(FIELDS / "dilation.json"),
            "--point", "1", "1", "1",
            "--bind", "dr=1,0,0",
            "--script", str(script),
        ]
    )
    assert code == 0
    assert out.splitlines() == ["3", "(1, 0, 0)"]


def test_eval_fd_step_flag():
    # Central differences are exact on the quadratic v . v, so the custom
    # step still prints clean values.
    code, out, _ = run_cli(
        [
            "eval",
            "--field", str(FIELDS / "dilation.json"),
            "--point", "1", "1", "1",
            "--fd-step", "1e-3",
            "∇(v · v)",
        ]
    )
    assert code == 0
    assert out.strip() == "(2, 2, 2)"


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "1e-400", "h", "1e308"])
def test_eval_fd_step_rejects_non_positive_or_non_finite(step):
    code, out, err = run_cli(
        [
            "eval",
            "--field", str(FIELDS / "dilation.json"),
            "--point", "1", "1", "1",
            "--fd-step", step,
            "∇(2 * (v · v))",
        ]
    )
    assert code == 1
    assert out == ""
    assert "--fd-step" in err and repr(step) in err


def test_module_fd_step_zero_is_one_line_exit_1():
    res = run_module(
        [
            "eval",
            "--field", str(FIELDS / "dilation.json"),
            "--point", "1", "1", "1",
            "--fd-step", "0",
            "∇(2 * (v · v))",
        ]
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr


def test_kinematics_golden_fixtures():
    golden = {
        "golden_rotation.json": ["--field", str(FIELDS / "rotation.json"), "--point", "1", "0", "0"],
        "golden_shear.json": ["--field", str(FIELDS / "shear.json"), "--point", "0", "0", "0"],
        "golden_dilation.json": ["--field", str(FIELDS / "dilation.json"), "--point", "1", "1", "1"],
    }
    for name, args in golden.items():
        code, out, _ = run_cli(["kinematics", *args, "--output", "json"])
        assert code == 0
        want = (FIXTURES / name).read_text(encoding="utf-8")
        assert out == want
        assert json.loads(out) == json.loads(want)


def test_kinematics_requires_point():
    code, _, err = run_cli(["kinematics", "--field", str(FIELDS / "shear.json")])
    assert code == 1
    assert "point" in err


def test_eval_requires_expression_xor_script(tmp_path):
    code, _, _ = run_cli(["eval", "--field", str(FIELDS / "shear.json")])
    assert code == 1
    script = tmp_path / "s.txt"
    script.write_text("∇ · v\n")
    code, _, _ = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), "--script", str(script), "∇ · v"]
    )
    assert code == 1


def test_missing_field_file_is_config_error(tmp_path):
    code, _, err = run_cli(
        ["kinematics", "--field", str(tmp_path / "nope.json"), "--point", "0", "0", "0"]
    )
    assert code == 1
    assert "cannot read" in err


def test_schema_violation_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "type": "polynomial",
                "components": [[{"coeff": 1.0, "powers": [0, -1, 0]}], [], []],
            }
        )
    )
    code, _, err = run_cli(["kinematics", "--field", str(bad), "--point", "0", "0", "0"])
    assert code == 2
    assert "/components/0/0/powers/1" in err


def test_expression_error_exit_3():
    code, _, err = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), "dr · ∇⊗v"]
    )
    assert code == 3
    assert "offset" in err


def test_bad_bind_exit_1():
    code, _, err = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), "--bind", "dr=1,2", "v"]
    )
    assert code == 1
    assert "--bind" in err


@pytest.mark.parametrize("name", ["v", "grad", "2x", "a b", "@"])
def test_bind_refuses_a_name_no_expression_can_read(name):
    # `v` is the field, `grad` an operator, `2x` two tokens and `a b` two
    # names, so a binding of any of them would be silently unused.
    code, out, err = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), "--point", "0", "1", "0",
         "--bind", f"{name}=9,9,9", "v"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("gibbskit eval: argument --bind: ") and "\n" not in err


@pytest.mark.parametrize("name", ["d", "Ω"])
def test_bind_may_shadow_a_derived_tensor(name):
    code, out, _ = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), "--bind", f"{name}=1,2,3", name]
    )
    assert (code, out) == (0, "(1, 2, 3)\n")


def test_unknown_command_exit_1():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 1


def test_conventions_output():
    code, out, _ = run_cli(
        ["conventions", "--field", str(FIELDS / "shear.json"), "--point", "0", "0", "0"]
    )
    assert code == 0
    assert "postfactor" in out and "difference" in out
    code, out, _ = run_cli(
        [
            "conventions",
            "--field", str(FIELDS / "shear.json"),
            "--point", "0", "0", "0",
            "--output", "json",
        ]
    )
    obj = json.loads(out)
    assert obj["grad_gibbs"] == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert obj["grad_alt"] == [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert obj["omega_prefactor"] == [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]


def test_check_failure_maps_to_exit_4(monkeypatch):
    monkeypatch.setattr(
        "gibbskit.checks.run_all", lambda seed: [CheckResult("stub: broken", False, 1, "boom")]
    )
    code, out, _ = run_cli(["check", "--seed", "0"])
    assert code == 4
    assert "FAIL" in out


def test_check_json_output(monkeypatch):
    monkeypatch.setattr(
        "gibbskit.checks.run_all",
        lambda seed: [CheckResult("stub: fine", True, 3, "ok")],
    )
    code, out, _ = run_cli(["check", "--seed", "5", "--output", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 5 and obj["passed"] == 1 and obj["failed"] == 0


# --- subprocess-level behaviour ------------------------------------------------


def test_module_check_seed_0_passes():
    res = run_module(["check", "--seed", "0"])
    assert res.returncode == 0, res.stdout + res.stderr
    assert "0 failed" in res.stdout


def test_module_determinism():
    args = [
        "kinematics",
        "--field", "sample_fields/rotation.json",
        "--point", "1", "0", "0",
        "--output", "json",
    ]
    first = run_module(args)
    second = run_module(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    check_a = run_module(["check", "--seed", "3"])
    check_b = run_module(["check", "--seed", "3"])
    assert check_a.stdout == check_b.stdout


def test_module_usage_error_exit_1():
    res = run_module(["kinematics"])
    assert res.returncode == 1


# --- conventions: one G per call ---------------------------------------------------


def test_conventions_computes_g_once(monkeypatch):
    from gibbskit import fields, kinematics

    calls = []
    original = fields.grad_gibbs

    def counting(f, x):
        calls.append(x)
        return original(f, x)

    # conventions reads G from kinematics.report; cli has no grad_gibbs of its own.
    for module in (fields, kinematics):
        monkeypatch.setattr(module, "grad_gibbs", counting)
    for output in ("text", "json"):
        calls.clear()
        code, _, _ = run_cli(
            [
                "conventions",
                "--field", str(FIELDS / "rotation.json"),
                "--point", "1", "-2", "0.5",
                "--output", output,
            ]
        )
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize("name", ["shear", "rotation", "dilation"])
def test_conventions_agrees_with_kinematics(name):
    args = ["--field", str(FIELDS / f"{name}.json"), "--point", "1", "-2", "0.5", "--output", "json"]
    _, con, _ = run_cli(["conventions", *args])
    _, kin, _ = run_cli(["kinematics", *args])
    con, kin = json.loads(con), json.loads(kin)
    assert con["grad_gibbs"] == kin["grad_gibbs"]
    assert con["grad_alt"] == kin["grad_alt"]
    assert con["omega_postfactor"] == kin["omega"]
    assert con["omega_prefactor"] == [list(col) for col in zip(*kin["omega"])]


# --- unreadable and non-finite input ------------------------------------------------


def test_module_non_utf8_script_is_one_line_exit_1(tmp_path):
    script = tmp_path / "s.txt"
    script.write_bytes(b"\xff v\n")
    res = run_module(
        ["eval", "--field", str(FIELDS / "shear.json"), "--script", str(script)]
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
    assert "cannot read script" in res.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["--point", "nan", "0", "0"],
        ["--point", "0", "inf", "0"],
        ["--bind", "dr=0,-inf,0"],
        ["--point", "0", "0", "1e999"],
        ["--bind", "dr=nan,0,0"],
        ["--bind", "dr=0,0,Infinity"],
    ],
)
def test_non_finite_point_or_bind_exit_1(flags):
    code, out, err = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), *flags, "--output", "json", "dr"]
    )
    assert code == 1
    assert out == ""
    assert flags[0] in err and "finite" in err


def test_module_nan_point_is_one_line_exit_1():
    res = run_module(
        [
            "kinematics",
            "--field", str(FIELDS / "shear.json"),
            "--point", "nan", "0", "0",
            "--output", "json",
        ]
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "coeff, where",
    [
        ("NaN", "NaN"),
        ("Infinity", "Infinity"),
        ("-Infinity", "-Infinity"),
        ("1e999", "/components/0/0/coeff"),
        ("-1e999", "/components/0/0/coeff"),
    ],
)
def test_non_finite_field_file_exit_2(tmp_path, coeff, where):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"type": "polynomial", "components": '
        f'[[{{"coeff": {coeff}, "powers": [0, 0, 0]}}], [], []]}}'
    )
    code, out, err = run_cli(
        ["kinematics", "--field", str(bad), "--point", "0", "0", "0", "--output", "json"]
    )
    assert code == 2
    assert out == ""
    assert where in err


def test_non_utf8_field_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"type": "polynomial\xff"}')
    code, out, err = run_cli(["kinematics", "--field", str(bad), "--point", "0", "0", "0"])
    assert code == 2
    assert out == "" and "not valid JSON" in err


# --- negative numbers in exponent form; overflow -------------------------------------


def test_point_accepts_negative_exponent_form():
    base = ["kinematics", "--field", str(FIELDS / "shear.json")]
    exp_form = run_cli([*base, "--point", "0", "-2e-3", "0"])
    plain = run_cli([*base, "--point", "0", "-0.002", "0"])
    assert exp_form == plain
    assert exp_form[0] == 0 and "point: (0, -0.002, 0)" in exp_form[1]


def test_bind_accepts_negative_exponent_form():
    code, out, _ = run_cli(
        ["eval", "--field", str(FIELDS / "shear.json"), "--bind", "a=-2e-3,1,1", "a"]
    )
    assert (code, out) == (0, "(-0.002, 1, 1)\n")


def test_module_negative_infinite_point_is_one_line_exit_1():
    res = run_module(
        ["kinematics", "--field", str(FIELDS / "shear.json"), "--point", "0", "-inf", "0"]
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "finite" in res.stderr


def _field_file(tmp_path, coeff, powers):
    path = tmp_path / "field.json"
    path.write_text(
        json.dumps(
            {"type": "polynomial", "components": [[{"coeff": coeff, "powers": powers}], [], []]}
        )
    )
    return str(path)


COMMANDS = {"kinematics": [], "conventions": [], "eval": ["v"]}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_module_overflow_is_one_line_exit_1(tmp_path, command):
    field = _field_file(tmp_path, 1.0, [5000, 0, 0])
    res = run_module(
        [command, "--field", field, "--point", "2", "0", "0", *COMMANDS[command]]
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "overflow" in res.stderr


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_non_finite_json_result_exit_1(tmp_path, command):
    field = _field_file(tmp_path, 1e308, [2, 0, 0])
    args = [command, "--field", field, "--point", "10", "0", "0", *COMMANDS[command]]
    code, out, err = run_cli([*args, "--output", "json"])
    assert (code, out) == (1, "")
    assert "not finite" in err and "\n" not in err
    # Text output still shows the value.
    code, out, _ = run_cli(args)
    assert code == 0 and "inf" in out


def test_module_non_finite_literal_exit_3():
    res = run_module(
        ["eval", "--field", "sample_fields/shear.json", "--point", "0", "0", "0", "1e999 * v"]
    )
    assert res.returncode == 3
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "offset 0" in res.stderr


def test_module_closed_stdout_exit_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "gibbskit", "kinematics",
             "--field", "sample_fields/shear.json", "--point", "0", "0", "0"],
            cwd=str(REPO),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr


# --- one line per message; each command takes only the flags it reads ---------------


def run_main(argv):
    """``cli.main`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Every character that str.splitlines breaks on; none lies above U+2029.
LINE_BREAKS = [c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) == 2]


@pytest.mark.parametrize("key", [f"a{c}b" for c in LINE_BREAKS] + ["a\r\nb"])
def test_line_break_in_field_key_is_one_line_exit_2(tmp_path, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "polynomial", "components": [], key: 1}))
    code, out, err = run_main(["kinematics", "--field", str(bad), "--point", "0", "0", "0"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert f"(at /{repr(key)[1:-1]})" in err


def test_line_break_in_field_path_is_one_line(tmp_path):
    bad = tmp_path / "a\nb.json"
    bad.write_text(json.dumps({"type": "polynomial", "components": [], "k": 1}))
    for path, want in ((bad, 2), (tmp_path / "missing\n.json", 1)):
        code, out, err = run_main(["kinematics", "--field", str(path), "--point", "0", "0", "0"])
        assert (code, out) == (want, "")
        assert len(err.splitlines()) == 1 and "\\n" in err


FLAGS_READ = {
    "eval": {"--field", "--point", "--bind", "--output", "--fd-step", "--script"},
    "kinematics": {"--field", "--point", "--output"},
    "conventions": {"--field", "--point", "--output"},
    "check": {"--seed", "--output"},
}


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", sorted(FLAGS_READ))
def test_help_exits_0_and_lists_the_flags_read(monkeypatch, capsys, command, columns):
    # argparse wraps the usage to the terminal width; eval's usage holds a
    # mutually exclusive group with a positional, which is formatted
    # differently when wrapped.
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == FLAGS_READ[command]
    assert ("expression" in usage) == (command == "eval")


@pytest.mark.parametrize("command", ["kinematics", "conventions"])
@pytest.mark.parametrize("flag", [["--bind", "dr=0,1,0"], ["--fd-step", "1e-3"]])
def test_eval_only_flags_are_refused_by_other_commands(command, flag):
    args = [command, "--field", str(FIELDS / "shear.json"), "--point", "0", "0", "0", *flag]
    code, out, err = run_main(args)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and flag[0] in err


def test_eval_expression_starting_with_minus_follows_double_dash():
    args = ["eval", "--field", str(FIELDS / "dilation.json"), "--point", "1", "1", "1"]
    assert run_main([*args, "--", "-v"]) == (0, "(-1, -1, -1)\n", "")
    code, out, err = run_main([*args, "-v"])
    assert (code, out) == (1, "") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [["--point", "0", "1", "0", "-v"], ["-v"]])
def test_eval_leading_minus_error_says_double_dash(args):
    code, out, err = run_main(["eval", "--field", str(FIELDS / "shear.json"), *args])
    assert (code, out) == (1, "") and len(err.splitlines()) == 1
    assert "an expression that starts with '-' goes after '--'" in err


@pytest.mark.parametrize("expression, want", [
    ("-v", "(-1, 0, 0)\n"),
    ("-(∇⊗v)", "           0           0           0\n"
               "          -1           0           0\n"
               "           0           0           0\n"),
], ids=["vector", "tensor"])
def test_text_output_prints_negative_zero_as_0(expression, want):
    args = ["eval", "--field", str(FIELDS / "shear.json"), "--point", "0", "1", "0", "--"]
    assert run_main([*args, expression]) == (0, want, "")

"""∇(...) on a polynomial field is exact and takes no central difference.

Its scalar is evaluated as a first-order jet: the product rule through the
evaluator's rule table, the rows of G for v, and each form of G applied
to the Hessian slices.  So fd_grad is never called, the step changes no
result, and where central differences lost digits or refused, the exact
gradient comes back.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from gibbskit import (
    EvalContext, Vec3, cli, evaluate, fields, grad_gibbs, load_field, notation, parse,
)
from gibbskit.dyadics import prefactor

from helpers import notation_workload, rand_cubic, rand_vec

FIELDS = Path(__file__).resolve().parents[1] / "sample_fields"


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture
def fd_calls(monkeypatch):
    calls = []
    original = fields.fd_grad

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (fields, notation):
        monkeypatch.setattr(module, "fd_grad", counting)
    return calls


def test_the_notation_workload_takes_no_central_difference(fd_calls):
    workload = notation_workload(0)
    applied = 0
    for i in range(400):
        inp = workload.inputs(i)
        applied += sum(text.lstrip().startswith(("∇(", "grad(")) for text, _ in inp[3])
        assert workload.verify(inp, workload.call(inp)) is None
    assert applied > 50
    assert fd_calls == []


@pytest.mark.parametrize("field, point, want", [
    ("rotation", (1e8, 1.0, 0.0), (2e8, 2.0, 0.0)),  # central differences gave (2e+08, 100000, 0)
    ("shear", (1e300, 1e300, 1e300), (0.0, 2e300, 0.0)),  # central differences refused
    ("shear", (1.0, 2.0, 3.0), (0.0, 4.0, 0.0)),  # central differences gave 4.000000000026205
    ("rotation", (1e12, 1.0, 0.0), (2e12, 2.0, 0.0)),  # the step 1e-5 is lost in x
])
def test_the_gradient_of_v_dot_v_is_exact(field, point, want):
    f = load_field(str(FIELDS / f"{field}.json"))
    for step in (1e-5, 2.0**-10, 1.0):
        got = evaluate(parse("∇(v · v)"), EvalContext(f, Vec3(*point), fd_step=step))
        assert got.as_tuple() == want


def test_the_gradient_of_c_dot_v_keeps_the_floats_of_g_dot_c():
    # ∇(c · v) was G · c, computed apart; the product rule gives the same
    # floats, and a zero is +0.0 as in G · c.
    rng = random.Random(11)
    for _ in range(200):
        f, x, c = rand_cubic(rng), rand_vec(rng), rand_vec(rng)
        want = [float.hex(q) for q in prefactor(grad_gibbs(f, x), c).as_tuple()]
        for src in ("∇(c · v)", "∇(v · c)"):
            got = evaluate(parse(src), EvalContext(f, x, {"c": c})).as_tuple()
            assert [float.hex(q) for q in got] == want
    shear = load_field(str(FIELDS / "shear.json"))
    ctx = EvalContext(shear, Vec3(1.0, 2.0, 3.0), {"c": Vec3(-1.0, -2.0, -3.0)})
    got = evaluate(parse("∇(c · v)"), ctx)
    assert [float.hex(q) for q in got.as_tuple()] == [float.hex(q) for q in (0.0, -1.0, 0.0)]


def test_a_nested_exact_gradient_is_exact_where_a_step_is_lost():
    f = load_field(str(FIELDS / "rotation.json"))
    ctx = EvalContext(f, Vec3(1e12, 1.0, 0.0), {"c": Vec3(3.0, 0.5, -1.0)})
    assert evaluate(parse("∇(∇(c · v) · v)"), ctx).as_tuple() == (-3.0, -0.5, 0.0)


@pytest.mark.parametrize("field, point, stdout", [
    ("rotation", ("1e8", "1", "0"), "(2e+08, 2, 0)\n"),
    ("shear", ("1e300", "1e300", "1e300"), "(0, 2e+300, 0)\n"),
])
def test_cli_prints_the_exact_gradient(field, point, stdout):
    argv = ("eval", "--field", str(FIELDS / f"{field}.json"), "--point", *point, "∇(v · v)")
    assert run_cli(*argv) == (0, stdout)
    # The step changes no output.
    assert run_cli(*argv[:1], "--fd-step", "1e-3", *argv[1:]) == (0, stdout)


def test_cli_json_holds_the_exact_floats():
    code, out = run_cli("eval", "--field", str(FIELDS / "shear.json"), "--point", "1", "2", "3",
                        "--output", "json", "∇(v · v)")
    assert code == 0
    assert json.loads(out)["value"] == [0.0, 4.0, 0.0]
    assert '"value": [\n    0.0,\n    4.0,\n    0.0\n  ]' in out

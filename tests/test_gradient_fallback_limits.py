"""∇(...) refuses what it cannot do well.

A ∇(...) nested inside another needs second derivatives of its scalar.
They are taken only for ∇(c · v) with c bound, whose gradient is linear in
v; any other nested ∇(...) is refused with an EvalError at the inner
∇(...).  On a black box it would take central differences of central
differences: work that grows sevenfold per level and an error that grows
faster.  The central-difference fallback of a black box also refuses a
difference quotient that overflows although both of its values are
finite, rather than return infinity.  A polynomial field takes no
difference quotient, so the CLI, which builds only polynomial fields,
returns the exact gradient there.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from gibbskit import BlackBoxField, EvalContext, EvalError, Poly, PolyField, Vec3, evaluate, parse

from helpers import vec_close

REPO = Path(__file__).resolve().parents[1]

# v = (-y, x, 0), as in sample_fields/rotation.json; v · v has gradient
# (2x, 2y, 0), which is orthogonal to v, so every E(n) below is exactly 0.
ROTATION = PolyField((Poly((((0, 1, 0), -1.0),)), Poly((((1, 0, 0), 1.0),)), Poly.zero()))
POINT = Vec3(1.0, -2.0, 0.5)


def nested(n):
    """E(1) = ∇(v · v) · v and E(n + 1) = ∇(E(n)) · v."""
    return "∇(" * n + "v · v" + ") · v" * n


def innermost_offset(n):
    # Every ∇(...) error is reported at the byte offset of its "(";
    # each "∇(" is four bytes of UTF-8.
    return 4 * (n - 1) + 3


def test_a_single_fallback_still_evaluates():
    assert abs(evaluate(parse(nested(1)), EvalContext(ROTATION, POINT))) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 9, 40])
def test_a_nested_fallback_is_refused_at_the_innermost_gradient(n):
    src = nested(n)
    assert src.encode("utf-8")[: innermost_offset(n) + 1].endswith("∇(".encode("utf-8"))
    start = time.perf_counter()
    with pytest.raises(EvalError) as err:
        evaluate(parse(src), EvalContext(ROTATION, POINT))
    assert time.perf_counter() - start < 1.0
    assert err.value.pos == innermost_offset(n)
    assert "nested ∇(...)" in str(err.value)


def test_an_exact_inner_gradient_may_be_nested():
    # The inner ∇(c · v) is exact, (c_y, -c_x, 0) = (0.5, -3, 0) at every
    # point, so the outer fallback differentiates -3x - 0.5y.
    ctx = EvalContext(ROTATION, POINT, {"c": Vec3(3.0, 0.5, -1.0)})
    got = evaluate(parse("∇(∇(c · v) · v)"), ctx)
    assert vec_close(got, Vec3(-3.0, -0.5, 0.0), 1e-9)


@pytest.mark.parametrize(
    "src, error",
    [
        ("∇(∇(v) · v)", "needs a scalar expression"),  # the inner kind error
        ("∇(∇(v · v) · w)", "unbound name 'w'"),  # the binding error
    ],
)
def test_earlier_errors_keep_their_precedence(src, error):
    with pytest.raises(EvalError) as err:
        evaluate(parse(src), EvalContext(ROTATION, POINT))
    assert error in str(err.value)


def test_an_overflowing_difference_quotient_is_refused():
    shear = BlackBoxField(PolyField((Poly((((0, 1, 0), 1.0),)), Poly.zero(), Poly.zero())).eval)
    ctx = EvalContext(shear, Vec3(0.0, 0.0, 0.0), {"e": Vec3(1.0, 0.0, 0.0)}, fd_step=8.98e307)
    with pytest.raises(EvalError) as err:
        evaluate(parse("∇(2 * (e · v))"), ctx)
    assert err.value.pos == 3
    assert "overflows" in str(err.value) and repr(8.98e307) in str(err.value)
    # The same step is fine where the quotient stays finite.
    ctx = EvalContext(shear, Vec3(0.0, 0.0, 0.0), {"e": Vec3(1.0, 0.0, 0.0)}, fd_step=1e307)
    assert evaluate(parse("∇(2 * (e · v))"), ctx).as_tuple() == (0.0, 2.0, 0.0)


def run_eval(*args):
    return subprocess.run(
        [sys.executable, "-m", "gibbskit", "eval", *args],
        cwd=str(REPO), text=True, capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("n", [2, 40])
def test_cli_refuses_a_nested_fallback_with_exit_3_and_one_line(n):
    res = run_eval("--field", "sample_fields/rotation.json", "--point", "1", "-2", "0.5", nested(n))
    assert res.returncode == 3
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
    assert f"nested ∇(...) must be ∇(c · v) with c bound (offset {innermost_offset(n)})" in res.stderr


def test_cli_keeps_an_exact_inner_gradient():
    res = run_eval("--field", "sample_fields/rotation.json", "--point", "1", "-2", "0.5",
                   "--bind", "c=3,0.5,-1", "∇(∇(c · v) · v)")
    assert res.returncode == 0
    assert res.stdout == "(-3, -0.5, 0)\n"


def test_cli_differentiates_exactly_where_a_quotient_would_overflow():
    res = run_eval("--field", "sample_fields/shear.json", "--point", "0", "0", "0",
                   "--bind", "e=1,0,0", "--fd-step", "8.98e307", "∇(2 * (e · v))")
    assert (res.returncode, res.stdout, res.stderr) == (0, "(0, 2, 0)\n", "")

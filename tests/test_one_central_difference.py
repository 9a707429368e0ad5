"""fd_grad holds the one central-difference quotient; ∇(...) on a black box goes through it.

On a BlackBoxField, the fallback of ∇(...) is fd_grad of its scalar, seen as
a BlackBoxField whose x-component is the scalar at the shifted point.
fd_grad refuses, with FloatingPointError, a step lost in a coordinate
(x + h e_i or x - h e_i rounds to x) and a quotient that overflows although
both of its values are finite; the evaluator reports that refusal as an
EvalError at its "(".  Every quotient that is not refused is the float that
the two former copies of the loop, kept below as references, computed.  A
PolyField takes no quotient: its ∇(...) is exact, as the CLI shows.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbskit import (
    BlackBoxField, EvalContext, EvalError, Poly, PolyField, Tensor3, Vec3, evaluate, fd_grad, parse,
)
from gibbskit.dyadics import prefactor
from gibbskit.fields import DEFAULT_FD_STEP, _check_fd_step
from gibbskit.notation import DOT, FIELD_NAME, Binary, VectorRef, _grad_at, _Shifted, value_kind

from helpers import rand_cubic

REPO = Path(__file__).resolve().parents[1]

# v = (-y, x, 0), as in sample_fields/rotation.json.
ROTATION = PolyField((Poly((((0, 1, 0), -1.0),)), Poly((((1, 0, 0), 1.0),)), Poly.zero()))


# --- the two former copies of the loop, verbatim ----------------------------------


def reference_fd_grad(f, x: Vec3, step: float | None = None) -> Tensor3:
    """Central-difference gradient, entry (i, j) = [v_j(x+h e_i) - v_j(x-h e_i)] / 2h.

    Exact on affine fields for any h, O(h^2) otherwise.  Works on anything
    with an ``eval(Vec3) -> Vec3`` method.
    """
    if step is None:
        step = f.step if isinstance(f, BlackBoxField) else DEFAULT_FD_STEP
    _check_fd_step(step)
    rows = []
    for i in (1, 2, 3):
        e_i = Vec3.basis(i)
        plus = f.eval(x + step * e_i)
        minus = f.eval(x - step * e_i)
        rows.append(tuple((p - m) / (2.0 * step) for p, m in zip(plus.as_tuple(), minus.as_tuple())))
    return Tensor3(tuple(rows))


def reference_gradient_apply(inner, ctx: EvalContext, pos: int) -> Vec3:
    # Exact chain rule for the common case  ∇(c · v)  with c a constant.
    if isinstance(inner, Binary) and inner.op == DOT:
        sides = (inner.left, inner.right)
        names = [s.name for s in sides if isinstance(s, VectorRef)]
        if len(names) == 2 and FIELD_NAME in names:
            other = names[0] if names[1] == FIELD_NAME else names[1]
            if other != FIELD_NAME and other in ctx.bindings:
                return prefactor(_grad_at(ctx, pos), ctx.bindings[other])
    # General scalar subexpression: central differences over the point.
    val = evaluate(inner, ctx)
    if value_kind(val) != "scalar":
        raise EvalError(f"∇(...) needs a scalar expression, got {value_kind(val)}", pos)
    if isinstance(ctx, _Shifted):  # differences of differences: 7x the work per level
        raise EvalError("a nested ∇(...) must be ∇(c · v) with c bound", pos)
    h = ctx.fd_step
    comps = []
    for i in (1, 2, 3):
        e_i = Vec3.basis(i)
        up = evaluate(inner, _Shifted(ctx.field, ctx.point + h * e_i, ctx.bindings, h))
        dn = evaluate(inner, _Shifted(ctx.field, ctx.point - h * e_i, ctx.bindings, h))
        comp = (up - dn) / (2.0 * h)
        if not math.isfinite(comp) and math.isfinite(up) and math.isfinite(dn):
            raise EvalError(f"∇(...) central difference overflows at fd_step {h!r}", pos)
        comps.append(comp)
    return Vec3(*comps)


# --- the properties ------------------------------------------------------------------

FIELDS = st.integers(0, 2**32).map(lambda seed: rand_cubic(random.Random(seed)))
# Dyadic coordinates: small ones on a 1/64 grid, and powers of two large
# enough that a step is lost in them.
COORDS = st.one_of(
    st.integers(-4096, 4096).map(lambda n: n / 64),
    st.builds(lambda e, s: s * 2.0**e, st.integers(20, 70), st.sampled_from([1.0, -1.0])),
)
POINTS = st.builds(Vec3, COORDS, COORDS, COORDS)
STEPS = st.sampled_from([2**-10, 1e-3, DEFAULT_FD_STEP, 2**-30, 0.5, 1e154, 8.98e307])
SCALARS = st.sampled_from([
    "v · v", "c · v", "v · w", "2 * (c · v)", "c · (d · w)", "(v · c) * (v · w)", "∇ · v",
    "w · (∇ × v)", "c · (Ω · v)", "-(v · v)", "(v · v) + (c · v)", "∇(c · v) · w",
    "∇(v · v) · w", "v", "v · u",
])
BINDINGS = {"c": Vec3(3.0, 0.5, -1.0), "w": Vec3(-0.25, 2.0, 1.5)}


def hexes(values):
    return [float.hex(c) for c in values]


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # the error itself is compared
        return None, exc


def lost_axes(x: Vec3, h: float):
    return [i for i, c in enumerate(x.as_tuple(), 1) if c + h == c or c - h == c]


@settings(deadline=None, max_examples=300)
@given(FIELDS, POINTS, STEPS, SCALARS)
@example(ROTATION, Vec3(1e12, 1.0, 0.0), DEFAULT_FD_STEP, "v · v")
@example(ROTATION, Vec3(0.0, 0.0, 0.0), 8.98e307, "2 * (c · v)")
def test_gradient_apply_matches_the_former_loop(field, x, h, src):
    # The field as a black box with the same step, so that G is a central
    # difference too and the fallback applies.
    box = BlackBoxField(field.eval, h)
    expr = parse(f"∇({src})")
    got, err = outcome(lambda: evaluate(expr, EvalContext(box, x, dict(BINDINGS), h)))
    want, ref_err = outcome(
        lambda: reference_gradient_apply(expr.right, EvalContext(box, x, dict(BINDINGS), h), expr.pos)
    )
    if err is not None and "is lost in" in str(err):
        # An inner ∇(...) refuses in both; otherwise the former loop went on
        # past the lost axis, and may have failed on a later one.
        assert lost_axes(x, h)
        assert ref_err is None or str(ref_err) == str(err) or "overflows" in str(ref_err)
    elif err is not None or ref_err is not None:
        assert type(err) is type(ref_err) and str(err) == str(ref_err)
    else:
        assert hexes(got.as_tuple()) == hexes(want.as_tuple())


@settings(deadline=None, max_examples=300)
@given(FIELDS, POINTS, STEPS)
@example(ROTATION, Vec3(2.0**40, 1.0, 0.0), 1e-3)
def test_fd_grad_matches_the_former_loop_unless_it_refuses(field, x, h):
    got, err = outcome(lambda: fd_grad(field, x, h))
    want, ref_err = outcome(lambda: reference_fd_grad(field, x, h))
    if isinstance(err, FloatingPointError):
        if "is lost in" in str(err):
            assert lost_axes(x, h)
        else:
            assert ref_err is None and not all(map(math.isfinite, sum(want.rows, ())))
    elif err is not None or ref_err is not None:
        assert type(err) is type(ref_err) and str(err) == str(ref_err)
    else:
        assert not lost_axes(x, h)
        assert [hexes(r) for r in got.rows] == [hexes(r) for r in want.rows]


# --- the refusals --------------------------------------------------------------------


def test_fd_grad_refuses_a_step_lost_in_a_coordinate():
    f = BlackBoxField(lambda p: Vec3(-p.y, p.x * p.x, 0.0))
    assert reference_fd_grad(f, Vec3(1e12, 1.0, 0.0)).rows[0] == (0.0, 0.0, 0.0)
    with pytest.raises(FloatingPointError, match=r"fd_step 1e-05 is lost in x_1 = 1000000000000\.0"):
        fd_grad(f, Vec3(1e12, 1.0, 0.0))


def test_fd_grad_refuses_a_step_lost_on_one_side_only():
    # Below a power of two the floats are twice as dense, so x - h moves and x + h does not.
    x, h = 2.0**40, 2.0**-13
    assert x + h == x and x - h != x
    with pytest.raises(FloatingPointError, match="is lost in x_1"):
        fd_grad(BlackBoxField(lambda p: p), Vec3(x, 0.0, 0.0), h)


def test_fd_grad_refuses_an_overflowing_quotient():
    f = BlackBoxField(lambda p: Vec3(1e308 * p.x, 0.0, 0.0), step=1.5)
    assert reference_fd_grad(f, Vec3(0, 0, 0)).rows[0][0] == math.inf
    with pytest.raises(FloatingPointError, match="overflows at fd_step 1.5"):
        fd_grad(f, Vec3(0, 0, 0))


def test_fd_grad_lets_an_error_of_the_evaluations_win():
    calls = []

    def evaluator(p):
        calls.append(p)
        if len(calls) == 2:
            raise ValueError("second evaluation")
        return p

    # The step is lost along x, but the refusal comes after both evaluations.
    with pytest.raises(ValueError, match="second evaluation"):
        fd_grad(BlackBoxField(evaluator), Vec3(1e12, 0.0, 0.0))


def test_evaluate_refuses_a_lost_step_at_the_gradient():
    with pytest.raises(EvalError) as err:
        evaluate(parse("∇(v · v)"), EvalContext(BlackBoxField(ROTATION.eval), Vec3(1e12, 1.0, 0.0)))
    assert err.value.pos == 3
    assert str(err.value).startswith("∇(...) central difference fd_step 1e-05 is lost in x_1")


@pytest.mark.parametrize(
    "src, pos, error",
    [
        ("∇(∇(v · v) · v)", 7, "is lost in x_1"),  # the inner fallback, at the centre
        ("∇(∇(v) · v)", 7, "needs a scalar expression"),  # the inner kind error
        ("∇(v · u)", 9, "unbound name 'u'"),  # the binding error
        ("∇(∇(c · v) · v)", 3, "is lost in x_1"),  # an exact inner gradient: the outer refuses
    ],
)
def test_inner_errors_win_over_a_lost_step(src, pos, error):
    # A black box whose own step of 1 is not lost, so that its G is exact.
    box = BlackBoxField(ROTATION.eval, step=1.0)
    ctx = EvalContext(box, Vec3(1e12, 1.0, 0.0), {"c": Vec3(3.0, 0.5, -1.0)})
    with pytest.raises(EvalError) as err:
        evaluate(parse(src), ctx)
    assert err.value.pos == pos and error in str(err.value)


def test_cli_differentiates_exactly_where_a_step_is_lost():
    res = subprocess.run(
        [sys.executable, "-m", "gibbskit", "eval", "--field", "sample_fields/rotation.json",
         "--point", "1e12", "1", "0", "∇(v · v)"],
        cwd=str(REPO), text=True, capture_output=True, timeout=60,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "(2e+12, 2, 0)\n", "")

"""∇(...) on a PolyField walks its scalar once, with the outcomes of two walks.

``_eval_gradient_apply`` used to evaluate the scalar with ``evaluate``,
so that its errors came first, and then walk it again as a jet.  Now the
jet walk raises ``evaluate``'s errors itself, and refuses a nested
``∇(...)`` only after the walk and after "needs a scalar expression".
That function and its jet are kept below verbatim as the reference; every
outcome must match it in ``float.hex``, or in error type, message and
offset.
"""

import sys
from functools import partial
from pathlib import Path

import pytest

from gibbskit import notation
from gibbskit.fields import BlackBoxField, field_from_dict, fd_grad, load_field
from gibbskit.ga import Multivector, Vec3, _vec3
from gibbskit.dyadics import Tensor3, prefactor, transpose
from gibbskit.notation import (
    _ADDITIVE_OPS,
    _RULES,
    APPLY,
    FIELD_NAME,
    PLUS,
    Binary,
    EvalContext,
    EvalError,
    Nabla,
    PolyField,
    ScalarLit,
    Unary,
    VectorRef,
    _bound_factor,
    _grad_at,
    _Shifted,
    evaluate,
    neg,
    parse,
    value_kind,
)

from helpers import notation_workload

FIELDS = Path(__file__).resolve().parents[1] / "sample_fields"


# --- the reference: the two functions before the single walk, verbatim -------------------


def ref_eval_gradient_apply(inner, ctx, pos):
    field = ctx.field
    if not isinstance(field, PolyField) and (c := _bound_factor(inner, ctx)) is not None:
        return prefactor(_grad_at(ctx, pos), c)  # the chain rule, on the black box's G
    val = evaluate(inner, ctx)  # first, so that its errors win
    if value_kind(val) != "scalar":
        raise EvalError(f"∇(...) needs a scalar expression, got {value_kind(val)}", pos)
    if isinstance(field, PolyField):
        partials = ref_jet(inner, ctx)[1] or (0.0, 0.0, 0.0)
        return _vec3(*[0.0 + p for p in partials])  # no -0.0, as G · c has none
    # A black box has no partial fields: central differences over the point.
    if isinstance(ctx, _Shifted):  # differences of differences: 7x the work per level
        raise EvalError("a nested ∇(...) must be ∇(c · v) with c bound", pos)
    bindings, h = ctx.bindings, ctx.fd_step
    scalar = BlackBoxField(lambda p: Vec3(evaluate(inner, _Shifted(field, p, bindings, h)), 0, 0), h)
    try:
        return fd_grad(scalar, ctx.point).column(1)
    except FloatingPointError as exc:
        raise EvalError(f"∇(...) {exc}", pos) from exc


def ref_jet(e, ctx):
    if isinstance(e, Unary):
        val, d = ref_jet(e.operand, ctx)
        op = neg if e.op == "neg" else transpose
        return op(val), d and [op(p) for p in d]
    if isinstance(e, Binary) and e.op in _RULES and not isinstance(e.left, Nabla):
        (a, da), (b, db) = ref_jet(e.left, ctx), ref_jet(e.right, ctx)
        rule = _RULES[e.op][0][value_kind(a), value_kind(b)]
        if e.op in _ADDITIVE_OPS:
            left, right = da, db and (db if e.op == PLUS else [-q for q in db])
        else:
            left, right = da and [rule(p, b) for p in da], db and [rule(a, q) for q in db]
        return rule(a, b), [p + q for p, q in zip(left, right)] if left and right else left or right
    val = evaluate(e, ctx)
    if isinstance(e, VectorRef) and e.name == FIELD_NAME:
        return val, [_vec3(*row) for row in ctx._grad.rows]
    if isinstance(e, ScalarLit) or isinstance(e, VectorRef) and e.name in ctx.bindings:
        return val, None  # a literal or a bound vector
    if isinstance(e, Binary) and e.op == APPLY and _bound_factor(e.right, ctx) is None:
        raise EvalError("a nested ∇(...) must be ∇(c · v) with c bound", e.pos)
    f, x, bindings = ctx.field, ctx.point, ctx.bindings
    return val, [evaluate(e, EvalContext(f.partial(i), x, bindings, ctx.fd_step)) for i in range(3)]


# --- comparison -------------------------------------------------------------------------


def flat(value):
    if isinstance(value, Vec3):
        return value.as_tuple()
    if isinstance(value, Tensor3):
        return tuple(c for r in value.rows for c in r)
    if isinstance(value, Multivector):
        return value.coeffs
    return (value,)


def outcome(expr, make_ctx):
    try:
        value = evaluate(expr, make_ctx())
    except Exception as exc:  # the type, message and offset are what is compared
        return "raised", type(exc), str(exc), getattr(exc, "pos", None)
    return "value", type(value), [float.hex(c) for c in flat(value)]


def both_outcomes(expr, make_ctx, monkeypatch):
    got = outcome(expr, make_ctx)
    with monkeypatch.context() as m:
        m.setattr(notation, "_eval_gradient_apply", ref_eval_gradient_apply)
        want = outcome(expr, make_ctx)
    return got, want


def test_the_notation_workload_gives_the_outcomes_of_two_walks(monkeypatch):
    workload = notation_workload(0)
    fd_step = sys.modules[type(workload).__module__].FD_STEP
    applies = 0
    for i in range(300):
        spec, x, bindings, script = workload.inputs(i)
        f = field_from_dict(spec)
        for text, _ in script:
            try:
                expr = parse(text)
            except notation.NotationError:
                continue
            applies += "∇(" in text
            make_ctx = partial(EvalContext, f, x, bindings, fd_step)
            got, want = both_outcomes(expr, make_ctx, monkeypatch)
            assert got == want, text
    assert applies > 50


CASES = [
    "∇((∇(v · v) · v) + (w · v))",  # w unbound: its error wins over the nested refusal
    "∇((w · v) + (∇(v · v) · v))",
    "∇(∇(v · v) · v)",
    "∇((∇(v · v) · v) + (∇(v · v) · v))",  # the first nested ∇(...) is named
    "∇(∇(v · v) · d)",  # a vector: "needs a scalar" wins over the nested refusal
    "∇(∇(v · v) + 1)",  # a kind mismatch wins over the nested refusal
    "∇(∇(∇(v · v) · v) · v)",
    "∇(∇(c · v) · v)",
    "∇(∇(v · c) · ∇(c · v))",
    "∇(-(∇(c · v) · v) * 2)",
    "∇((v · v)†)",
    "∇((∇(v · v) · v)†)",
    "∇(d† · v · v)",
    "∇((d† · v) · v)",
    "∇((Ω · v) · (v × c))",
    "∇((∇ ⊗ v) · c · c)",
    "∇(((∇ ⊗ v) · c) · c)",
    "∇((v ∧ c) · (v ∧ c))",
    "∇(∇ · v)",
    "∇(v)",
    "∇(d)",
    "∇(1)",
    "∇(c · c)",
    "∇(u · v)",
    "∇(v ⊗ v)",
    "∇((v ⊗ c) · v)",
    "∇(∇(v · v) ⊗ v)",
    "∇(v · v) · ∇(v · v)",
    "unsupported",
    "bare ∇",
]


@pytest.mark.parametrize("source", CASES)
@pytest.mark.parametrize("name, point", [
    ("shear", (1.0, 2.0, 3.0)),
    ("rotation", (1e8, 1.0, 0.0)),
    ("dilation", (-0.5, 0.25, 2.0)),
])
@pytest.mark.parametrize("black_box", [False, True])
def test_edge_cases_give_the_outcomes_of_two_walks(source, name, point, black_box, monkeypatch):
    # A hand-built AST may hold an operator with no rule, or a bare ∇.
    nested = parse("∇(v · v) · v")
    expr = {
        "unsupported": Binary(APPLY, Nabla(0), Binary("pow", nested, VectorRef("w", 9), 5), 0),
        "bare ∇": Binary(APPLY, Nabla(0), Binary(PLUS, nested, Nabla(7), 5), 0),
    }.get(source) or parse(source)
    field = load_field(str(FIELDS / f"{name}.json"))
    if black_box:
        field = BlackBoxField(field.eval)
    bindings = {"c": Vec3(3.0, 0.5, -1.0)}
    got, want = both_outcomes(expr, lambda: EvalContext(field, Vec3(*point), bindings), monkeypatch)
    assert got == want

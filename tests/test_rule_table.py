"""The notation evaluator's rule tables against the if-chains they replaced.

``notation.evaluate`` picks a binary operator's rule by one lookup in
``_RULES``, keyed by the kinds of its two values, and takes ``∇ op v``, ``d``
and ``Ω`` from tables of functions of G.  The chains that used to state the
same rules are kept below verbatim as the reference: for every case the two
must give the same type and ``float.hex`` of every float, or the same error
type, message and offset.
"""

import math

import pytest

from gibbskit import (
    BlackBoxField, BindingError, EvalContext, EvalError, Multivector, Poly, PolyField, Tensor3,
    Vec3, ga, notation, parse,
)
from gibbskit.dyadics import antisym, dyad, postfactor, prefactor, sym, trace, transpose
from gibbskit.kinematics import nabla_wedge_of
# What the reference evaluator below reads from the module.
from gibbskit.notation import (
    _PRODUCT_OPS, APPLY, CROSS, DOT, DYAD, FIELD_NAME, MINUS, OP_SYMBOL, PLUS, STAR, WEDGE,
    Binary, Expr, Nabla, ScalarLit, Unary, Value, VectorRef, _as_mv, _eval_gradient_apply,
    value_kind,
)

INF, NAN = math.inf, math.nan

# Names the evaluator derives from the field when not explicitly bound.
DERIVED_TENSORS = ("d", "Omega", "Ω")


# --- the former chains, verbatim ------------------------------------------------


def _resolve(name: str, pos: int, ctx: EvalContext) -> Value:
    if name == FIELD_NAME:
        return ctx.field.eval(ctx.point)
    if name in ctx.bindings:
        return ctx.bindings[name]
    if name in DERIVED_TENSORS:
        return sym(ctx._grad) if name == "d" else antisym(ctx._grad)
    raise BindingError(f"unbound name {name!r}", pos)


def _eval_nabla_op(op: str, right: Expr, ctx: EvalContext, pos: int) -> Value:
    if not (isinstance(right, VectorRef) and right.name == FIELD_NAME):
        raise EvalError(
            f"∇ {OP_SYMBOL[op]} ... can only differentiate the field {FIELD_NAME!r}", pos
        )
    if op == DYAD:
        return ctx._grad
    if op == DOT:
        return trace(ctx._grad)
    if op == WEDGE:
        return nabla_wedge_of(ctx._grad)
    if op == CROSS:
        return ga.vector_dual(nabla_wedge_of(ctx._grad))
    raise EvalError(f"∇ cannot be combined with {OP_SYMBOL[op]!r}", pos)


def evaluate(e: Expr, ctx: EvalContext) -> Value:
    """Evaluate an expression against a concrete field, point and bindings.

    Kind mismatches raise EvalError rather than coercing: a dot between a
    vector and a tensor is postfactor or prefactor depending on the side,
    scalar scaling must use `*`, and transpose applies to tensors only.
    """
    if isinstance(e, ScalarLit):
        return e.value
    if isinstance(e, VectorRef):
        return _resolve(e.name, e.pos, ctx)
    if isinstance(e, Nabla):
        raise EvalError("∇ has no value on its own", e.pos)
    if isinstance(e, Unary):
        if e.op == "neg":
            return -evaluate(e.operand, ctx)
        val = evaluate(e.operand, ctx)
        if not isinstance(val, Tensor3):
            raise EvalError(f"transpose applies to tensors, got {value_kind(val)}", e.pos)
        return transpose(val)

    if e.op == APPLY:
        return _eval_gradient_apply(e.right, ctx, e.pos)
    if isinstance(e.left, Nabla) and e.op in _PRODUCT_OPS:
        return _eval_nabla_op(e.op, e.right, ctx, e.pos)

    lhs = evaluate(e.left, ctx)
    rhs = evaluate(e.right, ctx)
    lk, rk = value_kind(lhs), value_kind(rhs)

    if e.op in (PLUS, MINUS):
        if lk != rk:
            raise EvalError(f"cannot add {lk} and {rk}", e.pos)
        return lhs + rhs if e.op == PLUS else lhs - rhs

    if e.op == STAR:
        if lk == "scalar":
            return rhs * lhs if rk != "scalar" else lhs * rhs
        if rk == "scalar":
            return lhs * rhs
        raise EvalError(f"* is scalar multiplication; got {lk} * {rk}", e.pos)

    if e.op == DYAD:
        if lk == rk == "vector":
            return dyad(lhs, rhs)
        raise EvalError(f"⊗ needs two vectors, got {lk} ⊗ {rk}", e.pos)

    if e.op == CROSS:
        if lk == rk == "vector":
            return lhs.cross(rhs)
        raise EvalError(f"× needs two vectors, got {lk} × {rk}", e.pos)

    if e.op == WEDGE:
        if lk in ("vector", "multivector") and rk in ("vector", "multivector"):
            return ga.wedge(_as_mv(lhs), _as_mv(rhs))
        raise EvalError(f"∧ needs vectors or multivectors, got {lk} ∧ {rk}", e.pos)

    if e.op == DOT:
        if lk == rk == "vector":
            return lhs.dot(rhs)
        if lk == "vector" and rk == "tensor":
            return postfactor(lhs, rhs)
        if lk == "tensor" and rk == "vector":
            return prefactor(lhs, rhs)
        if lk in ("vector", "multivector") and rk in ("vector", "multivector"):
            return ga.dot(_as_mv(lhs), _as_mv(rhs))
        raise EvalError(f"· cannot combine {lk} and {rk}", e.pos)

    raise EvalError(f"unsupported operator {e.op!r}", e.pos)


# --- the cases -------------------------------------------------------------------

# v = (x y, y z², x + z³): G is neither symmetric nor antisymmetric.
FIELD = PolyField((
    Poly((((1, 1, 0), 1.0),)),
    Poly((((0, 1, 2), 1.0),)),
    Poly((((1, 0, 0), 1.0), ((0, 0, 3), 1.0))),
))
POINT = Vec3(1.0, -2.0, 0.5)
TENSOR = Tensor3(((1.0, 2.0, -0.0), (4.0, 5.0, 6.0), (7.0, -8.0, 9.0)))

# Each kind twice: once finite, with a -0.0 and a tensor that is not
# symmetric, and once with inf and nan.
BINDINGS = {
    "a": Vec3(1.5, -0.0, 2.0),
    "b": Vec3(INF, -2.0, NAN),
    "T": TENSOR,
    "U": Tensor3(((INF, 0.0, -0.0), (NAN, 1.0, -INF), (0.5, 2.0, 3.0))),
    "M": Multivector((0.5, 1.0, -0.0, 2.0, -1.0, 0.25, 3.0, -2.0)),
    "N": Multivector((INF, 0.0, NAN, 1.0, -0.0, -INF, 2.0, 1.0)),
}
SCALARS = [ScalarLit(2.5, pos=1), ScalarLit(-0.0, pos=1), ScalarLit(INF, pos=1), ScalarLit(NAN, pos=1)]
OPERANDS = SCALARS + [VectorRef(name, pos=1) for name in ("v", "d", "Ω", *BINDINGS)]
BINARY_OPS = (PLUS, MINUS, STAR, DYAD, DOT, WEDGE, CROSS)


def outcome(evaluator, e, bindings=BINDINGS):
    """The value's type and the hex of each float, or the error's type, text and offset."""
    try:
        value = evaluator(e, EvalContext(FIELD, POINT, bindings))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    if isinstance(value, Vec3):
        floats = value.as_tuple()
    elif isinstance(value, Tensor3):
        floats = [c for row in value.rows for c in row]
    elif isinstance(value, Multivector):
        floats = value.coeffs
    else:
        floats = [value]
    return type(value), [float.hex(c) for c in floats]


def assert_same(cases, bindings=BINDINGS):
    differ = [
        e for e in cases if outcome(notation.evaluate, e, bindings) != outcome(evaluate, e, bindings)
    ]
    assert differ == []


@pytest.mark.parametrize("op", BINARY_OPS)
def test_each_operator_on_each_ordered_pair_of_kinds_matches_the_chain(op):
    kinds = {value_kind(notation.evaluate(o, EvalContext(FIELD, POINT, BINDINGS))) for o in OPERANDS}
    assert len(kinds) == 4  # so the pairs below take in all 16 ordered pairs of kinds
    assert_same([Binary(op, left, right, pos=3) for left in OPERANDS for right in OPERANDS])


@pytest.mark.parametrize("op", _PRODUCT_OPS)
@pytest.mark.parametrize("right", ["v", "a", "T", "zz", "d"])
def test_nabla_with_each_product_operator_matches_the_chain(op, right):
    assert_same([Binary(op, Nabla(pos=0), VectorRef(right, pos=5), pos=4)])


@pytest.mark.parametrize("name", ["d", "Ω", "Omega", "dot", "cross"])
@pytest.mark.parametrize("bound", [False, True])
def test_derived_names_bound_and_unbound_match_the_chain(name, bound):
    bindings = {**BINDINGS, name: BINDINGS["a"]} if bound else BINDINGS
    assert_same([VectorRef(name, pos=2), Binary(DOT, VectorRef("a"), VectorRef(name, pos=6))], bindings)


def test_hand_built_nodes_match_the_chain():
    assert_same([
        Binary("bogus", VectorRef("a"), VectorRef("T"), pos=2),
        Binary("bogus", VectorRef("zz", pos=1), VectorRef("T"), pos=2),
        Binary("bogus", Nabla(pos=1), VectorRef("v"), pos=2),
        Binary(STAR, Nabla(pos=1), VectorRef("v"), pos=2),
        Binary(PLUS, Nabla(pos=1), VectorRef("v"), pos=2),
    ])


@pytest.mark.parametrize("src", [
    "a · T", "T · a", "(a · T) ⊗ (T · a)", "-(d · a) + Ω · a", "(T · T)", "(∇ ⊗ v)† · a",
    "(2 * (∇ ∧ v)) · M", "∇ × v × a", "∇(a · v)", "∇(v · a) * 2", "∇(2 * (a · v))", "a ∧ b ∧ M",
])
def test_parsed_expressions_match_the_chain(src):
    assert_same([parse(src)])


# --- a refused central difference of G is an EvalError -----------------------------

# v = (-y, x, 0) as a black box, at a point where the step 1e-5 is lost in x.
ROTATION_BOX = BlackBoxField(lambda p: Vec3(-p.y, p.x, 0.0))
FAR = Vec3(1e12, 1.0, 0.0)


@pytest.mark.parametrize("src, pos", [
    ("∇ · v", 4), ("∇ ⊗ v", 4), ("∇ ∧ v", 4), ("∇ × v", 4),
    ("d", 0), ("Ω", 0), ("Omega", 0), ("∇(c · v)", 3), ("a · ∇(c · v)", 8),
])
def test_a_refused_gradient_is_an_eval_error_at_the_node_that_asked_for_g(src, pos):
    ctx = EvalContext(ROTATION_BOX, FAR, {"c": Vec3(1.0, 2.0, 3.0), "a": Vec3(1.0, 0.0, 0.0)})
    with pytest.raises(EvalError) as info:
        notation.evaluate(parse(src), ctx)
    assert info.value.pos == pos
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert str(info.value) == (
        f"∇ ⊗ v central difference fd_step 1e-05 is lost in x_1 = 1000000000000.0 (offset {pos})"
    )


def test_the_fallback_keeps_its_own_message():
    ctx = EvalContext(ROTATION_BOX, FAR, {"c": Vec3(1.0, 2.0, 3.0)})
    with pytest.raises(EvalError, match=r"^∇\(\.\.\.\) central difference .* is lost in x_1") as info:
        notation.evaluate(parse("∇(v · v)"), ctx)
    assert info.value.pos == 3
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_the_exact_gradient_apply_reads_g_through_grad_at(monkeypatch):
    reads = []
    original = notation._grad_at
    monkeypatch.setattr(notation, "_grad_at", lambda ctx, pos: reads.append(pos) or original(ctx, pos))
    field = PolyField((Poly((((0, 1, 0), 1.0),)), Poly((((1, 0, 0), 2.0),)), Poly(())))
    ctx = EvalContext(field, Vec3(1.0, 2.0, 3.0))
    assert notation.evaluate(parse("∇(v · v)"), ctx) == Vec3(8.0, 4.0, 0.0)
    assert reads == [4, 9]  # the byte offsets of the two v

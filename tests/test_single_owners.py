"""Each operator rule, and the rule for a difference step, has one owner.

``notation._RULES`` holds a rule for every operator, unary and binary, by
the kinds of its operands, and ``notation._rule`` is the one lookup that
``evaluate`` and the jets of ``∇(...)`` make for every operator node: an
operator the table holds no rules for, at the node's arity, is refused
there.  ``render`` refuses an operator it has no symbol for.  The CLI's
``--fd-step`` refuses exactly the steps that ``EvalContext`` refuses,
because both ask ``fields._check_fd_step``.
"""

import contextlib
import io
import math
from operator import neg
from pathlib import Path

import pytest

from gibbskit import cli, notation
from gibbskit.dyadics import Tensor3, transpose
from gibbskit.fields import load_field
from gibbskit.ga import Multivector, Vec3
from gibbskit.notation import (
    _RULES, APPLY, NEG, OP_SYMBOL, TRANSPOSE, Binary, EvalContext, EvalError, Nabla,
    NotationError, ScalarLit, Unary, VectorRef, evaluate, parse, render, value_kind,
)

FIELDS = Path(__file__).resolve().parents[1] / "sample_fields"
SHEAR = load_field(str(FIELDS / "shear.json"))
POINT = Vec3(1.0, 2.0, 3.0)
BINDINGS = {
    "c": Vec3(3.0, -0.0, -1.0),
    "T": Tensor3(((1.0, 2.0, -0.0), (4.0, 5.0, 6.0), (7.0, -8.0, 9.0))),
    "M": Multivector((0.5, 1.0, -0.0, 2.0, -1.0, 0.25, 3.0, -2.0)),
}
OPERANDS = [ScalarLit(2.5), ScalarLit(-0.0), VectorRef("c"), VectorRef("T"), VectorRef("M"),
            VectorRef("v"), VectorRef("d")]


def context():
    return EvalContext(SHEAR, POINT, BINDINGS)


def raised(expr):
    with pytest.raises(EvalError) as info:
        evaluate(expr, context())
    return str(info.value), info.value.pos


def flat(value):
    if isinstance(value, Vec3):
        return value.as_tuple()
    if isinstance(value, Tensor3):
        return tuple(c for row in value.rows for c in row)
    if isinstance(value, Multivector):
        return value.coeffs
    return (value,)


# --- the table ---------------------------------------------------------------------


def test_the_binary_keys_of_the_rules_are_the_keys_of_op_symbol():
    arity = {op: {len(kinds) for kinds in rules} for op, (rules, _) in _RULES.items()}
    assert all(len(n) == 1 for n in arity.values())  # one arity per operator
    assert {op for op, n in arity.items() if n == {2}} == set(OP_SYMBOL)
    assert {op for op, n in arity.items() if n == {1}} == {NEG, TRANSPOSE}


def test_unary_minus_takes_every_kind_and_transpose_only_tensors():
    kinds = ("scalar", "vector", "tensor", "multivector")
    assert set(_RULES[NEG][0]) == {(k,) for k in kinds}
    assert set(_RULES[TRANSPOSE][0]) == {("tensor",)}


@pytest.mark.parametrize("operand", OPERANDS, ids=render)
def test_unary_nodes_keep_the_values_and_errors_they_had(operand):
    value = evaluate(operand, context())
    assert type(evaluate(Unary(NEG, operand), context())) is type(value)
    assert [c.hex() for c in flat(evaluate(Unary(NEG, operand), context()))] == [
        c.hex() for c in flat(neg(value))
    ]
    node = Unary(TRANSPOSE, operand, pos=6)
    if isinstance(value, Tensor3):
        assert evaluate(node, context()) == transpose(value)
    else:
        message = f"transpose applies to tensors, got {value_kind(value)}"
        assert raised(node) == (f"{message} (offset 6)", 6)


# --- one lookup for every operator node -------------------------------------------------


@pytest.mark.parametrize("op", ["bogus", "plus", "minus", "apply"])
def test_a_unary_node_with_no_unary_rule_is_unsupported(op):
    # The transpose of a tensor, and a scalar, so that neither reads as a transpose.
    for operand in (parse("∇ ⊗ v"), ScalarLit(1.0)):
        assert raised(Unary(op, operand, pos=7)) == (f"unsupported operator {op!r} (offset 7)", 7)


@pytest.mark.parametrize("op", ["bogus", "plus"])
def test_inside_a_gradient_on_a_poly_field_too(op):
    expr = Binary(APPLY, Nabla(0), Unary(op, parse("v · v"), pos=11), pos=1)
    assert raised(expr) == (f"unsupported operator {op!r} (offset 11)", 11)


@pytest.mark.parametrize("op", [NEG, TRANSPOSE, "bogus"])
def test_a_binary_node_with_no_binary_rule_is_unsupported(op):
    expr = Binary(op, VectorRef("c"), VectorRef("c"), pos=3)
    assert raised(expr) == (f"unsupported operator {op!r} (offset 3)", 3)
    inside = Binary(APPLY, Nabla(0), Binary(op, ScalarLit(1.0), parse("v · v"), pos=5), pos=1)
    assert raised(inside) == (f"unsupported operator {op!r} (offset 5)", 5)


def test_evaluate_and_the_jets_both_take_the_unary_rule_from_the_table(monkeypatch):
    # With unary minus narrowed to scalars, -v is refused from either walk,
    # and the narrowed rule gives the value and the partials of -(v · v).
    monkeypatch.setitem(_RULES, NEG, ({("scalar",): lambda a: 3.0 * a}, "no negating a {}"))
    assert raised(parse("-v")) == ("no negating a vector (offset 0)", 0)
    assert raised(parse("∇((-v) · c)")) == ("no negating a vector (offset 5)", 5)
    for narrowed, source in [("-(v · v)", "v · v"), ("∇(-(v · v))", "∇(v · v)")]:
        assert evaluate(parse(narrowed), context()) == 3.0 * evaluate(parse(source), context())


# --- render -----------------------------------------------------------------------------


@pytest.mark.parametrize("node", [
    Binary("bogus", VectorRef("a"), VectorRef("b"), pos=4),
    Unary("bogus", VectorRef("x"), pos=4),
    Binary(notation.PLUS, VectorRef("a"), Unary("plus", VectorRef("b"), pos=4)),
])
def test_render_refuses_an_operator_it_has_no_symbol_for(node):
    with pytest.raises(ValueError) as info:
        render(node)
    assert isinstance(info.value, NotationError) and info.value.pos == 4
    assert "'bogus'" in str(info.value) or "'plus'" in str(info.value)
    assert str(info.value).endswith("(offset 4)")


# --- the difference step ----------------------------------------------------------------

STEPS = ["0", "-1", "1e-400", "5e-324", "8.98e307", "8.99e307", "1e308", "nan", "inf"]


def context_refuses(step):
    try:
        EvalContext(SHEAR, POINT, fd_step=step)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("raw", STEPS)
def test_the_fd_step_flag_refuses_what_eval_context_refuses(raw, capsys):
    argv = ["eval", "--field", str(FIELDS / "shear.json"), "--point", "1", "2", "3",
            "--fd-step", raw, "v"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    err = capsys.readouterr().err
    if context_refuses(float(raw)):
        assert (code, out.getvalue()) == (1, "")
        assert err.count("\n") == 1 and "--fd-step" in err and repr(raw) in err
    else:
        assert (code, err) == (0, "")
        assert out.getvalue() == "(2, 0, 0)\n"


def test_the_steps_include_both_outcomes_and_the_edge_of_2h():
    refused = [raw for raw in STEPS if context_refuses(float(raw))]
    assert refused == ["0", "-1", "1e-400", "8.99e307", "1e308", "nan", "inf"]
    assert math.isfinite(2 * 8.98e307) and not math.isfinite(2 * 8.99e307)

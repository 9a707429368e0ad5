"""gibbskit's value classes: constructors, equality, repr, immutability.

The classes are plain immutable classes over one small base in ``ga``.
These tests pin what callers see: the constructor forms and their float
coercion, ``==`` and ``hash`` (with AST positions left out), the
``repr`` text, refused assignment, the write-once memos, the
construction hooks of ``Multivector`` and ``Poly``, and that importing
the CLI loads neither ``dataclasses`` nor the invariant suite.
"""

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gibbskit import (
    AuditResult,
    BlackBoxField,
    EvalContext,
    KinematicsReport,
    Multivector,
    Poly,
    PolyField,
    Tensor3,
    Vec3,
    evaluate,
    notation,
    parse,
    report,
)
from gibbskit.checks import CheckResult
from gibbskit.fields import DEFAULT_FD_STEP
from gibbskit.notation import Binary, Nabla, ScalarLit, Token, Unary, VectorRef

SRC = Path(__file__).resolve().parents[1] / "src"

SHEAR = PolyField((Poly((((0, 1, 0), 1.0),)), Poly(()), Poly(())))
EMPTY = PolyField((Poly(()), Poly(()), Poly(())))


def one_of_each():
    """One instance of every value class, built through its public constructor."""
    return [
        Vec3(1, -2.5, 0),
        Multivector((1, 0, 0, 0, 0, 0, 0, -0.5)),
        Tensor3(((1, 2, 3), (4, 5, 6), (7, 8, 9))),
        Poly((((1, 0, 0), 2), ((0, 0, 0), -1.5))),
        SHEAR,
        BlackBoxField(operator.neg, 0.25),
        report(SHEAR, Vec3(0, 0, 0)),
        Token("ident", "v", 3),
        Nabla(),
        VectorRef("dr", pos=4),
        ScalarLit(2.0),
        Unary("neg", VectorRef("v", 1), pos=0),
        Binary("dot", VectorRef("dr"), Nabla(), pos=3),
        EvalContext(EMPTY, Vec3(1, 2, 3), {"c": Vec3(0, 1, 0)}, 0.5),
        AuditResult("gibbs", 0.0, 2.0),
        CheckResult("ga: x", True, 3, "ok"),
    ]


# --- constructors ---------------------------------------------------------------


def test_positional_and_keyword_forms_agree():
    assert Vec3(1, 2, 3) == Vec3(x=1, y=2, z=3) == Vec3(1, z=3, y=2)
    assert Multivector(coeffs=(0,) * 8) == Multivector.zero()
    assert Tensor3(rows=((1, 0, 0), (0, 1, 0), (0, 0, 1))) == Tensor3.zero() + Tensor3(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    assert Poly(terms=()) == Poly.zero()
    assert PolyField(components=SHEAR.components) == SHEAR
    assert BlackBoxField(evaluator=operator.neg, step=0.5).step == 0.5
    assert Token(kind="ident", text="v", pos=0) == Token("ident", "v", 0)
    assert Binary(op="dot", left=VectorRef("a"), right=VectorRef("b"), pos=7).pos == 7
    assert AuditResult(verdict="gibbs", max_abs_deviation_gibbs=0.0,
                       max_abs_deviation_alt=1.0).verdict == "gibbs"
    assert CheckResult(name="n", passed=False, cases=1, detail="d").passed is False
    rep = report(SHEAR, Vec3(0, 0, 0))
    fields = {name: getattr(rep, name) for name in KinematicsReport.__match_args__}
    assert KinematicsReport(**fields) == rep


def test_defaults():
    assert BlackBoxField(operator.neg).step == DEFAULT_FD_STEP
    assert Nabla().pos == 0
    assert VectorRef("v").pos == ScalarLit(1.0).pos == 0
    assert Unary("neg", VectorRef("v")).pos == 0
    assert Binary("dot", VectorRef("a"), VectorRef("b")).pos == 0
    ctx = EvalContext(EMPTY, Vec3(0, 0, 0))
    assert ctx.bindings == {} and ctx.fd_step == 1e-5


def test_eval_context_bindings_default_is_fresh_per_instance():
    a = EvalContext(EMPTY, Vec3(0, 0, 0))
    b = EvalContext(EMPTY, Vec3(0, 0, 0))
    assert a.bindings == {} and a.bindings is not b.bindings


def test_float_coercion():
    v = Vec3(1, 2, True)
    assert [type(c) for c in v.as_tuple()] == [float, float, float]
    assert v.as_tuple() == (1.0, 2.0, 1.0)
    m = Multivector([1, 0, 0, 0, 0, 0, 0, 2])
    assert type(m.coeffs) is tuple and all(type(c) is float for c in m.coeffs)
    t = Tensor3([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert type(t.rows) is tuple and all(type(r) is tuple for r in t.rows)
    assert all(type(c) is float for r in t.rows for c in r)
    p = Poly((((1, 0, 0), 2),))
    assert type(p.terms[0][1]) is float


def test_validation_stays_in_the_constructors():
    with pytest.raises(ValueError):
        Multivector((1.0,) * 7)
    with pytest.raises(ValueError):
        Tensor3(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        Poly((((1, 0), 1.0),))
    with pytest.raises(ValueError):
        PolyField((Poly(()), Poly(())))
    with pytest.raises(ValueError):
        BlackBoxField(operator.neg, 0.0)
    with pytest.raises(ValueError):
        EvalContext(EMPTY, Vec3(0, 0, 0), fd_step=float("nan"))
    with pytest.raises(ValueError):
        Vec3("x", 0, 0)


# --- equality and hashing ------------------------------------------------------


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_equal_to_a_rebuilt_copy(value):
    twin = type(value)(*(getattr(value, name) for name in type(value).__match_args__))
    assert twin == value and not twin != value
    if not isinstance(value, EvalContext):
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_other_classes_are_not_equal(value):
    assert value.__eq__(object()) is NotImplemented
    assert value != object() and value != (value,)


def test_equality_compares_fields_within_one_class():
    assert Vec3(1, 2, 3) != Vec3(1, 2, 4)
    assert Vec3(0, 0, 0).__eq__(Multivector.zero()) is NotImplemented
    assert Poly((((0, 0, 0), 1.0), ((0, 0, 0), 1.0))) == Poly.constant(2.0)
    assert CheckResult("a", True, 1, "x") != CheckResult("a", True, 1, "y")
    assert {Vec3(1, 2, 3): "hit"}[Vec3(1.0, 2.0, 3.0)] == "hit"


def test_ast_positions_take_no_part_in_eq_or_hash():
    pairs = [
        (Nabla(0), Nabla(5)),
        (VectorRef("v", 0), VectorRef("v", 9)),
        (ScalarLit(2.0, 1), ScalarLit(2.0, 4)),
        (Unary("neg", VectorRef("v", 1), 0), Unary("neg", VectorRef("v", 3), 2)),
        (Binary("dot", VectorRef("a", 0), Nabla(2), 1), Binary("dot", VectorRef("a", 4), Nabla(7), 5)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert parse("dr · (∇⊗v)") == parse("  dr·(∇ ⊗ v)")
    assert VectorRef("v") != VectorRef("w")
    assert Unary("neg", VectorRef("v")) != Unary("transpose", VectorRef("v"))


def test_token_positions_do_count():
    assert Token("ident", "v", 0) != Token("ident", "v", 1)


def test_eval_context_is_unhashable():
    ctx = EvalContext(EMPTY, Vec3(0, 0, 0))
    with pytest.raises(TypeError):
        hash(ctx)


# --- repr ------------------------------------------------------------------------

# The text each value's repr had when the classes were frozen dataclasses.
REPRS = [
    "Vec3(x=1.0, y=-2.5, z=0.0)",
    "Multivector(coeffs=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5))",
    "Tensor3(rows=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)))",
    "Poly(terms=(((0, 0, 0), -1.5), ((1, 0, 0), 2.0)))",
    "PolyField(components=(Poly(terms=(((0, 1, 0), 1.0),)), Poly(terms=()), Poly(terms=())))",
    "BlackBoxField(evaluator=<built-in function neg>, step=0.25)",
    "KinematicsReport(point=Vec3(x=0.0, y=0.0, z=0.0), "
    "grad_gibbs=Tensor3(rows=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))), "
    "grad_alt=Tensor3(rows=((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))), "
    "d=Tensor3(rows=((0.0, 0.5, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0))), "
    "omega=Tensor3(rows=((0.0, -0.5, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0))), "
    "omega_bivector=Multivector(coeffs=(0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.0)), "
    "vorticity=Vec3(x=0.0, y=0.0, z=-1.0), divergence=0.0)",
    "Token(kind='ident', text='v', pos=3)",
    "Nabla(pos=0)",
    "VectorRef(name='dr', pos=4)",
    "ScalarLit(value=2.0, pos=0)",
    "Unary(op='neg', operand=VectorRef(name='v', pos=1), pos=0)",
    "Binary(op='dot', left=VectorRef(name='dr', pos=0), right=Nabla(pos=0), pos=3)",
    "EvalContext(field=PolyField(components=(Poly(terms=()), Poly(terms=()), Poly(terms=()))), "
    "point=Vec3(x=1.0, y=2.0, z=3.0), bindings={'c': Vec3(x=0.0, y=1.0, z=0.0)}, fd_step=0.5)",
    "AuditResult(verdict='gibbs', max_abs_deviation_gibbs=0.0, max_abs_deviation_alt=2.0)",
    "CheckResult(name='ga: x', passed=True, cases=3, detail='ok')",
]


def test_repr_text_is_unchanged():
    assert [repr(v) for v in one_of_each()] == REPRS


def test_memos_stay_out_of_repr():
    f = PolyField(SHEAR.components)
    before = repr(f)
    f.partial(0)
    ctx = EvalContext(SHEAR, Vec3(1, 0, 0))
    ctx_before = repr(ctx)
    evaluate(parse("∇⊗v"), ctx)
    assert repr(f) == before and repr(ctx) == ctx_before


# --- immutability ------------------------------------------------------------------


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise(value):
    first = type(value).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        setattr(value, "new_attribute", 1)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) is not None


# --- memos ------------------------------------------------------------------------


def test_poly_field_memo_fills_once():
    f = PolyField(SHEAR.components)
    assert "_partials" not in vars(f)
    first = f._partials
    assert f._partials is first and f.partial(1) is first[1]
    assert vars(f)["_partials"] is first


def test_eval_context_memo_fills_once(monkeypatch):
    calls = []
    original = notation.grad_gibbs
    monkeypatch.setattr(notation, "grad_gibbs", lambda f, x: calls.append(x) or original(f, x))
    ctx = EvalContext(SHEAR, Vec3(1, 0, 0))
    assert "_grad" not in vars(ctx)
    first = ctx._grad
    assert ctx._grad is first and vars(ctx)["_grad"] is first
    evaluate(parse("∇·v"), ctx)
    assert len(calls) == 1


# --- construction hooks -------------------------------------------------------------


@pytest.mark.parametrize("cls", [Multivector, Poly])
def test_post_init_is_a_method_of_the_class(cls):
    assert callable(cls.__dict__["__post_init__"])


@pytest.mark.parametrize(
    "cls, build",
    [
        (Multivector, lambda: Multivector((1, 0, 0, 0, 0, 0, 0, 0))),
        (Multivector, lambda: Multivector.scalar(2.0)),
        (Multivector, lambda: Multivector.from_vec3(Vec3(1, 2, 3))),
        (Poly, lambda: Poly((((1, 0, 0), 2.0),))),
        (Poly, lambda: Poly.constant(3.0)),
    ],
)
def test_post_init_runs_once_per_construction(monkeypatch, cls, build):
    seen = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(original(self)))
    value = build()
    assert len(seen) == 1
    assert type(value) is cls


# --- import cost ---------------------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_checks():
    # -S keeps site-packages (and whatever their .pth files import) out.
    probe = (
        "import sys, gibbskit.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'gibbskit.checks')"
        " if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_commands_compile_no_product_kernel():
    # A GA kernel is compiled on its first use, at about a millisecond each,
    # and none of these commands multiplies multivectors.
    probe = (
        "import contextlib, io, sys\n"
        "from gibbskit import cli, ga\n"
        "field = ['--field', sys.argv[1], '--point', '1', '-2', '0.5']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([c, *field, *rest]) for c, *rest in"
        " (['kinematics'], ['conventions'], ['eval', 'v'])]\n"
        "print(codes, ga._kernel.cache_info().currsize, ga._frame_kernel.cache_info().currsize)\n"
    )
    shear = SRC.parent / "sample_fields" / "shear.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(
        [sys.executable, "-c", probe, str(shear)], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[0, 0, 0] 0 0"


def test_cli_import_loads_no_typing():
    # -S: a site-packages .pth file may import typing before gibbskit does.
    probe = "import sys, gibbskit.cli\nprint('typing' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"

"""The constructors that ``ga._Value`` compiles from each class's fields.

Thirteen value classes store their arguments as given and get their
``__init__`` from ``__match_args__`` and ``_defaults``.  These tests pin
what a caller sees of each: the parameter names, order and defaults, and
the ``TypeError`` text of a call with one argument too many or too few,
which names the class.  ``notation._Shifted`` inherits ``EvalContext``'s
constructor, with its step check and its ``bindings=None`` rule, rather
than getting one of its own.
"""

import inspect

import pytest

from gibbskit import checks, fields, ga, kinematics, notation
from gibbskit.ga import Vec3

STEP = fields.DEFAULT_FD_STEP

# Each class, its (parameter, default) pairs in order (None: no default), and
# the TypeError texts of a call with one argument too many and one too few.
SIGNATURES = [
    (notation.Token, [("kind", None), ("text", None), ("pos", None)],
     "Token.__init__() takes 4 positional arguments but 5 were given",
     "Token.__init__() missing 1 required positional argument: 'pos'"),
    (notation.Nabla, [("pos", 0)],
     "Nabla.__init__() takes from 1 to 2 positional arguments but 3 were given", None),
    (notation.VectorRef, [("name", None), ("pos", 0)],
     "VectorRef.__init__() takes from 2 to 3 positional arguments but 4 were given",
     "VectorRef.__init__() missing 1 required positional argument: 'name'"),
    (notation.ScalarLit, [("value", None), ("pos", 0)],
     "ScalarLit.__init__() takes from 2 to 3 positional arguments but 4 were given",
     "ScalarLit.__init__() missing 1 required positional argument: 'value'"),
    (notation.Unary, [("op", None), ("operand", None), ("pos", 0)],
     "Unary.__init__() takes from 3 to 4 positional arguments but 5 were given",
     "Unary.__init__() missing 1 required positional argument: 'operand'"),
    (notation.Binary, [("op", None), ("left", None), ("right", None), ("pos", 0)],
     "Binary.__init__() takes from 4 to 5 positional arguments but 6 were given",
     "Binary.__init__() missing 1 required positional argument: 'right'"),
    (notation.AuditResult,
     [("verdict", None), ("max_abs_deviation_gibbs", None), ("max_abs_deviation_alt", None)],
     "AuditResult.__init__() takes 4 positional arguments but 5 were given",
     "AuditResult.__init__() missing 1 required positional argument: 'max_abs_deviation_alt'"),
    (checks.CheckResult, [("name", None), ("passed", None), ("cases", None), ("detail", None)],
     "CheckResult.__init__() takes 5 positional arguments but 6 were given",
     "CheckResult.__init__() missing 1 required positional argument: 'detail'"),
    (kinematics.KinematicsReport,
     [(n, None) for n in ("point", "grad_gibbs", "grad_alt", "d", "omega", "omega_bivector",
                          "vorticity", "divergence")],
     "KinematicsReport.__init__() takes 9 positional arguments but 10 were given",
     "KinematicsReport.__init__() missing 1 required positional argument: 'divergence'"),
    (ga.Multivector, [("coeffs", None)],
     "Multivector.__init__() takes 2 positional arguments but 3 were given",
     "Multivector.__init__() missing 1 required positional argument: 'coeffs'"),
    (fields.Poly, [("terms", None)],
     "Poly.__init__() takes 2 positional arguments but 3 were given",
     "Poly.__init__() missing 1 required positional argument: 'terms'"),
    (fields.PolyField, [("components", None)],
     "PolyField.__init__() takes 2 positional arguments but 3 were given",
     "PolyField.__init__() missing 1 required positional argument: 'components'"),
    (fields.BlackBoxField, [("evaluator", None), ("step", STEP)],
     "BlackBoxField.__init__() takes from 2 to 3 positional arguments but 4 were given",
     "BlackBoxField.__init__() missing 1 required positional argument: 'evaluator'"),
]
IDS = [cls.__name__ for cls, *_ in SIGNATURES]


def parameters(cls):
    """(name, default or None) per parameter; each must be positional-or-keyword."""
    params = inspect.signature(cls).parameters.values()
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    return [(p.name, None if p.default is inspect.Parameter.empty else p.default) for p in params]


@pytest.mark.parametrize("cls, params, too_many, too_few", SIGNATURES, ids=IDS)
def test_generated_constructor_keeps_the_hand_written_signature(cls, params, too_many, too_few):
    assert parameters(cls) == params
    with pytest.raises(TypeError) as info:
        cls(*[None] * (len(params) + 1))
    assert str(info.value) == too_many
    required = sum(default is None for _, default in params)
    if too_few is not None:
        with pytest.raises(TypeError) as info:
            cls(*[None] * (required - 1))
        assert str(info.value) == too_few


@pytest.mark.parametrize("cls", [cls for cls, *_ in SIGNATURES], ids=IDS)
def test_generated_constructor_names_its_class(cls):
    init = cls.__dict__["__init__"]
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    assert init.__module__ == cls.__module__
    assert init.__code__.co_filename == f"<{cls.__module__} constructor>"


def test_shifted_inherits_the_eval_context_constructor():
    shifted = notation._Shifted
    assert shifted.__init__ is notation.EvalContext.__init__
    assert "__init__" not in shifted.__dict__
    field, point = fields.PolyField((fields.Poly(()),) * 3), Vec3(0.0, 0.0, 0.0)
    assert shifted(field, point).bindings == {}
    with pytest.raises(ValueError, match="finite-difference step"):
        shifted(field, point, None, -1.0)


def test_each_argument_is_stored_as_given_and_in_field_order():
    left, right = notation.VectorRef("a", 1), notation.VectorRef("b", 5)
    node = notation.Binary(notation.DOT, left, right, pos=3)
    assert list(vars(node)) == ["op", "left", "right", "pos"]
    assert node.left is left and node.right is right and node.pos == 3


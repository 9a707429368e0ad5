"""``EvalContext``'s constructor is the one ``ga._Value`` compiles from its fields.

``_defaults`` gives ``bindings=None`` and ``fd_step=DEFAULT_FD_STEP``, and
``__post_init__`` checks the step and replaces ``None`` with a fresh dict.
A caller sees the signature and ``TypeError`` texts of the hand-written
constructor it replaces; ``notation._Shifted`` inherits the same one.
"""

import inspect

import pytest

from gibbskit import fields, notation
from gibbskit.ga import Vec3
from gibbskit.notation import EvalContext

FIELD = fields.PolyField((fields.Poly(()),) * 3)
POINT = Vec3(0.0, 0.0, 0.0)


def test_the_signature_is_the_hand_written_one():
    assert str(inspect.signature(EvalContext)) == "(field, point, bindings=None, fd_step=1e-05)"


def test_a_wrong_call_reads_as_before():
    with pytest.raises(TypeError) as info:
        EvalContext(*[None] * 5)
    assert str(info.value) == (
        "EvalContext.__init__() takes from 3 to 5 positional arguments but 6 were given"
    )
    with pytest.raises(TypeError) as info:
        EvalContext(FIELD)
    assert str(info.value) == (
        "EvalContext.__init__() missing 1 required positional argument: 'point'"
    )


def test_the_constructor_is_generated():
    init = EvalContext.__dict__["__init__"]
    assert init.__code__.co_filename == "<gibbskit.notation constructor>"
    assert init.__code__.co_name == init.__qualname__ == "EvalContext.__init__"
    assert notation._Shifted.__init__ is EvalContext.__init__


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf"), 1e308])
def test_a_bad_step_is_refused(step):
    with pytest.raises(ValueError, match="finite-difference step"):
        EvalContext(FIELD, POINT, None, step)
    with pytest.raises(ValueError, match="finite-difference step"):
        EvalContext(FIELD, POINT, fd_step=step)


def test_each_context_without_bindings_gets_a_dict_of_its_own():
    first, second = EvalContext(FIELD, POINT), EvalContext(FIELD, POINT, None)
    assert first.bindings == second.bindings == {}
    assert first.bindings is not second.bindings
    assert notation._Shifted(FIELD, POINT).bindings is not first.bindings


def test_given_bindings_and_step_are_stored_as_given():
    bindings = {"a": Vec3(1.0, 2.0, 3.0)}
    ctx = EvalContext(FIELD, POINT, bindings, 0.5)
    assert list(vars(ctx)) == ["field", "point", "bindings", "fd_step"]
    assert ctx.field is FIELD and ctx.point is POINT and ctx.bindings is bindings
    assert ctx.fd_step == 0.5

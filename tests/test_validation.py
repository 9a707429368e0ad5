"""Regression tests for inputs the constructors used to coerce silently."""

import math

import pytest

from gibbskit import BlackBoxField, EvalContext, Poly, PolyField, Vec3, fd_grad, field_from_dict


@pytest.mark.parametrize(
    "powers",
    [(1.5, 0, 0), (0, 2.0, 0), (True, 0, 0), (0, 0, False), (0, -1, 0), (1, 0), (1, 0, 0, 0)],
)
def test_poly_rejects_bad_exponents(powers):
    with pytest.raises(ValueError):
        Poly(((powers, 1.0),))


def test_poly_still_merges_valid_terms():
    p = Poly((((1, 0, 0), 1.0), ((0, 0, 0), 2.0), ((1, 0, 0), 0.5), ((0, 1, 0), 0.0)))
    assert p.terms == (((0, 0, 0), 2.0), ((1, 0, 0), 1.5))


@pytest.mark.parametrize("axis", [True, False, 1.0, 3, -1, "x", None])
def test_diff_rejects_bad_axis(axis):
    p = Poly((((1, 1, 1), 1.0),))
    with pytest.raises(ValueError):
        p.diff(axis)


def test_field_from_dict_still_rejects_bool_exponent():
    spec = {
        "type": "polynomial",
        "components": [[{"coeff": 1.0, "powers": [True, 0, 0]}], [], []],
    }
    with pytest.raises(ValueError, match="/components/0/0/powers/0"):
        field_from_dict(spec)


@pytest.mark.parametrize("step", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_eval_context_rejects_bad_fd_step(step):
    f = PolyField((Poly.zero(), Poly.zero(), Poly.zero()))
    with pytest.raises(ValueError, match="finite-difference step"):
        EvalContext(f, Vec3(0.0, 0.0, 0.0), {}, fd_step=step)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_black_box_field_shares_the_step_rule(step):
    with pytest.raises(ValueError, match="finite-difference step"):
        BlackBoxField(lambda x: x, step=step)


@pytest.mark.parametrize("step", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_fd_grad_shares_the_step_rule(step):
    with pytest.raises(ValueError, match="finite-difference step"):
        fd_grad(BlackBoxField(lambda x: x), Vec3(0.0, 0.0, 0.0), step)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
def test_field_from_dict_rejects_non_finite_coeffs(coeff):
    spec = {
        "type": "polynomial",
        "components": [[], [{"coeff": 1.0, "powers": [0, 0, 0]}, {"coeff": coeff, "powers": [1, 0, 0]}], []],
    }
    with pytest.raises(ValueError) as info:
        field_from_dict(spec)
    assert info.value.pointer == "/components/1/1/coeff"

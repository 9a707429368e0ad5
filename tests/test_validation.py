"""Regression tests for inputs the constructors used to coerce silently."""

import math

import pytest

from gibbskit import (
    BlackBoxField,
    EvalContext,
    Multivector,
    Poly,
    PolyField,
    Tensor3,
    Vec3,
    fd_grad,
    field_from_dict,
    grade,
)
from gibbskit.dyadics import nonion_basis


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


@pytest.mark.parametrize("step", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])
def test_eval_context_rejects_bad_fd_step(step):
    f = PolyField((Poly.zero(), Poly.zero(), Poly.zero()))
    with pytest.raises(ValueError, match="finite-difference step"):
        EvalContext(f, Vec3(0.0, 0.0, 0.0), {}, fd_step=step)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 1e308])
def test_black_box_field_shares_the_step_rule(step):
    with pytest.raises(ValueError, match="finite-difference step"):
        BlackBoxField(lambda x: x, step=step)


@pytest.mark.parametrize("step", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])
def test_fd_grad_shares_the_step_rule(step):
    with pytest.raises(ValueError, match="finite-difference step"):
        fd_grad(BlackBoxField(lambda x: x), Vec3(0.0, 0.0, 0.0), step)


@pytest.mark.parametrize(
    "first, coeff",
    [
        pytest.param({"coeff": 1.0, "powers": [0, 0, 0]}, c, id=repr(c))
        for c in (math.nan, math.inf, -math.inf)
    ]
    # Both coeffs are finite, but the monomials share their powers and the sum is not.
    + [pytest.param({"coeff": 1e308, "powers": [1, 0, 0]}, 1e308, id="repeated-monomial-sum")],
)
def test_field_from_dict_rejects_non_finite_coeffs(first, coeff):
    spec = {
        "type": "polynomial",
        "components": [[], [first, {"coeff": coeff, "powers": [1, 0, 0]}], []],
    }
    with pytest.raises(ValueError) as info:
        field_from_dict(spec)
    assert info.value.pointer == "/components/1/1/coeff"


@pytest.mark.parametrize("i", [True, False, 1.0, 2.0, "1", None], ids=repr)
def test_one_based_indices_refuse_bools_floats_and_strings(i):
    t = Tensor3(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)))
    m = Multivector((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    cases = [
        (lambda: Vec3.basis(i), f"basis index must be 1, 2 or 3, got {i}"),
        (lambda: Multivector.basis_vector(i), f"basis index must be 1, 2 or 3, got {i}"),
        (lambda: t.entry(i, 2), f"indices must be in 1..3, got ({i}, 2)"),
        (lambda: t.entry(2, i), f"indices must be in 1..3, got (2, {i})"),
        (lambda: t.row(i), f"row index must be in 1..3, got {i}"),
        (lambda: t.column(i), f"column index must be in 1..3, got {i}"),
        (lambda: nonion_basis(i, 1), f"nonion indices must be in 1..3, got ({i}, 1)"),
        (lambda: nonion_basis(1, i), f"nonion indices must be in 1..3, got (1, {i})"),
        (lambda: grade(m, i), f"grade must be an integer in 0..3, got {i!r}"),
        (lambda: m.grade(i), f"grade must be an integer in 0..3, got {i!r}"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message

import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbskit import (
    BlackBoxField,
    FieldSpecError,
    Poly,
    PolyField,
    Vec3,
    divergence,
    fd_grad,
    field_from_dict,
    grad_alt,
    grad_gibbs,
    load_field,
    transpose,
)
from gibbskit.dyadics import max_abs
from gibbskit.fields import MAX_EXPONENT, Powers, _require_keys, partial_vectors

from helpers import fit_slope, radial_field, rand_cubic, rand_unit, rand_vec, rigid_rotation

X123 = Vec3(1.0, 2.0, 3.0)


def poly_of(*terms):
    return Poly(tuple(terms))


# v = (x^2, x y, z), used repeatedly below.
def squarish_field():
    return PolyField(
        (
            poly_of(((2, 0, 0), 1.0)),
            poly_of(((1, 1, 0), 1.0)),
            poly_of(((0, 0, 1), 1.0)),
        )
    )


def test_poly_canonicalization():
    p = Poly((((1, 0, 0), 2.0), ((1, 0, 0), 3.0), ((0, 1, 0), 0.0)))
    assert p.terms == (((1, 0, 0), 5.0),)
    assert Poly((((2, 1, 0), 4.0), ((2, 1, 0), -4.0))) == Poly.zero()


def test_poly_rejects_bad_powers():
    with pytest.raises(ValueError):
        Poly((((1, 0), 1.0),))
    with pytest.raises(ValueError):
        Poly((((-1, 0, 0), 1.0),))


def test_poly_eval_and_diff():
    p = poly_of(((2, 1, 0), 3.0), ((0, 0, 1), 1.0))  # 3 x^2 y + z
    assert p.eval(X123) == 3.0 * 1 * 2 + 3
    assert p.diff(0) == poly_of(((1, 1, 0), 6.0))
    assert p.diff(1) == poly_of(((2, 0, 0), 3.0))
    assert p.diff(2) == Poly.constant(1.0)
    assert p.grad_at(X123) == Vec3(12.0, 3.0, 1.0)


def test_eval_examples():
    const = PolyField((Poly.constant(4.0), Poly.constant(-1.0), Poly.constant(0.5)))
    assert const.eval(rand_vec(random.Random(1))).as_tuple() == (4.0, -1.0, 0.5)
    assert squarish_field().eval(X123).as_tuple() == (1.0, 2.0, 3.0)
    rot = rigid_rotation(Vec3(0, 0, 1))
    assert rot.eval(Vec3(1, 0, 0)).as_tuple() == (0.0, 1.0, 0.0)


def test_grad_gibbs_constant_field():
    const = PolyField((Poly.constant(1.0), Poly.constant(2.0), Poly.constant(3.0)))
    assert grad_gibbs(const, X123).rows == ((0.0,) * 3,) * 3


def test_grad_gibbs_linear_field_is_matrix_transpose():
    # v(x) = A . x gives grad entries (i, j) = A_ji.
    rng = random.Random(5)
    a = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)]
    comps = tuple(
        Poly(
            (
                ((1, 0, 0), a[i][0]),
                ((0, 1, 0), a[i][1]),
                ((0, 0, 1), a[i][2]),
            )
        )
        for i in range(3)
    )
    f = PolyField(comps)
    g = grad_gibbs(f, rand_vec(rng))
    for i in range(3):
        for j in range(3):
            assert g.rows[i][j] == a[j][i]
    assert grad_alt(f, rand_vec(rng)).rows == tuple(tuple(r) for r in a)


def test_grad_gibbs_fixed_cubic_hand_values():
    # For v = (x^2, x y, z): columns are the gradients of v1, v2, v3.
    g = grad_gibbs(squarish_field(), X123)
    assert g.rows == ((2.0, 2.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_grad_columns_are_component_gradients():
    rng = random.Random(9)
    for _ in range(50):
        f = rand_cubic(rng)
        x = rand_vec(rng)
        g = grad_gibbs(f, x)
        for j in (1, 2, 3):
            assert g.column(j).as_tuple() == f.components[j - 1].grad_at(x).as_tuple()


def test_grad_alt_is_transpose():
    rng = random.Random(13)
    for _ in range(100):
        f = rand_cubic(rng)
        x = rand_vec(rng)
        assert grad_alt(f, x).rows == transpose(grad_gibbs(f, x)).rows


def test_divergence_examples():
    assert divergence(radial_field(), rand_vec(random.Random(2))) == 3.0
    rot = rigid_rotation(Vec3(0.3, -1.2, 0.8))
    assert divergence(rot, rand_vec(random.Random(3))) == 0.0
    assert divergence(squarish_field(), Vec3(1, 1, 1)) == 4.0


def test_partial_vectors_are_grad_rows():
    f = squarish_field()
    g = grad_gibbs(f, X123)
    parts = partial_vectors(f, X123)
    for i, p in enumerate(parts, start=1):
        assert p.as_tuple() == g.row(i).as_tuple()


def test_fd_exact_on_linear_fields():
    f = PolyField(
        (
            poly_of(((1, 0, 0), 2.0), ((0, 0, 0), 1.0)),
            poly_of(((0, 1, 0), -3.0)),
            poly_of(((0, 0, 1), 0.5)),
        )
    )
    # No truncation error on affine fields; what remains at small h is
    # evaluation rounding divided by 2h.
    for h in (1.0, 1e-2, 1e-4):
        assert max_abs(fd_grad(f, X123, h) - grad_gibbs(f, X123)) < 1e-11


def test_fd_quadratic_example():
    f = PolyField((poly_of(((2, 0, 0), 1.0)), Poly.zero(), Poly.zero()))
    g = fd_grad(f, Vec3(1, 0, 0), 1e-4)
    assert abs(g.entry(1, 1) - 2.0) < 1e-8


def test_fd_order_of_accuracy():
    rng = random.Random(17)
    hs = [1e-2, 1e-3, 1e-4]
    for _ in range(10):
        f = rand_cubic(rng)
        x = rand_vec(rng, -1.0, 1.0)
        exact = grad_gibbs(f, x)
        errs = [max_abs(fd_grad(f, x, h) - exact) for h in hs]
        assert fit_slope(hs, errs) >= 1.9


def test_taylor_remainder_order():
    from gibbskit import postfactor

    rng = random.Random(19)
    hs = [1e-1, 1e-2, 1e-3]
    for _ in range(10):
        f = rand_cubic(rng)
        x = rand_vec(rng, -1.0, 1.0)
        u = rand_unit(rng)
        g = grad_gibbs(f, x)
        errs = []
        for h in hs:
            pred = f.eval(x) + h * postfactor(u, g)
            errs.append((f.eval(x + h * u) - pred).norm())
        assert fit_slope(hs, errs) >= 1.9


def test_black_box_field():
    f = BlackBoxField(lambda p: Vec3(p.x * p.x, p.x * p.y, p.z), step=1e-5)
    assert f.eval(X123).as_tuple() == (1.0, 2.0, 3.0)
    g = grad_gibbs(f, X123)
    exact = grad_gibbs(squarish_field(), X123)
    assert max_abs(g - exact) < 1e-8
    with pytest.raises(ValueError):
        BlackBoxField(lambda p: p, step=0.0)


# --- field-spec files --------------------------------------------------------

GOOD_SPEC = {
    "type": "polynomial",
    "components": [
        [{"coeff": 1.0, "powers": [2, 0, 0]}],
        [{"coeff": 1.0, "powers": [1, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 0, 1]}],
    ],
}


def test_field_from_dict_good():
    f = field_from_dict(GOOD_SPEC)
    assert f.eval(X123).as_tuple() == (1.0, 2.0, 3.0)


def test_field_spec_unknown_key_pointer():
    bad = dict(GOOD_SPEC)
    bad["extra"] = 1
    with pytest.raises(FieldSpecError) as err:
        field_from_dict(bad)
    assert err.value.pointer == "/extra"


def test_field_spec_monomial_errors():
    bad = json.loads(json.dumps(GOOD_SPEC))
    bad["components"][0][0]["powers"] = [2, 0, -1]
    with pytest.raises(FieldSpecError) as err:
        field_from_dict(bad)
    assert err.value.pointer == "/components/0/0/powers/2"

    bad = json.loads(json.dumps(GOOD_SPEC))
    bad["components"][1][0]["powers"] = [0, 0.5, 0]
    with pytest.raises(FieldSpecError) as err:
        field_from_dict(bad)
    assert err.value.pointer == "/components/1/0/powers/1"

    bad = json.loads(json.dumps(GOOD_SPEC))
    bad["components"][2][0]["stray"] = 7
    with pytest.raises(FieldSpecError) as err:
        field_from_dict(bad)
    assert err.value.pointer == "/components/2/0/stray"

    bad = json.loads(json.dumps(GOOD_SPEC))
    bad["components"][0][0]["coeff"] = True
    with pytest.raises(FieldSpecError) as err:
        field_from_dict(bad)
    assert err.value.pointer == "/components/0/0/coeff"


def test_field_spec_structure_errors():
    with pytest.raises(FieldSpecError):
        field_from_dict([1, 2, 3])
    with pytest.raises(FieldSpecError) as err:
        field_from_dict({"type": "fourier", "components": [[], [], []]})
    assert err.value.pointer == "/type"
    with pytest.raises(FieldSpecError) as err:
        field_from_dict({"type": "polynomial", "components": [[], []]})
    assert err.value.pointer == "/components"


def test_load_field_round_trip(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(GOOD_SPEC))
    f = load_field(str(path))
    assert f.eval(X123).as_tuple() == (1.0, 2.0, 3.0)
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(FieldSpecError):
        load_field(str(bad))


def reference_parse_monomial(obj, pointer: str) -> tuple[Powers, float]:
    if not isinstance(obj, dict):
        raise FieldSpecError("monomial must be an object", pointer)
    _require_keys(obj, {"coeff", "powers"}, {"coeff", "powers"}, pointer)
    coeff = obj["coeff"]
    if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
        raise FieldSpecError("coeff must be a number", f"{pointer}/coeff")
    try:
        c = float(coeff)
    except OverflowError:  # an integer too large for a float
        c = math.inf
    if not math.isfinite(c):
        raise FieldSpecError("coeff must be finite", f"{pointer}/coeff")
    powers = obj["powers"]
    if not isinstance(powers, list) or len(powers) != 3:
        raise FieldSpecError("powers must be a list of 3 integers", f"{pointer}/powers")
    for k, e in enumerate(powers):
        if isinstance(e, bool) or not isinstance(e, int):
            raise FieldSpecError("exponent must be an integer", f"{pointer}/powers/{k}")
        if e < 0:
            raise FieldSpecError("exponent must be non-negative", f"{pointer}/powers/{k}")
        if e > MAX_EXPONENT:
            message = f"exponent must be at most {MAX_EXPONENT}"
            raise FieldSpecError(message, f"{pointer}/powers/{k}")
    return tuple(powers), c


def reference_field_from_dict(obj) -> PolyField:
    """The two-pass builder: each monomial checked here, then again by ``Poly``.

    Unknown keys are rejected; errors carry a JSON pointer to the
    offending element.
    """
    if not isinstance(obj, dict):
        raise FieldSpecError("field spec must be an object", "")
    _require_keys(obj, {"type", "components"}, {"type", "components"}, "")
    if obj["type"] != "polynomial":
        raise FieldSpecError(
            f"unsupported field type {obj['type']!r} (only 'polynomial')", "/type"
        )
    comps = obj["components"]
    if not isinstance(comps, list) or len(comps) != 3:
        raise FieldSpecError("components must be a list of 3 monomial lists", "/components")
    polys = []
    for i, comp in enumerate(comps):
        if not isinstance(comp, list):
            raise FieldSpecError("component must be a list of monomials", f"/components/{i}")
        terms = tuple(
            reference_parse_monomial(m, f"/components/{i}/{k}") for k, m in enumerate(comp)
        )
        poly = Poly(terms)
        if len(poly.terms) < len(terms):  # a repeat merged (coeffs added in order) or a 0 dropped
            sums: dict[Powers, float] = {}
            for k, (p, c) in enumerate(terms):
                sums[p] = sums.get(p, 0.0) + c
                if not math.isfinite(sums[p]):
                    message = "coeffs of repeated powers must have a finite sum"
                    raise FieldSpecError(message, f"/components/{i}/{k}/coeff")
        polys.append(poly)
    return PolyField(tuple(polys))


def build_outcome(build, spec):
    """The field's repr and every coefficient's bits, or the error's text and pointer."""
    try:
        f = build(spec)
    except FieldSpecError as exc:
        return str(exc), exc.pointer
    return repr(f), [c.hex() for comp in f.components for _, c in comp.terms]


SMALL_POWERS = st.lists(st.integers(0, 2), min_size=3, max_size=3)
FINITE_COEFFS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.sampled_from([0, 0.0, -0.0, 1e308, -1e308]),
)
GOOD_MONOMIALS = st.fixed_dictionaries({"coeff": FINITE_COEFFS, "powers": SMALL_POWERS})
BAD_EXPONENTS = st.sampled_from([True, False, 1.0, -1, MAX_EXPONENT, MAX_EXPONENT + 1, "1", None])
BAD_POWERS = st.lists(st.one_of(st.integers(0, 2), BAD_EXPONENTS), min_size=3, max_size=3)
BAD_MONOMIALS = st.one_of(
    st.fixed_dictionaries({"coeff": FINITE_COEFFS, "powers": BAD_POWERS}),
    st.fixed_dictionaries({
        "coeff": st.sampled_from([True, "1", None, 10**400, math.nan, math.inf, -math.inf]),
        "powers": SMALL_POWERS,
    }),
    st.fixed_dictionaries({
        "coeff": FINITE_COEFFS,
        "powers": st.one_of(
            st.lists(st.integers(0, 2), max_size=4),
            st.sampled_from([None, "000", (0, 0, 0)]),
        ),
    }),
    # Missing and extra keys.
    st.fixed_dictionaries(
        {}, optional={"coeff": FINITE_COEFFS, "powers": SMALL_POWERS, "stray": st.just(0)}
    ),
    st.sampled_from([None, 1, [], "monomial"]),
)
# Mostly good monomials on few exponent triples, so repeats are common.
MONOMIALS = st.one_of(GOOD_MONOMIALS, GOOD_MONOMIALS, GOOD_MONOMIALS, BAD_MONOMIALS)
SPECS = st.fixed_dictionaries({
    "type": st.just("polynomial"),
    "components": st.lists(st.lists(MONOMIALS, max_size=6), min_size=3, max_size=3),
})
OVERFLOWING = {"coeff": 1e308, "powers": [1, 0, 0]}


@settings(deadline=None, max_examples=500)
@given(SPECS)
@example({"type": "polynomial", "components": [[], [OVERFLOWING, OVERFLOWING], []]})
@example({  # a bad monomial later in the component is reported before the sum
    "type": "polynomial",
    "components": [[], [OVERFLOWING, OVERFLOWING, {"coeff": 1.0, "powers": [-1, 0, 0]}], []],
})
@example({"type": "polynomial", "components": [[{"coeff": -0.0, "powers": [0, 0, 0]}], [], []]})
@example({"type": "polynomial", "components": [5, [], []]})
@example({
    "type": "polynomial",
    "components": [[{"coeff": 1, "powers": [0, MAX_EXPONENT, 0]}], [], [
        {"coeff": 1.0, "powers": [MAX_EXPONENT + 1, 0, 0]}
    ]],
})
def test_field_from_dict_matches_the_two_pass_builder(spec):
    assert build_outcome(field_from_dict, spec) == build_outcome(reference_field_from_dict, spec)

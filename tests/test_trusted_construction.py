"""Values the library builds itself skip re-validation; nothing else does.

Each trusted result is compared bit for bit (``float.hex``, so that
``-0.0`` and ``nan`` show) with the same arithmetic passed through the
validating public constructors, and every field must be an exact
``float``.  Inputs include ``-0.0``, infinities and ``nan``.  Scaling by a
caller's scalar still validates, so a complex or string scalar raises as
it always did.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbskit import Multivector, Poly, PolyField, Tensor3, Vec3, fields, ga, grad_gibbs
from gibbskit.dyadics import antisym, dyad, postfactor, prefactor, sym, trace, transpose
from gibbskit.kinematics import (
    bidi_forward_of,
    bidi_reverse_of,
    nabla_wedge_of,
    omega_bivector,
    report,
    strain_split_of,
)

ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5]),
    st.floats(width=64),
)
VECS = st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT).map(lambda c: Vec3(*c))
MVS = st.tuples(*(ANY_FLOAT for _ in range(8))).map(Multivector)
TENSORS = st.tuples(*(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT) for _ in range(3))).map(Tensor3)


def bits(value):
    """Class, container types and ``float.hex`` of every field of a value."""
    if isinstance(value, Vec3):
        flat, shape = value.as_tuple(), None
    elif isinstance(value, Multivector):
        flat, shape = value.coeffs, (type(value.coeffs), len(value.coeffs))
    else:
        flat = tuple(c for r in value.rows for c in r)
        shape = (type(value.rows), tuple(type(r) for r in value.rows))
    assert all(type(c) is float for c in flat)
    return type(value), shape, [float.hex(c) for c in flat]


# --- references: the same arithmetic through the validating constructors ----------


def ref_product(m, n, keep):
    out = [0.0] * 8
    for i, a in enumerate(m.coeffs):
        if a == 0.0:
            continue
        for j, b in enumerate(n.coeffs):
            if b == 0.0:
                continue
            slot = ga._SLOT_OF_MASK[ga._MASKS[i] ^ ga._MASKS[j]]
            if keep(ga._GRADES[slot], ga._GRADES[i], ga._GRADES[j]):
                out[slot] += ga._merge_sign(ga._MASKS[i], ga._MASKS[j]) * a * b
    return Multivector(tuple(out))


def ref_entrywise(s, t, op):
    return Tensor3([[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(s.rows, t.rows)])


def ref_transpose(t):
    return Tensor3(tuple(zip(*t.rows)))


def plus(a, b):
    return a + b


def minus(a, b):
    return a - b


VEC_CASES = {
    "add": (lambda a, b: a + b, lambda a, b: Vec3(a.x + b.x, a.y + b.y, a.z + b.z)),
    "sub": (lambda a, b: a - b, lambda a, b: Vec3(a.x - b.x, a.y - b.y, a.z - b.z)),
    "neg": (lambda a, b: -a, lambda a, b: Vec3(-a.x, -a.y, -a.z)),
    "cross": (
        lambda a, b: a.cross(b),
        lambda a, b: Vec3(a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x),
    ),
    "dual_bivector": (
        lambda a, b: ga.dual_bivector(a),
        lambda a, b: Multivector((0.0, 0.0, 0.0, 0.0, a.z, -a.y, a.x, 0.0)),
    ),
    "vector_dual": (
        lambda a, b: ga.vector_dual(Multivector((0, 0, 0, 0, a.x, a.y, a.z, 0))),
        lambda a, b: Vec3(a.z, 0.0 - a.y, a.x),
    ),
    "dyad": (
        lambda a, b: dyad(a, b),
        lambda a, b: Tensor3([[ai * bj for bj in b.as_tuple()] for ai in a.as_tuple()]),
    ),
}

MV_CASES = {
    "add": (lambda m, n: m + n, lambda m, n: Multivector([a + b for a, b in zip(m.coeffs, n.coeffs)])),
    "sub": (lambda m, n: m - n, lambda m, n: Multivector([a - b for a, b in zip(m.coeffs, n.coeffs)])),
    "neg": (lambda m, n: -m, lambda m, n: Multivector([-a for a in m.coeffs])),
    "geometric": (lambda m, n: m * n, lambda m, n: ref_product(m, n, lambda g, gi, gj: True)),
    "dot": (ga.dot, lambda m, n: ref_product(m, n, lambda g, gi, gj: g == abs(gi - gj))),
    "wedge": (ga.wedge, lambda m, n: ref_product(m, n, lambda g, gi, gj: g == gi + gj)),
    "grade": (
        lambda m, n: ga.grade(m, 2),
        lambda m, n: Multivector([c if ga._GRADES[i] == 2 else 0.0 for i, c in enumerate(m.coeffs)]),
    ),
    "vector_part": (lambda m, n: ga.vector_part(m), lambda m, n: Vec3(*m.coeffs[1:4])),
}

TENSOR_CASES = {
    "add": (lambda s, t: s + t, lambda s, t: ref_entrywise(s, t, plus)),
    "sub": (lambda s, t: s - t, lambda s, t: ref_entrywise(s, t, minus)),
    "neg": (lambda s, t: -s, lambda s, t: Tensor3([[-a for a in r] for r in s.rows])),
    "transpose": (lambda s, t: transpose(s), lambda s, t: ref_transpose(s)),
    "sym": (lambda s, t: sym(s), lambda s, t: 0.5 * ref_entrywise(s, ref_transpose(s), plus)),
    "antisym": (lambda s, t: antisym(s), lambda s, t: 0.5 * ref_entrywise(s, ref_transpose(s), minus)),
    "row": (lambda s, t: s.row(2), lambda s, t: Vec3(*s.rows[1])),
    "column": (lambda s, t: s.column(3), lambda s, t: Vec3(*(s.rows[i][2] for i in range(3)))),
    # Entries add left to right from 0.0, the library's one summation rule.
    "postfactor": (
        lambda s, t: postfactor(s.row(1), t),
        lambda s, t: Vec3(*(
            0.0 + s.rows[0][0] * t.rows[0][j] + s.rows[0][1] * t.rows[1][j]
            + s.rows[0][2] * t.rows[2][j] for j in range(3)
        )),
    ),
    "prefactor": (
        lambda s, t: prefactor(t, s.row(1)),
        lambda s, t: Vec3(*(
            0.0 + t.rows[i][0] * s.rows[0][0] + t.rows[i][1] * s.rows[0][1]
            + t.rows[i][2] * s.rows[0][2] for i in range(3)
        )),
    ),
    "nabla_wedge_of": (
        lambda s, t: nabla_wedge_of(s),
        lambda s, t: Multivector(
            (0.0, 0.0, 0.0, 0.0, s.rows[0][1] - s.rows[1][0], s.rows[0][2] - s.rows[2][0],
             s.rows[1][2] - s.rows[2][1], 0.0)
        ),
    ),
}


@settings(deadline=None)
@given(a=VECS, b=VECS)
def test_vec3_results_match_validated_build(a, b):
    for name, (new, ref) in VEC_CASES.items():
        assert bits(new(a, b)) == bits(ref(a, b)), name


@settings(deadline=None)
@given(m=MVS, n=MVS)
def test_multivector_results_match_validated_build(m, n):
    for name, (new, ref) in MV_CASES.items():
        assert bits(new(m, n)) == bits(ref(m, n)), name


@settings(deadline=None)
@given(s=TENSORS, t=TENSORS)
# All three products -0.0: only a sum that starts from 0.0 gives +0.0.
@example(s=Tensor3([[1.0, 1.0, 1.0]] * 3), t=Tensor3([[-0.0] * 3] * 3))
def test_tensor_results_match_validated_build(s, t):
    for name, (new, ref) in TENSOR_CASES.items():
        assert bits(new(s, t)) == bits(ref(s, t)), name


# --- the product kernel: every nonzero pattern --------------------------------------

# Every coefficient nonzero, infinities and nan among them.
FULL = Multivector((1.5, -math.inf, math.nan, -0.25, 3.0, math.inf, -7.0, 1e300))
# Finite, with magnitudes far apart, so that summing in another order changes a result.
SPREAD = Multivector((1e16, 1.0, -1e16, 0.1, 3.0, -1.0, 0.7, 1.0))
# 5e-324 times a small factor rounds to a signed zero, which a sum from 0.0 turns to +0.0.
PATTERN_VALUES = (-2.0, math.nan, 0.5, math.inf, -3.25, -math.inf, 1e300, 5e-324)


def with_pattern(mask):
    # Coefficient k is nonzero when bit k of mask is set; the zeros alternate 0.0 and -0.0.
    return Multivector(
        tuple(PATTERN_VALUES[k] if mask >> k & 1 else (0.0, -0.0)[k % 2] for k in range(8))
    )


@pytest.mark.parametrize("name", ["geometric", "dot", "wedge"])
def test_every_nonzero_pattern_matches_the_reference(name):
    product, ref = MV_CASES[name]
    for mask in range(256):
        m = with_pattern(mask)
        for left, right in ((m, FULL), (FULL, m), (m, SPREAD), (SPREAD, m)):
            assert bits(product(left, right)) == bits(ref(left, right)), (name, mask)


def test_a_repeated_pattern_reuses_its_kernel():
    m = Multivector((0.0, 1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 0.0))
    # The same nonzero slots: -0.0 is a zero, nan and inf are not.
    n = Multivector((-0.0, math.nan, math.inf, 3.0, 0.0, -0.0, 0.0, 0.0))
    ga.wedge(m, m)
    before = ga._kernel.cache_info()
    ga.wedge(n, m)
    after = ga._kernel.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# --- frame sums on coefficient tuples against the multivector operators -------------


def frame_sum_of_multivectors(g, dx, term):
    a = Multivector.from_vec3(dx)
    acc = Multivector.zero()
    for i in (1, 2, 3):
        acc = acc + term(Multivector.basis_vector(i), a, Multivector.from_vec3(g.row(i)))
    return ga.vector_part(acc)


@settings(deadline=None)
@given(g=TENSORS, dx=VECS)
# Finite entries far apart in magnitude: summing the frame in another order,
# or grouping the forward product as e_i (dx d_i), changes a result.
@example(
    g=Tensor3(((1e16, -1.0, -1.0), (2.0**53, 1e16, 0.3), (3.0, 0.1, 2.0**53))),
    dx=Vec3(-1e16, 0.7, 1e16),
)
@example(g=Tensor3(((3.0, -1e16, 1.0), (1.0, 3.0, 1e-17), (1.0, 3.0, 3.0))), dx=Vec3(0.3, 0.7, 0.3))
# dx parallel to row 2 of G: dx ^ d_2 v and the bivector part of dx d_2 v cancel to
# 0.0 at run time, next to infinite entries.
@example(g=Tensor3(((math.inf, 1.0, -2.0), (2.0, -4.0, 6.0), (0.5, -math.inf, 3.0))), dx=Vec3(1.0, -2.0, 3.0))
def test_frame_sums_match_the_multivector_operators(g, dx):
    assert_frame_sums_match(g, dx)


def assert_frame_sums_match(g, dx):
    compressive, remainder = strain_split_of(g, dx)
    assert bits(compressive) == bits(trace(g) * dx)
    assert bits(remainder) == bits(
        frame_sum_of_multivectors(g, dx, lambda e_i, a, d_i: ga.dot(e_i, ga.wedge(a, d_i)))
    )
    assert bits(bidi_forward_of(g, dx)) == bits(
        frame_sum_of_multivectors(g, dx, lambda e_i, a, d_i: e_i * a * d_i)
    )
    assert bits(bidi_reverse_of(g, dx)) == bits(
        frame_sum_of_multivectors(g, dx, lambda e_i, a, d_i: a * d_i * e_i)
    )


def test_frame_sums_match_on_every_zero_pattern():
    # Entry k of (dx, G) is nonzero when bit k of mask is set; the zeros alternate
    # 0.0 and -0.0.  An intermediate product that is zero at run time must be left
    # out like a zero entry, or 0 * inf turns a result into nan.
    for mask in range(1 << 12):
        e = [PATTERN_VALUES[k % 8] if mask >> k & 1 else (0.0, -0.0)[k % 2] for k in range(12)]
        assert_frame_sums_match(Tensor3((e[3:6], e[6:9], e[9:12])), Vec3(*e[:3]))


# --- fields: the fused gradient and trusted evaluation ------------------------------

DEGREE_5 = st.tuples(*(st.integers(0, 5) for _ in range(3))).filter(lambda p: sum(p) <= 5)
COEFF = st.one_of(st.sampled_from([1.0, -0.5, math.inf, math.nan]), st.floats(-1e3, 1e3))
POLYS = st.lists(st.tuples(DEGREE_5, COEFF), max_size=8).map(lambda t: Poly(tuple(t)))
FIELDS = st.tuples(POLYS, POLYS, POLYS).map(PolyField)
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, math.nan]), st.floats(-1e3, 1e3))
POINTS = st.tuples(COORDS, COORDS, COORDS).map(lambda c: Vec3(*c))


@settings(deadline=None)
@given(FIELDS, POINTS)
def test_field_results_match_validated_build(f, x):
    # G entry (i, j) is components[j].diff(i) evaluated at x, each built
    # through the validating constructors.
    want_g = Tensor3([[c.diff(i).eval(x) for c in f.components] for i in range(3)])
    assert bits(grad_gibbs(f, x)) == bits(want_g)
    for c in f.components:
        assert bits(c.grad_at(x)) == bits(Vec3(*(c.diff(i).eval(x) for i in range(3))))
    assert bits(f.eval(x)) == bits(Vec3(*(c.eval(x) for c in f.components)))
    # One fused pass, no partial fields; its power tables stop at the
    # highest power any lowered term uses.
    assert "_partials" not in vars(f)
    lowered = [c.diff(i).terms for c in f.components for i in range(3)]
    assert f._grad_top == fields._top_powers(lowered)


@settings(deadline=None)
@given(FIELDS, POINTS)
def test_rotation_bivector_matches_validated_scaling(f, x):
    want = bits(0.5 * nabla_wedge_of(grad_gibbs(f, x)))
    assert bits(report(f, x).omega_bivector) == want
    assert bits(omega_bivector(f, x)) == want


def test_gradient_tables_stop_at_the_highest_power_used():
    # x^5 y needs x^5 for d/dy, which overflows at 1e70; x^5 alone does not.
    x = Vec3(1e70, 1.0, 0.0)
    alone = PolyField((Poly((((5, 0, 0), 1.0),)), Poly.zero(), Poly.zero()))
    assert grad_gibbs(alone, x).rows[0][0] == 5.0 * 1e70**4
    with_y = PolyField((Poly((((5, 1, 0), 1.0),)), Poly.zero(), Poly.zero()))
    with pytest.raises(OverflowError):
        grad_gibbs(with_y, x)
    assert alone._grad_top == (4, 0, 0) and with_y._grad_top == (5, 1, 0)


# --- Poly._with_coeffs --------------------------------------------------------------

VALID_POWERS = st.tuples(*(st.integers(0, 4) for _ in range(3)))
NONZERO = st.floats(allow_nan=False, allow_infinity=False, width=64).filter(bool)
CANONICAL = st.dictionaries(VALID_POWERS, NONZERO, max_size=8).map(
    lambda d: Poly(tuple(sorted(d.items())))
)
NEW_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 3, True, "2.5", "x", None, 1j, Fraction(1, 3), Decimal("2")]),
    ANY_FLOAT,
)


def outcome(fn):
    try:
        return "ok", [(p, float.hex(c)) for p, c in fn().terms]
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(CANONICAL, st.lists(NEW_COEFFS, max_size=10))
def test_with_coeffs_matches_the_validating_constructor(poly, coeffs):
    powers = [p for p, _ in poly.terms]
    got = outcome(lambda: poly._with_coeffs(coeffs))
    assert got == outcome(lambda: Poly(tuple(zip(powers, coeffs))))
    if got[0] == "ok":
        assert all(type(c) is float for _, c in poly._with_coeffs(coeffs).terms)


def test_with_coeffs_validates_only_when_a_coefficient_is_zero(monkeypatch):
    poly = Poly((((0, 0, 0), 1.0), ((0, 2, 1), 2.0), ((1, 0, 0), 3.0)))
    built = []
    original = Poly.__post_init__
    monkeypatch.setattr(Poly, "__post_init__", lambda self: built.append(original(self)))
    assert poly._with_coeffs([4, 5.0, -6.0]).terms == (
        ((0, 0, 0), 4.0), ((0, 2, 1), 5.0), ((1, 0, 0), -6.0)
    )
    assert built == []
    assert poly._with_coeffs([4.0, -0.0, 1.0]).terms == (((0, 0, 0), 4.0), ((1, 0, 0), 1.0))
    assert len(built) == 1


# --- scaling by a caller's scalar still validates -----------------------------------

SCALARS = [1j, "2", Decimal("2"), Fraction(1, 3), True, 2, -0.0, math.nan, 2.5]


def scaled(fn):
    try:
        return "ok", bits(fn())
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("s", SCALARS, ids=repr)
def test_scaling_by_a_caller_scalar_raises_or_coerces_as_before(s):
    v = Vec3(1.0, -2.0, 0.5)
    m = Multivector((1.0, 0.0, -2.0, 0.5, 0.0, 3.0, 0.0, -1.0))
    t = Tensor3(((1.0, 2.0, 3.0), (0.0, -1.0, 0.5), (4.0, 0.0, -0.0)))
    cases = [
        (lambda: v * s, lambda: Vec3(v.x * s, v.y * s, v.z * s)),
        (lambda: s * v, lambda: Vec3(v.x * s, v.y * s, v.z * s)),
        (lambda: m * s, lambda: Multivector(tuple(a * s for a in m.coeffs))),
        (lambda: s * m, lambda: Multivector(tuple(a * s for a in m.coeffs))),
        (lambda: t * s, lambda: Tensor3([[a * s for a in r] for r in t.rows])),
        (lambda: s * t, lambda: Tensor3([[a * s for a in r] for r in t.rows])),
    ]
    for new, ref in cases:
        assert scaled(new) == scaled(ref)
    p = Poly((((0, 0, 0), 1.0), ((1, 0, 0), -2.0)))
    assert outcome(lambda: p * s) == outcome(lambda: Poly(tuple((q, c * s) for q, c in p.terms)))
    if s in (1j, "2"):
        for new, _ in cases:
            with pytest.raises(TypeError):
                new()
        with pytest.raises(TypeError):
            p * s


# --- basis constants ----------------------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 3])
def test_basis_vectors_are_constants_equal_to_the_built_ones(i):
    e = Multivector.basis_vector(i)
    assert e == Multivector.from_vec3(Vec3.basis(i))
    assert bits(e) == bits(Multivector.from_vec3(Vec3.basis(i)))
    assert Multivector.basis_vector(i) is e


@pytest.mark.parametrize("i", [0, 4, -1, "1", None])
def test_basis_vector_refuses_what_vec3_basis_refuses(i):
    with pytest.raises(ValueError) as mv_error:
        Multivector.basis_vector(i)
    with pytest.raises(ValueError) as vec_error:
        Vec3.basis(i)
    assert str(mv_error.value) == str(vec_error.value) == f"basis index must be 1, 2 or 3, got {i}"

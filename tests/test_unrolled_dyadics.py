"""The written-out 3x3 kernels give the floats of the comprehensions they replaced.

``dyadics`` writes transpose, sym, antisym, postfactor, prefactor,
Tensor3 ``+``/``-``/negation and dyad over nine named entries;
``ga.vector_dual`` tests its five non-bivector slots directly; and
``kinematics.report`` halves only the three bivector slots.  The
comprehension bodies they replaced are kept below verbatim as references,
and every result must match them in ``float.hex``, or raise the same error
type and message; the properties have no deadline, as a loaded host can
exceed one.  Entries include ``±0.0``, ``±inf``, ``nan``, the
smallest subnormal and the largest finite float, whose double overflows:
that is why sym's diagonal is ``(a + a) * 0.5`` and not ``a``.
"""

import itertools
import math
from operator import add, neg, sub
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbskit import Multivector, Poly, PolyField, Tensor3, Vec3, ga, grad_gibbs, kinematics
from gibbskit.dyadics import (
    _tensor,
    antisym,
    dyad,
    postfactor,
    prefactor,
    sym,
    trace,
    transpose,
)
from gibbskit.ga import _vec3, grades_present
from gibbskit.kinematics import KinematicsReport, nabla_wedge_of, report

BIG = 1.7976931348623157e308
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, BIG, -BIG]
ENTRY = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
VECS = st.tuples(ENTRY, ENTRY, ENTRY).map(lambda c: Vec3(*c))
TENSORS = st.tuples(*(st.tuples(ENTRY, ENTRY, ENTRY) for _ in range(3))).map(Tensor3)
MVS = st.tuples(*(ENTRY for _ in range(8))).map(Multivector)

HUGE_DIAGONAL = Tensor3(((BIG, 1.0, 2.0), (3.0, -BIG, 4.0), (5.0, 6.0, BIG)))
NEGATIVE_ZERO_ROW = Tensor3(((-0.0, -0.0, -0.0), (1.0, 2.0, 3.0), (-0.0, 0.0, -0.0)))
ONES = Vec3(1.0, 1.0, 1.0)


# --- references: the parent's comprehension bodies, verbatim ------------------------


def ref_add(self, other):
    return _tensor(tuple([tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))


def ref_sub(self, other):
    return _tensor(tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))


def ref_neg(self):
    return _tensor(tuple([tuple(map(neg, r)) for r in self.rows]))


def ref_dyad(a, b):
    at, bt = a.as_tuple(), b.as_tuple()
    return _tensor(tuple([tuple([ai * bj for bj in bt]) for ai in at]))


def ref_postfactor(c, t):
    c0, c1, c2 = c.as_tuple()
    return _vec3(*[0.0 + c0 * a + c1 * b + c2 * e for a, b, e in zip(*t.rows)])


def ref_prefactor(t, c):
    c0, c1, c2 = c.as_tuple()
    return _vec3(*[0.0 + a * c0 + b * c1 + e * c2 for a, b, e in t.rows])


def ref_transpose(t):
    return _tensor(tuple(zip(*t.rows)))


def ref_sym(t):
    rows = t.rows
    return _tensor(
        tuple([tuple([(a + b) * 0.5 for a, b in zip(r, c)]) for r, c in zip(rows, zip(*rows))])
    )


def ref_antisym(t):
    rows = t.rows
    return _tensor(
        tuple([tuple([(a - b) * 0.5 for a, b in zip(r, c)]) for r, c in zip(rows, zip(*rows))])
    )


def ref_vector_dual(b):
    bad = grades_present(b) - {2}
    if bad:
        raise ValueError(
            f"vector_dual needs a pure bivector, found grade(s) {sorted(bad)}"
        )
    c12, c13, c23 = b.coeffs[4], b.coeffs[5], b.coeffs[6]
    return _vec3(c23, 0.0 - c13, c12)  # 0.0 - x avoids -0.0 components


def ref_report(g, x):
    # The parent's report body, with G given and the references above.
    d = ref_sym(g)
    omega = ref_antisym(g)
    nw = nabla_wedge_of(g)
    return KinematicsReport(
        point=x,
        grad_gibbs=g,
        grad_alt=ref_transpose(g),
        d=d,
        omega=omega,
        omega_bivector=ga._mv(tuple([c * 0.5 for c in nw.coeffs])),
        vorticity=ref_vector_dual(nw),
        divergence=trace(g),
    )


# --- comparison -------------------------------------------------------------------------


def bits(value):
    """Class, container types and ``float.hex`` of every float of a value."""
    if isinstance(value, KinematicsReport):
        return [bits(getattr(value, name)) for name in value.__match_args__]
    if isinstance(value, float):
        return float, value.hex()
    if isinstance(value, Vec3):
        flat, shape = value.as_tuple(), None
    elif isinstance(value, Multivector):
        flat, shape = value.coeffs, (type(value.coeffs), len(value.coeffs))
    else:
        flat = tuple(c for r in value.rows for c in r)
        shape = (type(value.rows), tuple(type(r) for r in value.rows))
    assert all(type(c) is float for c in flat)
    return type(value), shape, [c.hex() for c in flat]


def outcome(fn, *args):
    try:
        return "value", bits(fn(*args))
    except Exception as exc:  # the type and message are what is compared
        return "raised", type(exc), str(exc)


def assert_same(fn, ref, *args):
    assert outcome(fn, *args) == outcome(ref, *args)


# --- properties -------------------------------------------------------------------------


@settings(deadline=None)
@given(TENSORS)
@example(HUGE_DIAGONAL)
@example(NEGATIVE_ZERO_ROW)
def test_one_tensor_kernels_match_the_comprehensions(t):
    for fn, ref in ((transpose, ref_transpose), (sym, ref_sym), (antisym, ref_antisym),
                    (Tensor3.__neg__, ref_neg)):
        assert_same(fn, ref, t)


@settings(deadline=None)
@given(TENSORS, TENSORS)
@example(HUGE_DIAGONAL, NEGATIVE_ZERO_ROW)
def test_tensor_sums_match_the_comprehensions(s, t):
    assert_same(Tensor3.__add__, ref_add, s, t)
    assert_same(Tensor3.__sub__, ref_sub, s, t)


@settings(deadline=None)
@given(TENSORS, VECS)
@example(NEGATIVE_ZERO_ROW, ONES)
@example(-NEGATIVE_ZERO_ROW, ONES)
@example(HUGE_DIAGONAL, Vec3(2.0, -0.0, math.nan))
def test_factors_match_the_comprehensions(t, c):
    assert_same(postfactor, ref_postfactor, c, t)
    assert_same(prefactor, ref_prefactor, t, c)


@settings(deadline=None)
@given(VECS, VECS)
@example(Vec3(-0.0, BIG, 5e-324), Vec3(math.inf, -0.0, BIG))
def test_dyad_matches_the_comprehension(a, b):
    assert_same(dyad, ref_dyad, a, b)


@settings(deadline=None)
@given(MVS)
def test_vector_dual_matches_the_grade_set_test(b):
    assert_same(ga.vector_dual, ref_vector_dual, b)


# Slots 0, 1, 2, 3 and 7 hold grades 0, 1, 1, 1 and 3; slots 4 to 6 the bivector.
@pytest.mark.parametrize("pattern", list(itertools.product((False, True), repeat=5)))
def test_vector_dual_on_every_pattern_of_non_bivector_slots(pattern):
    for zero, nonzero in itertools.product((0.0, -0.0), (math.nan, -2.5, math.inf, 5e-324)):
        rest = [nonzero if set_ else zero for set_ in pattern]
        coeffs = (*rest[:4], 1.0, -0.0, math.nan, rest[4])
        assert_same(ga.vector_dual, ref_vector_dual, Multivector(coeffs))


@settings(deadline=None)
@given(TENSORS, VECS)
@example(HUGE_DIAGONAL, Vec3(-0.0, 0.0, 1.0))
@example(NEGATIVE_ZERO_ROW, Vec3(math.nan, math.inf, -0.0))
def test_report_matches_the_parent_body(g, x):
    # report and omega_bivector read G through the name kinematics imported.
    with mock.patch.object(kinematics, "grad_gibbs", lambda f, p: g):
        assert bits(report(None, x)) == bits(ref_report(g, x))
        assert bits(kinematics.omega_bivector(None, x)) == bits(ref_report(g, x).omega_bivector)


def test_report_matches_the_parent_body_on_a_field():
    f = PolyField((Poly((((0, 1, 0), 2.0), ((1, 1, 1), -0.5))), Poly.zero(),
                   Poly((((2, 0, 0), 3.0),))))
    x = Vec3(1.5, -2.0, 0.25)
    assert bits(report(f, x)) == bits(ref_report(grad_gibbs(f, x), x))

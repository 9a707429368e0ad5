"""The Jacobian plan, the one GA product kernel and the Poly fast path.

Each new path is compared bit for bit (``float.hex``, so that ``-0.0``
and ``nan`` show) with the code it replaced, which is copied in below as
the reference: the three GA product loops, the validating ``Poly``
constructor, ``Poly.eval``, and ``G`` computed as ``partial(axis).eval(x)``
through the exponent-decrementing ``Poly.diff``.  The properties run with
no hypothesis deadline: each example also runs the pure-Python reference,
and only a bit mismatch should fail them.
"""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from gibbskit import Multivector, Poly, PolyField, Vec3, ga, grad_gibbs
from gibbskit.ga import dot, geometric_product, wedge

from helpers import rand_cubic

# --- reference implementations ------------------------------------------------------

# REF_PRODUCT[i][j] = (result slot, sign) for basis blades i, j.
REF_PRODUCT = tuple(
    tuple(
        (ga._SLOT_OF_MASK[ga._MASKS[i] ^ ga._MASKS[j]], ga._merge_sign(ga._MASKS[i], ga._MASKS[j]))
        for j in range(8)
    )
    for i in range(8)
)


def ref_geometric_product(m, n):
    out = [0.0] * 8
    for i, a in enumerate(m.coeffs):
        if a == 0.0:
            continue
        for j, b in enumerate(n.coeffs):
            if b == 0.0:
                continue
            slot, sign = REF_PRODUCT[i][j]
            out[slot] += sign * a * b
    return Multivector(tuple(out))


def _ref_graded(a, b, keep):
    out = [0.0] * 8
    for i, ca in enumerate(a.coeffs):
        if ca == 0.0:
            continue
        gi = ga._GRADES[i]
        for j, cb in enumerate(b.coeffs):
            if cb == 0.0:
                continue
            slot, sign = REF_PRODUCT[i][j]
            if keep(ga._GRADES[slot], gi, ga._GRADES[j]):
                out[slot] += sign * ca * cb
    return Multivector(tuple(out))


def ref_dot(a, b):
    return _ref_graded(a, b, lambda g, gi, gj: g == abs(gi - gj))


def ref_wedge(a, b):
    return _ref_graded(a, b, lambda g, gi, gj: g == gi + gj)


def ref_poly_terms(terms):
    """The canonical terms the validating constructor used to produce."""
    merged = {}
    for powers, coeff in terms:
        p = tuple(powers)
        if len(p) != 3 or not all(type(e) is int and e >= 0 for e in p):
            raise ValueError(f"monomial powers must be 3 non-negative ints: {powers!r}")
        merged[p] = merged.get(p, 0.0) + float(coeff)
    return tuple(sorted((p, c) for p, c in merged.items() if c != 0.0))


_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def ref_diff(terms, axis):
    ux, uy, uz = _UNIT[axis]
    out = []
    for powers, coeff in terms:
        e = powers[axis]
        if e == 0:
            continue
        px, py, pz = powers
        out.append(((px - ux, py - uy, pz - uz), coeff * e))
    return tuple(out)


def ref_eval(terms, p):
    total = 0.0
    for (px, py, pz), coeff in terms:
        total += coeff * p.x**px * p.y**py * p.z**pz
    return total


def ref_grad_gibbs(f, x):
    """Row i is partial(i).eval(x): the derivative of every component along axis i."""
    return tuple(
        tuple(ref_eval(ref_diff(c.terms, axis), x) for c in f.components) for axis in range(3)
    )


def ref_grad_at(poly, x):
    return tuple(ref_eval(ref_diff(poly.terms, axis), x) for axis in range(3))


def hexes(values):
    return [float.hex(v) for v in values]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# --- strategies -------------------------------------------------------------------

BLADE_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -2.5]),
    st.floats(width=64),
)
MULTIVECTORS = st.tuples(*(BLADE_COEFFS for _ in range(8))).map(Multivector)

DEGREE_6 = st.tuples(*(st.integers(0, 6) for _ in range(3))).filter(lambda p: sum(p) <= 6)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
POINTS = st.tuples(COORDS, COORDS, COORDS).map(lambda c: Vec3(*c))
POLYS = st.lists(st.tuples(DEGREE_6, FINITE), max_size=10).map(lambda t: Poly(tuple(t)))
FIELDS = st.tuples(POLYS, POLYS, POLYS).map(PolyField)

VALID_POWERS = st.tuples(*(st.integers(0, 4) for _ in range(3)))
POWERS = st.one_of(
    VALID_POWERS,
    VALID_POWERS.map(list),
    st.sampled_from([(1, 0), (0, 0, 0, 0), (-1, 0, 0), (0, 1.0, 0), (True, 0, 0), (0, 0, 1.5)]),
)
COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 3, "2.5", "x", None]),
    st.floats(width=64),
)


@st.composite
def raw_terms(draw):
    """Sorted, unsorted, repeated, zero and invalid monomial lists."""
    if draw(st.booleans()):
        # Already canonical: the fast path.
        return tuple(sorted(draw(st.dictionaries(VALID_POWERS, FINITE, max_size=10)).items()))
    terms = draw(st.lists(st.tuples(POWERS, COEFFS), max_size=10))
    repeats = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    repeats = [(p, draw(COEFFS)) for p, _ in repeats]
    return tuple(draw(st.permutations(terms + repeats)))


# --- one product kernel -------------------------------------------------------------


@pytest.mark.parametrize(
    "new, ref",
    [(geometric_product, ref_geometric_product), (dot, ref_dot), (wedge, ref_wedge)],
    ids=["geometric_product", "dot", "wedge"],
)
@settings(deadline=None)
@given(m=MULTIVECTORS, n=MULTIVECTORS)
def test_product_kernel_is_bit_identical(new, ref, m, n):
    assert hexes(new(m, n).coeffs) == hexes(ref(m, n).coeffs)


def test_zero_coefficient_times_infinity_is_skipped():
    inf_e1 = Multivector((0.0, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    e2 = Multivector.basis_vector(2)
    for product in (geometric_product, wedge):
        assert not any(math.isnan(c) for c in product(inf_e1, e2).coeffs)


# --- validating Poly constructor ----------------------------------------------------


@settings(deadline=None)
@given(raw_terms())
def test_poly_constructor_matches_reference(terms):
    got = outcome(lambda t: Poly(t).terms, terms)
    want = outcome(ref_poly_terms, terms)
    if got[0] == "ok" and want[0] == "ok":
        assert [p for p, _ in got[1]] == [p for p, _ in want[1]]
        assert hexes(c for _, c in got[1]) == hexes(c for _, c in want[1])
    else:
        assert got == want


def test_poly_constructor_runs_post_init_once_on_both_paths(monkeypatch):
    calls = []
    original = Poly.__dict__["__post_init__"]

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Poly, "__post_init__", counting)
    Poly((((0, 0, 1), 1.0), ((1, 0, 0), 2.0)))
    Poly((((1, 0, 0), 2.0), ((0, 0, 1), 1.0)))
    assert len(calls) == 2


# --- the Jacobian plan ----------------------------------------------------------------


@settings(deadline=None)
@given(FIELDS, POINTS)
def test_grad_gibbs_is_bit_identical(f, x):
    got = grad_gibbs(f, x).rows
    want = ref_grad_gibbs(f, x)
    assert [hexes(r) for r in got] == [hexes(r) for r in want]


@settings(deadline=None)
@given(POLYS, POINTS)
def test_grad_at_is_bit_identical(poly, x):
    assert hexes(poly.grad_at(x).as_tuple()) == hexes(ref_grad_at(poly, x))


@settings(deadline=None)
@given(FIELDS, POINTS)
def test_eval_is_bit_identical(f, x):
    want = hexes(ref_eval(c.terms, x) for c in f.components)
    assert hexes(c.eval(x) for c in f.components) == want
    assert hexes(f.eval(x).as_tuple()) == want


def test_unused_power_is_never_computed():
    # v = (x^5, 0, 0): G only needs x^4, and 1e70**5 overflows.
    with pytest.raises(OverflowError):
        1e70**5
    x5 = Poly((((5, 0, 0), 1.0),))
    f = PolyField((x5, Poly.zero(), Poly.zero()))
    x = Vec3(1e70, 0.0, 0.0)
    assert grad_gibbs(f, x).rows == ref_grad_gibbs(f, x)
    assert grad_gibbs(f, x).rows[0][0] == 5.0 * 1e70**4
    assert x5.grad_at(x).as_tuple() == ref_grad_at(x5, x) == (5.0 * 1e70**4, 0.0, 0.0)
    # Evaluating v itself needs x^5, so it overflows as the reference does.
    with pytest.raises(OverflowError):
        ref_eval(x5.terms, x)
    with pytest.raises(OverflowError):
        f.eval(x)
    # A power table covers all three components but no higher power than
    # one of them uses.
    g = PolyField((Poly((((1, 0, 0), 1.0),)), Poly((((0, 4, 0), 1.0),)), Poly.zero()))
    assert g.eval(x).as_tuple() == (1e70, 0.0, 0.0)


def test_plan_is_memoized_and_matches_diff():
    f = rand_cubic(random.Random(21))
    for i in range(3):
        assert f.partial(i) is f.partial(i)
        for j in range(3):
            assert f.partial(i).components[j].terms == f.components[j].diff(i).terms
    assert f._grad_top == (2, 2, 2)


def test_plan_leaves_equality_hash_and_repr_unchanged():
    f = rand_cubic(random.Random(22))
    g = PolyField(tuple(Poly(c.terms) for c in f.components))
    before = hash(f), repr(f)
    grad_gibbs(f, Vec3(0.5, -1.0, 2.0))
    assert (hash(f), repr(f)) == before == (hash(g), repr(g))
    assert f == g and g == f


def test_gradients_build_no_poly_and_call_no_diff(monkeypatch):
    f = rand_cubic(random.Random(23))
    built, diffs = [], []
    post_init, diff = Poly.__dict__["__post_init__"], Poly.__dict__["diff"]
    monkeypatch.setattr(Poly, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(Poly, "diff", lambda self, axis: diffs.append(1) or diff(self, axis))
    x = Vec3(0.25, 0.5, -0.75)
    grad_gibbs(f, x)
    f.components[0].grad_at(x)
    assert built == [] and diffs == []


def test_concurrent_first_use_gives_identical_gradients():
    # More threads than cores race to fill the plans of the same fresh
    # fields; every gradient must equal the reference.
    rng = random.Random(24)
    pool = [rand_cubic(rng) for _ in range(40)]
    x = Vec3(0.3, -1.2, 0.7)
    want = [ref_grad_gibbs(f, x) for f in pool]
    seen = []
    barrier = threading.Barrier(8, timeout=10)

    def worker(k):
        barrier.wait()
        seen.append([(i, grad_gibbs(pool[i], x).rows) for i in ((j + k) % 40 for j in range(40))])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    for got in seen:
        for i, rows in got:
            assert rows == want[i]

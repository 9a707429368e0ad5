"""Each polynomial field is differentiated once and each call builds one G.

The partial fields of a PolyField live in a write-once memo, Poly.diff
returns canonical terms without going through the validating
constructor, and report, strain_split and EvalContext each compute the
gradient G once and derive every other quantity from it.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from gibbskit import BlackBoxField, EvalContext, Poly, PolyField, Vec3, evaluate, parse
from gibbskit import fields, kinematics, notation
from gibbskit.kinematics import report, strain_split

from helpers import rand_cubic


def decremented(terms, axis):
    """Raw derivative terms: lower exponent ``axis`` by one, scale by it."""
    out = []
    for powers, coeff in terms:
        e = powers[axis]
        if e:
            reduced = tuple(pe - 1 if k == axis else pe for k, pe in enumerate(powers))
            out.append((reduced, coeff * e))
    return tuple(out)


def validated_partial(f, axis):
    return PolyField(tuple(Poly(decremented(c.terms, axis)) for c in f.components))


# --- the memo -------------------------------------------------------------------


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_partial_is_computed_once(axis):
    f = rand_cubic(random.Random(axis))
    assert f.partial(axis) is f.partial(axis)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_partial_equals_validated_construction(axis):
    f = rand_cubic(random.Random(10 + axis))
    assert f.partial(axis) == validated_partial(f, axis)


def test_second_partials_are_memoized_too():
    f = rand_cubic(random.Random(3))
    assert f.partial(0).partial(1) is f.partial(0).partial(1)
    assert f.partial(0).partial(1) == validated_partial(validated_partial(f, 0), 1)


def test_memo_leaves_equality_and_hash_unchanged():
    f = rand_cubic(random.Random(4))
    g = PolyField(tuple(Poly(c.terms) for c in f.components))
    before = hash(f)
    assert f == g and hash(f) == hash(g)
    f.partial(2)
    assert hash(f) == before == hash(g)
    assert f == g and g == f
    assert {f: "memo filled"}[g] == "memo filled"
    assert repr(f) == repr(g)


def test_concurrent_first_use_gives_equal_partials():
    # More threads than cores race to fill the memos of the same fresh
    # fields; whichever copy a thread sees must equal the validated one.
    rng = random.Random(11)
    pool = [rand_cubic(rng) for _ in range(40)]
    want = [[validated_partial(f, axis) for axis in range(3)] for f in pool]
    seen = []
    barrier = threading.Barrier(8, timeout=10)

    def worker(k):
        barrier.wait()
        got = []
        for i in range(len(pool)):
            f = pool[(i + k) % len(pool)]
            got.append((f, [f.partial(axis) for axis in range(3)]))
        seen.append(got)

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
    index = {id(f): i for i, f in enumerate(pool)}
    for got in seen:
        for f, partials in got:
            assert partials == want[index[id(f)]]
    for i, f in enumerate(pool):
        assert [f.partial(axis) for axis in range(3)] == want[i]


def test_partial_rejects_bad_axis_before_the_memo():
    f = rand_cubic(random.Random(5))
    for axis in (3, -1, True, 1.0):
        with pytest.raises(ValueError):
            f.partial(axis)


# --- canonical Poly.diff ----------------------------------------------------------

POWERS = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(3)))
COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def raw_terms(draw):
    """Monomial lists with repeated exponent triples and zero coefficients."""
    terms = draw(st.lists(st.tuples(POWERS, COEFFS), max_size=12))
    repeats = draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    repeats = [(p, draw(COEFFS)) for p, _ in repeats]
    zeros = [(p, 0.0) for p in draw(st.lists(POWERS, max_size=3))]
    order = draw(st.permutations(terms + repeats + zeros))
    return tuple(order)


@settings(deadline=None)
@given(raw_terms(), st.sampled_from([0, 1, 2]))
def test_diff_is_canonical(terms, axis):
    p = Poly(terms)
    got = p.diff(axis)
    assert got.terms == Poly(decremented(p.terms, axis)).terms
    assert got == Poly(decremented(p.terms, axis))


def test_diff_skips_the_validating_constructor(monkeypatch):
    p = Poly((((2, 1, 0), 3.0), ((0, 0, 1), 1.0), ((1, 0, 0), -2.0)))
    built = []
    original = Poly.__post_init__
    monkeypatch.setattr(Poly, "__post_init__", lambda self: built.append(original(self)))
    assert p.diff(0).terms == (((0, 0, 0), -2.0), ((1, 1, 0), 6.0))
    assert built == []


# --- one G per call -----------------------------------------------------------------


@pytest.fixture
def grad_calls(monkeypatch):
    calls = []
    original = fields.grad_gibbs

    def counting(f, x):
        calls.append(x)
        return original(f, x)

    for module in (fields, kinematics, notation):
        monkeypatch.setattr(module, "grad_gibbs", counting)
    return calls


def test_report_computes_g_once(grad_calls):
    report(rand_cubic(random.Random(6)), Vec3(0.5, -1.0, 2.0))
    assert len(grad_calls) == 1


def test_strain_split_computes_g_once(grad_calls):
    strain_split(rand_cubic(random.Random(7)), Vec3(0.5, -1.0, 2.0), Vec3(1.0, 0.0, -1.0))
    assert len(grad_calls) == 1


def test_eval_context_computes_g_once(grad_calls):
    f = rand_cubic(random.Random(8))
    ctx = EvalContext(f, Vec3(0.5, -1.0, 2.0), {"c": Vec3(1.0, 2.0, 3.0)})
    for src in ("∇⊗v", "(∇⊗v)†", "∇·v", "∇∧v", "∇×v", "d", "Ω", "Omega", "∇(c · v)"):
        evaluate(parse(src), ctx)
    assert len(grad_calls) == 1


def test_perturbed_contexts_get_their_own_g(grad_calls):
    # On a black box, ∇(c · (d · c)) takes central differences; each of the
    # 6 perturbed contexts needs the gradient at its own point, plus the one
    # at the centre.
    f = BlackBoxField(rand_cubic(random.Random(9)).eval)
    ctx = EvalContext(f, Vec3(0.5, -1.0, 2.0), {"c": Vec3(1.0, 2.0, 3.0)})
    evaluate(parse("∇(c · (d · c))"), ctx)
    assert len(grad_calls) == 7
    assert len(set(grad_calls)) == 7


def test_a_polynomial_gradient_reads_g_and_the_three_hessian_slices(grad_calls):
    # On a PolyField, the partials of d are sym of grad_gibbs of each
    # partial field, all at the one point: no perturbed context.
    f = rand_cubic(random.Random(9))
    x = Vec3(0.5, -1.0, 2.0)
    evaluate(parse("∇(c · (d · c))"), EvalContext(f, x, {"c": Vec3(1.0, 2.0, 3.0)}))
    assert grad_calls == [x] * 4

"""grad_gibbs keeps the last point and its G on each PolyField.

A call with the very Vec3 object that was kept returns the kept G; any
other point is differentiated and replaces it.  Every G must therefore be
bit-equal to the one a fresh field computes, whatever order the points
come in and whichever threads ask.
"""

import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from gibbskit import BlackBoxField, Poly, PolyField, Vec3, grad_gibbs
from gibbskit import checks, fields

from helpers import rand_cubic


def bits(t):
    return [c.hex() for row in t.rows for c in row]


def fresh_g(f, x):
    return grad_gibbs(PolyField(f.components), x)


COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
POINT = st.builds(Vec3, COORD, COORD, COORD)


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(POINT, min_size=1, max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=10),
)
def test_memo_gives_the_fresh_g_in_any_call_order(seed, points, order):
    f = rand_cubic(random.Random(seed))
    # Equal to the first point but a different object, with every zero
    # coordinate of the opposite sign.
    twin = Vec3(*[-c if c == 0.0 else c for c in points[0].as_tuple()])
    points = points + [twin]
    last = None
    for k in order:
        x = points[k % len(points)]
        g = grad_gibbs(f, x)
        assert bits(g) == bits(fresh_g(f, x))
        if last is not None and last[0] is x:
            assert g is last[1]
        last = (x, g)
    x, g = last
    assert grad_gibbs(f, x) is g


def test_changed_duck_typed_point_gets_a_fresh_g():
    class Point:
        def __init__(self, x, y, z):
            self.x, self.y, self.z = x, y, z

    f = rand_cubic(random.Random(1))
    p = Point(0.5, -1.0, 2.0)
    before = grad_gibbs(f, p)
    assert before == fresh_g(f, Vec3(0.5, -1.0, 2.0))
    p.x = -1.5
    after = grad_gibbs(f, p)
    assert bits(after) == bits(fresh_g(f, Vec3(-1.5, -1.0, 2.0)))
    assert after != before


def test_black_box_field_is_differentiated_on_every_call():
    calls = []

    def evaluator(p):
        calls.append(p)
        return Vec3(p.x * p.y, p.y * p.z, p.z * p.x)

    f = BlackBoxField(evaluator)
    x = Vec3(0.5, -1.0, 2.0)
    first = grad_gibbs(f, x)
    assert len(calls) == 6
    assert grad_gibbs(f, x) == first
    assert len(calls) == 12
    assert "_last_grad" not in f.__dict__


def test_memo_leaves_equality_hash_and_repr_unchanged():
    f = rand_cubic(random.Random(2))
    g = PolyField(f.components)
    grad_gibbs(f, Vec3(1.0, 2.0, 3.0))
    assert "_last_grad" in f.__dict__ and "_last_grad" not in g.__dict__
    assert f == g and g == f
    assert hash(f) == hash(g)
    assert repr(f) == repr(g)
    assert {g: "kept"}[f] == "kept"


def test_threads_sharing_a_field_get_the_fresh_g():
    # Four threads alternate two points on one field, so each call may find
    # the other thread's entry; every G must still be the fresh one.
    f = rand_cubic(random.Random(3))
    points = [Vec3(0.5, -1.0, 2.0), Vec3(-1.5, 0.25, -0.0)]
    want = [bits(fresh_g(f, x)) for x in points]
    seen = []
    barrier = threading.Barrier(4, timeout=10)

    def worker(k):
        barrier.wait()
        got = []
        for i in range(400):
            j = (i + k) % 2
            got.append((j, bits(grad_gibbs(f, points[j]))))
        seen.append(got)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 4
    for got in seen:
        assert len(got) == 400
        for j, g in got:
            assert g == want[j]


# --- the partials-top memo on Poly ----------------------------------------------


def test_random_cubic_fields_carry_the_template_top():
    rng = random.Random(4)
    for _ in range(20):
        f = checks._rand_cubic(rng)
        for c in f.components:
            assert c._top == fields._partials_top(c.terms)
        tops = [fields._partials_top(c.terms) for c in f.components]
        assert f._grad_top == tuple(map(max, *tops))


def test_dropped_zero_coefficient_recomputes_the_top():
    template = Poly((((0, 1, 0), 1.0), ((3, 0, 0), 1.0)))
    assert template._top == (2, 0, 0)
    kept = template._with_coeffs([2.0, -1.0])
    dropped = template._with_coeffs([2.0, 0.0])
    assert kept._top == (2, 0, 0)
    assert dropped.terms == (((0, 1, 0), 2.0),)
    assert dropped._top == fields._partials_top(dropped.terms) == (0, 0, 0)

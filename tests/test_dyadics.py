import math
import random

import pytest
from hypothesis import given, strategies as st

from gibbskit import (
    Tensor3,
    Vec3,
    antisym,
    dyad,
    nonion_basis,
    postfactor,
    prefactor,
    sym,
    transpose,
)
from gibbskit.dyadics import identity, max_abs, render_matrix, trace

from helpers import rand_tensor, rand_vec, tensor_close, vec_close

E1, E2, E3 = Vec3.basis(1), Vec3.basis(2), Vec3.basis(3)

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_dyad_basis_example():
    assert dyad(E1, E2).rows == ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_dyad_column_example():
    t = dyad(Vec3(1, 2, 3), E1)
    assert t.rows == ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0))


def test_dyad_entry_formula():
    # Entry (i, j) is a_i b_j throughout, including (2, 3) = a2 b3.
    a, b = Vec3(2.0, 5.0, -1.0), Vec3(4.0, 0.5, 3.0)
    t = dyad(a, b)
    assert t.entry(2, 3) == 5.0 * 3.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert t.entry(i, j) == a.as_tuple()[i - 1] * b.as_tuple()[j - 1]


@given(st.data())
def test_dyad_conjugate(data):
    a = Vec3(data.draw(coords), data.draw(coords), data.draw(coords))
    b = Vec3(data.draw(coords), data.draw(coords), data.draw(coords))
    assert (dyad(a, b) - transpose(dyad(b, a))).rows == Tensor3.zero().rows


def test_postfactor_prefactor_examples():
    t = dyad(E1, E2)
    assert postfactor(E1, t).as_tuple() == (0.0, 1.0, 0.0)
    assert prefactor(t, E1).as_tuple() == (0.0, 0.0, 0.0)


def test_factor_entries_add_left_to_right_from_zero():
    # Each entry is 0.0 + p0 + p1 + p2 on every Python.  The compensated
    # builtin sum of 3.12 and later gives 1.0 for the cancelling column.
    ones = Vec3(1, 1, 1)
    t = Tensor3(((1e16, 0, 0), (1, 0, 0), (-1e16, 0, 0)))
    assert postfactor(ones, t).x == 0.0
    assert prefactor(transpose(t), ones).x == 0.0
    # Products that are all -0.0 start from 0.0 and so give +0.0.
    negative_zeros = Tensor3(((-0.0,) * 3,) * 3)
    for v in (postfactor(ones, negative_zeros), prefactor(negative_zeros, ones)):
        assert [math.copysign(1.0, c) for c in v.as_tuple()] == [1.0, 1.0, 1.0]


def test_factor_sides_differ_witness():
    # There is no bare "multiply": the two factor positions genuinely
    # disagree on an asymmetric dyad.
    t = dyad(E1, E2)
    assert postfactor(E1, t).as_tuple() != prefactor(t, E1).as_tuple()


def test_dyad_contraction_laws():
    rng = random.Random(23)
    for _ in range(1000):
        a, b, c = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        t = dyad(a, b)
        assert vec_close(postfactor(c, t), c.dot(a) * b, 1e-14)
        assert vec_close(prefactor(t, c), b.dot(c) * a, 1e-14)


def test_transpose_identity_bulk():
    rng = random.Random(29)
    for _ in range(1000):
        c, t = rand_vec(rng), rand_tensor(rng)
        assert vec_close(postfactor(c, t), prefactor(transpose(t), c), 1e-14)


def test_transpose_involution_and_identity():
    rng = random.Random(31)
    assert transpose(identity()).rows == identity().rows
    for _ in range(50):
        t = rand_tensor(rng)
        assert transpose(transpose(t)).rows == t.rows


def test_sym_antisym():
    rng = random.Random(37)
    for _ in range(200):
        t = rand_tensor(rng)
        s, a = sym(t), antisym(t)
        assert s.rows == transpose(s).rows
        assert a.rows == transpose(-a).rows
        assert tensor_close(s + a, t, 1e-15)
    s = sym(identity())
    assert s.rows == identity().rows
    half = antisym(dyad(E1, E2))
    assert tensor_close(half, 0.5 * (dyad(E1, E2) - dyad(E2, E1)), 1e-16)


def test_nonion_basis():
    assert nonion_basis(1, 1).rows == ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert nonion_basis(1, 2).rows == dyad(E1, E2).rows
    for bad in ((0, 1), (1, 4), (-1, 2)):
        with pytest.raises(ValueError):
            nonion_basis(*bad)


def test_nonion_completeness():
    rng = random.Random(41)
    for _ in range(200):
        t = rand_tensor(rng)
        rebuilt = Tensor3.zero()
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                rebuilt = rebuilt + t.entry(i, j) * nonion_basis(i, j)
        assert rebuilt.rows == t.rows


def test_trace_and_max_abs():
    t = Tensor3(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, -9.0)))
    assert trace(t) == -3.0
    assert max_abs(t) == 9.0
    # The builtin max keeps a nan only in first place.
    nan_late = Tensor3(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, math.nan)))
    assert math.isnan(max_abs(nan_late))
    assert max_abs(Tensor3(((1.0, -math.inf, 3.0),) * 3)) == math.inf


def test_render_matrix_shape():
    text = render_matrix(identity())
    lines = text.splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 3 for line in lines)


def test_json_rendering_row_major():
    t = Tensor3(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)))
    assert t.to_lists() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]

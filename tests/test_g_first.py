"""Kinematics is G-first: every quantity is a function of the gradient G.

The ``*_of`` forms in ``kinematics`` (with ``sym``, ``antisym``, ``trace``,
``postfactor``, ``prefactor`` and ``transpose`` from ``dyadics``) take G;
the functions taking a field and a point compute G once and wrap them, bit
for bit.  The invariant suite and the notation evaluator derive every
quantity from a G already in hand instead of differentiating again.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gibbskit import Poly, PolyField, Vec3, checks, fields, ga, kinematics as kin, notation
from gibbskit.dyadics import antisym, postfactor, prefactor, sym, transpose

# --- each (f, x) function equals its G form, bit for bit ---------------------------

POWERS = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(3))).filter(
    lambda p: sum(p) <= 4
)
COEFFS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
COORDS = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
VECS = st.builds(Vec3, COORDS, COORDS, COORDS)
FIELDS = st.builds(
    lambda comps: PolyField(tuple(Poly(tuple(c)) for c in comps)),
    st.lists(st.lists(st.tuples(POWERS, COEFFS), max_size=8), min_size=3, max_size=3),
)


def bits(value):
    """float.hex of every number in a value, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, Vec3):
        return bits(value.as_tuple())
    if isinstance(value, ga.Multivector):
        return bits(value.coeffs)
    return bits(value.rows)


@settings(deadline=None)
@given(FIELDS, VECS, VECS)
def test_field_forms_wrap_the_g_forms(f, x, dx):
    g = fields.grad_gibbs(f, x)
    pairs = (
        (kin.decompose(f, x), (sym(g), antisym(g))),
        (kin.dv_postfactor(f, x, dx), postfactor(dx, g)),
        (kin.dv_prefactor(f, x, dx), prefactor(transpose(g), dx)),
        (kin.nabla_wedge(f, x), kin.nabla_wedge_of(g)),
        (kin.omega_bivector(f, x), 0.5 * kin.nabla_wedge_of(g)),
        (kin.vorticity(f, x), ga.vector_dual(kin.nabla_wedge_of(g))),
        (kin.strain_split(f, x, dx), kin.strain_split_of(g, dx)),
        (kin.bidi_forward(f, x, dx), kin.bidi_forward_of(g, dx)),
        (kin.bidi_reverse(f, x, dx), kin.bidi_reverse_of(g, dx)),
    )
    for got, want in pairs:
        assert bits(got) == bits(want)


# --- the invariant suite differentiates once per case -----------------------------


@pytest.fixture
def grad_calls(monkeypatch):
    calls = []
    original = fields.grad_gibbs

    def counting(f, x):
        calls.append(x)
        return original(f, x)

    for module in (fields, kin, notation, checks):
        monkeypatch.setattr(module, "grad_gibbs", counting)
    return calls


ONE_G_PER_CASE = (
    "_check_decomposition",
    "_check_omega_vs_bivector",
    "_check_strain_split",
    "_check_symmetric_split",
    "_check_antisymmetric_split",
    "_check_vector_calculus_forms",
    "_check_report_consistency",
    "_check_incompressible_bidi",
)


@pytest.mark.parametrize("name", ONE_G_PER_CASE)
def test_check_computes_g_once_per_case(grad_calls, name):
    passed, cases, _ = getattr(checks, name)(random.Random(1))
    assert passed
    assert len(grad_calls) == cases


def test_convention_duality_computes_g_twice_per_case(grad_calls):
    # It compares grad_alt itself against transpose(grad_gibbs).
    passed, cases, _ = checks._check_convention_duality(random.Random(1))
    assert passed
    assert len(grad_calls) == 2 * cases


def test_notation_golden_computes_g_at_most_twice_per_case(grad_calls):
    # One G for the evaluation context, one for the library side.
    passed, cases, _ = checks._check_notation_golden(random.Random(1))
    assert passed
    assert len(grad_calls) <= 2 * cases


# --- notation uses kinematics' public G forms only ----------------------------------


def test_notation_imports_no_private_kinematics_name():
    tree = ast.parse(Path(notation.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("kinematics", "gibbskit.kinematics")
        for alias in node.names
    ]
    assert imported == ["nabla_wedge_of"]
    assert not any(name.startswith("_") for name in imported)

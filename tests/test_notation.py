import random

import pytest

from gibbskit import (
    BindingError,
    EvalContext,
    EvalError,
    LexError,
    NotationError,
    ParseError,
    Tensor3,
    Vec3,
    audit_convention,
    decompose,
    divergence,
    dv_postfactor,
    dv_prefactor,
    evaluate,
    grad_alt,
    grad_gibbs,
    nabla_wedge,
    parse,
    postfactor,
    render,
    tokenize,
    transpose,
    vorticity,
)
from gibbskit.notation import Binary, Nabla, ScalarLit, Unary, VectorRef, parse_tokens

from helpers import radial_field, rand_cubic, rand_vec, shear_field, vec_close

ORIGIN = Vec3(0.0, 0.0, 0.0)


def ctx_for(field, point=ORIGIN, **binds):
    return EvalContext(field, point, binds)


# --- lexer --------------------------------------------------------------------


def test_tokenize_ascii_alias_example():
    toks = tokenize("dr . (grad (x) v)'")
    kinds = [t.kind for t in toks[:-1]]
    assert kinds == ["ident", "dot", "lparen", "nabla", "dyad", "ident", "rparen", "transpose"]
    assert len(kinds) == 8


def test_tokenize_unicode():
    toks = tokenize("∇⊗v")
    assert [t.kind for t in toks[:-1]] == ["nabla", "dyad", "ident"]


def test_tokenize_byte_offsets():
    toks = tokenize("∇ · v")
    # nabla is 3 bytes in UTF-8, then a space.
    assert toks[0].pos == 0
    assert toks[1].pos == 4
    with pytest.raises(LexError) as err:
        tokenize("@")
    assert err.value.pos == 0
    with pytest.raises(LexError) as err:
        tokenize("∇ @")
    assert err.value.pos == 4


def test_tokenize_numbers():
    toks = tokenize("2 0.5 1e-3 3E+2")
    assert [t.kind for t in toks[:-1]] == ["number"] * 4
    assert [t.text for t in toks[:-1]] == ["2", "0.5", "1e-3", "3E+2"]


def test_tokenize_is_whitespace_insensitive():
    a = [(t.kind, t.text) for t in tokenize("dr·(∇⊗v)")]
    b = [(t.kind, t.text) for t in tokenize("  dr · ( ∇ ⊗ v ) ")]
    assert a == b


# --- parser -------------------------------------------------------------------


def test_parse_structures():
    assert parse("dr · (∇⊗v)") == Binary("dot", VectorRef("dr"), Binary("dyad", Nabla(), VectorRef("v")))
    assert parse("(∇⊗v)† · dr") == Binary(
        "dot",
        Unary("transpose", Binary("dyad", Nabla(), VectorRef("v"))),
        VectorRef("dr"),
    )
    assert parse("-2 * v") == Unary("neg", Binary("star", ScalarLit(2.0), VectorRef("v")))


def test_parse_mixed_products_rejected():
    with pytest.raises(ParseError) as err:
        parse("dr · ∇⊗v")
    assert "·" in str(err.value) and "⊗" in str(err.value)
    assert err.value.pos > 0
    with pytest.raises(ParseError):
        parse("a ⊗ b ∧ c")
    with pytest.raises(ParseError):
        parse("a × b · c")
    # Same operator chained is fine.
    parse("a · b · c")
    parse("a ⊗ b")


def test_parse_errors_positioned():
    for bad in ("(dr · v", "dr ·", "† v", "v †† ·", ")", ""):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert isinstance(err.value.pos, int) and err.value.pos >= 0


def test_parse_nabla_position_rules():
    parse("∇⊗v")
    parse("∇ · v")
    parse("∇(dr · v)")
    for bad in ("v ⊗ ∇", "∇", "∇ + v", "-∇", "v · ∇"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_tokens_entry_point():
    assert parse_tokens(tokenize("∇ · v")) == parse("∇ · v")


def test_render_round_trip():
    sources = [
        "dr · (∇⊗v)",
        "(∇⊗v)† · dr",
        "dr . (grad (x) v)'",
        "∇ · v",
        "∇ ∧ v",
        "∇ × v",
        "dr · (d)",
        "2 * (dr · (d)) + dr",
        "-(dr + v)",
        "∇(dr · v)",
        "a ⊗ b",
        "v††",
    ]
    for src in sources:
        ast = parse(src)
        assert parse(render(ast)) == ast


# --- evaluator ----------------------------------------------------------------


def test_evaluate_shear_example():
    f = shear_field(1.0)
    ctx = ctx_for(f, Vec3(0.3, 0.9, -0.2), dr=Vec3(0, 1, 0))
    got = evaluate(parse("dr · (∇⊗v)"), ctx)
    assert got.as_tuple() == (1.0, 0.0, 0.0)


def test_evaluate_prefactor_equals_postfactor():
    rng = random.Random(3)
    for _ in range(200):
        f = rand_cubic(rng)
        ctx = ctx_for(f, rand_vec(rng), dr=rand_vec(rng))
        a = evaluate(parse("dr · (∇⊗v)"), ctx)
        b = evaluate(parse("(∇⊗v)† · dr"), ctx)
        assert a.as_tuple() == b.as_tuple()


def test_evaluate_divergence_and_curl():
    f = radial_field()
    ctx = ctx_for(f, Vec3(2.0, -1.0, 0.5))
    assert evaluate(parse("∇ · v"), ctx) == 3.0
    assert evaluate(parse("∇ × v"), ctx).as_tuple() == (0.0, 0.0, 0.0)


def test_evaluate_matches_library_paths():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_cubic(rng)
        x, dr = rand_vec(rng), rand_vec(rng)
        ctx = ctx_for(f, x, dr=dr)
        d, omega = decompose(f, x)
        cases = {
            "dr · (∇⊗v)": dv_postfactor(f, x, dr).as_tuple(),
            "(∇⊗v)† · dr": dv_prefactor(f, x, dr).as_tuple(),
            "dr · (d)": postfactor(dr, d).as_tuple(),
            "dr · (Ω)": postfactor(dr, omega).as_tuple(),
            "dr · (Omega)": postfactor(dr, omega).as_tuple(),
        }
        for src, want in cases.items():
            assert evaluate(parse(src), ctx).as_tuple() == want
        assert evaluate(parse("∇ · v"), ctx) == divergence(f, x)
        assert evaluate(parse("∇ ∧ v"), ctx).coeffs == nabla_wedge(f, x).coeffs
        assert evaluate(parse("∇ × v"), ctx).as_tuple() == vorticity(f, x).as_tuple()
        assert evaluate(parse("(∇⊗v)†"), ctx).rows == grad_alt(f, x).rows


def test_expression_transpose_law():
    rng = random.Random(7)
    for _ in range(100):
        f = rand_cubic(rng)
        ctx = ctx_for(f, rand_vec(rng), c=rand_vec(rng))
        for t in ("∇⊗v", "(∇⊗v)†", "d", "Ω"):
            lhs = evaluate(parse(f"c · ({t})"), ctx)
            rhs = evaluate(parse(f"({t})† · c"), ctx)
            assert lhs.as_tuple() == rhs.as_tuple()


def test_gradient_apply_exact_chain_rule():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_cubic(rng)
        x, dr = rand_vec(rng), rand_vec(rng)
        ctx = ctx_for(f, x, dr=dr)
        got = evaluate(parse("∇(dr · v)"), ctx)
        # The chain rule evaluates nine gradient entries separately; the
        # merged scalar polynomial sums in another order, so compare to
        # rounding rather than bitwise.
        want = f.dotted(dr).grad_at(x)
        assert vec_close(got, want, 1e-13)


def test_gradient_apply_numeric_fallback():
    f = radial_field()
    ctx = ctx_for(f, Vec3(1.0, 2.0, -1.0))
    # v . v = x^2 + y^2 + z^2, gradient (2x, 2y, 2z); evaluated by central
    # differences since the operand is not a simple constant-dot-field.
    got = evaluate(parse("∇(v · v)"), ctx)
    assert vec_close(got, Vec3(2.0, 4.0, -2.0), 1e-9)


def test_evaluate_arithmetic_and_scaling():
    f = shear_field(2.0)
    ctx = ctx_for(f, ORIGIN, a=Vec3(1, 0, 0), b=Vec3(0, 1, 0))
    assert evaluate(parse("a + b"), ctx).as_tuple() == (1.0, 1.0, 0.0)
    assert evaluate(parse("a - b"), ctx).as_tuple() == (1.0, -1.0, 0.0)
    assert evaluate(parse("3 * a"), ctx).as_tuple() == (3.0, 0.0, 0.0)
    assert evaluate(parse("a * 3"), ctx).as_tuple() == (3.0, 0.0, 0.0)
    assert evaluate(parse("-a"), ctx).as_tuple() == (-1.0, 0.0, 0.0)
    assert evaluate(parse("a · b"), ctx) == 0.0
    assert evaluate(parse("a × b"), ctx).as_tuple() == (0.0, 0.0, 1.0)
    t = evaluate(parse("a ⊗ b"), ctx)
    assert isinstance(t, Tensor3) and t.entry(1, 2) == 1.0
    wedge_ab = evaluate(parse("a ∧ b"), ctx)
    assert wedge_ab.coeffs[4] == 1.0


def test_evaluate_kind_errors():
    f = shear_field(1.0)
    ctx = ctx_for(f, ORIGIN, a=Vec3(1, 0, 0))
    for bad in ("a†", "(∇ · v)†", "a ⊗ (∇ · v)", "a + (∇ · v)", "a * a", "(d) · (d)", "∇ ⊗ a", "∇(v)"):
        with pytest.raises(EvalError):
            evaluate(parse(bad), ctx)


def test_evaluate_unbound_name():
    f = shear_field(1.0)
    with pytest.raises(BindingError) as err:
        evaluate(parse("dr · (∇⊗v)"), ctx_for(f))
    assert "dr" in str(err.value)


def test_binding_can_shadow_derived_name():
    f = shear_field(1.0)
    ctx = ctx_for(f, ORIGIN, d=Vec3(9, 0, 0))
    assert evaluate(parse("d"), ctx).as_tuple() == (9.0, 0.0, 0.0)


def test_errors_are_notation_errors():
    assert issubclass(LexError, NotationError)
    assert issubclass(ParseError, NotationError)
    assert issubclass(EvalError, NotationError)
    assert issubclass(BindingError, EvalError)


# --- convention audit -----------------------------------------------------------


def test_audit_convention_verdicts():
    f = shear_field(1.0)
    x = Vec3(0.1, 0.2, 0.3)
    g = grad_gibbs(f, x)
    assert audit_convention(g, f, x).verdict == "gibbs"
    assert audit_convention(transpose(g), f, x).verdict == "alternative"
    radial = radial_field()
    anything = grad_gibbs(radial, x)
    assert audit_convention(anything, radial, x).verdict == "symmetric-ambiguous"
    scrambled = Tensor3(((7.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert audit_convention(scrambled, f, x).verdict == "neither"


def test_audit_result_json_shape():
    f = shear_field(1.0)
    x = ORIGIN
    res = audit_convention(grad_gibbs(f, x), f, x)
    obj = res.to_dict()
    assert list(obj) == ["verdict", "max_abs_deviation_gibbs", "max_abs_deviation_alt"]
    assert obj["verdict"] == "gibbs"
    assert obj["max_abs_deviation_gibbs"] == 0.0
    assert obj["max_abs_deviation_alt"] == 1.0


def test_audit_tolerance_is_relative():
    f = shear_field(1.0)
    x = ORIGIN
    g = grad_gibbs(f, x)
    nudged = g + Tensor3(((1e-12, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert audit_convention(nudged, f, x).verdict == "gibbs"


@pytest.mark.parametrize(
    "src, pos", [("1e999 * v", 0), ("v + 2E+400 * v", 4), ("∇ · (9e9999 * v)", 8)]
)
def test_non_finite_literal_is_a_lex_error(src, pos):
    with pytest.raises(LexError) as err:
        tokenize(src)
    assert err.value.pos == pos
    with pytest.raises(LexError):
        parse(src)


@pytest.mark.parametrize("src", ["1e308 * v", "1.7976931348623157e308 * dr", "1e-999 * v"])
def test_large_finite_literal_round_trips(src):
    tree = parse(src)
    assert parse(render(tree)) == tree

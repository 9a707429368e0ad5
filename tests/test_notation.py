import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

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
from gibbskit import notation
from gibbskit.notation import Binary, Nabla, ScalarLit, Token, Unary, VectorRef, parse_tokens
# What the reference parser below reads from the module.
from gibbskit.notation import (
    _ADDITIVE_OPS, _PRODUCT_OPS, APPLY, EOF, IDENT, LPAREN, MAX_DEPTH, MINUS, NABLA, NUMBER,
    OP_SYMBOL, RPAREN, TRANSPOSE, Expr,
)

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


def reference_tokenize(src):
    """The character-cursor lexer that the token pattern replaced."""
    tokens = []
    i = 0
    byte_pos = 0
    n = len(src)

    def advance(count):
        nonlocal i, byte_pos
        byte_pos += len(src[i : i + count].encode("utf-8"))
        i += count

    while i < n:
        c = src[i]
        if c.isspace():
            advance(1)
            continue
        start = byte_pos
        if src.startswith("(x)", i):
            tokens.append(Token("dyad", "(x)", start))
            advance(3)
            continue
        if c in notation._SYMBOL_KINDS:
            tokens.append(Token(notation._SYMBOL_KINDS[c], c, start))
            advance(1)
            continue
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            if j < n and src[j] == "." and j + 1 < n and src[j + 1].isdecimal():
                j += 1
                while j < n and src[j].isdecimal():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdecimal():
                    j = k
                    while j < n and src[j].isdecimal():
                        j += 1
            text = src[i:j]
            if not math.isfinite(float(text)):
                raise LexError(f"number {text!r} is not finite", start)
            tokens.append(Token("number", text, start))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            tokens.append(Token(notation._KEYWORD_KINDS.get(text, "ident"), text, start))
            advance(j - i)
            continue
        raise LexError(f"unknown character {c!r}", start)
    tokens.append(Token("eof", "", byte_pos))
    return tokens


def lex_outcome(lexer, src):
    try:
        return lexer(src)
    except LexError as exc:
        return str(exc), exc.pos


# The grammar's alphabet, with digits and letters that are not decimal or
# not ASCII, whitespace other than ' ', literals that overflow, and the
# prefixes of a number that end before its fraction or exponent does.
LEXER_PIECES = list("∇⊗·.∧^×†'+-−*()x v_0123456789eE@") + [
    "(x)", "grad", "cross", "dr", "Ω", "²", "٣", "½", "Ⅻ", "é", "\t", "\n",
    "1e999", "1.5", "1.", "1e", "1e+", "2E-",
]


@settings(deadline=None, max_examples=500)
@given(st.one_of(st.text(), st.lists(st.sampled_from(LEXER_PIECES), max_size=16).map("".join)))
def test_tokenize_matches_the_character_loop(src):
    assert lex_outcome(tokenize, src) == lex_outcome(reference_tokenize, src)


def test_pattern_classes_are_the_str_predicates():
    # tokenize relies on these for every code point; each Python release
    # brings its own Unicode database.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for cls, predicate in (
        (r"\s", str.isspace),
        (r"\d", str.isdecimal),
        (r"\w", lambda c: c.isalnum() or c == "_"),
    ):
        assert "".join(re.findall(cls, every)) == "".join(filter(predicate, every)), cls


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


class ReferenceParser:
    """The five-method parser that the three-level one replaced, kept as it was."""

    # Each parse_* method returns its node and the depth of its tree, the
    # number of operators on its longest path (0 for a leaf); ``nesting``
    # counts the parentheses now open, including those of ∇(...).
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.text else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok.pos)
        return self.next()

    def deeper(self, depth: int, tok: Token) -> int:
        """``depth + 1``, unless that passes MAX_DEPTH at ``tok``."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep", tok.pos)
        return depth + 1

    def parse_expression(self) -> tuple[Expr, int]:
        node, depth = self.parse_unary()
        while self.peek().kind in _ADDITIVE_OPS:
            op_tok = self.next()
            right, right_depth = self.parse_unary()
            depth = self.deeper(max(depth, right_depth), op_tok)
            node = Binary(op_tok.kind, node, right, pos=op_tok.pos)
        return node, depth

    def parse_unary(self) -> tuple[Expr, int]:
        if self.peek().kind != MINUS:
            return self.parse_product()
        signs = []
        while self.peek().kind == MINUS:
            signs.append(self.next())
        node, depth = self.parse_product()
        for tok in reversed(signs):
            depth = self.deeper(depth, tok)
            node = Unary("neg", node, pos=tok.pos)
        return node, depth

    def parse_product(self) -> tuple[Expr, int]:
        node, depth = self.parse_postfix()
        chain_op: Token | None = None
        while self.peek().kind in _PRODUCT_OPS:
            op_tok = self.next()
            if chain_op is None:
                chain_op = op_tok
            elif op_tok.kind != chain_op.kind:
                raise ParseError(
                    f"ambiguous chain of {OP_SYMBOL[chain_op.kind]!r} and "
                    f"{OP_SYMBOL[op_tok.kind]!r}: parenthesize one of them",
                    op_tok.pos,
                )
            right, right_depth = self.parse_postfix()
            depth = self.deeper(max(depth, right_depth), op_tok)
            node = Binary(op_tok.kind, node, right, pos=op_tok.pos)
        return node, depth

    def parse_postfix(self) -> tuple[Expr, int]:
        node, depth = self.parse_primary()
        while self.peek().kind == TRANSPOSE:
            tok = self.next()
            depth = self.deeper(depth, tok)
            node = Unary("transpose", node, pos=tok.pos)
        return node, depth

    def parse_parenthesized(self, open_tok: Token) -> tuple[Expr, int]:
        self.nesting = self.deeper(self.nesting, open_tok)
        inner = self.parse_expression()
        self.expect(RPAREN, "')'")
        self.nesting -= 1
        return inner

    def parse_primary(self) -> tuple[Expr, int]:
        tok = self.next()
        if tok.kind == NUMBER:
            return ScalarLit(float(tok.text), pos=tok.pos), 0
        if tok.kind == IDENT:
            return VectorRef(tok.text, pos=tok.pos), 0
        if tok.kind == NABLA:
            if self.peek().kind != LPAREN:
                return Nabla(pos=tok.pos), 0
            # Direct application: gradient of a scalar subexpression.
            open_tok = self.next()
            inner, depth = self.parse_parenthesized(open_tok)
            node = Binary(APPLY, Nabla(pos=tok.pos), inner, pos=open_tok.pos)
            return node, self.deeper(depth, open_tok)
        if tok.kind == LPAREN:
            return self.parse_parenthesized(tok)
        found = repr(tok.text) if tok.text else "end of input"
        raise ParseError(f"expected an operand, found {found}", tok.pos)


def _check_nabla_positions(node: Expr, allowed: bool) -> None:
    # A bare nabla is only legal as the left operand of a product operator
    # or of a direct application; anywhere else the expression has no
    # one-sided meaning.
    if isinstance(node, Nabla):
        if not allowed:
            raise ParseError(
                "∇ may only appear to the left of ⊗, ·, ∧, ×, or applied as ∇(...)",
                node.pos,
            )
        return
    if isinstance(node, Unary):
        _check_nabla_positions(node.operand, False)
    elif isinstance(node, Binary):
        left_ok = node.op in _PRODUCT_OPS or node.op == APPLY
        _check_nabla_positions(node.left, left_ok)
        _check_nabla_positions(node.right, False)


def reference_parse_tokens(tokens: list[Token]) -> Expr:
    parser = ReferenceParser(tokens)
    node, _ = parser.parse_expression()
    parser.expect(EOF, "end of input")
    _check_nabla_positions(node, False)
    return node


def parse_outcome(parser, tokens):
    """The AST's repr, which shows every ``pos``, or the error's type, text and offset."""
    try:
        return repr(parser(tokens))
    except ParseError as exc:
        return type(exc), str(exc), exc.pos


# Chains of each nesting construct, n levels deep.
CHAINS = {
    "parentheses": lambda n: "(" * n + "v" + ")" * n,
    "minuses": lambda n: "-" * n + "v",
    "transposes": lambda n: "d" + "†" * n,
    "sum chain": lambda n: " + ".join(["v"] * (n + 1)),
    "product chain": lambda n: " * ".join(["2"] * n) + " * v",
    "gradient applications": lambda n: "∇(" * n + "c · v" + ")" * n,
    "right-nested products": lambda n: "dr · (" * n + "v" + ")" * n,
}

PIECE_STRINGS = st.lists(st.sampled_from(LEXER_PIECES), max_size=16).map("".join)
DEEP_CHAINS = st.builds(
    lambda head, kind, n, tail: head + CHAINS[kind](n) + tail,
    st.lists(st.sampled_from(LEXER_PIECES), max_size=3).map("".join),
    st.sampled_from(sorted(CHAINS)),
    st.integers(MAX_DEPTH - 1, MAX_DEPTH + 1),
    st.lists(st.sampled_from(LEXER_PIECES), max_size=3).map("".join),
)


@settings(deadline=None, max_examples=500)
@given(st.one_of(PIECE_STRINGS, DEEP_CHAINS))
@example("∇ + (v")  # a misplaced ∇ loses to a later syntax error
@example("∇ + " + CHAINS["parentheses"](MAX_DEPTH + 1))
@example("(∇) ⊗ v")
@example("((∇)) · v")
@example("∇ + (∇†)")
@example("∇(∇)")
@example("(∇)† · v")
@example("-∇ ⊗ v")
@example("∇ ⊗ v ⊗ ∇")
def test_parser_matches_the_five_method_parser(src):
    try:
        tokens = tokenize(src)
    except LexError:
        return
    assert parse_outcome(parse_tokens, tokens) == parse_outcome(reference_parse_tokens, tokens)


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
    with_nan = [list(r) for r in g.rows]
    with_nan[2][2] = math.nan
    assert audit_convention(Tensor3(with_nan), f, x).verdict == "neither"


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

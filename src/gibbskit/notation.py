"""Parsing and evaluation of dyadic-notation expressions.

The grammar accepts the Unicode operators with ASCII fallbacks:

    nabla    `∇`  or `grad`
    dyad     `⊗`  or `(x)`
    dot      `·`  or `.`
    wedge    `∧`  or `^`
    cross    `×`  or `cross`
    transpose (postfix)  `†`  or `'`

Precedence, tightest first: postfix transpose; the product operators
(dyad, dot, wedge, cross, `*`) as one left-associative tier; unary minus;
binary `+`/`-`.  Mixing two *different* product operators inside one
unparenthesized chain is a parse error naming both: the notation's whole
hazard is silent precedence, so the parser refuses to guess.

`∇ ⊗ v` always evaluates to the postfactor-convention gradient; the
transposed layout is only reachable by writing `(∇ ⊗ v)†` explicitly.
Applying `∇` directly to a parenthesized scalar expression, as in
`∇(dr · v)`, takes its gradient.  An expression nested more than
``MAX_DEPTH`` levels deep is a parse error.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from functools import cached_property

from . import ga
from .dyadics import (
    Tensor3, _json_value, antisym, dyad, max_abs, postfactor, prefactor, sym, trace, transpose,
)
from .fields import DEFAULT_FD_STEP, BlackBoxField, Field, _check_fd_step, fd_grad, grad_gibbs
from .ga import Multivector, Vec3, _Value
from .kinematics import nabla_wedge_of

__all__ = [
    "NotationError",
    "LexError",
    "ParseError",
    "EvalError",
    "BindingError",
    "Token",
    "tokenize",
    "Expr",
    "Nabla",
    "VectorRef",
    "ScalarLit",
    "Unary",
    "Binary",
    "parse",
    "parse_tokens",
    "render",
    "Value",
    "EvalContext",
    "evaluate",
    "AuditResult",
    "audit_convention",
]

FIELD_NAME = "v"

# Names the evaluator derives from the field when not explicitly bound.
DERIVED_TENSORS = ("d", "Omega", "Ω")


class NotationError(ValueError):
    """Any lex, parse or evaluation failure; ``pos`` is a byte offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class LexError(NotationError):
    pass


class ParseError(NotationError):
    pass


class EvalError(NotationError):
    pass


class BindingError(EvalError):
    pass


# Token kinds.
NABLA, DYAD, DOT, WEDGE, CROSS = "nabla", "dyad", "dot", "wedge", "cross"
TRANSPOSE, PLUS, MINUS, STAR = "transpose", "plus", "minus", "star"
LPAREN, RPAREN, IDENT, NUMBER, EOF = "lparen", "rparen", "ident", "number", "eof"

_SYMBOL_KINDS = {
    "∇": NABLA,
    "⊗": DYAD,
    "(x)": DYAD,
    "·": DOT,
    ".": DOT,
    "∧": WEDGE,
    "^": WEDGE,
    "×": CROSS,
    "†": TRANSPOSE,
    "'": TRANSPOSE,
    "+": PLUS,
    "-": MINUS,
    "−": MINUS,
    "*": STAR,
    "(": LPAREN,
    ")": RPAREN,
}

_KEYWORD_KINDS = {"grad": NABLA, "cross": CROSS}

# Alternatives are tried in order at each position, so ``(x)`` is always
# the dyad, '.' always the dot operator (no number starts with it), and a
# number's digits are never read as part of a name.  For str patterns,
# ``\s``, ``\d`` and ``\w`` are ``isspace``, ``isdecimal`` (the digits
# ``float`` accepts) and ``isalnum() or "_"``, as the tests check for
# every code point.
_TOKEN_PATTERN = re.compile(
    r"(?P<space>\s+)|(?P<dyad>\(x\))|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<word>\w+)|(?P<other>.)",
    re.DOTALL,
)

# Canonical display symbol per binary operator kind (used in errors/render).
OP_SYMBOL = {DYAD: "⊗", DOT: "·", WEDGE: "∧", CROSS: "×", STAR: "*", PLUS: "+", MINUS: "-"}


class Token(_Value):
    __match_args__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        fields = self.__dict__
        fields["kind"] = kind
        fields["text"] = text
        fields["pos"] = pos  # byte offset into the UTF-8 source


def tokenize(src: str) -> list[Token]:
    """Split source text into tokens; whitespace-insensitive.

    Unknown characters, and number literals that overflow to infinity,
    raise LexError with the byte offset.  The 3-char
    sequence ``(x)`` is always the dyad operator; write ``( x )`` to group
    a variable literally named x.
    """
    tokens: list[Token] = []
    pos = 0
    for m in _TOKEN_PATTERN.finditer(src):
        group, text = m.lastgroup, m.group()
        if group == "number":
            if not math.isfinite(float(text)):
                raise LexError(f"number {text!r} is not finite", pos)
            tokens.append(Token(NUMBER, text, pos))
        elif group == "word" and (text[0].isalpha() or text[0] == "_"):
            tokens.append(Token(_KEYWORD_KINDS.get(text, IDENT), text, pos))
        elif group != "space":
            # An unknown character, or a word that starts with a digit
            # that is not decimal, such as '²'.
            if text not in _SYMBOL_KINDS:
                raise LexError(f"unknown character {text[0]!r}", pos)
            tokens.append(Token(_SYMBOL_KINDS[text], text, pos))
        pos += len(text.encode("utf-8"))
    tokens.append(Token(EOF, "", pos))
    return tokens


# AST nodes.  Positions are carried for error reporting but excluded from
# equality and hashing so render/parse round-trips compare equal.


class Nabla(_Value):
    __match_args__ = ("pos",)
    _compared = ()

    def __init__(self, pos: int = 0) -> None:
        self.__dict__["pos"] = pos


class VectorRef(_Value):
    __match_args__ = ("name", "pos")
    _compared = ("name",)

    def __init__(self, name: str, pos: int = 0) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["pos"] = pos


class ScalarLit(_Value):
    __match_args__ = ("value", "pos")
    _compared = ("value",)

    def __init__(self, value: float, pos: int = 0) -> None:
        fields = self.__dict__
        fields["value"] = value
        fields["pos"] = pos


class Unary(_Value):
    __match_args__ = ("op", "operand", "pos")
    _compared = ("op", "operand")

    def __init__(self, op: str, operand: "Expr", pos: int = 0) -> None:
        fields = self.__dict__
        fields["op"] = op  # "transpose" | "neg"
        fields["operand"] = operand
        fields["pos"] = pos


class Binary(_Value):
    __match_args__ = ("op", "left", "right", "pos")
    _compared = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr", pos: int = 0) -> None:
        # op: dyad | dot | wedge | cross | star | plus | minus | apply
        fields = self.__dict__
        fields["op"] = op
        fields["left"] = left
        fields["right"] = right
        fields["pos"] = pos


Expr = Nabla | VectorRef | ScalarLit | Unary | Binary

APPLY = "apply"  # nabla applied to a scalar subexpression: gradient

_PRODUCT_OPS = (DYAD, DOT, WEDGE, CROSS, STAR)
_ADDITIVE_OPS = (PLUS, MINUS)

# The deepest expression tree, and the deepest nesting of parentheses and
# ∇(...), that the parser accepts.  The parser, render, evaluate and ==
# recurse at most a few frames per level, so this keeps them well inside
# the interpreter's recursion limit.  render opens at most one pair of
# parentheses per tree level, so every rendering parses again.
MAX_DEPTH = 100


def _unexpected(what: str, tok: Token) -> ParseError:
    found = repr(tok.text) if tok.text else "end of input"
    return ParseError(f"expected {what}, found {found}", tok.pos)


class _Parser:
    # expression: terms joined by + and -.  term: leading minuses, then a
    # chain of one product operator.  operand: a number, name, ∇, ∇(...) or
    # (...), then any postfix †.  Each returns its node and the depth of its
    # tree, the number of operators on its longest path (0 for a leaf);
    # ``nesting`` counts the parentheses now open, including those of
    # ∇(...).  ``self.i`` indexes the next token; EOF is never consumed.
    # ``strays`` holds, in source order, the offset of each bare ∇ not yet
    # taken as the left operand of a product, its only legal place.
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0
        self.strays: list[int] = []

    def deeper(self, depth: int, tok: Token) -> int:
        """``depth + 1``, unless that passes MAX_DEPTH at ``tok``."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep", tok.pos)
        return depth + 1

    def expression(self) -> tuple[Expr, int]:
        tokens = self.tokens
        node, depth = self.term()
        while (tok := tokens[self.i]).kind in _ADDITIVE_OPS:
            self.i += 1
            right, right_depth = self.term()
            depth = self.deeper(max(depth, right_depth), tok)
            node = Binary(tok.kind, node, right, pos=tok.pos)
        return node, depth

    def term(self) -> tuple[Expr, int]:
        tokens = self.tokens
        first = self.i
        while tokens[self.i].kind == MINUS:
            self.i += 1
        signs = self.i - first
        node, depth = self.operand()
        chain_op = tokens[self.i].kind
        if chain_op in _PRODUCT_OPS and isinstance(node, Nabla):
            self.strays.remove(node.pos)
        while (tok := tokens[self.i]).kind in _PRODUCT_OPS:
            self.i += 1
            if tok.kind != chain_op:
                raise ParseError(
                    f"ambiguous chain of {OP_SYMBOL[chain_op]!r} and "
                    f"{OP_SYMBOL[tok.kind]!r}: parenthesize one of them",
                    tok.pos,
                )
            right, right_depth = self.operand()
            depth = self.deeper(max(depth, right_depth), tok)
            node = Binary(tok.kind, node, right, pos=tok.pos)
        if signs:
            for tok in reversed(tokens[first : first + signs]):
                depth = self.deeper(depth, tok)
                node = Unary("neg", node, pos=tok.pos)
        return node, depth

    def operand(self) -> tuple[Expr, int]:
        tokens = self.tokens
        tok = tokens[self.i]
        self.i += 1
        kind = tok.kind
        if kind == IDENT:
            node, depth = VectorRef(tok.text, pos=tok.pos), 0
        elif kind == LPAREN:
            node, depth = self.parenthesized(tok)
        elif kind == NUMBER:
            node, depth = ScalarLit(float(tok.text), pos=tok.pos), 0
        elif kind == NABLA and (open_tok := tokens[self.i]).kind == LPAREN:
            # Direct application: gradient of a scalar subexpression.
            self.i += 1
            inner, depth = self.parenthesized(open_tok)
            node = Binary(APPLY, Nabla(pos=tok.pos), inner, pos=open_tok.pos)
            depth = self.deeper(depth, open_tok)
        elif kind == NABLA:
            node, depth = Nabla(pos=tok.pos), 0
            self.strays.append(tok.pos)
        else:
            raise _unexpected("an operand", tok)
        while (tok := tokens[self.i]).kind == TRANSPOSE:
            self.i += 1
            depth = self.deeper(depth, tok)
            node = Unary("transpose", node, pos=tok.pos)
        return node, depth

    def parenthesized(self, open_tok: Token) -> tuple[Expr, int]:
        self.nesting = self.deeper(self.nesting, open_tok)
        inner = self.expression()
        if (tok := self.tokens[self.i]).kind != RPAREN:
            raise _unexpected("')'", tok)
        self.i += 1
        self.nesting -= 1
        return inner


def parse_tokens(tokens: list[Token]) -> Expr:
    parser = _Parser(tokens)
    node, _ = parser.expression()
    if (tok := tokens[parser.i]).kind != EOF:
        raise _unexpected("end of input", tok)
    if parser.strays:  # raised last, so that a syntax or depth error wins
        msg = "∇ may only appear to the left of ⊗, ·, ∧, ×, or applied as ∇(...)"
        raise ParseError(msg, parser.strays[0])
    return node


def parse(src: str) -> Expr:
    return parse_tokens(tokenize(src))


def _wrap(node: Expr) -> str:
    text = render(node)
    if isinstance(node, (Binary, Unary)) and not (
        isinstance(node, Unary) and node.op == "transpose"
    ):
        return f"({text})"
    return text


def render(node: Expr) -> str:
    """Deterministic text form; reparsing it yields an equal AST."""
    if isinstance(node, Nabla):
        return "∇"
    if isinstance(node, VectorRef):
        return node.name
    if isinstance(node, ScalarLit):
        return ga.format_number(node.value)
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-{_wrap(node.operand)}"
        return f"{_wrap(node.operand)}†"
    if node.op == APPLY:
        inner = render(node.right)
        # "(x)" always lexes as the dyad operator.
        return f"∇( {inner})" if inner == "x" else f"∇({inner})"
    return f"{_wrap(node.left)} {OP_SYMBOL[node.op]} {_wrap(node.right)}"


Value = float | Vec3 | Tensor3 | Multivector


def value_kind(v: Value) -> str:
    if isinstance(v, Vec3):
        return "vector"
    if isinstance(v, Tensor3):
        return "tensor"
    if isinstance(v, Multivector):
        return "multivector"
    return "scalar"


class EvalContext(_Value):
    """Field bound to the name ``v``, the evaluation point, extra vectors.

    ``d`` and ``Omega`` (alias ``Ω``) resolve to the strain and rotation
    tensors of the field at the point unless shadowed by a binding.
    ``fd_step`` controls the fallback numerical gradient used when ∇ is
    applied to a general scalar subexpression; it must be > 0 with
    ``2 * fd_step`` finite.
    The gradient G at the point is computed once per context, on first
    use, and every derivative form derives from it.  ``bindings`` defaults
    to a fresh empty dict; a context holding a dict is not hashable.
    """

    __match_args__ = ("field", "point", "bindings", "fd_step")

    def __init__(
        self,
        field: Field,
        point: Vec3,
        bindings: Mapping[str, Vec3] | None = None,
        fd_step: float = DEFAULT_FD_STEP,
    ) -> None:
        _check_fd_step(fd_step)
        fields = self.__dict__
        fields["field"] = field
        fields["point"] = point
        fields["bindings"] = {} if bindings is None else bindings
        fields["fd_step"] = fd_step

    @cached_property
    def _grad(self) -> Tensor3:
        return grad_gibbs(self.field, self.point)


def _resolve(name: str, pos: int, ctx: EvalContext) -> Value:
    if name == FIELD_NAME:
        return ctx.field.eval(ctx.point)
    if name in ctx.bindings:
        return ctx.bindings[name]
    if name in DERIVED_TENSORS:
        return sym(ctx._grad) if name == "d" else antisym(ctx._grad)
    raise BindingError(f"unbound name {name!r}", pos)


def _eval_nabla_op(op: str, right: Expr, ctx: EvalContext, pos: int) -> Value:
    if not (isinstance(right, VectorRef) and right.name == FIELD_NAME):
        raise EvalError(
            f"∇ {OP_SYMBOL[op]} ... can only differentiate the field {FIELD_NAME!r}", pos
        )
    if op == DYAD:
        return ctx._grad
    if op == DOT:
        return trace(ctx._grad)
    if op == WEDGE:
        return nabla_wedge_of(ctx._grad)
    if op == CROSS:
        return ga.vector_dual(nabla_wedge_of(ctx._grad))
    raise EvalError(f"∇ cannot be combined with {OP_SYMBOL[op]!r}", pos)


class _Shifted(EvalContext):
    """A context moved off the point by one central-difference step."""


def _eval_gradient_apply(inner: Expr, ctx: EvalContext, pos: int) -> Vec3:
    # Exact chain rule for the common case  ∇(c · v)  with c a constant.
    if isinstance(inner, Binary) and inner.op == DOT:
        sides = (inner.left, inner.right)
        names = [s.name for s in sides if isinstance(s, VectorRef)]
        if len(names) == 2 and FIELD_NAME in names:
            other = names[0] if names[1] == FIELD_NAME else names[1]
            if other != FIELD_NAME and other in ctx.bindings:
                return prefactor(ctx._grad, ctx.bindings[other])
    # General scalar subexpression: central differences over the point.
    val = evaluate(inner, ctx)
    if value_kind(val) != "scalar":
        raise EvalError(f"∇(...) needs a scalar expression, got {value_kind(val)}", pos)
    if isinstance(ctx, _Shifted):  # differences of differences: 7x the work per level
        raise EvalError("a nested ∇(...) must be ∇(c · v) with c bound", pos)
    field, bindings, h = ctx.field, ctx.bindings, ctx.fd_step
    scalar = BlackBoxField(lambda p: Vec3(evaluate(inner, _Shifted(field, p, bindings, h)), 0, 0), h)
    try:
        return fd_grad(scalar, ctx.point).column(1)
    except FloatingPointError as exc:
        raise EvalError(f"∇(...) {exc}", pos) from exc


def evaluate(e: Expr, ctx: EvalContext) -> Value:
    """Evaluate an expression against a concrete field, point and bindings.

    Kind mismatches raise EvalError rather than coercing: a dot between a
    vector and a tensor is postfactor or prefactor depending on the side,
    scalar scaling must use `*`, and transpose applies to tensors only.
    """
    if isinstance(e, ScalarLit):
        return e.value
    if isinstance(e, VectorRef):
        return _resolve(e.name, e.pos, ctx)
    if isinstance(e, Nabla):
        raise EvalError("∇ has no value on its own", e.pos)
    if isinstance(e, Unary):
        if e.op == "neg":
            return -evaluate(e.operand, ctx)
        val = evaluate(e.operand, ctx)
        if not isinstance(val, Tensor3):
            raise EvalError(f"transpose applies to tensors, got {value_kind(val)}", e.pos)
        return transpose(val)

    if e.op == APPLY:
        return _eval_gradient_apply(e.right, ctx, e.pos)
    if isinstance(e.left, Nabla) and e.op in _PRODUCT_OPS:
        return _eval_nabla_op(e.op, e.right, ctx, e.pos)

    lhs = evaluate(e.left, ctx)
    rhs = evaluate(e.right, ctx)
    lk, rk = value_kind(lhs), value_kind(rhs)

    if e.op in (PLUS, MINUS):
        if lk != rk:
            raise EvalError(f"cannot add {lk} and {rk}", e.pos)
        return lhs + rhs if e.op == PLUS else lhs - rhs

    if e.op == STAR:
        if lk == "scalar":
            return rhs * lhs if rk != "scalar" else lhs * rhs
        if rk == "scalar":
            return lhs * rhs
        raise EvalError(f"* is scalar multiplication; got {lk} * {rk}", e.pos)

    if e.op == DYAD:
        if lk == rk == "vector":
            return dyad(lhs, rhs)
        raise EvalError(f"⊗ needs two vectors, got {lk} ⊗ {rk}", e.pos)

    if e.op == CROSS:
        if lk == rk == "vector":
            return lhs.cross(rhs)
        raise EvalError(f"× needs two vectors, got {lk} × {rk}", e.pos)

    if e.op == WEDGE:
        if lk in ("vector", "multivector") and rk in ("vector", "multivector"):
            return ga.wedge(_as_mv(lhs), _as_mv(rhs))
        raise EvalError(f"∧ needs vectors or multivectors, got {lk} ∧ {rk}", e.pos)

    if e.op == DOT:
        if lk == rk == "vector":
            return lhs.dot(rhs)
        if lk == "vector" and rk == "tensor":
            return postfactor(lhs, rhs)
        if lk == "tensor" and rk == "vector":
            return prefactor(lhs, rhs)
        if lk in ("vector", "multivector") and rk in ("vector", "multivector"):
            return ga.dot(_as_mv(lhs), _as_mv(rhs))
        raise EvalError(f"· cannot combine {lk} and {rk}", e.pos)

    raise EvalError(f"unsupported operator {e.op!r}", e.pos)


def _as_mv(v: Value) -> Multivector:
    return ga._mv_vec(v) if isinstance(v, Vec3) else v


class AuditResult(_Value):
    """Which gradient layout a matrix follows for a given field and point."""

    __match_args__ = ("verdict", "max_abs_deviation_gibbs", "max_abs_deviation_alt")

    def __init__(
        self, verdict: str, max_abs_deviation_gibbs: float, max_abs_deviation_alt: float
    ) -> None:
        # verdict: gibbs | alternative | symmetric-ambiguous | neither
        fields = self.__dict__
        fields["verdict"] = verdict
        fields["max_abs_deviation_gibbs"] = max_abs_deviation_gibbs
        fields["max_abs_deviation_alt"] = max_abs_deviation_alt

    def to_dict(self) -> dict:
        return _json_value(self)


def audit_convention(t: Tensor3, f: Field, x: Vec3, rel_tol: float = 1e-9) -> AuditResult:
    """Compare t against both gradient layouts of f at x.

    ``symmetric-ambiguous`` means the gradient is symmetric there, so the
    layouts coincide and t matches both.
    """
    g = grad_gibbs(f, x)
    a = transpose(g)
    dev_g = max_abs(t - g)
    dev_a = max_abs(t - a)
    tol = rel_tol * max(1.0, max_abs(g), max_abs(t))
    match_g = dev_g <= tol
    match_a = dev_a <= tol
    if match_g and match_a:
        verdict = "symmetric-ambiguous"
    elif match_g:
        verdict = "gibbs"
    elif match_a:
        verdict = "alternative"
    else:
        verdict = "neither"
    return AuditResult(verdict, dev_g, dev_a)

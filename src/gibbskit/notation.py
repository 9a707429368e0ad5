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
`∇(dr · v)`, takes its gradient, exactly on a PolyField.  An expression
nested more than ``MAX_DEPTH`` levels deep is a parse error.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from operator import neg

from . import ga
from .dyadics import (
    Tensor3, _json_value, antisym, dyad, max_abs, postfactor, prefactor, sym, trace, transpose,
)
from .fields import (
    DEFAULT_FD_STEP, BlackBoxField, Field, PolyField, _check_fd_step, fd_grad, grad_gibbs,
)
from .ga import Multivector, Vec3, _Value, _vec3
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


class NotationError(ValueError):
    """Any lex, parse, evaluation or render failure; ``pos`` is a byte offset."""

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

_TEXT_KINDS = {**_SYMBOL_KINDS, **_KEYWORD_KINDS}

# One match per token: the whitespace before it, then its text.  The
# alternatives are tried in order at each position, so ``(x)`` is always
# the dyad, '.' always the dot operator (no number starts with it), and a
# number's digits are never read as part of a name.  For str patterns,
# ``\s``, ``\d`` and ``\w`` are ``isspace``, ``isdecimal`` (the digits
# ``float`` accepts) and ``isalnum() or "_"``, as the tests check for
# every code point.
_TOKEN_PATTERN = re.compile(r"(\s*)(\(x\)|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\w+|\S)")

# Canonical display symbol per binary operator kind (used in errors/render).
OP_SYMBOL = {DYAD: "⊗", DOT: "·", WEDGE: "∧", CROSS: "×", STAR: "*", PLUS: "+", MINUS: "-"}


class Token(_Value):
    __match_args__ = ("kind", "text", "pos")  # pos: byte offset into the UTF-8 source


_Lexeme = tuple[str, str, int]  # (kind, text, pos), as a Token holds them


def _lex(src: str) -> list[_Lexeme]:
    """The tokens of ``tokenize`` as ``(kind, text, pos)`` tuples."""
    wide = not src.isascii()  # else a character is a byte, and a length a byte count
    tokens = []
    pos = 0
    for space, text in _TOKEN_PATTERN.findall(src):
        if space:
            pos += len(space.encode()) if wide else len(space)
        if (kind := _TEXT_KINDS.get(text)) is None:
            c = text[0]
            if c.isdecimal():  # the number alternative matched
                if not math.isfinite(float(text)):
                    raise LexError(f"number {text!r} is not finite", pos)
                kind = NUMBER
            elif c.isalpha() or c == "_":
                kind = IDENT
            else:  # unknown, or a word led by a digit that is not decimal, such as '²'
                raise LexError(f"unknown character {c!r}", pos)
        tokens.append((kind, text, pos))
        pos += len(text.encode()) if wide else len(text)
    tokens.append((EOF, "", len(src.encode())))
    return tokens


def tokenize(src: str) -> list[Token]:
    """Split source text into tokens; whitespace-insensitive.

    Unknown characters, and number literals that overflow to infinity,
    raise LexError with the byte offset.  The 3-char
    sequence ``(x)`` is always the dyad operator; write ``( x )`` to group
    a variable literally named x.
    """
    return [Token(*t) for t in _lex(src)]


# AST nodes.  Positions are carried for error reporting but excluded from
# equality and hashing so render/parse round-trips compare equal.


class Nabla(_Value):
    __match_args__ = ("pos",)
    _compared = ()
    _defaults = {"pos": 0}


class VectorRef(_Value):
    __match_args__ = ("name", "pos")
    _compared = ("name",)
    _defaults = {"pos": 0}


class ScalarLit(_Value):
    __match_args__ = ("value", "pos")
    _compared = ("value",)
    _defaults = {"pos": 0}


class Unary(_Value):
    __match_args__ = ("op", "operand", "pos")  # op: "transpose" | "neg"
    _compared = ("op", "operand")
    _defaults = {"pos": 0}


class Binary(_Value):
    # op: dyad | dot | wedge | cross | star | plus | minus | apply
    __match_args__ = ("op", "left", "right", "pos")
    _compared = ("op", "left", "right")
    _defaults = {"pos": 0}


Expr = Nabla | VectorRef | ScalarLit | Unary | Binary

APPLY = "apply"  # nabla applied to a scalar subexpression: gradient
NEG = "neg"  # unary minus

_PRODUCT_OPS = (DYAD, DOT, WEDGE, CROSS, STAR)
_ADDITIVE_OPS = (PLUS, MINUS)

# The deepest expression tree, and the deepest nesting of parentheses and
# ∇(...), that the parser accepts.  The parser, render, evaluate and ==
# recurse at most a few frames per level, so this keeps them well inside
# the interpreter's recursion limit.  render opens at most one pair of
# parentheses per tree level, so every rendering parses again.
MAX_DEPTH = 100


def _unexpected(what: str, tok: _Lexeme) -> ParseError:
    _, text, pos = tok
    return ParseError(f"expected {what}, found {repr(text) if text else 'end of input'}", pos)


class _Parser:
    # expression: terms joined by + and -.  term: leading minuses, then a
    # chain of one product operator.  operand: a number, name, ∇, ∇(...) or
    # (...), then any postfix †.  Each returns its node and the depth of its
    # tree, the number of operators on its longest path (0 for a leaf);
    # ``nesting`` counts the parentheses now open, including those of
    # ∇(...).  ``self.i`` indexes the next token; EOF is never consumed.
    # ``strays`` holds, in source order, the offset of each bare ∇ not yet
    # taken as the left operand of a product, its only legal place.
    def __init__(self, tokens: list[_Lexeme]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0
        self.strays: list[int] = []

    def deeper(self, depth: int, tok: _Lexeme) -> int:
        """``depth + 1``, unless that passes MAX_DEPTH at ``tok``."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep", tok[2])
        return depth + 1

    def expression(self) -> tuple[Expr, int]:
        tokens = self.tokens
        node, depth = self.term()
        while (tok := tokens[self.i])[0] in _ADDITIVE_OPS:
            self.i += 1
            right, right_depth = self.term()
            depth = self.deeper(max(depth, right_depth), tok)
            node = Binary(tok[0], node, right, pos=tok[2])
        return node, depth

    def term(self) -> tuple[Expr, int]:
        tokens = self.tokens
        first = self.i
        while tokens[self.i][0] == MINUS:
            self.i += 1
        signs = self.i - first
        node, depth = self.operand()
        chain_op = tokens[self.i][0]
        if chain_op in _PRODUCT_OPS and isinstance(node, Nabla):
            self.strays.remove(node.pos)
        while (tok := tokens[self.i])[0] in _PRODUCT_OPS:
            self.i += 1
            if tok[0] != chain_op:
                raise ParseError(
                    f"ambiguous chain of {OP_SYMBOL[chain_op]!r} and "
                    f"{OP_SYMBOL[tok[0]]!r}: parenthesize one of them",
                    tok[2],
                )
            right, right_depth = self.operand()
            depth = self.deeper(max(depth, right_depth), tok)
            node = Binary(tok[0], node, right, pos=tok[2])
        if signs:
            for tok in reversed(tokens[first : first + signs]):
                depth = self.deeper(depth, tok)
                node = Unary(NEG, node, pos=tok[2])
        return node, depth

    def operand(self) -> tuple[Expr, int]:
        tokens = self.tokens
        tok = tokens[self.i]
        self.i += 1
        kind = tok[0]
        if kind == IDENT:
            node, depth = VectorRef(tok[1], pos=tok[2]), 0
        elif kind == LPAREN:
            node, depth = self.parenthesized(tok)
        elif kind == NUMBER:
            node, depth = ScalarLit(float(tok[1]), pos=tok[2]), 0
        elif kind == NABLA and (open_tok := tokens[self.i])[0] == LPAREN:
            # Direct application: gradient of a scalar subexpression.
            self.i += 1
            inner, depth = self.parenthesized(open_tok)
            node = Binary(APPLY, Nabla(pos=tok[2]), inner, pos=open_tok[2])
            depth = self.deeper(depth, open_tok)
        elif kind == NABLA:
            node, depth = Nabla(pos=tok[2]), 0
            self.strays.append(tok[2])
        else:
            raise _unexpected("an operand", tok)
        while (tok := tokens[self.i])[0] == TRANSPOSE:
            self.i += 1
            depth = self.deeper(depth, tok)
            node = Unary(TRANSPOSE, node, pos=tok[2])
        return node, depth

    def parenthesized(self, open_tok: _Lexeme) -> tuple[Expr, int]:
        self.nesting = self.deeper(self.nesting, open_tok)
        inner = self.expression()
        if (tok := self.tokens[self.i])[0] != RPAREN:
            raise _unexpected("')'", tok)
        self.i += 1
        self.nesting -= 1
        return inner


def _parse(tokens: list[_Lexeme]) -> Expr:
    parser = _Parser(tokens)
    node, _ = parser.expression()
    if (tok := tokens[parser.i])[0] != EOF:
        raise _unexpected("end of input", tok)
    if parser.strays:  # raised last, so that a syntax or depth error wins
        msg = "∇ may only appear to the left of ⊗, ·, ∧, ×, or applied as ∇(...)"
        raise ParseError(msg, parser.strays[0])
    return node


def parse_tokens(tokens: list[Token]) -> Expr:
    return _parse([(t.kind, t.text, t.pos) for t in tokens])


def parse(src: str) -> Expr:
    return _parse(_lex(src))


def _wrap(node: Expr) -> str:
    text = render(node)
    if isinstance(node, Binary) or isinstance(node, Unary) and node.op != TRANSPOSE:
        return f"({text})"
    return text


def render(node: Expr) -> str:
    """Deterministic text form; reparsing it yields an equal AST.

    An operator with no symbol, only in a hand-built tree, is a NotationError.
    """
    if isinstance(node, Nabla):
        return "∇"
    if isinstance(node, VectorRef):
        return node.name
    if isinstance(node, ScalarLit):
        return ga.format_number(node.value)
    if isinstance(node, Unary):
        if node.op == NEG:
            return f"-{_wrap(node.operand)}"
        if node.op == TRANSPOSE:
            return f"{_wrap(node.operand)}†"
    elif node.op == APPLY:
        inner = render(node.right)
        # "(x)" always lexes as the dyad operator.
        return f"∇( {inner})" if inner == "x" else f"∇({inner})"
    elif node.op in OP_SYMBOL:
        return f"{_wrap(node.left)} {OP_SYMBOL[node.op]} {_wrap(node.right)}"
    raise NotationError(f"no symbol for operator {node.op!r}", node.pos)


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
    ``fd_step``, > 0 with ``2 * fd_step`` finite, is the step of the
    central differences that ∇(...) takes on a BlackBoxField; on a
    PolyField ∇(...) is exact, and the step changes no result.
    The gradient G at the point is computed once per context, on first
    use, and every derivative form derives from it.  ``bindings`` defaults
    to a fresh empty dict; a context holding a dict is not hashable.
    """

    __match_args__ = ("field", "point", "bindings", "fd_step")
    _defaults = {"bindings": None, "fd_step": DEFAULT_FD_STEP}

    def __post_init__(self) -> None:
        _check_fd_step(self.fd_step)
        self.__dict__["bindings"] = {} if self.bindings is None else self.bindings

    @cached_property
    def _grad(self) -> Tensor3:
        return grad_gibbs(self.field, self.point)


def _grad_at(ctx: EvalContext, pos: int) -> Tensor3:
    """G = ∇ ⊗ v at the point; a refused central difference is an EvalError at ``pos``."""
    try:
        return ctx._grad
    except FloatingPointError as exc:
        raise EvalError(f"∇ ⊗ {FIELD_NAME} {exc}", pos) from exc


# The derivative forms, each a function of G.  ``∇ op v`` for each product
# operator ∇ takes, and the names derived from G unless they are bound: two
# tables, so that an unbound name such as ``dot`` is never a form.
_NABLA_FORMS = {
    DYAD: lambda g: g,
    DOT: trace,
    WEDGE: nabla_wedge_of,
    CROSS: lambda g: ga.vector_dual(nabla_wedge_of(g)),
}
_DERIVED = {"d": sym, "Omega": antisym, "Ω": antisym}


def _resolve(name: str, pos: int, ctx: EvalContext) -> Value:
    if name == FIELD_NAME:
        return ctx.field.eval(ctx.point)
    if name in ctx.bindings:
        return ctx.bindings[name]
    if name in _DERIVED:
        return _DERIVED[name](_grad_at(ctx, pos))
    raise BindingError(f"unbound name {name!r}", pos)


class _Shifted(EvalContext):
    """A context moved off the point by one central-difference step."""


def _bound_factor(inner: Expr, ctx: EvalContext) -> Vec3 | None:
    """The bound vector c when ``inner`` is ``c · v`` or ``v · c``, else None."""
    if isinstance(inner, Binary) and inner.op == DOT:
        names = [s.name for s in (inner.left, inner.right) if isinstance(s, VectorRef)]
        if len(names) == 2 and FIELD_NAME in names:
            other = names[0] if names[1] == FIELD_NAME else names[1]
            if other != FIELD_NAME and other in ctx.bindings:
                return ctx.bindings[other]
    return None


_NESTED = "a nested ∇(...) must be ∇(c · v) with c bound"


def _check_scalar(val: Value, pos: int) -> None:
    if value_kind(val) != "scalar":
        raise EvalError(f"∇(...) needs a scalar expression, got {value_kind(val)}", pos)


def _eval_gradient_apply(inner: Expr, ctx: EvalContext, pos: int) -> Vec3:
    field = ctx.field
    if isinstance(field, PolyField):
        nested: list[int] = []
        val, partials = _jet(inner, ctx, nested)
        _check_scalar(val, pos)
        if nested:
            raise EvalError(_NESTED, nested[0])
        return _vec3(*[0.0 + p for p in partials or (0.0, 0.0, 0.0)])  # no -0.0, as G · c has none
    if (c := _bound_factor(inner, ctx)) is not None:
        return prefactor(_grad_at(ctx, pos), c)  # the chain rule, on the black box's G
    _check_scalar(evaluate(inner, ctx), pos)  # first, so that its errors win
    # A black box has no partial fields: central differences over the point.
    if isinstance(ctx, _Shifted):  # differences of differences: 7x the work per level
        raise EvalError(_NESTED, pos)
    bindings, h = ctx.bindings, ctx.fd_step
    scalar = BlackBoxField(lambda p: Vec3(evaluate(inner, _Shifted(field, p, bindings, h)), 0, 0), h)
    try:
        return fd_grad(scalar, ctx.point).column(1)
    except FloatingPointError as exc:
        raise EvalError(f"∇(...) {exc}", pos) from exc


def _jet(e: Expr, ctx: EvalContext, nested: list[int]) -> tuple[Value, list[Value] | None]:
    """The value of ``e`` and its partials along x, y and z, None if constant.

    First-order forward mode on a PolyField, raising ``evaluate``'s errors
    in its order; a nested ``∇(...)`` it cannot differentiate counts as
    constant and appends its offset to ``nested``, for the caller to refuse.
    Every rule of ``_RULES`` is linear in each operand, so ``-`` and ``†``
    take their rule of each partial, a product ``∂a op b + a op ∂b`` by its
    rule, and ``+`` and ``-`` act on the partials.  The partials of ``v``
    are the rows of G.  A form of G (``∇ op v``, ``d``, ``Ω``) is linear in
    G, so its partial along axis i is the form of the Hessian slice
    ``grad_gibbs(f.partial(i), x)``: the form evaluated with the field
    ``f.partial(i)``.  The same holds for
    ``∇(c · v)``, linear in v, the one ``∇(...)`` that may nest.
    """
    if isinstance(e, Unary):
        val, d = _jet(e.operand, ctx, nested)
        rule = _rule(e, val)
        return rule(val), d and [rule(p) for p in d]
    if isinstance(e, Binary) and e.op != APPLY and not isinstance(e.left, Nabla):
        (a, da), (b, db) = _jet(e.left, ctx, nested), _jet(e.right, ctx, nested)
        rule = _rule(e, a, b)
        if e.op in _ADDITIVE_OPS:
            left, right = da, db and (db if e.op == PLUS else [-q for q in db])
        else:
            left, right = da and [rule(p, b) for p in da], db and [rule(a, q) for q in db]
        return rule(a, b), [p + q for p, q in zip(left, right)] if left and right else left or right
    val = evaluate(e, ctx)
    if isinstance(e, VectorRef) and e.name == FIELD_NAME:
        return val, [_vec3(*row) for row in _grad_at(ctx, e.pos).rows]
    if isinstance(e, ScalarLit) or isinstance(e, VectorRef) and e.name in ctx.bindings:
        return val, None  # a literal or a bound vector
    if isinstance(e, Binary) and e.op == APPLY and _bound_factor(e.right, ctx) is None:
        nested.append(e.pos)
        return val, None
    f, x, bindings = ctx.field, ctx.point, ctx.bindings
    return val, [evaluate(e, EvalContext(f.partial(i), x, bindings, ctx.fd_step)) for i in range(3)]


def _as_mv(v: Value) -> Multivector:
    return ga._mv_vec(v) if isinstance(v, Vec3) else v


_KINDS = ("scalar", "vector", "tensor", "multivector")
_GA_PAIRS = [(a, b) for a in ("vector", "multivector") for b in ("vector", "multivector")]

# For each operator: the rule for each tuple of operand kinds it accepts,
# (kind,) or (left kind, right kind), and the message for every other
# tuple.  A vector dotted with a tensor is the postfactor dr · G, a tensor
# dotted with a vector the prefactor G · dr: the side says which is meant.
_RULES = {
    NEG: ({(k,): neg for k in _KINDS}, "cannot negate {}"),
    TRANSPOSE: ({("tensor",): transpose}, "transpose applies to tensors, got {}"),
    PLUS: ({(k, k): lambda a, b: a + b for k in _KINDS}, "cannot add {} and {}"),
    MINUS: ({(k, k): lambda a, b: a - b for k in _KINDS}, "cannot add {} and {}"),
    STAR: ({**{("scalar", k): lambda a, b: b * a for k in _KINDS[1:]},
            **{(k, "scalar"): lambda a, b: a * b for k in _KINDS}},
           "* is scalar multiplication; got {} * {}"),
    DYAD: ({("vector", "vector"): dyad}, "⊗ needs two vectors, got {} ⊗ {}"),
    CROSS: ({("vector", "vector"): Vec3.cross}, "× needs two vectors, got {} × {}"),
    WEDGE: (dict.fromkeys(_GA_PAIRS, lambda a, b: ga.wedge(_as_mv(a), _as_mv(b))),
            "∧ needs vectors or multivectors, got {} ∧ {}"),
    DOT: ({**dict.fromkeys(_GA_PAIRS, lambda a, b: ga.dot(_as_mv(a), _as_mv(b))),
           ("vector", "vector"): Vec3.dot,
           ("vector", "tensor"): postfactor, ("tensor", "vector"): prefactor},
          "· cannot combine {} and {}"),
}
_NO_RULES = ({}, "")


def _rule(e: Unary | Binary, a: Value, b: Value | None = None):
    """The ``_RULES`` rule of ``e.op`` for the kinds of a and b, or evaluate's EvalError.

    A Unary passes no b.
    """
    rules, message = _RULES.get(e.op, _NO_RULES)
    kinds = (value_kind(a),) if b is None else (value_kind(a), value_kind(b))
    if (rule := rules.get(kinds)) is None:
        if len(next(iter(rules), ())) != len(kinds):  # e.g. Binary neg, Unary plus
            raise EvalError(f"unsupported operator {e.op!r}", e.pos)
        raise EvalError(message.format(*kinds), e.pos)
    return rule


def evaluate(e: Expr, ctx: EvalContext) -> Value:
    """Evaluate an expression against a concrete field, point and bindings.

    An operator, unary or binary, evaluates its operands and applies the
    rule that ``_RULES`` holds for their kinds, the table of README's
    "Expression language"; other kinds, or an operator with no rule for the
    node's arity, raise EvalError rather than coercing.  ``∇ op v`` and the
    unbound names ``d``, ``Omega`` and ``Ω`` are functions of G.
    """
    if isinstance(e, ScalarLit):
        return e.value
    if isinstance(e, VectorRef):
        return _resolve(e.name, e.pos, ctx)
    if isinstance(e, Nabla):
        raise EvalError("∇ has no value on its own", e.pos)
    if isinstance(e, Unary):
        val = evaluate(e.operand, ctx)
        return _rule(e, val)(val)

    op = e.op
    if op == APPLY:
        return _eval_gradient_apply(e.right, ctx, e.pos)
    if isinstance(e.left, Nabla) and op in _PRODUCT_OPS:
        if not (isinstance(e.right, VectorRef) and e.right.name == FIELD_NAME):
            msg = f"∇ {OP_SYMBOL[op]} ... can only differentiate the field {FIELD_NAME!r}"
            raise EvalError(msg, e.pos)
        if op not in _NABLA_FORMS:
            raise EvalError(f"∇ cannot be combined with {OP_SYMBOL[op]!r}", e.pos)
        return _NABLA_FORMS[op](_grad_at(ctx, e.pos))

    lhs = evaluate(e.left, ctx)
    rhs = evaluate(e.right, ctx)
    return _rule(e, lhs, rhs)(lhs, rhs)


class AuditResult(_Value):
    """Which gradient layout a matrix follows for a given field and point."""

    # verdict: gibbs | alternative | symmetric-ambiguous | neither
    __match_args__ = ("verdict", "max_abs_deviation_gibbs", "max_abs_deviation_alt")

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

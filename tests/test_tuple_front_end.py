"""parse reads the lexer's (kind, text, pos) tuples; tokenize and parse_tokens wrap the same code.

The token pattern and tokenize that built one Token per lexeme are kept
below, verbatim, as the reference.  tokenize must return what they
return, and parse(s) must give the AST that parse_tokens(tokenize(s))
gives, with every position, or raise the same error at the same offset.
Non-ASCII text takes the byte-counting path, so the inputs mix in
whitespace, names and operators outside ASCII.
"""

import math
import re

from hypothesis import example, given, settings, strategies as st

from gibbskit import notation
from gibbskit.notation import (
    EOF, IDENT, NUMBER, LexError, NotationError, Token, _KEYWORD_KINDS, _SYMBOL_KINDS, parse,
    parse_tokens, tokenize,
)

from helpers import notation_workload
from test_notation import DEEP_CHAINS, LEXER_PIECES, PIECE_STRINGS

# --- the former lexer, verbatim ------------------------------------------------------

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


def reference_tokenize(src: str) -> list[Token]:
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


# --- the checks ----------------------------------------------------------------------


def outcome(call, src):
    """The result's repr, which shows every position, or the error's type, message and offset."""
    try:
        return repr(call(src))
    except NotationError as exc:
        return type(exc), str(exc), exc.pos


def assert_same_front_end(src):
    assert outcome(tokenize, src) == outcome(reference_tokenize, src)
    assert outcome(parse, src) == outcome(lambda s: parse_tokens(tokenize(s)), src)


# Whitespace, a name and operators outside ASCII, and the operators side by side.
WIDE_PIECES = LEXER_PIECES + [
    "\u00a0", "\u2003", "é", "café", "∇⊗·", "∇·", "⊗∇", "·∇(", "\u2003·\u00a0",
]
WIDE_STRINGS = st.lists(st.sampled_from(WIDE_PIECES), max_size=16).map("".join)


@settings(deadline=None, max_examples=1000)
@given(st.one_of(st.text(), PIECE_STRINGS, DEEP_CHAINS, WIDE_STRINGS))
@example("dr\u00a0·\u2003(∇⊗v)")
@example("é · v")
@example("∇⊗·v")
@example("café ⊗ ∇(\u2003é · v)")
@example("v\u2003")
@example("\u00a0@")
@example("∇ · v 1e999")
def test_the_tuple_front_end_matches_the_token_front_end(src):
    assert_same_front_end(src)


def test_the_notation_workload_scripts_read_the_same():
    workload = notation_workload(0)
    for i in range(300):
        for text, _ in workload.inputs(i)[3]:
            assert_same_front_end(text)


def test_offsets_count_bytes_in_ascii_and_in_wide_text():
    assert [t.pos for t in tokenize("dr . (grad (x) v)' ")] == [0, 3, 5, 6, 11, 15, 16, 17, 19]
    assert [t.pos for t in tokenize("é\u2003·\u00a0v")] == [0, 5, 9, 10]

"""The parser bounds expression depth, and parsing is total.

Deeply nested input raises ParseError at the token that passes
``MAX_DEPTH`` instead of exhausting the interpreter's stack in the parser,
``render`` or ``evaluate``.  For any input over the operator alphabet,
``parse`` either succeeds or raises NotationError at a byte offset inside
the input, and a parsed expression's rendering parses back to the same
rendering.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbskit import PolyField, Poly, Vec3
from gibbskit.notation import (
    MAX_DEPTH, EvalContext, NotationError, ParseError, evaluate, parse, render,
)

REPO = Path(__file__).resolve().parents[1]

DEEP = 10_000
DEEP_INPUTS = {
    "parentheses": "(" * DEEP + "v" + ")" * DEEP,
    "minuses": "-" * DEEP + "v",
    "sum chain": " + ".join(["v"] * DEEP),
    "product chain": " * ".join(["2"] * DEEP) + " * v",
    "transposes": "d" + "†" * DEEP,
    "gradient applications": "∇(" * DEEP + "c · v" + ")" * DEEP,
    "right-nested products": "dr · (" * DEEP + "v" + ")" * DEEP,
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_input_raises_parse_error_inside_the_input(name):
    src = DEEP_INPUTS[name]
    with pytest.raises(ParseError) as info:
        parse(src)
    assert 0 <= info.value.pos <= len(src.encode("utf-8"))
    assert f"more than {MAX_DEPTH} levels" in str(info.value)


def _nested(kind, n):
    if kind == "parentheses":
        return "(" * n + "v" + ")" * n
    if kind == "minuses":
        return "-" * n + "v"
    return " + ".join(["v"] * (n + 1))  # n operators


@pytest.mark.parametrize("kind", ["parentheses", "minuses", "sum chain"])
def test_depth_limit_is_exact_and_the_deepest_accepted_expression_evaluates(kind):
    field = PolyField((Poly((((1, 0, 0), 1.0),)), Poly.zero(), Poly.zero()))
    deepest = parse(_nested(kind, MAX_DEPTH))
    assert render(parse(render(deepest))) == render(deepest)
    got = evaluate(deepest, EvalContext(field, Vec3(2.0, 0.0, 0.0)))
    assert got.x == {"parentheses": 2.0, "minuses": 2.0, "sum chain": 2.0 * (MAX_DEPTH + 1)}[kind]
    with pytest.raises(ParseError):
        parse(_nested(kind, MAX_DEPTH + 1))


def test_cli_eval_of_deep_input_exits_3_with_one_line():
    res = subprocess.run(
        [sys.executable, "-m", "gibbskit", "eval", "--field", "sample_fields/shear.json",
         "--point", "0", "0", "0", DEEP_INPUTS["parentheses"]],
        cwd=str(REPO), text=True, capture_output=True, timeout=60,
    )
    assert res.returncode == 3
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert f"offset {MAX_DEPTH}" in res.stderr and "Traceback" not in res.stderr


# --- totality -------------------------------------------------------------------------

PIECES = list("∇⊗·.∧^×†'+-−*()  vxdc0129eE_²") + ["grad", "cross", "(x)", "1.5", "Ω"]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
@example("∇( x)")  # renders as ∇(x) would lex "(x)" as the dyad
@example("²")  # a digit that float() refuses
@example("1²")
def test_parse_is_total_and_render_round_trips(src):
    try:
        expr = parse(src)
    except NotationError as exc:
        assert 0 <= exc.pos <= len(src.encode("utf-8"))
        return
    text = render(expr)
    assert render(parse(text)) == text

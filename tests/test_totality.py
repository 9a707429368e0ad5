"""Every input gives a result or a documented exit code, never a traceback.

A field-spec file either loads or raises FieldSpecError (exit 2), also for
an integer coefficient too large for a float, nesting deeper than the
interpreter's recursion limit, an integer literal past its digit limit
and an exponent past ``MAX_EXPONENT``.  ``cli.main`` returns 0-4 for any
argv drawn from its flag vocabulary, with exactly one stderr line and no
stdout for codes 1-3; a failed invariant suite (code 4) reports on stdout.
``Tensor3.row``/``column`` check their index, and ``format_number``
renders non-finite values.
"""

import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gibbskit import Multivector, Poly, PolyField, Tensor3, cli, fields
from gibbskit.checks import CheckResult
from gibbskit.fields import MAX_EXPONENT, FieldSpecError, load_field
from gibbskit.ga import format_number, render_multivector

SAMPLES = Path(__file__).resolve().parents[1] / "sample_fields"
DEEP = 100_000
HUGE = "1" + "0" * 400  # an integer that no float can hold
LONG = "1" + "0" * 5000  # past the default 4,300-digit conversion limit


def spec(coeff: str = "1", powers: str = "[1, 0, 0]") -> str:
    monomial = '{"coeff": %s, "powers": %s}' % (coeff, powers)
    return '{"type": "polynomial", "components": [[%s], [], []]}' % monomial


def main(argv):
    """``cli.main`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Field and script files, by name."""
    root = tmp_path_factory.mktemp("totality")
    texts = {
        "huge_coeff": spec(coeff=HUGE),
        "deep": "[" * DEEP + "]" * DEEP,
        "long_int": spec(coeff=LONG),
        "nan": spec(coeff="NaN"),
        "big_exponent": spec(powers="[1000000000000, 0, 0]"),
        "x5000": spec(powers="[5000, 0, 0]"),
        "schema": '{"type": "polynomial"}',
        "script": "dr · (∇⊗v)\n∇·v\n",
        "bad_script": "dr · ∇⊗v\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = root / name
        paths[name].write_text(text, encoding="utf-8")
    paths["latin1"] = root / "latin1"
    paths["latin1"].write_bytes(b'{"type": "\xe9"}')
    paths["missing"] = root / "missing"
    paths["directory"] = root
    for name in ("shear", "rotation", "dilation"):
        paths[name] = SAMPLES / f"{name}.json"
    return {name: str(path) for name, path in paths.items()}


# --- field-spec files -----------------------------------------------------------


@pytest.mark.parametrize(
    "name, message",
    [
        ("huge_coeff", "coeff must be finite (at /components/0/0/coeff)"),
        ("big_exponent", f"exponent must be at most {MAX_EXPONENT} (at /components/0/0/powers/0)"),
        ("nan", "not valid JSON: NaN is not a JSON number (at /)"),
    ],
)
def test_field_spec_messages(files, name, message):
    with pytest.raises(FieldSpecError) as info:
        load_field(files[name])
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["deep", "long_int"])
def test_text_the_decoder_cannot_read_is_not_valid_json(files, name):
    with pytest.raises(FieldSpecError, match=r"^not valid JSON: ") as info:
        load_field(files[name])
    assert info.value.pointer == ""
    code, out, err = main(["kinematics", "--field", files[name], "--point", "1", "2", "3"])
    assert (code, out, err.count("\n")) == (2, "", 1)


def test_huge_integer_coefficient_exits_2(files):
    code, out, err = main(["kinematics", "--field", files["huge_coeff"], "--point", "1", "2", "3"])
    assert (code, out) == (2, "")
    assert err == f"{files['huge_coeff']}: coeff must be finite (at /components/0/0/coeff)\n"


def test_exponent_limit_is_checked_before_anything_is_evaluated(files, monkeypatch):
    def refuse(*args):
        raise AssertionError("a power table was built")

    monkeypatch.setattr(fields, "_power_tables", refuse)
    argv = ["kinematics", "--field", files["big_exponent"], "--point", "1", "2", "3"]
    code, out, err = main(argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"exponent must be at most {MAX_EXPONENT} (at /components/0/0/powers/0)\n")
    with pytest.raises(ValueError, match=f"at most {MAX_EXPONENT}"):
        Poly((((0, 10**12, 0), 1.0),))


def test_exponent_limit_is_inclusive(files):
    assert Poly((((MAX_EXPONENT, 0, 0), 1.0),)).terms == (((MAX_EXPONENT, 0, 0), 1.0),)
    with pytest.raises(ValueError, match=f"at most {MAX_EXPONENT}"):
        Poly((((MAX_EXPONENT + 1, 0, 0), 1.0),))
    assert isinstance(load_field(files["x5000"]), PolyField)


# Number literals that JSON, a float or the exponent limit may refuse, and two non-numbers.
NUMBERS = st.sampled_from(
    ["0", "-1", "2.5", "1e999", "NaN", "Infinity", "-Infinity", HUGE, "-" + HUGE, LONG,
     str(MAX_EXPONENT), str(MAX_EXPONENT + 1), "1000000000000", "true", "null"]
)
KEYS = st.sampled_from(["type", "components", "coeff", "powers", "x"])
STRINGS = st.sampled_from(['"polynomial"', '"x"', '""'])


def _composite(children):
    lists = st.lists(children, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
    objects = st.lists(st.tuples(KEYS, children), max_size=4).map(
        lambda kvs: "{" + ", ".join(f'"{k}": {v}' for k, v in kvs) + "}"
    )
    return lists | objects


VALUES = st.recursive(NUMBERS | STRINGS, _composite, max_leaves=12)
POWERS = st.lists(VALUES, min_size=3, max_size=3).map(lambda ps: "[" + ", ".join(ps) + "]")
MONOMIALS = st.builds(spec, NUMBERS, POWERS | VALUES)


@st.composite
def json_ish(draw):
    """Field specs and other JSON-ish text, nested in lists and maybe cut short."""
    text = draw(MONOMIALS | VALUES)
    depth = draw(st.sampled_from([0, 0, 10, 2_000, DEEP]))
    text = "[" * depth + text + "]" * depth
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(deadline=None)
@given(json_ish())
@example(spec(coeff=HUGE))
@example("[" * DEEP + "]" * DEEP)
@example(spec(coeff=LONG))
@example(spec(coeff="NaN"))
@example(spec(powers="[1000000000000, 0, 0]"))
def test_load_field_is_total(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "json_ish.json"
    path.write_text(text, encoding="utf-8")
    try:
        field = load_field(str(path))
    except FieldSpecError:
        return
    assert isinstance(field, PolyField)


# --- the command line -------------------------------------------------------------

FIELD_NAMES = [
    "huge_coeff", "deep", "long_int", "nan", "big_exponent", "x5000", "schema", "latin1",
    "missing", "directory", "shear", "rotation", "dilation", "shear", "rotation", "dilation",
]
SCRIPT_NAMES = ["script", "bad_script", "latin1", "missing"]
COORDS = st.sampled_from(["0", "1", "-2e-3", "2", "0.5"])
NUMBER_ARGS = COORDS | st.sampled_from(["1e999", "nan", "-inf", "x", ""])
EXPRESSIONS = st.sampled_from(
    ["dr · (∇⊗v)", "∇·v", "∇×v", "∇(c · v)", "d", "Ω", "v", "dr · ∇⊗v", "((", "1e999", "w"]
)


def _flag(name, *values):
    return st.tuples(st.just(name), *values).map(list)


FIELD = _flag("--field", st.sampled_from(FIELD_NAMES).map(lambda n: "@" + n))
POINT = _flag("--point", COORDS, COORDS, COORDS)
INPUT = EXPRESSIONS.map(lambda e: [e]) | _flag(
    "--script", st.sampled_from(SCRIPT_NAMES).map(lambda n: "@" + n)
)
FLAGS = st.one_of(
    FIELD,
    POINT,
    INPUT,
    _flag("--point", NUMBER_ARGS, NUMBER_ARGS, NUMBER_ARGS),
    _flag("--point", NUMBER_ARGS),
    _flag("--bind", st.sampled_from(["dr=0,1,0", "c=1,2,3", "dr=1,inf,0", "x", "=1,2,3"])),
    _flag("--output", st.sampled_from(["text", "json", "xml"])),
    _flag("--fd-step", NUMBER_ARGS),
    _flag("--seed", st.sampled_from(["0", "-7", "12345678901234567890", "x"])),
    st.sampled_from([["--unknown"], ["--field"], ["--point"], ["extra"]]),
)


@st.composite
def argvs(draw):
    """Mostly well-formed command lines, each with a few flags from the whole vocabulary."""
    command = draw(st.sampled_from(["eval", "kinematics", "conventions", "check", "nope"]))
    flags = []
    if command in ("eval", "kinematics", "conventions"):
        flags += [draw(FIELD), draw(POINT)]
    if command == "eval":
        flags += [draw(INPUT), ["--bind", "dr=0,1,0"], ["--bind", "c=1,2,3"]]
    flags = [flag for flag in flags if draw(st.integers(0, 9))]
    flags += draw(st.lists(FLAGS, max_size=2))
    return [command, *(arg for flag in draw(st.permutations(flags)) for arg in flag)]


@settings(deadline=None)
@given(argvs())
@example(["kinematics", "--field", "@huge_coeff", "--point", "1", "2", "3"])
@example(["eval", "--field", "@long_int", "v"])
@example(["conventions", "--field", "@deep"])
@example(["kinematics", "--field", "@x5000", "--point", "2", "0", "0"])
@example(["check", "--seed", "3"])
def test_cli_main_is_total(files, argv):
    argv = [files[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    with pytest.MonkeyPatch.context() as mp:
        results = [CheckResult("stub: broken", False, 1, "boom")]
        mp.setattr("gibbskit.checks.run_all", lambda seed: results)
        code, out, err = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code == 4:
        # A failed invariant suite reports on stdout, like a passing one.
        assert err == "" and "stub: broken" in out
    elif code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")


# --- indices and rendering --------------------------------------------------------


@pytest.mark.parametrize("index", [0, -1, 4, 2.5, "1", None])
def test_row_and_column_refuse_indices_outside_1_to_3(index):
    t = Tensor3(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    with pytest.raises(ValueError, match="index must be in 1..3"):
        t.row(index)
    with pytest.raises(ValueError, match="index must be in 1..3"):
        t.column(index)
    assert t.row(3).as_tuple() == (7.0, 8.0, 9.0)
    assert t.column(3).as_tuple() == (3.0, 6.0, 9.0)


def test_format_number_renders_non_finite_values():
    assert [format_number(c) for c in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert str(Multivector.scalar(math.inf)) == "inf"
    assert str(Multivector.scalar(math.nan)) == "nan"
    m = Multivector((0.0, -math.inf, math.nan, 0.0, 0.0, 0.0, 0.0, 1.0))
    assert render_multivector(m) == "-inf e1 + nan e2 + e123"
    assert [format_number(c) for c in (3.0, -0.0, 2.5, 1e16, 9007199254740993.0)] == [
        "3", "0", "2.5", "1e+16", "9007199254740992",
    ]

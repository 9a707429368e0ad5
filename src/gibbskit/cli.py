"""Command-line front end.

Four commands, each taking only the flags it reads:

    eval         evaluate a notation expression against a field at a point
    kinematics   full report (gradients, d, omega, bivector, vorticity, ...)
    conventions  both gradient layouts and the rotation-tensor pair
    check        run the seeded invariant suite

Exit codes: 0 success, 1 malformed invocation, 2 field-spec schema
violation, 3 expression parse/eval error, 4 invariant-suite failure.
Exit 1 also covers a result that cannot be computed or written: a power
that overflows while the field is evaluated, a non-finite value asked
for as JSON, which RFC 8259 cannot represent, or a stdout the reader
has closed.  Output is deterministic for a fixed invocation (including
--seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import kinematics, notation
from .dyadics import _json_value, render_matrix, transpose
from .fields import DEFAULT_FD_STEP, FieldSpecError, PolyField, _check_fd_step, load_field
from .ga import Vec3, format_short, render_multivector

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FIELD_SPEC = 2
EXIT_EXPRESSION = 3
EXIT_CHECK_FAILED = 4


# The characters ``str.splitlines`` breaks on, each mapped to its escape,
# so that a message quoting a key or a path stays one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _FloatMatcher:
    """Stands in for argparse's negative-number pattern: any ``float()`` form.

    argparse reads an argument that starts with ``-`` as a value only if its
    ``_negative_number_matcher`` (the same on Python 3.10-3.13) matches, and
    that pattern knows ``-12`` and ``-1.5`` but not ``-2e-3``, so
    ``--point 0 -2e-3 0`` would take ``-2e-3`` for an option.  No option
    here looks like a number.
    """

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatMatcher

    # argparse exits with 2 on usage errors; the schema-violation code
    # is reserved for field files, so remap usage problems to 1.
    def error(self, message: str):
        if message.startswith("one of the arguments"):
            # eval's expression-or-script choice, the only required group:
            # argparse takes an expression such as ``-v`` for an option.
            message += "; an expression that starts with '-' goes after '--'"
        raise _CliError(f"{self.prog}: {message}", EXIT_CONFIG)


def _finite_float(raw: str) -> float:
    """argparse type: a finite number."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _fd_step(raw: str) -> float:
    """argparse type: a step that ``fields._check_fd_step`` accepts, as EvalContext does."""
    try:
        value = float(raw)
        _check_fd_step(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be > 0 with 2 * H finite, got {raw!r}")
    return value


def _binding(raw: str) -> tuple[str, Vec3]:
    """argparse type for --bind: ``name=x,y,z``, a name expressions can read, finite x, y, z."""
    name, sep, rest = raw.partition("=")
    parts = rest.split(",")
    if not sep or not name or len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects name=x,y,z, got {raw!r}")
    try:
        ident = notation.tokenize(name)[0] == notation.Token(notation.IDENT, name, 0)
    except notation.LexError:
        ident = False
    if not ident or name == notation.FIELD_NAME:
        raise argparse.ArgumentTypeError(f"cannot bind {name!r}: not an identifier other than 'v'")
    return name, Vec3(*(_finite_float(p) for p in parts))


def _add_common(p: argparse.ArgumentParser, *, needs_point: bool = False) -> None:
    p.add_argument("--field", dest="field_path", required=True, metavar="PATH",
                   help="field-spec JSON file")
    p.add_argument("--point", nargs=3, type=_finite_float, required=needs_point,
                   default=(0.0, 0.0, 0.0), metavar=("X", "Y", "Z"),
                   help="evaluation point")
    p.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gibbskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    _add_common(p_eval)
    p_eval.add_argument("--bind", action="append", type=_binding, default=[],
                        metavar="NAME=X,Y,Z", help="bind a constant vector (repeatable)")
    p_eval.add_argument("--fd-step", type=_fd_step, default=DEFAULT_FD_STEP, metavar="H",
                        help="central-difference step; changes no output, since the fields "
                             "loaded are polynomial (default %(default)g)")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--script", metavar="PATH",
                        help="file with one expression per line")
    source.add_argument("expression", nargs="?", help="expression text")

    p_kin = sub.add_parser("kinematics", help="full kinematics report")
    _add_common(p_kin, needs_point=True)

    p_con = sub.add_parser("conventions", help="compare gradient layouts")
    _add_common(p_con)

    p_chk = sub.add_parser("check", help="run the invariant suite")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _load_field(args: argparse.Namespace) -> PolyField:
    try:
        return load_field(args.field_path)
    except FieldSpecError as exc:
        raise _CliError(f"{args.field_path}: {exc}", EXIT_FIELD_SPEC)
    except OSError as exc:
        raise _CliError(f"cannot read field file: {exc}", EXIT_CONFIG)


def _value_to_json(val: notation.Value):
    return {"kind": notation.value_kind(val), "value": _json_value(val)}


def _value_to_text(val: notation.Value) -> str:
    kind = notation.value_kind(val)
    if kind == "scalar":
        return format_short(val)
    if kind == "vector":
        return f"({', '.join(map(format_short, val.as_tuple()))})"
    if kind == "tensor":
        return render_matrix(val)
    return render_multivector(val, fmt=format_short)


def _titled(title: str, val: notation.Value) -> str:
    """``title: value``; a matrix starts on the line after its title."""
    sep = "\n" if notation.value_kind(val) == "tensor" else " "
    return f"{title}:{sep}{_value_to_text(val)}"


def _run_eval(args: argparse.Namespace):
    f = _load_field(args)
    ctx = notation.EvalContext(f, Vec3(*args.point), dict(args.bind), fd_step=args.fd_step)
    if args.script is not None:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                sources = [line.strip() for line in fh if line.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(f"cannot read script: {exc}", EXIT_CONFIG)
    else:
        sources = [args.expression]
    try:
        values = [notation.evaluate(notation.parse(src), ctx) for src in sources]
    except notation.NotationError as exc:
        raise _CliError(f"expression error: {exc}", EXIT_EXPRESSION)
    results = [{"expression": src, **_value_to_json(val)} for src, val in zip(sources, values)]
    payload = results[0] if args.script is None else results
    return EXIT_OK, payload, [_value_to_text(val) for val in values]


def _run_kinematics(args: argparse.Namespace):
    f = _load_field(args)
    rep = kinematics.report(f, Vec3(*args.point))
    return EXIT_OK, rep.to_dict(), [_titled(title, val) for title, val in (
        ("point", rep.point),
        ("gradient (postfactor layout, row i = d/dx_i)", rep.grad_gibbs),
        ("gradient transpose (alternative layout)", rep.grad_alt),
        ("rate of strain d", rep.d),
        ("rate of rotation omega (postfactor)", rep.omega),
        ("omega bivector", rep.omega_bivector),
        ("vorticity", rep.vorticity),
        ("divergence", rep.divergence),
    )]


def _run_conventions(args: argparse.Namespace):
    f = _load_field(args)
    point = Vec3(*args.point)
    rep = kinematics.report(f, point)
    g, a, omega = rep.grad_gibbs, rep.grad_alt, rep.omega
    difference = g - a
    prefactor = transpose(omega)
    payload = {key: _json_value(val) for key, val in (
        ("point", point), ("grad_gibbs", g), ("grad_alt", a), ("difference", difference),
        ("omega_postfactor", omega), ("omega_prefactor", prefactor),
    )}
    lines = [_titled(title, val) for title, val in (
        ("point", point),
        ("gradient, postfactor layout", g),
        ("gradient, alternative (transposed) layout", a),
        ("difference", difference),
    )]
    lines.append("rotation tensor: postfactor form    | prefactor form (transpose):")
    pairs = zip(*(_value_to_text(t).splitlines() for t in (omega, prefactor)))
    lines += [f"{post}    |{pre}" for post, pre in pairs]
    return EXIT_OK, payload, lines


def _run_check(args: argparse.Namespace):
    from . import checks  # on first use, so that the other commands do not pay for it

    results = checks.run_all(args.seed)
    failed = sum(1 for r in results if not r.passed)
    payload = {
        "seed": args.seed,
        "passed": len(results) - failed,
        "failed": failed,
        "checks": [_json_value(r) for r in results],
    }
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  ({r.cases} cases; {r.detail})"
        for r in results
    ]
    lines.append(f"check: {len(results) - failed} passed, {failed} failed (seed {args.seed})")
    return (EXIT_OK if failed == 0 else EXIT_CHECK_FAILED), payload, lines


# Each command returns (exit status, JSON payload, text lines).
COMMANDS = {
    "eval": _run_eval,
    "kinematics": _run_kinematics,
    "conventions": _run_conventions,
    "check": _run_check,
}


def run(args: argparse.Namespace, out=None) -> int:
    """Execute a parsed command line; returns the exit status."""
    try:
        code, payload, lines = COMMANDS[args.command](args)
    except OverflowError as exc:
        raise _CliError(f"numeric overflow while evaluating the field: {exc}", EXIT_CONFIG)
    if args.output == "json":
        try:
            lines = [json.dumps(payload, indent=2, allow_nan=False)]
        except ValueError as exc:
            raise _CliError(f"cannot write JSON: a result is not finite ({exc})", EXIT_CONFIG)
    (out if out is not None else sys.stdout).write("".join(line + "\n" for line in lines))
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        code = run(build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(str(exc).translate(_LINE_BREAKS), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit, so
        # point it at devnull to keep that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Four commands share one flag vocabulary:

    eval         evaluate a notation expression against a field at a point
    kinematics   full report (gradients, d, omega, bivector, vorticity, ...)
    conventions  both gradient layouts and the rotation-tensor pair
    check        run the seeded invariant suite

Exit codes: 0 success, 1 malformed invocation, 2 field-spec schema
violation, 3 expression parse/eval error, 4 invariant-suite failure.
Exit 1 also covers a result that cannot be computed or written: a power
that overflows while the field is evaluated, or a non-finite value asked
for as JSON, which RFC 8259 cannot represent.  Output is deterministic
for a fixed invocation (including --seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import kinematics, notation
from .dyadics import Tensor3, antisym, render_matrix, transpose
from .fields import FieldSpecError, PolyField, grad_gibbs, load_field
from .ga import Vec3, render_multivector

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FIELD_SPEC = 2
EXIT_EXPRESSION = 3
EXIT_CHECK_FAILED = 4


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
        raise _CliError(f"{self.prog}: {message}", EXIT_CONFIG)


def __getattr__(name: str):
    # ``checks`` is imported on first use, so that the other commands do
    # not pay for it; ``cli.checks`` still resolves.
    if name == "checks":
        from . import checks

        return checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _fmt_vec(v: Vec3) -> str:
    return f"({_fmt(v.x)}, {_fmt(v.y)}, {_fmt(v.z)})"


def _finite_float(raw: str, positive: bool = False) -> float:
    """argparse type: a finite number, and > 0 when ``positive``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and not value > 0.0):
        rule = "a finite number > 0" if positive else "a finite number"
        raise argparse.ArgumentTypeError(f"must be {rule}, got {raw!r}")
    return value


def _fd_step(raw: str) -> float:
    return _finite_float(raw, positive=True)


def _binding(raw: str) -> tuple[str, Vec3]:
    """argparse type for --bind: ``name=x,y,z`` with finite components."""
    name, sep, rest = raw.partition("=")
    parts = rest.split(",")
    if not sep or not name or len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects name=x,y,z, got {raw!r}")
    return name, Vec3(*(_finite_float(p) for p in parts))


def _add_common(p: argparse.ArgumentParser, *, needs_field: bool) -> None:
    p.add_argument("--field", dest="field_path", required=needs_field, metavar="PATH",
                   help="field-spec JSON file")
    p.add_argument("--point", nargs=3, type=_finite_float, metavar=("X", "Y", "Z"),
                   help="evaluation point")
    p.add_argument("--bind", action="append", type=_binding, default=[],
                   metavar="NAME=X,Y,Z", help="bind a constant vector (repeatable)")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--fd-step", type=_fd_step, default=None, metavar="H",
                   help="step for numerical gradients (default 1e-5)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gibbskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    _add_common(p_eval, needs_field=True)
    p_eval.add_argument("expression", nargs="?", help="expression text")
    p_eval.add_argument("--script", metavar="PATH",
                        help="file with one expression per line")

    p_kin = sub.add_parser("kinematics", help="full kinematics report")
    _add_common(p_kin, needs_field=True)

    p_con = sub.add_parser("conventions", help="compare gradient layouts")
    _add_common(p_con, needs_field=True)

    p_chk = sub.add_parser("check", help="run the invariant suite")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Apply the rules that span several arguments; returns ``args``."""
    if args.command == "kinematics" and args.point is None:
        raise _CliError("kinematics requires --point", EXIT_CONFIG)
    if args.command == "eval" and (args.expression is None) == (args.script is None):
        raise _CliError("eval needs an expression or --script (not both)", EXIT_CONFIG)
    return args


def _point(args: argparse.Namespace) -> Vec3:
    return Vec3(*args.point) if args.point is not None else Vec3(0.0, 0.0, 0.0)


def _load_field(args: argparse.Namespace) -> PolyField:
    try:
        return load_field(args.field_path)
    except FieldSpecError as exc:
        raise _CliError(f"{args.field_path}: {exc}", EXIT_FIELD_SPEC)
    except OSError as exc:
        raise _CliError(f"cannot read field file: {exc}", EXIT_CONFIG)


def _write_json(out, payload) -> None:
    """Write ``payload`` as strict RFC 8259 JSON, or nothing if it cannot be."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise _CliError(f"cannot write JSON: a result is not finite ({exc})", EXIT_CONFIG)
    out.write(text + "\n")


def _value_to_json(val: notation.Value):
    kind = notation.value_kind(val)
    if kind == "scalar":
        body = val
    elif kind == "vector":
        body = list(val.as_tuple())
    elif kind == "tensor":
        body = val.to_lists()
    else:
        body = dict(zip(("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123"), val.coeffs))
    return {"kind": kind, "value": body}


def _value_to_text(val: notation.Value) -> str:
    kind = notation.value_kind(val)
    if kind == "scalar":
        return _fmt(val)
    if kind == "vector":
        return _fmt_vec(val)
    if kind == "tensor":
        return render_matrix(val)
    return render_multivector(val, fmt=_fmt)


def _run_eval(args: argparse.Namespace, out) -> int:
    f = _load_field(args)
    step = args.fd_step if args.fd_step is not None else 1e-5
    ctx = notation.EvalContext(f, _point(args), dict(args.bind), fd_step=step)
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
    if args.output == "json":
        results = [
            {"expression": src, **_value_to_json(val)}
            for src, val in zip(sources, values)
        ]
        _write_json(out, results[0] if args.script is None else results)
    else:
        for val in values:
            out.write(_value_to_text(val) + "\n")
    return EXIT_OK


def _run_kinematics(args: argparse.Namespace, out) -> int:
    f = _load_field(args)
    rep = kinematics.report(f, _point(args))
    if args.output == "json":
        _write_json(out, rep.to_dict())
        return EXIT_OK
    out.write(f"point: {_fmt_vec(rep.point)}\n")
    sections = (
        ("gradient (postfactor layout, row i = d/dx_i)", rep.grad_gibbs),
        ("gradient transpose (alternative layout)", rep.grad_alt),
        ("rate of strain d", rep.d),
        ("rate of rotation omega (postfactor)", rep.omega),
    )
    for title, tensor in sections:
        out.write(f"{title}:\n{render_matrix(tensor)}\n")
    out.write(f"omega bivector: {render_multivector(rep.omega_bivector, fmt=_fmt)}\n")
    out.write(f"vorticity: {_fmt_vec(rep.vorticity)}\n")
    out.write(f"divergence: {_fmt(rep.divergence)}\n")
    return EXIT_OK


def _side_by_side(left: Tensor3, right: Tensor3) -> str:
    lt = render_matrix(left).splitlines()
    rt = render_matrix(right).splitlines()
    return "\n".join(f"{a}    |{b}" for a, b in zip(lt, rt))


def _run_conventions(args: argparse.Namespace, out) -> int:
    f = _load_field(args)
    point = _point(args)
    g = grad_gibbs(f, point)
    a = transpose(g)
    omega = antisym(g)
    if args.output == "json":
        payload = {
            "point": list(point.as_tuple()),
            "grad_gibbs": g.to_lists(),
            "grad_alt": a.to_lists(),
            "difference": (g - a).to_lists(),
            "omega_postfactor": omega.to_lists(),
            "omega_prefactor": transpose(omega).to_lists(),
        }
        _write_json(out, payload)
        return EXIT_OK
    out.write(f"point: {_fmt_vec(point)}\n")
    out.write(f"gradient, postfactor layout:\n{render_matrix(g)}\n")
    out.write(f"gradient, alternative (transposed) layout:\n{render_matrix(a)}\n")
    out.write(f"difference:\n{render_matrix(g - a)}\n")
    out.write("rotation tensor: postfactor form    | prefactor form (transpose):\n")
    out.write(_side_by_side(omega, transpose(omega)) + "\n")
    return EXIT_OK


def _run_check(args: argparse.Namespace, out) -> int:
    from . import checks

    results = checks.run_all(args.seed)
    failed = sum(1 for r in results if not r.passed)
    if args.output == "json":
        payload = {
            "seed": args.seed,
            "passed": len(results) - failed,
            "failed": failed,
            "checks": [
                {"name": r.name, "passed": r.passed, "cases": r.cases, "detail": r.detail}
                for r in results
            ],
        }
        _write_json(out, payload)
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            out.write(f"{status}  {r.name:<{width}}  ({r.cases} cases; {r.detail})\n")
        out.write(f"check: {len(results) - failed} passed, {failed} failed (seed {args.seed})\n")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def run(args: argparse.Namespace, out=None) -> int:
    """Execute a parsed command line; returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        if args.command == "eval":
            return _run_eval(args, out)
        if args.command == "kinematics":
            return _run_kinematics(args, out)
        if args.command == "conventions":
            return _run_conventions(args, out)
    except OverflowError as exc:
        raise _CliError(f"numeric overflow while evaluating the field: {exc}", EXIT_CONFIG)
    if args.command == "check":
        return _run_check(args, out)
    raise _CliError(f"unknown command {args.command!r}", EXIT_CONFIG)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        return run(_config_from_args(parser.parse_args(argv)))
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

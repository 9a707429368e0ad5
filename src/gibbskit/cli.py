"""Command-line front end.

Four commands share one flag vocabulary:

    eval         evaluate a notation expression against a field at a point
    kinematics   full report (gradients, d, omega, bivector, vorticity, ...)
    conventions  both gradient layouts and the rotation-tensor pair
    check        run the seeded invariant suite

Exit codes: 0 success, 1 malformed invocation, 2 field-spec schema
violation, 3 expression parse/eval error, 4 invariant-suite failure.
Output is deterministic for a fixed invocation (including --seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field

from . import checks, kinematics, notation
from .dyadics import Tensor3, render_matrix, transpose
from .fields import FieldSpecError, PolyField, _check_fd_step, grad_alt, grad_gibbs, load_field
from .ga import Multivector, Vec3, render_multivector

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FIELD_SPEC = 2
EXIT_EXPRESSION = 3
EXIT_CHECK_FAILED = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the schema-violation code
    # is reserved for field files, so remap usage problems to 1.
    def error(self, message: str):
        raise _CliError(f"{self.prog}: {message}", EXIT_CONFIG)


@dataclass(frozen=True)
class RunConfig:
    command: str
    field_path: str | None = None
    point: Vec3 = Vec3(0.0, 0.0, 0.0)
    bindings: dict = dc_field(default_factory=dict)
    expression: str | None = None
    script: str | None = None
    output: str = "text"
    fd_step: float | None = None
    seed: int = 0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _fmt_vec(v: Vec3) -> str:
    return f"({_fmt(v.x)}, {_fmt(v.y)}, {_fmt(v.z)})"


def _parse_bind(raw: str) -> tuple[str, Vec3]:
    name, sep, rest = raw.partition("=")
    parts = rest.split(",")
    if not sep or not name or len(parts) != 3:
        raise _CliError(f"--bind expects name=x,y,z, got {raw!r}", EXIT_CONFIG)
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise _CliError(f"--bind {raw!r}: components must be numbers", EXIT_CONFIG)
    return name, Vec3(*nums)


def _fd_step(raw: str) -> float:
    try:
        step = float(raw)
        _check_fd_step(step)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {raw!r}")
    return step


def _add_common(p: argparse.ArgumentParser, *, needs_field: bool) -> None:
    p.add_argument("--field", dest="field_path", required=needs_field, metavar="PATH",
                   help="field-spec JSON file")
    p.add_argument("--point", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   help="evaluation point")
    p.add_argument("--bind", action="append", default=[], metavar="NAME=X,Y,Z",
                   help="bind a constant vector (repeatable)")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    bindings = dict(_parse_bind(b) for b in getattr(args, "bind", []))
    point = Vec3(*args.point) if getattr(args, "point", None) else Vec3(0.0, 0.0, 0.0)
    if args.command == "kinematics" and getattr(args, "point", None) is None:
        raise _CliError("kinematics requires --point", EXIT_CONFIG)
    if args.command == "eval":
        if (args.expression is None) == (args.script is None):
            raise _CliError("eval needs an expression or --script (not both)", EXIT_CONFIG)
    return RunConfig(
        command=args.command,
        field_path=getattr(args, "field_path", None),
        point=point,
        bindings=bindings,
        expression=getattr(args, "expression", None),
        script=getattr(args, "script", None),
        output=args.output,
        fd_step=getattr(args, "fd_step", None),
        seed=getattr(args, "seed", 0),
    )


def _load_field(cfg: RunConfig) -> PolyField:
    try:
        return load_field(cfg.field_path)
    except FieldSpecError as exc:
        raise _CliError(f"{cfg.field_path}: {exc}", EXIT_FIELD_SPEC)
    except OSError as exc:
        raise _CliError(f"cannot read field file: {exc}", EXIT_CONFIG)


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


def _run_eval(cfg: RunConfig, out) -> int:
    f = _load_field(cfg)
    step = cfg.fd_step if cfg.fd_step is not None else 1e-5
    ctx = notation.EvalContext(f, cfg.point, cfg.bindings, fd_step=step)
    if cfg.script is not None:
        try:
            with open(cfg.script, "r", encoding="utf-8") as fh:
                sources = [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise _CliError(f"cannot read script: {exc}", EXIT_CONFIG)
    else:
        sources = [cfg.expression]
    try:
        values = [notation.evaluate(notation.parse(src), ctx) for src in sources]
    except notation.NotationError as exc:
        raise _CliError(f"expression error: {exc}", EXIT_EXPRESSION)
    if cfg.output == "json":
        results = [
            {"expression": src, **_value_to_json(val)}
            for src, val in zip(sources, values)
        ]
        out.write(json.dumps(results[0] if cfg.script is None else results, indent=2))
        out.write("\n")
    else:
        for val in values:
            out.write(_value_to_text(val) + "\n")
    return EXIT_OK


def _run_kinematics(cfg: RunConfig, out) -> int:
    f = _load_field(cfg)
    rep = kinematics.report(f, cfg.point)
    if cfg.output == "json":
        out.write(json.dumps(rep.to_dict(), indent=2) + "\n")
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


def _run_conventions(cfg: RunConfig, out) -> int:
    f = _load_field(cfg)
    g = grad_gibbs(f, cfg.point)
    a = grad_alt(f, cfg.point)
    _, omega = kinematics.decompose(f, cfg.point)
    if cfg.output == "json":
        payload = {
            "point": list(cfg.point.as_tuple()),
            "grad_gibbs": g.to_lists(),
            "grad_alt": a.to_lists(),
            "difference": (g - a).to_lists(),
            "omega_postfactor": omega.to_lists(),
            "omega_prefactor": transpose(omega).to_lists(),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    out.write(f"point: {_fmt_vec(cfg.point)}\n")
    out.write(f"gradient, postfactor layout:\n{render_matrix(g)}\n")
    out.write(f"gradient, alternative (transposed) layout:\n{render_matrix(a)}\n")
    out.write(f"difference:\n{render_matrix(g - a)}\n")
    out.write("rotation tensor: postfactor form    | prefactor form (transpose):\n")
    out.write(_side_by_side(omega, transpose(omega)) + "\n")
    return EXIT_OK


def _run_check(cfg: RunConfig, out) -> int:
    results = checks.run_all(cfg.seed)
    failed = sum(1 for r in results if not r.passed)
    if cfg.output == "json":
        payload = {
            "seed": cfg.seed,
            "passed": len(results) - failed,
            "failed": failed,
            "checks": [
                {"name": r.name, "passed": r.passed, "cases": r.cases, "detail": r.detail}
                for r in results
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            out.write(f"{status}  {r.name:<{width}}  ({r.cases} cases; {r.detail})\n")
        out.write(f"check: {len(results) - failed} passed, {failed} failed (seed {cfg.seed})\n")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def run(cfg: RunConfig, out=None) -> int:
    """Execute a RunConfig; returns the exit status."""
    out = out if out is not None else sys.stdout
    if cfg.command == "eval":
        return _run_eval(cfg, out)
    if cfg.command == "kinematics":
        return _run_kinematics(cfg, out)
    if cfg.command == "conventions":
        return _run_conventions(cfg, out)
    if cfg.command == "check":
        return _run_check(cfg, out)
    raise _CliError(f"unknown command {cfg.command!r}", EXIT_CONFIG)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

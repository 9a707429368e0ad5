"""Seed-driven invariant suite covering every module.

Each check draws its own cases from a deterministic RNG derived from the
caller's seed, so two runs with the same seed produce identical results
and identical formatted output.  ``run_all`` returns one CheckResult per
invariant; the CLI turns these into pass/fail lines and the exit status.

Most invariants are written once, as a case function, and one of three
loops turns each into a row of ``_CHECKS``: ``_bounded`` (every error a
case yields is finite and within a bound), ``_fitted_order`` (the errors a
case returns at _STEPS converge at order 2 or better) or ``_holds`` (every
flag a case yields is true).
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from operator import sub

from . import ga
from .dyadics import (
    Tensor3,
    _nan_max,
    antisym,
    dyad,
    max_abs,
    nonion_basis,
    postfactor,
    prefactor,
    sym,
    trace,
    transpose,
)
from .fields import Poly, PolyField, fd_grad, grad_alt, grad_gibbs
from .ga import Multivector, Vec3, _Value
from . import kinematics as kin
from . import notation

__all__ = ["CheckResult", "run_all", "CHECK_NAMES"]


class CheckResult(_Value):
    __match_args__ = ("name", "passed", "cases", "detail")

    def __init__(self, name: str, passed: bool, cases: int, detail: str) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["passed"] = passed
        fields["cases"] = cases
        fields["detail"] = detail


# ---------------------------------------------------------------------------
# case generators


# The draws below compute ``lo + (hi - lo) * r()`` with ``r = rng.random``,
# which is what ``rng.uniform(lo, hi)`` returns, without its call.
def _rand_vec(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> Vec3:
    r, w = rng.random, hi - lo
    return Vec3(lo + w * r(), lo + w * r(), lo + w * r())


def _rand_unit(rng: random.Random) -> Vec3:
    while True:
        v = _rand_vec(rng)
        n = v.norm()
        if n > 1e-3:
            return (1.0 / n) * v


def _rand_mv(rng: random.Random) -> Multivector:
    r = rng.random
    return Multivector(tuple([-2.0 + 4.0 * r() for _ in range(8)]))


def _rand_tensor(rng: random.Random) -> Tensor3:
    r = rng.random
    return Tensor3(tuple([tuple([-2.0 + 4.0 * r() for _ in range(3)]) for _ in range(3)]))


_CUBIC_POWERS = [
    (px, py, pz)
    for px in range(4)
    for py in range(4)
    for pz in range(4)
    if px + py + pz <= 3
]


# Every monomial of degree <= 3; _rand_cubic gives each a new coefficient.
_CUBIC = Poly(tuple((p, 1.0) for p in _CUBIC_POWERS))


def _rand_cubic(rng: random.Random) -> PolyField:
    r = rng.random
    comps = tuple(
        _CUBIC._with_coeffs([-1.0 + 2.0 * r() for _ in _CUBIC_POWERS]) for _ in range(3)
    )
    return PolyField(comps)


def _gradient_case(rng: random.Random) -> tuple[PolyField, Vec3, Vec3, Tensor3]:
    """A random cubic field f, a point x, a displacement dx, and G at x, drawn in that order."""
    f, x, dx = _rand_cubic(rng), _rand_vec(rng), _rand_vec(rng)
    return f, x, dx, grad_gibbs(f, x)


def _curl_field(a: PolyField) -> PolyField:
    """Exactly divergence-free field built from a polynomial potential."""
    a1, a2, a3 = a.components
    return PolyField(
        (
            a3.diff(1) - a2.diff(2),
            a1.diff(2) - a3.diff(0),
            a2.diff(0) - a1.diff(1),
        )
    )


# ---------------------------------------------------------------------------
# error measures


def _mv_err(m: Multivector, n: Multivector) -> float:
    return _nan_max(list(map(abs, map(sub, m.coeffs, n.coeffs))))


def _mv_scale(*ms: Multivector) -> float:
    return max(1.0, *(abs(c) for m in ms for c in m.coeffs))


def _vec_err(a: Vec3, b: Vec3) -> float:
    return _nan_max(list(map(abs, map(sub, a.as_tuple(), b.as_tuple()))))


def _vec_scale(*vs: Vec3) -> float:
    return max(1.0, *(abs(c) for v in vs for c in v.as_tuple()))


# Steps of the two fitted-order checks.  At h = 0.1 the h^3 term of a
# cubic's Taylor remainder still competes with the h^2 term and pulls the
# fitted order of a correct gradient below 1.9.
_STEPS = (1e-2, 1e-3, 1e-4)


def _fit_slope(errs: list[float]) -> float:
    """Least-squares slope of log err against log h, h in _STEPS."""
    x0, x1, x2 = [math.log(h) for h in _STEPS]
    y0, y1, y2 = [math.log(e) for e in errs]
    mx, my = (0.0 + x0 + x1 + x2) / 3, (0.0 + y0 + y1 + y2) / 3
    num = 0.0 + (x0 - mx) * (y0 - my) + (x1 - mx) * (y1 - my) + (x2 - mx) * (y2 - my)
    den = 0.0 + (x0 - mx) ** 2 + (x1 - mx) ** 2 + (x2 - mx) ** 2
    return num / den


# ---------------------------------------------------------------------------
# the three loops: largest error against a bound, smallest fitted order, every flag


def _bounded(case: Callable, cases: int, bound: float, label: str) -> Callable:
    """The check that every error ``case(rng, n)`` yields, n < cases, is finite and <= bound.

    The largest error is reported; the first nan or infinite one fails at once.
    """

    def check(rng: random.Random):
        worst = 0.0
        for n in range(cases):
            for err in case(rng, n):
                if not math.isfinite(err):
                    return False, n + 1, f"max {label} {err:.2e}"
                worst = max(worst, err)
        return worst <= bound, cases, f"max {label} {worst:.2e}"

    return check


def _fitted_order(case: Callable) -> Callable:
    """The check that 10 cases, each giving its errors at _STEPS, converge at order >= 1.9.

    The smallest fitted order is reported; a nan or infinite one fails at once.
    """

    def check(rng: random.Random):
        worst = math.inf
        for n in range(10):
            slope = _fit_slope(case(rng))
            if not math.isfinite(slope):
                return False, n + 1, f"min fitted order {slope:.3f}"
            worst = min(worst, slope)
        return worst >= 1.9, 10, f"min fitted order {worst:.3f}"

    return check


def _holds(case: Callable, cases: int, detail: str) -> Callable:
    """The check that every flag ``case(rng, n)`` yields, n < cases, is true.

    The first false flag fails it, and no later case is drawn.
    """

    def check(rng: random.Random):
        for n in range(cases):
            if not all(case(rng, n)):
                return False, cases, detail
        return True, cases, detail

    return check


# ---------------------------------------------------------------------------
# ga cases


def _anticommutation(rng: random.Random, n: int):
    i, j = divmod(n, 3)
    ei = Multivector.basis_vector(i + 1)
    ej = Multivector.basis_vector(j + 1)
    yield _mv_err(ei * ej, Multivector.scalar(1.0) if i == j else -(ej * ei))


def _fundamental(rng: random.Random, n: int):
    a = Multivector.from_vec3(_rand_vec(rng))
    b = Multivector.from_vec3(_rand_vec(rng))
    lhs = a * b
    rhs = ga.dot(a, b) + ga.wedge(a, b)
    yield _mv_err(lhs, rhs) / _mv_scale(lhs, rhs)


def _symmetry_splits(rng: random.Random, n: int):
    a = Multivector.from_vec3(_rand_vec(rng))
    b = Multivector.from_vec3(_rand_vec(rng))
    bv = ga.grade(_rand_mv(rng), 2)
    yield _mv_err(ga.dot(a, b), 0.5 * (a * b + b * a)) / _mv_scale(a, b)
    yield _mv_err(ga.wedge(a, b), 0.5 * (a * b - b * a)) / _mv_scale(a, b)
    yield _mv_err(ga.dot(bv, a), 0.5 * (bv * a - a * bv)) / _mv_scale(bv, a)
    yield _mv_err(ga.dot(bv, a), -ga.dot(a, bv)) / _mv_scale(bv, a)


def _distribution(rng: random.Random, n: int):
    av, bv, cv = (_rand_vec(rng) for _ in range(3))
    a = Multivector.from_vec3(av)
    lhs = ga.dot(a, ga.wedge(Multivector.from_vec3(bv), Multivector.from_vec3(cv)))
    rhs = Multivector.from_vec3(av.dot(bv) * cv - av.dot(cv) * bv)
    yield _mv_err(lhs, rhs) / _mv_scale(lhs, rhs)


def _blade_rule(rng: random.Random, n: int):
    k = n % 3 + 1
    vs = [Multivector.from_vec3(_rand_vec(rng)) for _ in range(k)]
    blade = vs[0]
    for v in vs[1:]:
        blade = ga.wedge(blade, v)
    a = Multivector.from_vec3(_rand_vec(rng))
    sign = -1.0 if (k + 1) % 2 else 1.0
    dot_rhs = 0.5 * (blade * a + sign * (a * blade))
    wedge_rhs = 0.5 * (blade * a - sign * (a * blade))
    scale = _mv_scale(blade, a)
    yield _mv_err(ga.dot(blade, a), dot_rhs) / scale
    yield _mv_err(ga.wedge(blade, a), wedge_rhs) / scale


def _grade_completeness(rng: random.Random, n: int):
    m = _rand_mv(rng)
    total = Multivector.zero()
    for k in range(4):
        total = total + ga.grade(m, k)
    yield _mv_err(total, m)


def _associativity(rng: random.Random, n: int):
    a, b, c = _rand_mv(rng), _rand_mv(rng), _rand_mv(rng)
    lhs = (a * b) * c
    rhs = a * (b * c)
    yield _mv_err(lhs, rhs) / _mv_scale(lhs, rhs)


# ---------------------------------------------------------------------------
# dyadics cases


def _factor_sides_differ(rng: random.Random, n: int):
    t = dyad(Vec3.basis(1), Vec3.basis(2))
    c = Vec3.basis(1)
    yield postfactor(c, t).as_tuple() != prefactor(t, c).as_tuple()


def _transpose_identity(rng: random.Random, n: int):
    c = _rand_vec(rng)
    t = _rand_tensor(rng)
    lhs = postfactor(c, t)
    rhs = prefactor(transpose(t), c)
    yield _vec_err(lhs, rhs) / _vec_scale(lhs, rhs)


def _nonion_roundtrip(rng: random.Random, n: int):
    t = _rand_tensor(rng)
    rebuilt = Tensor3.zero()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rebuilt = rebuilt + t.entry(i, j) * nonion_basis(i, j)
    yield max_abs(rebuilt - t)


# ---------------------------------------------------------------------------
# fields cases


def _convention_duality(rng: random.Random, n: int):
    f, x = _rand_cubic(rng), _rand_vec(rng)
    yield max_abs(grad_alt(f, x) - transpose(grad_gibbs(f, x))) == 0.0


def _taylor_remainder(rng: random.Random) -> list[float]:
    f = _rand_cubic(rng)
    x = _rand_vec(rng, -1.0, 1.0)
    u = _rand_unit(rng)
    g = grad_gibbs(f, x)
    errs = []
    for h in _STEPS:
        pred = f.eval(x) + h * postfactor(u, g)
        errs.append(max(_vec_err(f.eval(x + h * u), pred), 1e-300))
    return errs


def _fd_convergence(rng: random.Random) -> list[float]:
    f = _rand_cubic(rng)
    x = _rand_vec(rng, -1.0, 1.0)
    exact = grad_gibbs(f, x)
    return [max(max_abs(fd_grad(f, x, h) - exact), 1e-300) for h in _STEPS]


def _fd_vs_exact(rng: random.Random, n: int):
    f = _rand_cubic(rng)
    x = _rand_vec(rng, -1.0, 1.0)
    yield max_abs(fd_grad(f, x, 1e-4) - grad_gibbs(f, x))


def _check_poly_derivatives(rng: random.Random):
    for cases in range(200):
        px, py, pz = rng.randrange(4), rng.randrange(4), rng.randrange(4)
        c = rng.uniform(-2.0, 2.0)
        mono = Poly((((px, py, pz), c),))
        expected = Poly((((max(px - 1, 0), py, pz), c * px),)) if px else Poly.zero()
        if mono.diff(0) != expected:
            return False, cases, f"monomial x^{px} y^{py} z^{pz} differentiated wrong"
    passed, cases, detail = _bounded(_fd_vs_exact, 50, 1e-6, "fd vs exact")(rng)
    return passed, 200 + cases, detail


# ---------------------------------------------------------------------------
# kinematics cases


def _decomposition(rng: random.Random, n: int):
    # Reassembly d + omega only rounds when paired entries differ by many
    # orders of magnitude, so it is checked to 1 ulp-ish relative error;
    # the symmetry properties and rotation-entry formulas hold bit-exact.
    # A failed bit-exact property yields inf, so the detail then reads
    # "max reassembly rel err inf" whatever the reassembly error is.
    f = _rand_cubic(rng)
    x = _rand_vec(rng)
    g = grad_gibbs(f, x)
    d, omega = sym(g), antisym(g)
    yield max_abs(d + omega - g) / max(1.0, max_abs(g))
    r = g.rows
    exact = (
        d.rows == transpose(d).rows
        and omega.rows == transpose(-omega).rows
        and omega.entry(1, 2) == 0.5 * (r[0][1] - r[1][0])
        and omega.entry(1, 3) == -(0.5 * (r[2][0] - r[0][2]))
        and omega.entry(2, 3) == 0.5 * (r[1][2] - r[2][1])
    )
    yield 0.0 if exact else math.inf


def _omega_vs_bivector(rng: random.Random, n: int):
    _, _, dx, g = _gradient_case(rng)
    lhs = postfactor(dx, antisym(g))
    rhs = ga.vector_part(ga.dot(Multivector.from_vec3(dx), 0.5 * kin.nabla_wedge_of(g)))
    yield _vec_err(lhs, rhs) / _vec_scale(lhs, rhs)


def _factor_consistency(rng: random.Random, n: int):
    f, x, dr = _rand_cubic(rng), _rand_vec(rng), _rand_vec(rng)
    _, omega = kin.decompose(f, x)
    yield _vec_err(postfactor(dr, omega), prefactor(transpose(omega), dr)) == 0.0


def _strain_split(rng: random.Random, n: int):
    _, _, dx, g = _gradient_case(rng)
    comp, incomp = kin.strain_split_of(g, dx)
    dv = postfactor(dx, g)
    yield _vec_err(comp + incomp, dv) / _vec_scale(dv)


def _symmetric_split(rng: random.Random, n: int):
    _, _, dx, g = _gradient_case(rng)
    lhs = postfactor(dx, sym(g))
    rhs = 0.5 * (trace(g) * dx + kin.bidi_forward_of(g, dx))
    yield _vec_err(lhs, rhs) / _vec_scale(lhs, rhs)


def _antisymmetric_split(rng: random.Random, n: int):
    _, _, dx, g = _gradient_case(rng)
    lhs = postfactor(dx, antisym(g))
    rhs = 0.5 * (trace(g) * dx - kin.bidi_reverse_of(g, dx))
    yield _vec_err(lhs, rhs) / _vec_scale(lhs, rhs)


def _vector_calculus_forms(rng: random.Random, n: int):
    f, x, dx, g = _gradient_case(rng)
    d, omega = sym(g), antisym(g)
    advective = postfactor(dx, g)  # (dx . nabla) v
    grad_scalar = f.dotted(dx).grad_at(x)  # nabla (dx . v), exact
    scale = _vec_scale(advective, grad_scalar)
    yield _vec_err(postfactor(dx, d), 0.5 * (advective + grad_scalar)) / scale
    yield _vec_err(postfactor(dx, omega), 0.5 * (advective - grad_scalar)) / scale


def _rigid_rotation(omega_vec: Vec3) -> PolyField:
    # v = omega x r, written out per component.
    wx, wy, wz = omega_vec.as_tuple()
    return PolyField(
        (
            Poly((((0, 0, 1), wy), ((0, 1, 0), -wz))),
            Poly((((1, 0, 0), wz), ((0, 0, 1), -wx))),
            Poly((((0, 1, 0), wx), ((1, 0, 0), -wy))),
        )
    )


def _rotation_witness(rng: random.Random, n: int):
    w = _rand_vec(rng)
    f = _rigid_rotation(w)
    x = _rand_vec(rng)
    dr = _rand_vec(rng)
    _, omega = kin.decompose(f, x)
    scale = _vec_scale(w.cross(dr))
    yield _vec_err(postfactor(dr, omega), w.cross(dr)) / scale
    yield _vec_err(postfactor(dr, transpose(omega)), -(w.cross(dr))) / scale


def _report_consistency(rng: random.Random, n: int):
    rep = kin.report(_rand_cubic(rng), _rand_vec(rng))
    yield max_abs(rep.d + rep.omega - rep.grad_gibbs) <= 1e-15 * max(1.0, max_abs(rep.grad_gibbs))
    yield rep.grad_alt.rows == transpose(rep.grad_gibbs).rows
    yield rep.omega_bivector == 0.5 * kin.nabla_wedge_of(rep.grad_gibbs)
    yield rep.vorticity.as_tuple() == ga.vector_dual(2.0 * rep.omega_bivector).as_tuple()
    g = rep.grad_gibbs.rows
    yield rep.vorticity.as_tuple() == (g[1][2] - g[2][1], g[2][0] - g[0][2], g[0][1] - g[1][0])
    yield rep.divergence == g[0][0] + g[1][1] + g[2][2]


def _incompressible_bidi(rng: random.Random, n: int):
    f = _curl_field(_rand_cubic(rng))
    x = _rand_vec(rng)
    dx = _rand_vec(rng)
    g = grad_gibbs(f, x)
    d, omega = sym(g), antisym(g)
    fwd = kin.bidi_forward_of(g, dx)
    rev = kin.bidi_reverse_of(g, dx)
    scale = _vec_scale(fwd, rev)
    yield _vec_err(fwd, 2.0 * postfactor(dx, d)) / scale
    yield _vec_err(rev, -2.0 * postfactor(dx, omega)) / scale


# ---------------------------------------------------------------------------
# notation cases

_GOLDEN_EXPRS = [notation.parse(s) for s in ("dr · (∇⊗v)", "(∇⊗v)† · dr", "dr · (d)", "dr · (Ω)")]
_TENSORS = ("∇⊗v", "(∇⊗v)†", "d", "Ω")
_TRANSPOSE_LAW = [(notation.parse(f"c · ({t})"), notation.parse(f"({t})† · c")) for t in _TENSORS]

_PARSE_OK = (
    "dr · (∇⊗v)",
    "(∇⊗v)† · dr",
    "dr . (grad (x) v)'",
    "∇ · v",
    "∇ ∧ v",
    "∇ × v",
    "∇⊗v",
    "dr · (d)",
    "dr · (Ω)",
    "2 * (dr · (d)) + dr",
    "-dr ∧ v",
    "∇(dr · v)",
)

_PARSE_FAIL = (
    "dr · ∇⊗v",
    "dr ⊗ v · w",
    "(dr · v",
    "@",
    "v ⊗ ∇",
    "dr ·",
    "† dr",
)


def _notation_golden(rng: random.Random, n: int):
    f, x, dr, g = _gradient_case(rng)
    ctx = notation.EvalContext(f, x, {"dr": dr})
    expected = (
        postfactor(dr, g),
        prefactor(transpose(g), dr),
        postfactor(dr, sym(g)),
        postfactor(dr, antisym(g)),
    )
    for expr, want in zip(_GOLDEN_EXPRS, expected):
        yield _vec_err(notation.evaluate(expr, ctx), want) == 0.0


def _notation_transpose_law(rng: random.Random, n: int):
    f, x, c = _rand_cubic(rng), _rand_vec(rng), _rand_vec(rng)
    ctx = notation.EvalContext(f, x, {"c": c})
    for lhs, rhs in _TRANSPOSE_LAW:
        yield _vec_err(notation.evaluate(lhs, ctx), notation.evaluate(rhs, ctx)) == 0.0


def _check_notation_parse_totality(rng: random.Random):
    cases = 0
    for src in _PARSE_OK:
        notation.parse(src)  # must not raise
        cases += 1
    for src in _PARSE_FAIL:
        try:
            notation.parse(src)
        except notation.NotationError as exc:
            if not isinstance(exc.pos, int) or exc.pos < 0:
                return False, cases, f"error without position for {src!r}"
            cases += 1
        else:
            return False, cases, f"malformed input parsed: {src!r}"
    return True, cases, "canonical inputs parse; malformed inputs fail with offsets"


# ---------------------------------------------------------------------------
# cli-facing serialization case


def _report_json_roundtrip(rng: random.Random, n: int):
    rep = kin.report(_rand_cubic(rng), _rand_vec(rng))
    blob = json.dumps(rep.to_dict())
    # Strict JSON has no NaN or Infinity: read as strings, they cannot round-trip.
    yield json.loads(blob, parse_constant=str) == rep.to_dict()
    yield json.dumps(rep.to_dict()) == blob


_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("ga: basis anticommutation and unit squares", _bounded(_anticommutation, 9, 0.0, "abs err")),
    ("ga: fundamental identity ab = a·b + a∧b", _bounded(_fundamental, 1000, 1e-12, "rel err")),
    ("ga: symmetric/antisymmetric product splits",
     _bounded(_symmetry_splits, 1000, 1e-12, "rel err")),
    ("ga: distribution identity a·(b∧c)", _bounded(_distribution, 1000, 1e-12, "rel err")),
    ("ga: blade rule for grades 1..3", _bounded(_blade_rule, 999, 1e-12, "rel err")),
    ("ga: grade decomposition is complete", _bounded(_grade_completeness, 1000, 0.0, "abs err")),
    ("ga: geometric product associativity", _bounded(_associativity, 1000, 1e-12, "rel err")),
    ("dyadics: postfactor differs from prefactor",
     _holds(_factor_sides_differ, 1, "witness e1 . (e1 (x) e2) vs (e1 (x) e2) . e1")),
    ("dyadics: transpose identity c·T = T†·c",
     _bounded(_transpose_identity, 1000, 1e-14, "rel err")),
    ("dyadics: nonion reconstruction round-trip", _bounded(_nonion_roundtrip, 200, 0.0, "abs err")),
    ("fields: grad_alt is the transpose of grad_gibbs",
     _holds(_convention_duality, 200, "grad_alt == transpose(grad_gibbs), bit-exact")),
    ("fields: Taylor remainder shrinks at order 2", _fitted_order(_taylor_remainder)),
    ("fields: central differences converge at order 2", _fitted_order(_fd_convergence)),
    ("fields: polynomial derivatives are exact", _check_poly_derivatives),
    ("kinematics: gradient decomposition d + Ω",
     _bounded(_decomposition, 200, 1e-15, "reassembly rel err")),
    ("kinematics: Ω action equals bivector contraction",
     _bounded(_omega_vs_bivector, 1000, 1e-12, "rel err")),
    ("kinematics: postfactor Ω vs prefactor Ω†",
     _holds(_factor_consistency, 200, "dr . omega == transpose(omega) . dr, bit-exact")),
    ("kinematics: compressive + incompressive = dv",
     _bounded(_strain_split, 500, 1e-12, "rel err")),
    ("kinematics: symmetric divergence split", _bounded(_symmetric_split, 500, 1e-12, "rel err")),
    ("kinematics: antisymmetric divergence split",
     _bounded(_antisymmetric_split, 500, 1e-12, "rel err")),
    ("kinematics: vector-calculus forms of d and Ω",
     _bounded(_vector_calculus_forms, 500, 1e-12, "rel err")),
    ("kinematics: rigid rotation keeps its sense",
     _bounded(_rotation_witness, 200, 1e-14, "rel err")),
    ("kinematics: report fields mutually consistent",
     _holds(_report_consistency, 100, "gradients, omega bivector, vorticity, divergence agree")),
    ("kinematics: divergence-free bidi relations",
     _bounded(_incompressible_bidi, 300, 1e-12, "rel err")),
    ("notation: evaluator matches library calls",
     _holds(_notation_golden, 100, "evaluator output identical to library calls")),
    ("notation: expression-level transpose law",
     _holds(_notation_transpose_law, 100, "c · T == T† · c at the expression level")),
    ("notation: parse totality and positioned errors", _check_notation_parse_totality),
    ("cli: report JSON round-trip is lossless",
     _holds(_report_json_roundtrip, 50, "report dict -> JSON -> dict is lossless and stable")),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def _run(index: int, seed: int) -> CheckResult:
    """Row ``index`` of _CHECKS, with the cases that ``run_all(seed)`` gives it."""
    name, fn = _CHECKS[index]
    passed, cases, detail = fn(random.Random(seed * 7919 + index))
    return CheckResult(name, passed, cases, detail)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every invariant check with reproducible, seed-derived cases."""
    return [_run(index, seed) for index in range(len(_CHECKS))]

"""Seed-driven invariant suite covering every module.

Each check draws its own cases from a deterministic RNG derived from the
caller's seed, so two runs with the same seed produce identical results
and identical formatted output.  ``run_all`` returns one CheckResult per
invariant; the CLI turns these into pass/fail lines and the exit status.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable

from . import ga
from .dyadics import (
    Tensor3,
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


def _rand_vec(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> Vec3:
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def _rand_unit(rng: random.Random) -> Vec3:
    while True:
        v = _rand_vec(rng)
        n = v.norm()
        if n > 1e-3:
            return (1.0 / n) * v


def _rand_mv(rng: random.Random) -> Multivector:
    return Multivector(tuple(rng.uniform(-2.0, 2.0) for _ in range(8)))


def _rand_tensor(rng: random.Random) -> Tensor3:
    return Tensor3(tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(3)) for _ in range(3)))


_CUBIC_POWERS = [
    (px, py, pz)
    for px in range(4)
    for py in range(4)
    for pz in range(4)
    if px + py + pz <= 3
]


def _rand_cubic(rng: random.Random) -> PolyField:
    comps = tuple(
        Poly(tuple((p, rng.uniform(-1.0, 1.0)) for p in _CUBIC_POWERS)) for _ in range(3)
    )
    return PolyField(comps)


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
    return max(abs(a - b) for a, b in zip(m.coeffs, n.coeffs))


def _mv_scale(*ms: Multivector) -> float:
    return max(1.0, *(abs(c) for m in ms for c in m.coeffs))


def _vec_err(a: Vec3, b: Vec3) -> float:
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


def _vec_scale(*vs: Vec3) -> float:
    return max(1.0, *(abs(c) for v in vs for c in v.as_tuple()))


def _fit_slope(hs: list[float], errs: list[float]) -> float:
    """Least-squares slope of log err against log h."""
    xs = [math.log(h) for h in hs]
    ys = [math.log(e) for e in errs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _worst(label: str, err: float) -> str:
    return f"max {label} {err:.2e}"


# ---------------------------------------------------------------------------
# ga checks


def _check_anticommutation(rng: random.Random):
    worst = 0.0
    cases = 0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ei = Multivector.basis_vector(i)
            ej = Multivector.basis_vector(j)
            if i == j:
                worst = max(worst, _mv_err(ei * ej, Multivector.scalar(1.0)))
            else:
                worst = max(worst, _mv_err(ei * ej, -(ej * ei)))
            cases += 1
    return worst == 0.0, cases, _worst("abs err", worst)


def _check_fundamental(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        a = Multivector.from_vec3(_rand_vec(rng))
        b = Multivector.from_vec3(_rand_vec(rng))
        lhs = a * b
        rhs = ga.dot(a, b) + ga.wedge(a, b)
        worst = max(worst, _mv_err(lhs, rhs) / _mv_scale(lhs, rhs))
    return worst <= 1e-12, 1000, _worst("rel err", worst)


def _check_symmetry_splits(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        a = Multivector.from_vec3(_rand_vec(rng))
        b = Multivector.from_vec3(_rand_vec(rng))
        bv = ga.grade(_rand_mv(rng), 2)
        worst = max(worst, _mv_err(ga.dot(a, b), 0.5 * (a * b + b * a)) / _mv_scale(a, b))
        worst = max(worst, _mv_err(ga.wedge(a, b), 0.5 * (a * b - b * a)) / _mv_scale(a, b))
        worst = max(
            worst, _mv_err(ga.dot(bv, a), 0.5 * (bv * a - a * bv)) / _mv_scale(bv, a)
        )
        worst = max(worst, _mv_err(ga.dot(bv, a), -ga.dot(a, bv)) / _mv_scale(bv, a))
    return worst <= 1e-12, 1000, _worst("rel err", worst)


def _check_distribution(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        av, bv, cv = (_rand_vec(rng) for _ in range(3))
        a = Multivector.from_vec3(av)
        lhs = ga.dot(a, ga.wedge(Multivector.from_vec3(bv), Multivector.from_vec3(cv)))
        rhs = Multivector.from_vec3(av.dot(bv) * cv - av.dot(cv) * bv)
        worst = max(worst, _mv_err(lhs, rhs) / _mv_scale(lhs, rhs))
    return worst <= 1e-12, 1000, _worst("rel err", worst)


def _check_blade_rule(rng: random.Random):
    worst = 0.0
    cases = 0
    for n in range(999):
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
        worst = max(worst, _mv_err(ga.dot(blade, a), dot_rhs) / scale)
        worst = max(worst, _mv_err(ga.wedge(blade, a), wedge_rhs) / scale)
        cases += 1
    return worst <= 1e-12, cases, _worst("rel err", worst)


def _check_grade_completeness(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        m = _rand_mv(rng)
        total = Multivector.zero()
        for k in range(4):
            total = total + ga.grade(m, k)
        worst = max(worst, _mv_err(total, m))
    return worst == 0.0, 1000, _worst("abs err", worst)


def _check_associativity(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        m, n, p = _rand_mv(rng), _rand_mv(rng), _rand_mv(rng)
        lhs = (m * n) * p
        rhs = m * (n * p)
        worst = max(worst, _mv_err(lhs, rhs) / _mv_scale(lhs, rhs))
    return worst <= 1e-12, 1000, _worst("rel err", worst)


# ---------------------------------------------------------------------------
# dyadics checks


def _check_factor_sides_differ(rng: random.Random):
    t = dyad(Vec3.basis(1), Vec3.basis(2))
    c = Vec3.basis(1)
    differ = postfactor(c, t).as_tuple() != prefactor(t, c).as_tuple()
    return differ, 1, "witness e1 . (e1 (x) e2) vs (e1 (x) e2) . e1"


def _check_transpose_identity(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        c = _rand_vec(rng)
        t = _rand_tensor(rng)
        lhs = postfactor(c, t)
        rhs = prefactor(transpose(t), c)
        worst = max(worst, _vec_err(lhs, rhs) / _vec_scale(lhs, rhs))
    return worst <= 1e-14, 1000, _worst("rel err", worst)


def _check_nonion_roundtrip(rng: random.Random):
    worst = 0.0
    for _ in range(200):
        t = _rand_tensor(rng)
        rebuilt = Tensor3.zero()
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                rebuilt = rebuilt + t.entry(i, j) * nonion_basis(i, j)
        worst = max(worst, max_abs(rebuilt - t))
    return worst == 0.0, 200, _worst("abs err", worst)


# ---------------------------------------------------------------------------
# fields checks


def _check_convention_duality(rng: random.Random):
    ok = True
    for _ in range(200):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        ok = ok and grad_alt(f, x).rows == transpose(grad_gibbs(f, x)).rows
    return ok, 200, "grad_alt == transpose(grad_gibbs), bit-exact"


def _check_taylor_remainder(rng: random.Random):
    hs = [1e-1, 1e-2, 1e-3]
    worst_slope = math.inf
    for _ in range(10):
        f = _rand_cubic(rng)
        x = _rand_vec(rng, -1.0, 1.0)
        u = _rand_unit(rng)
        g = grad_gibbs(f, x)
        errs = []
        for h in hs:
            pred = f.eval(x) + h * postfactor(u, g)
            errs.append(max(_vec_err(f.eval(x + h * u), pred), 1e-300))
        worst_slope = min(worst_slope, _fit_slope(hs, errs))
    return worst_slope >= 1.9, 10, f"min fitted order {worst_slope:.3f}"


def _check_fd_convergence(rng: random.Random):
    hs = [1e-2, 1e-3, 1e-4]
    worst_slope = math.inf
    for _ in range(10):
        f = _rand_cubic(rng)
        x = _rand_vec(rng, -1.0, 1.0)
        exact = grad_gibbs(f, x)
        errs = [max(max_abs(fd_grad(f, x, h) - exact), 1e-300) for h in hs]
        worst_slope = min(worst_slope, _fit_slope(hs, errs))
    return worst_slope >= 1.9, 10, f"min fitted order {worst_slope:.3f}"


def _check_poly_derivatives(rng: random.Random):
    worst = 0.0
    cases = 0
    for _ in range(200):
        px, py, pz = rng.randrange(4), rng.randrange(4), rng.randrange(4)
        c = rng.uniform(-2.0, 2.0)
        mono = Poly((((px, py, pz), c),))
        expected = Poly((((max(px - 1, 0), py, pz), c * px),)) if px else Poly.zero()
        if mono.diff(0) != expected:
            return False, cases, f"monomial x^{px} y^{py} z^{pz} differentiated wrong"
        cases += 1
    for _ in range(50):
        f = _rand_cubic(rng)
        x = _rand_vec(rng, -1.0, 1.0)
        err = max_abs(fd_grad(f, x, 1e-4) - grad_gibbs(f, x))
        worst = max(worst, err)
        cases += 1
    return worst <= 1e-6, cases, _worst("fd vs exact", worst)


# ---------------------------------------------------------------------------
# kinematics checks


def _check_decomposition(rng: random.Random):
    # Reassembly d + omega only rounds when paired entries differ by many
    # orders of magnitude, so it is checked to 1 ulp-ish relative error;
    # the symmetry properties and rotation-entry formulas hold bit-exact.
    ok = True
    worst = 0.0
    for _ in range(200):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        g = grad_gibbs(f, x)
        d, omega = sym(g), antisym(g)
        worst = max(worst, max_abs((d + omega) - g) / max(1.0, max_abs(g)))
        ok = ok and d.rows == transpose(d).rows
        ok = ok and omega.rows == transpose(-omega).rows
        r = g.rows
        ok = ok and omega.entry(1, 2) == 0.5 * (r[0][1] - r[1][0])
        ok = ok and omega.entry(1, 3) == -(0.5 * (r[2][0] - r[0][2]))
        ok = ok and omega.entry(2, 3) == 0.5 * (r[1][2] - r[2][1])
    return ok and worst <= 1e-15, 200, _worst("reassembly rel err", worst)


def _check_omega_vs_bivector(rng: random.Random):
    worst = 0.0
    for _ in range(1000):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dx = _rand_vec(rng)
        g = grad_gibbs(f, x)
        lhs = postfactor(dx, antisym(g))
        rhs = ga.vector_part(
            ga.dot(Multivector.from_vec3(dx), 0.5 * kin.nabla_wedge_of(g))
        )
        worst = max(worst, _vec_err(lhs, rhs) / _vec_scale(lhs, rhs))
    return worst <= 1e-12, 1000, _worst("rel err", worst)


def _check_factor_consistency(rng: random.Random):
    ok = True
    for _ in range(200):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dr = _rand_vec(rng)
        _, omega = kin.decompose(f, x)
        ok = ok and postfactor(dr, omega).as_tuple() == prefactor(transpose(omega), dr).as_tuple()
    return ok, 200, "dr . omega == transpose(omega) . dr, bit-exact"


def _check_strain_split(rng: random.Random):
    worst = 0.0
    for _ in range(500):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dx = _rand_vec(rng)
        g = grad_gibbs(f, x)
        comp, incomp = kin.strain_split_of(g, dx)
        dv = postfactor(dx, g)
        worst = max(worst, _vec_err(comp + incomp, dv) / _vec_scale(dv))
    return worst <= 1e-12, 500, _worst("rel err", worst)


def _check_symmetric_split(rng: random.Random):
    worst = 0.0
    for _ in range(500):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dx = _rand_vec(rng)
        g = grad_gibbs(f, x)
        lhs = postfactor(dx, sym(g))
        rhs = 0.5 * (trace(g) * dx + kin.bidi_forward_of(g, dx))
        worst = max(worst, _vec_err(lhs, rhs) / _vec_scale(lhs, rhs))
    return worst <= 1e-12, 500, _worst("rel err", worst)


def _check_antisymmetric_split(rng: random.Random):
    worst = 0.0
    for _ in range(500):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dx = _rand_vec(rng)
        g = grad_gibbs(f, x)
        lhs = postfactor(dx, antisym(g))
        rhs = 0.5 * (trace(g) * dx - kin.bidi_reverse_of(g, dx))
        worst = max(worst, _vec_err(lhs, rhs) / _vec_scale(lhs, rhs))
    return worst <= 1e-12, 500, _worst("rel err", worst)


def _check_vector_calculus_forms(rng: random.Random):
    worst = 0.0
    for _ in range(500):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dx = _rand_vec(rng)
        g = grad_gibbs(f, x)
        d, omega = sym(g), antisym(g)
        advective = postfactor(dx, g)  # (dx . nabla) v
        grad_scalar = f.dotted(dx).grad_at(x)  # nabla (dx . v), exact
        scale = _vec_scale(advective, grad_scalar)
        worst = max(
            worst,
            _vec_err(postfactor(dx, d), 0.5 * (advective + grad_scalar)) / scale,
        )
        worst = max(
            worst,
            _vec_err(postfactor(dx, omega), 0.5 * (advective - grad_scalar)) / scale,
        )
    return worst <= 1e-12, 500, _worst("rel err", worst)


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


def _check_rotation_witness(rng: random.Random):
    worst = 0.0
    for _ in range(200):
        w = _rand_vec(rng)
        f = _rigid_rotation(w)
        x = _rand_vec(rng)
        dr = _rand_vec(rng)
        _, omega = kin.decompose(f, x)
        scale = _vec_scale(w.cross(dr))
        worst = max(worst, _vec_err(postfactor(dr, omega), w.cross(dr)) / scale)
        worst = max(
            worst, _vec_err(postfactor(dr, transpose(omega)), -(w.cross(dr))) / scale
        )
    return worst <= 1e-14, 200, _worst("rel err", worst)


def _check_report_consistency(rng: random.Random):
    ok = True
    for _ in range(100):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        rep = kin.report(f, x)
        reassembly = max_abs((rep.d + rep.omega) - rep.grad_gibbs)
        ok = ok and reassembly <= 1e-15 * max(1.0, max_abs(rep.grad_gibbs))
        ok = ok and rep.grad_alt.rows == transpose(rep.grad_gibbs).rows
        ok = ok and rep.omega_bivector == 0.5 * kin.nabla_wedge_of(rep.grad_gibbs)
        ok = ok and rep.vorticity.as_tuple() == ga.vector_dual(
            2.0 * rep.omega_bivector
        ).as_tuple()
        g = rep.grad_gibbs.rows
        curl = (g[1][2] - g[2][1], g[2][0] - g[0][2], g[0][1] - g[1][0])
        ok = ok and rep.vorticity.as_tuple() == curl
        ok = ok and rep.divergence == g[0][0] + g[1][1] + g[2][2]
    return ok, 100, "gradients, omega bivector, vorticity, divergence agree"


def _check_incompressible_bidi(rng: random.Random):
    worst = 0.0
    for _ in range(300):
        f = _curl_field(_rand_cubic(rng))
        x = _rand_vec(rng)
        dx = _rand_vec(rng)
        g = grad_gibbs(f, x)
        d, omega = sym(g), antisym(g)
        fwd = kin.bidi_forward_of(g, dx)
        rev = kin.bidi_reverse_of(g, dx)
        scale = _vec_scale(fwd, rev)
        worst = max(worst, _vec_err(fwd, 2.0 * postfactor(dx, d)) / scale)
        worst = max(worst, _vec_err(rev, -2.0 * postfactor(dx, omega)) / scale)
    return worst <= 1e-12, 300, _worst("rel err", worst)


# ---------------------------------------------------------------------------
# notation checks

_GOLDEN_EXPRESSIONS = ("dr · (∇⊗v)", "(∇⊗v)† · dr", "dr · (d)", "dr · (Ω)")

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


def _check_notation_golden(rng: random.Random):
    ok = True
    for _ in range(100):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        dr = _rand_vec(rng)
        ctx = notation.EvalContext(f, x, {"dr": dr})
        g = grad_gibbs(f, x)
        expected = (
            postfactor(dr, g),
            prefactor(transpose(g), dr),
            postfactor(dr, sym(g)),
            postfactor(dr, antisym(g)),
        )
        for src, want in zip(_GOLDEN_EXPRESSIONS, expected):
            got = notation.evaluate(notation.parse(src), ctx)
            ok = ok and got.as_tuple() == want.as_tuple()
    return ok, 100, "evaluator output identical to library calls"


def _check_notation_transpose_law(rng: random.Random):
    ok = True
    tensor_exprs = ("∇⊗v", "(∇⊗v)†", "d", "Ω")
    for _ in range(100):
        f = _rand_cubic(rng)
        x = _rand_vec(rng)
        c = _rand_vec(rng)
        ctx = notation.EvalContext(f, x, {"c": c})
        for t in tensor_exprs:
            lhs = notation.evaluate(notation.parse(f"c · ({t})"), ctx)
            rhs = notation.evaluate(notation.parse(f"({t})† · c"), ctx)
            ok = ok and lhs.as_tuple() == rhs.as_tuple()
    return ok, 100, "c · T == T† · c at the expression level"


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
# cli-facing serialization check


def _check_report_json_roundtrip(rng: random.Random):
    ok = True
    for _ in range(50):
        f = _rand_cubic(rng)
        rep = kin.report(f, _rand_vec(rng))
        blob = json.dumps(rep.to_dict())
        ok = ok and json.loads(blob) == rep.to_dict()
        ok = ok and json.dumps(rep.to_dict()) == blob
    return ok, 50, "report dict -> JSON -> dict is lossless and stable"


_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("ga: basis anticommutation and unit squares", _check_anticommutation),
    ("ga: fundamental identity ab = a·b + a∧b", _check_fundamental),
    ("ga: symmetric/antisymmetric product splits", _check_symmetry_splits),
    ("ga: distribution identity a·(b∧c)", _check_distribution),
    ("ga: blade rule for grades 1..3", _check_blade_rule),
    ("ga: grade decomposition is complete", _check_grade_completeness),
    ("ga: geometric product associativity", _check_associativity),
    ("dyadics: postfactor differs from prefactor", _check_factor_sides_differ),
    ("dyadics: transpose identity c·T = T†·c", _check_transpose_identity),
    ("dyadics: nonion reconstruction round-trip", _check_nonion_roundtrip),
    ("fields: grad_alt is the transpose of grad_gibbs", _check_convention_duality),
    ("fields: Taylor remainder shrinks at order 2", _check_taylor_remainder),
    ("fields: central differences converge at order 2", _check_fd_convergence),
    ("fields: polynomial derivatives are exact", _check_poly_derivatives),
    ("kinematics: gradient decomposition d + Ω", _check_decomposition),
    ("kinematics: Ω action equals bivector contraction", _check_omega_vs_bivector),
    ("kinematics: postfactor Ω vs prefactor Ω†", _check_factor_consistency),
    ("kinematics: compressive + incompressive = dv", _check_strain_split),
    ("kinematics: symmetric divergence split", _check_symmetric_split),
    ("kinematics: antisymmetric divergence split", _check_antisymmetric_split),
    ("kinematics: vector-calculus forms of d and Ω", _check_vector_calculus_forms),
    ("kinematics: rigid rotation keeps its sense", _check_rotation_witness),
    ("kinematics: report fields mutually consistent", _check_report_consistency),
    ("kinematics: divergence-free bidi relations", _check_incompressible_bidi),
    ("notation: evaluator matches library calls", _check_notation_golden),
    ("notation: expression-level transpose law", _check_notation_transpose_law),
    ("notation: parse totality and positioned errors", _check_notation_parse_totality),
    ("cli: report JSON round-trip is lossless", _check_report_json_roundtrip),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every invariant check with reproducible, seed-derived cases."""
    results = []
    for index, (name, fn) in enumerate(_CHECKS):
        rng = random.Random(seed * 7919 + index)
        passed, cases, detail = fn(rng)
        results.append(CheckResult(name, passed, cases, detail))
    return results

"""∇(...) on a polynomial field against an exact rational oracle.

The oracle is built apart from ``gibbskit.fields`` and the evaluator: it
holds each component of v as a polynomial with ``fractions.Fraction``
coefficients, forms every quantity of a scalar as a polynomial in x, y
and z (G_ij = ∂_i v_j, d, Ω, ∇ · v, ∇ × v, products with bound vectors),
differentiates that polynomial by lowering exponents, and evaluates at the
point exactly.  With dyadic coefficients, points and bindings of a few
bits, on fields of degree at most 3 and scalars with at most two factors
that depend on v, every float the library computes is exact, so the
library must equal the oracle exactly.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from gibbskit import EvalContext, Poly, PolyField, Vec3, evaluate, parse

MONOMIALS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3]

# --- polynomials over the rationals: exponent triple -> Fraction --------------------


def add(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def scale(p, k):
    return {e: c * k for e, c in p.items() if c * k}


def mul(p, q):
    out = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            key = (a + d, b + e, c + f)
            out[key] = out.get(key, 0) + x * y
    return {e: c for e, c in out.items() if c}


def diff(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis]:
            out[e[:axis] + (e[axis] - 1,) + e[axis + 1:]] = c * e[axis]
    return out


def at(p, point):
    total = Fraction(0)
    for (a, b, c), k in p.items():
        total += k * point[0] ** a * point[1] ** b * point[2] ** c
    return total


def const(k):
    return {(0, 0, 0): Fraction(k)} if k else {}


# Vectors are lists of 3 polynomials, tensors lists of 3 rows.


def dot(u, w):
    return add(*[mul(a, b) for a, b in zip(u, w)])


def matvec(t, u):  # T · u: entry i is sum_j T_ij u_j
    return [dot(row, u) for row in t]


def tr(t):
    return [list(col) for col in zip(*t)]


def half(t, sign):
    return [[scale(add(t[i][j], scale(t[j][i], sign)), Fraction(1, 2)) for j in range(3)]
            for i in range(3)]


def cross(u, w):
    return [add(mul(u[1], w[2]), scale(mul(u[2], w[1]), -1)),
            add(mul(u[2], w[0]), scale(mul(u[0], w[2]), -1)),
            add(mul(u[0], w[1]), scale(mul(u[1], w[0]), -1))]


def div(g):
    return add(g[0][0], g[1][1], g[2][2])


def curl(g):  # from G_ij = ∂_i v_j
    return [add(g[1][2], scale(g[2][1], -1)), add(g[2][0], scale(g[0][2], -1)),
            add(g[0][1], scale(g[1][0], -1))]


def gradient(s):
    return [diff(s, i) for i in range(3)]


# --- the scalars, each with its oracle ------------------------------------------------
# o holds v, G = ∇ ⊗ v, and the bound vectors c and w as constant polynomials.

SCALARS = {
    "v · v": lambda o: dot(o["v"], o["v"]),
    "c · v": lambda o: dot(o["c"], o["v"]),
    "v · c": lambda o: dot(o["v"], o["c"]),
    "2 * (c · v) - (v · w)": lambda o: add(scale(dot(o["c"], o["v"]), 2),
                                           scale(dot(o["v"], o["w"]), -1)),
    "-(c · v) + 0.5": lambda o: add(scale(dot(o["c"], o["v"]), -1), const(Fraction(1, 2))),
    "(c · v) * (v · w)": lambda o: mul(dot(o["c"], o["v"]), dot(o["v"], o["w"])),
    "(c × v) · w": lambda o: dot(cross(o["c"], o["v"]), o["w"]),
    "c · (d · w)": lambda o: dot(o["c"], matvec(half(o["G"], 1), o["w"])),
    "w · (Ω · v)": lambda o: dot(o["w"], matvec(half(o["G"], -1), o["v"])),
    "(v · Omega) · c": lambda o: dot(matvec(tr(half(o["G"], -1)), o["v"]), o["c"]),
    "c · ((d + Ω) · w)": lambda o: dot(o["c"], matvec(o["G"], o["w"])),
    "-(v · (d · c))": lambda o: scale(dot(o["v"], matvec(half(o["G"], 1), o["c"])), -1),
    "∇ · v": lambda o: div(o["G"]),
    "(∇ · v) * (c · v)": lambda o: mul(div(o["G"]), dot(o["c"], o["v"])),
    "w · (∇ × v)": lambda o: dot(o["w"], curl(o["G"])),
    "c · ((∇ ⊗ v) · w)": lambda o: dot(o["c"], matvec(o["G"], o["w"])),
    "c · ((∇ ⊗ v)† · v)": lambda o: dot(o["c"], matvec(tr(o["G"]), o["v"])),
    "(w · (∇ ⊗ v)) · c": lambda o: dot(matvec(tr(o["G"]), o["w"]), o["c"]),
    "∇(c · v) · v": lambda o: dot(gradient(dot(o["c"], o["v"])), o["v"]),
    "w · ∇(v · c)": lambda o: dot(o["w"], gradient(dot(o["v"], o["c"]))),
    "2": lambda o: const(2),
}

# Few-bit dyadic rationals: every value the library forms stays exact.
QUARTERS = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
TRIPLES = st.tuples(QUARTERS, QUARTERS, QUARTERS)
COMPONENTS = st.dictionaries(st.sampled_from(MONOMIALS), QUARTERS.filter(bool), max_size=8)


def oracle(components, c, w):
    v = components
    g = [[diff(v[j], i) for j in range(3)] for i in range(3)]
    return {"v": v, "G": g, "c": [const(k) for k in c], "w": [const(k) for k in w]}


def library_field(components):
    return PolyField(tuple(Poly(tuple((e, float(k)) for e, k in c.items())) for c in components))


def exact(values):
    return [Fraction(x) for x in values]


@settings(deadline=None, max_examples=400)
@given(st.lists(COMPONENTS, min_size=3, max_size=3), TRIPLES, TRIPLES, TRIPLES,
       st.sampled_from(sorted(SCALARS)))
@example([{(0, 1, 0): Fraction(-1)}, {(1, 0, 0): Fraction(1)}, {}],
         (Fraction(2), Fraction(-1, 2), Fraction(0)), (Fraction(3), Fraction(1, 2), Fraction(-1)),
         (Fraction(1, 4), Fraction(2), Fraction(3, 2)), "∇(c · v) · v")
def test_gradient_apply_is_the_exact_gradient(components, point, c, w, src):
    o = oracle(components, c, w)
    want = [at(p, point) for p in gradient(SCALARS[src](o))]
    ctx = EvalContext(library_field(components), Vec3(*map(float, point)),
                      {"c": Vec3(*map(float, c)), "w": Vec3(*map(float, w))})
    assert exact(evaluate(parse(f"∇({src})"), ctx).as_tuple()) == want
    # The scalar itself, through the evaluator's own path.
    assert Fraction(evaluate(parse(src), ctx)) == at(SCALARS[src](o), point)


@settings(deadline=None, max_examples=200)
@given(st.lists(COMPONENTS, min_size=3, max_size=3), TRIPLES)
def test_derivative_forms_are_exact(components, point):
    o = oracle(components, (0, 0, 0), (0, 0, 0))
    g = o["G"]
    ctx = EvalContext(library_field(components), Vec3(*map(float, point)))

    def rows(src):
        return [exact(r) for r in evaluate(parse(src), ctx).rows]

    def value(t):
        return [[at(p, point) for p in r] for r in t]

    assert rows("∇ ⊗ v") == value(g)
    assert rows("d") == value(half(g, 1))
    assert rows("Ω") == value(half(g, -1))
    assert Fraction(evaluate(parse("∇ · v"), ctx)) == at(div(g), point)
    wedge = evaluate(parse("∇ ∧ v"), ctx).coeffs
    assert exact(wedge[4:7]) == [at(add(g[0][1], scale(g[1][0], -1)), point),
                                 at(add(g[0][2], scale(g[2][0], -1)), point),
                                 at(add(g[1][2], scale(g[2][1], -1)), point)]
    assert exact(evaluate(parse("∇ × v"), ctx).as_tuple()) == [at(p, point) for p in curl(g)]

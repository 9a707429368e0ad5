"""Reference answers built without gibbskit.

Polynomial field specs are differentiated here by plain exponent
arithmetic, and every derived quantity (gradient layouts, d, Ω, bivector,
vorticity, divergence, strain split, bidirectional products) is computed
from that gradient with explicit formulas.  Each value carries a magnitude:
the sum of the absolute values of the terms that produced it.  A library
result matches when it is within REL_TOL times that magnitude, which bounds
the rounding of any summation order.
"""

from __future__ import annotations

REL_TOL = 1e-12

BLADES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")


def diff_terms(terms, axis):
    """d/dx_axis of [(powers, coeff), ...] by exponent decrement."""
    out = []
    for powers, coeff in terms:
        e = powers[axis]
        if e:
            reduced = list(powers)
            reduced[axis] = e - 1
            out.append((tuple(reduced), coeff * e))
    return out


def eval_terms(terms, x):
    """(value, magnitude) of a term list at point x."""
    val = 0.0
    mag = 0.0
    for (px, py, pz), coeff in terms:
        t = coeff * x[0] ** px * x[1] ** py * x[2] ** pz
        val += t
        mag += abs(t)
    return val, mag


class RefField:
    """A field spec with its partial derivatives, differentiated independently."""

    def __init__(self, spec):
        self.comps = [
            [(tuple(m["powers"]), float(m["coeff"])) for m in comp]
            for comp in spec["components"]
        ]
        # partials[i][j] = d v_j / d x_i
        self.partials = [[diff_terms(c, i) for c in self.comps] for i in range(3)]

    def value(self, x):
        vals = [eval_terms(c, x) for c in self.comps]
        return [v for v, _ in vals], [m for _, m in vals]

    def grad(self, x):
        """Flat row-major G (entry (i, j) = dv_j/dx_i) and its magnitudes."""
        g, m = [], []
        for i in range(3):
            for j in range(3):
                v, mg = eval_terms(self.partials[i][j], x)
                g.append(v)
                m.append(mg)
        return g, m


# --- flat 3x3 helpers (row-major lists of 9) ---------------------------------


def transpose(t):
    return [t[3 * j + i] for i in range(3) for j in range(3)]


def sym(t):
    tt = transpose(t)
    return [0.5 * (a + b) for a, b in zip(t, tt)]


def antisym(t):
    tt = transpose(t)
    return [0.5 * (a - b) for a, b in zip(t, tt)]


def sym_mag(m):
    mt = transpose(m)
    return [0.5 * (a + b) for a, b in zip(m, mt)]


def postfactor(c, t):
    """(c . T)_j = sum_i c_i T_ij."""
    return [sum(c[i] * t[3 * i + j] for i in range(3)) for j in range(3)]


def prefactor(t, c):
    """(T . c)_i = sum_j T_ij c_j."""
    return [sum(t[3 * i + j] * c[j] for j in range(3)) for i in range(3)]


def absv(v):
    return [abs(a) for a in v]


def trace(t):
    return t[0] + t[4] + t[8]


def curl(g):
    return [g[5] - g[7], g[6] - g[2], g[1] - g[3]]


def curl_mag(m):
    return [m[5] + m[7], m[6] + m[2], m[1] + m[3]]


def wedge_bivector(g):
    """Coefficients of nabla ^ v over the 8 blades."""
    return [0.0, 0.0, 0.0, 0.0, g[1] - g[3], g[2] - g[6], g[5] - g[7], 0.0]


def wedge_bivector_mag(m):
    return [0.0, 0.0, 0.0, 0.0, m[1] + m[3], m[2] + m[6], m[5] + m[7], 0.0]


def close(got, want, mag):
    """Elementwise |got - want| <= REL_TOL * mag (exact when mag is 0)."""
    if len(got) != len(want):
        return False
    return all(abs(a - b) <= REL_TOL * m for a, b, m in zip(got, want, mag))


def kinematics_at(ref: RefField, x, dx):
    """Every quantity the sweep workload checks, as (values, magnitudes)."""
    g, gm = ref.grad(x)
    div = trace(g)
    div_m = gm[0] + gm[4] + gm[8]
    dv = postfactor(dx, g)
    dv_m = postfactor(absv(dx), gm)
    gdx = prefactor(g, dx)
    gdx_m = prefactor(gm, absv(dx))
    comp = [div * c for c in dx]
    comp_m = [div_m * abs(c) for c in dx]
    incomp = [a - b for a, b in zip(dv, comp)]
    incomp_m = [a + b for a, b in zip(dv_m, comp_m)]
    return {
        "G": (g, gm),
        "Gt": (transpose(g), transpose(gm)),
        "d": (sym(g), sym_mag(gm)),
        "omega": (antisym(g), sym_mag(gm)),
        "bivector": ([0.5 * c for c in wedge_bivector(g)], wedge_bivector_mag(gm)),
        "vorticity": (curl(g), curl_mag(gm)),
        "divergence": ([div], [div_m]),
        "dv": (dv, dv_m),
        "compressive": (comp, comp_m),
        "incompressive": (incomp, incomp_m),
        # grade-1 part of sum_i e_i dx d_i v, and of sum_i dx d_i v e_i
        "bidi_forward": (
            [a - b + c for a, b, c in zip(dv, comp, gdx)],
            [a + b + c for a, b, c in zip(dv_m, comp_m, gdx_m)],
        ),
        "bidi_reverse": (
            [c - a + b for a, b, c in zip(dv, comp, gdx)],
            [a + b + c for a, b, c in zip(dv_m, comp_m, gdx_m)],
        ),
    }

"""Shared test oracles and generators.

The blade oracle here is deliberately independent of the library's
bitmask encoding: blades are sorted index tuples, products are computed
by explicit bubble sort with swap counting and adjacent-pair cancellation,
and multivectors are sparse dicts.
"""

import math
import random

from gibbskit import Multivector, Poly, PolyField, Vec3

BLADES = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def oracle_blade_mul(a: tuple, b: tuple) -> tuple[int, tuple]:
    """Product of two basis blades given as ascending index tuples."""
    seq = list(a + b)
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                swapped = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            i += 2  # e_i e_i = 1
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def oracle_product(m: dict, n: dict) -> dict:
    out: dict = {}
    for ba, ca in m.items():
        for bb, cb in n.items():
            sign, blade = oracle_blade_mul(ba, bb)
            out[blade] = out.get(blade, 0.0) + sign * ca * cb
    return {b: c for b, c in out.items() if c != 0.0}


def to_oracle(m: Multivector) -> dict:
    return {BLADES[i]: c for i, c in enumerate(m.coeffs) if c != 0.0}


def from_oracle(d: dict) -> Multivector:
    coeffs = [0.0] * 8
    for blade, c in d.items():
        coeffs[BLADES.index(blade)] = c
    return Multivector(tuple(coeffs))


# --- random case generators -------------------------------------------------


def rand_vec(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> Vec3:
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def rand_unit(rng: random.Random) -> Vec3:
    while True:
        v = rand_vec(rng)
        n = v.norm()
        if n > 1e-3:
            return (1.0 / n) * v


def rand_mv(rng: random.Random) -> Multivector:
    return Multivector(tuple(rng.uniform(-2.0, 2.0) for _ in range(8)))


def rand_tensor(rng: random.Random):
    from gibbskit import Tensor3

    return Tensor3(tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(3)) for _ in range(3)))


CUBIC_POWERS = [
    (px, py, pz)
    for px in range(4)
    for py in range(4)
    for pz in range(4)
    if px + py + pz <= 3
]


def rand_cubic(rng: random.Random) -> PolyField:
    return PolyField(
        tuple(
            Poly(tuple((p, rng.uniform(-1.0, 1.0)) for p in CUBIC_POWERS))
            for _ in range(3)
        )
    )


def curl_of(a: PolyField) -> PolyField:
    """Divergence-free field from a polynomial potential (exact)."""
    a1, a2, a3 = a.components
    return PolyField(
        (
            a3.diff(1) - a2.diff(2),
            a1.diff(2) - a3.diff(0),
            a2.diff(0) - a1.diff(1),
        )
    )


def rigid_rotation(w: Vec3) -> PolyField:
    """v = w x r as an exact polynomial field."""
    wx, wy, wz = w.as_tuple()
    return PolyField(
        (
            Poly((((0, 0, 1), wy), ((0, 1, 0), -wz))),
            Poly((((1, 0, 0), wz), ((0, 0, 1), -wx))),
            Poly((((0, 1, 0), wx), ((1, 0, 0), -wy))),
        )
    )


def shear_field(gamma: float = 1.0) -> PolyField:
    return PolyField((Poly((((0, 1, 0), gamma),)), Poly.zero(), Poly.zero()))


def radial_field() -> PolyField:
    return PolyField(
        (
            Poly((((1, 0, 0), 1.0),)),
            Poly((((0, 1, 0), 1.0),)),
            Poly((((0, 0, 1), 1.0),)),
        )
    )


# --- closeness measures -----------------------------------------------------


def mv_close(a: Multivector, b: Multivector, rtol: float) -> bool:
    scale = max(1.0, *(abs(c) for c in a.coeffs + b.coeffs))
    return all(abs(x - y) <= rtol * scale for x, y in zip(a.coeffs, b.coeffs))


def vec_close(a: Vec3, b: Vec3, rtol: float) -> bool:
    scale = max(1.0, *(abs(c) for c in a.as_tuple() + b.as_tuple()))
    return all(abs(x - y) <= rtol * scale for x, y in zip(a.as_tuple(), b.as_tuple()))


def tensor_close(a, b, rtol: float) -> bool:
    flat_a = [v for r in a.rows for v in r]
    flat_b = [v for r in b.rows for v in r]
    scale = max(1.0, *(abs(v) for v in flat_a + flat_b))
    return all(abs(x - y) <= rtol * scale for x, y in zip(flat_a, flat_b))


def fit_slope(hs, errs) -> float:
    xs = [math.log(h) for h in hs]
    ys = [math.log(max(e, 1e-300)) for e in errs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def notation_workload(seed: int):
    """The benchmark's notation workload for ``seed``: ``inputs(i)`` is (spec, x, bindings, script)."""
    import sys
    from pathlib import Path

    import gibbskit

    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    return workloads.Notation(seed, gibbskit)

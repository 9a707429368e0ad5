"""Differential kinematics of a vector field at a point.

Everything derives from the gradient tensor G with entry (i, j) = dv_j/dx_i:
the symmetric/antisymmetric decomposition G = d + omega, the differential
dv = dr . G in postfactor form (or transpose(G) . dr in prefactor form),
the bivector form omega = (1/2) nabla ^ v with the vorticity as its axial
dual, the split of dv into compression-sensitive and -insensitive parts,
and the bidirectional-gradient vectors <nabla dx v>_1 and <dx v nabla>_1.

Each quantity has one implementation, a function of G: the ``*_of`` forms
here, or dyadics' sym, antisym, trace, postfactor, prefactor and transpose.
The functions taking a field and a point compute G once and wrap them.

The rotation tensor returned everywhere is the postfactor one: dr . omega
rotates in the physical sense, while omega's transpose must be used as a
prefactor to keep the same sense of rotation.
"""

from __future__ import annotations

from . import ga
from .dyadics import Tensor3, _json_value, antisym, postfactor, prefactor, sym, trace, transpose
from .fields import Field, grad_gibbs
from .ga import Multivector, Vec3, _frame_kernel, _Value

__all__ = [
    "KinematicsReport",
    "decompose",
    "dv_postfactor",
    "dv_prefactor",
    "nabla_wedge",
    "nabla_wedge_of",
    "omega_bivector",
    "vorticity",
    "strain_split",
    "strain_split_of",
    "bidi_forward",
    "bidi_forward_of",
    "bidi_reverse",
    "bidi_reverse_of",
    "report",
]


def decompose(f: Field, x: Vec3) -> tuple[Tensor3, Tensor3]:
    """Rate-of-strain d and rate-of-rotation omega, with d + omega = G.

    d is symmetric, omega antisymmetric; omega carries the 1/2 factor, so
    its (1, 2) entry is (dv2/dx - dv1/dy) / 2.
    """
    g = grad_gibbs(f, x)
    return sym(g), antisym(g)


def dv_postfactor(f: Field, x: Vec3, dr: Vec3) -> Vec3:
    """First-order velocity differential dr . G."""
    return postfactor(dr, grad_gibbs(f, x))


def dv_prefactor(f: Field, x: Vec3, dr: Vec3) -> Vec3:
    """The same differential written as transpose(G) . dr."""
    return prefactor(transpose(grad_gibbs(f, x)), dr)


def nabla_wedge(f: Field, x: Vec3) -> Multivector:
    """The bivector nabla ^ v = sum_{i<j} (d_i v_j - d_j v_i) e_ij."""
    return nabla_wedge_of(grad_gibbs(f, x))


def nabla_wedge_of(g: Tensor3) -> Multivector:
    """nabla ^ v from the gradient G (entry (i, j) = dv_j/dx_i)."""
    r = g.rows
    return ga._mv(
        (
            0.0,
            0.0,
            0.0,
            0.0,
            r[0][1] - r[1][0],
            r[0][2] - r[2][0],
            r[1][2] - r[2][1],
            0.0,
        )
    )


def omega_bivector(f: Field, x: Vec3) -> Multivector:
    """Rotation bivector (1/2) nabla ^ v; dx . omega equals dot(dx, this)."""
    return ga._mv(tuple([c * 0.5 for c in nabla_wedge(f, x).coeffs]))


def vorticity(f: Field, x: Vec3) -> Vec3:
    """Curl of the field: the axial dual of nabla ^ v."""
    return ga.vector_dual(nabla_wedge(f, x))


def strain_split(f: Field, x: Vec3, dx: Vec3) -> tuple[Vec3, Vec3]:
    """Split dv into dx (div v) plus the compression-insensitive remainder.

    The remainder is the divergence of the bivector field dx ^ v, computed
    with geometric-algebra products as sum_i e_i . (dx ^ d_i v); the two
    parts always add back to dv_postfactor.
    """
    return strain_split_of(grad_gibbs(f, x), dx)


def strain_split_of(g: Tensor3, dx: Vec3) -> tuple[Vec3, Vec3]:
    """strain_split from the gradient G; the remainder is one ``ga._frame_kernel``."""
    s = trace(g)
    remainder = _frame_kernel(("dot", "e", ("wedge", "a", "d")))(g, dx.x, dx.y, dx.z)
    return ga._vec3(dx.x * s, dx.y * s, dx.z * s), remainder


def bidi_forward(f: Field, x: Vec3, dx: Vec3) -> Vec3:
    """Grade-1 part of sum_i e_i dx (d_i v) as geometric products.

    This is the gradient acting from the left through the constant dx; for
    a divergence-free field it equals 2 dx . d.
    """
    return bidi_forward_of(grad_gibbs(f, x), dx)


def bidi_forward_of(g: Tensor3, dx: Vec3) -> Vec3:
    """bidi_forward from the gradient G (row i is d_i v), by one ``ga._frame_kernel``."""
    return _frame_kernel(("geometric", ("geometric", "e", "a"), "d"))(g, dx.x, dx.y, dx.z)


def bidi_reverse(f: Field, x: Vec3, dx: Vec3) -> Vec3:
    """Grade-1 part of sum_i dx (d_i v) e_i (gradient acting from the right).

    For a divergence-free field it equals -2 dx . omega.
    """
    return bidi_reverse_of(grad_gibbs(f, x), dx)


def bidi_reverse_of(g: Tensor3, dx: Vec3) -> Vec3:
    """bidi_reverse from the gradient G (row i is d_i v), by one ``ga._frame_kernel``."""
    return _frame_kernel(("geometric", ("geometric", "a", "d"), "e"))(g, dx.x, dx.y, dx.z)


class KinematicsReport(_Value):
    """Every derived quantity at one point, mutually consistent."""

    __match_args__ = (
        "point", "grad_gibbs", "grad_alt", "d", "omega", "omega_bivector",
        "vorticity", "divergence",
    )

    def __init__(
        self,
        point: Vec3,
        grad_gibbs: Tensor3,
        grad_alt: Tensor3,
        d: Tensor3,
        omega: Tensor3,
        omega_bivector: Multivector,
        vorticity: Vec3,
        divergence: float,
    ) -> None:
        self.__dict__.update(
            zip(
                self.__match_args__,
                (point, grad_gibbs, grad_alt, d, omega, omega_bivector, vorticity, divergence),
            )
        )

    def to_dict(self) -> dict:
        """JSON-ready mapping: ``dyadics._json_value`` of every field but one.

        omega_bivector keeps only its e12, e13 and e23 coefficients, not eight blades.
        """
        bv = self.omega_bivector.coeffs
        return {**_json_value(self), "omega_bivector": {"e12": bv[4], "e13": bv[5], "e23": bv[6]}}


def report(f: Field, x: Vec3) -> KinematicsReport:
    """Assemble the full report for a field at a point."""
    g = grad_gibbs(f, x)
    d = sym(g)
    omega = antisym(g)
    nw = nabla_wedge_of(g)
    return KinematicsReport(
        point=x,
        grad_gibbs=g,
        grad_alt=transpose(g),
        d=d,
        omega=omega,
        omega_bivector=ga._mv(tuple([c * 0.5 for c in nw.coeffs])),
        vorticity=ga.vector_dual(nw),
        divergence=trace(g),
    )

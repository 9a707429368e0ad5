"""Exact arithmetic for the geometric algebra of R^3.

Multivectors carry 8 coefficients over the canonical basis blades
{1, e1, e2, e3, e12, e13, e23, e123}.  Basis vectors square to +1 and
anticommute, so the product of two basis blades is computed by merging
their index sets (bitmask XOR) with a swap-count sign.  The full Cayley
table is precomputed at import; every operation below is a pure function
over immutable values.
"""

from __future__ import annotations

import math
from operator import attrgetter

__all__ = [
    "Vec3",
    "Multivector",
    "geometric_product",
    "grade",
    "grades_present",
    "dot",
    "wedge",
    "vector_dual",
    "dual_bivector",
    "scalar_part",
    "vector_part",
]

BLADE_NAMES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")

# Bitmask of each canonical blade: bit k set means e_{k+1} is a factor.
_MASKS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
_SLOT_OF_MASK = {m: s for s, m in enumerate(_MASKS)}
_GRADES = tuple(bin(m).count("1") for m in _MASKS)


def _merge_sign(a: int, b: int) -> int:
    # Number of transpositions needed to sort the concatenation of two
    # ascending index lists, expressed on bitmasks.
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


# _PRODUCT[i][j] = (result slot, sign) for basis blades i, j.
_PRODUCT = tuple(
    tuple(
        (_SLOT_OF_MASK[_MASKS[i] ^ _MASKS[j]], _merge_sign(_MASKS[i], _MASKS[j]))
        for j in range(8)
    )
    for i in range(8)
)


class _Value:
    """Base of gibbskit's immutable values.

    A subclass names its fields, in constructor order, in ``__match_args__``
    and sets them in ``__init__`` through ``object.__setattr__``.  ``==`` and
    ``hash`` use the fields named in ``_compared`` (all of them unless the
    subclass sets it), and ``==`` only holds between instances of the same
    class; ``repr`` shows every field.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        compared = getattr(cls, "_compared", cls.__match_args__)
        cls._key = staticmethod(attrgetter(*compared) if compared else lambda obj: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Vec3(_Value):
    """Point or vector in R^3."""

    __match_args__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def basis(i: int) -> "Vec3":
        """Unit vector e_i, i in {1, 2, 3}."""
        if i not in (1, 2, 3):
            raise ValueError(f"basis index must be 1, 2 or 3, got {i}")
        return Vec3(*(1.0 if k == i else 0.0 for k in (1, 2, 3)))


class Multivector(_Value):
    """Element of G(R^3): coefficients over {1, e1, e2, e3, e12, e13, e23, e123}."""

    __match_args__ = ("coeffs",)

    def __init__(
        self, coeffs: tuple[float, float, float, float, float, float, float, float]
    ) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        # A method of its own, so that perfbench/tracer.py can count
        # constructions by wrapping it.
        self.__post_init__()

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.coeffs)
        if len(c) != 8:
            raise ValueError(f"need 8 blade coefficients, got {len(c)}")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero() -> "Multivector":
        return Multivector((0.0,) * 8)

    @staticmethod
    def scalar(s: float) -> "Multivector":
        return Multivector((float(s), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def from_vec3(v: Vec3) -> "Multivector":
        return Multivector((0.0, v.x, v.y, v.z, 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def basis_vector(i: int) -> "Multivector":
        """e_i as a multivector, i in {1, 2, 3}."""
        return Multivector.from_vec3(Vec3.basis(i))

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Multivector":
        return Multivector(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(tuple(a * other for a in self.coeffs))

    def __rmul__(self, other: float) -> "Multivector":
        return Multivector(tuple(a * other for a in self.coeffs))

    def grade(self, k: int) -> "Multivector":
        return grade(self, k)

    def __str__(self) -> str:
        return render_multivector(self)


def geometric_product(m: Multivector, n: Multivector) -> Multivector:
    """Clifford product of two multivectors (associative, non-commutative)."""
    out = [0.0] * 8
    for i, a in enumerate(m.coeffs):
        if a == 0.0:
            continue
        for j, b in enumerate(n.coeffs):
            if b == 0.0:
                continue
            slot, sign = _PRODUCT[i][j]
            out[slot] += sign * a * b
    return Multivector(tuple(out))


def grade(m: Multivector, k: int) -> Multivector:
    """Projection of m onto its grade-k part, 0 <= k <= 3."""
    if not isinstance(k, int) or k < 0 or k > 3:
        raise ValueError(f"grade must be an integer in 0..3, got {k!r}")
    return Multivector(
        tuple(c if _GRADES[i] == k else 0.0 for i, c in enumerate(m.coeffs))
    )


def grades_present(m: Multivector) -> set[int]:
    """Set of grades with a nonzero coefficient."""
    return {_GRADES[i] for i, c in enumerate(m.coeffs) if c != 0.0}


def dot(a: Multivector, b: Multivector) -> Multivector:
    """Grade-lowering product: the grade |j-k| part of each blade product.

    Extended bilinearly over the grade decomposition of both arguments;
    for a scalar operand this reduces to plain scalar multiplication.
    """
    out = [0.0] * 8
    for i, ca in enumerate(a.coeffs):
        if ca == 0.0:
            continue
        gi = _GRADES[i]
        for j, cb in enumerate(b.coeffs):
            if cb == 0.0:
                continue
            slot, sign = _PRODUCT[i][j]
            if _GRADES[slot] == abs(gi - _GRADES[j]):
                out[slot] += sign * ca * cb
    return Multivector(tuple(out))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Grade-raising product: the grade j+k part of each blade product."""
    out = [0.0] * 8
    for i, ca in enumerate(a.coeffs):
        if ca == 0.0:
            continue
        gi = _GRADES[i]
        for j, cb in enumerate(b.coeffs):
            if cb == 0.0:
                continue
            slot, sign = _PRODUCT[i][j]
            if _GRADES[slot] == gi + _GRADES[j]:
                out[slot] += sign * ca * cb
    return Multivector(tuple(out))


def scalar_part(m: Multivector) -> float:
    return m.coeffs[0]


def vector_part(m: Multivector) -> Vec3:
    """Grade-1 coefficients as a Vec3 (other grades are ignored)."""
    return Vec3(m.coeffs[1], m.coeffs[2], m.coeffs[3])


def vector_dual(b: Multivector) -> Vec3:
    """Axial vector w of a pure bivector b, so that b = w1 e23 + w2 e31 + w3 e12.

    Raises ValueError when b has any non-grade-2 coefficient.
    """
    bad = grades_present(b) - {2}
    if bad:
        raise ValueError(
            f"vector_dual needs a pure bivector, found grade(s) {sorted(bad)}"
        )
    c12, c13, c23 = b.coeffs[4], b.coeffs[5], b.coeffs[6]
    return Vec3(c23, 0.0 - c13, c12)  # 0.0 - x avoids -0.0 components


def dual_bivector(w: Vec3) -> Multivector:
    """Inverse of vector_dual: the bivector w1 e23 + w2 e31 + w3 e12."""
    return Multivector((0.0, 0.0, 0.0, 0.0, w.z, -w.y, w.x, 0.0))


def format_number(c: float) -> str:
    """Shortest faithful rendering; integral values drop the '.0'."""
    if c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def render_multivector(m: Multivector, fmt=format_number) -> str:
    """Canonical text form, e.g. ``-1 + e23`` or ``2 e1 - 0.5 e12``.

    Zero terms are omitted; blade order is fixed; the zero multivector
    renders as ``0``.
    """
    parts: list[str] = []
    for i, c in enumerate(m.coeffs):
        if c == 0.0:
            continue
        mag = fmt(abs(c))
        if i == 0:
            body = mag
        elif mag == "1":
            body = BLADE_NAMES[i]
        else:
            body = f"{mag} {BLADE_NAMES[i]}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"

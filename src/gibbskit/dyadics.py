"""Dyadic (second-order tensor) algebra over Cartesian R^3.

A Tensor3 stores T_ij as the coefficient of e_i (x) e_j: row index is the
antecedent, column index the consequent.  A dyadic has no bare "multiply";
it acts on vectors either as a postfactor (c . T) or as a prefactor
(T . c), and the two are linked by c . T = transpose(T) . c.
"""

from __future__ import annotations

from .ga import Vec3, _Value

__all__ = [
    "Tensor3",
    "dyad",
    "nonion_basis",
    "postfactor",
    "prefactor",
    "transpose",
    "sym",
    "antisym",
    "trace",
    "identity",
    "max_abs",
    "render_matrix",
]

Rows = tuple[
    tuple[float, float, float],
    tuple[float, float, float],
    tuple[float, float, float],
]


class Tensor3(_Value):
    """3x3 tensor in the nonion basis; immutable."""

    __match_args__ = ("rows",)

    def __init__(self, rows: Rows) -> None:
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Tensor3 needs 3 rows of 3 entries")
        object.__setattr__(self, "rows", tuple(tuple(float(v) for v in r) for r in rows))

    def entry(self, i: int, j: int) -> float:
        """T_ij with 1-based indices."""
        if i not in (1, 2, 3) or j not in (1, 2, 3):
            raise ValueError(f"indices must be in 1..3, got ({i}, {j})")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> Vec3:
        return Vec3(*self.rows[i - 1])

    def column(self, j: int) -> Vec3:
        return Vec3(*(self.rows[i][j - 1] for i in range(3)))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "Tensor3":
        return Tensor3(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, s: float) -> "Tensor3":
        return Tensor3(tuple(tuple(a * s for a in r) for r in self.rows))

    __rmul__ = __mul__

    def to_lists(self) -> list[list[float]]:
        """Row-major array-of-arrays, the JSON rendering."""
        return [list(r) for r in self.rows]

    @staticmethod
    def zero() -> "Tensor3":
        return Tensor3(((0.0,) * 3,) * 3)

    def __str__(self) -> str:
        return render_matrix(self)


def dyad(a: Vec3, b: Vec3) -> Tensor3:
    """Indeterminate product a (x) b: entry (i, j) is a_i b_j."""
    at, bt = a.as_tuple(), b.as_tuple()
    return Tensor3(tuple(tuple(ai * bj for bj in bt) for ai in at))


def nonion_basis(i: int, j: int) -> Tensor3:
    """Basis dyad e_i (x) e_j, 1-based indices."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"nonion indices must be in 1..3, got ({i}, {j})")
    return dyad(Vec3.basis(i), Vec3.basis(j))


def postfactor(c: Vec3, t: Tensor3) -> Vec3:
    """c . T, the vector applied from the left: result_j = sum_i c_i T_ij."""
    ct = c.as_tuple()
    return Vec3(*(sum(ct[i] * t.rows[i][j] for i in range(3)) for j in range(3)))


def prefactor(t: Tensor3, c: Vec3) -> Vec3:
    """T . c, the vector applied from the right: result_i = sum_j T_ij c_j."""
    ct = c.as_tuple()
    return Vec3(*(sum(t.rows[i][j] * ct[j] for j in range(3)) for i in range(3)))


def transpose(t: Tensor3) -> Tensor3:
    return Tensor3(tuple(tuple(t.rows[j][i] for j in range(3)) for i in range(3)))


def sym(t: Tensor3) -> Tensor3:
    """Symmetric part (T + transpose(T)) / 2."""
    return 0.5 * (t + transpose(t))


def antisym(t: Tensor3) -> Tensor3:
    """Antisymmetric part (T - transpose(T)) / 2."""
    return 0.5 * (t - transpose(t))


def trace(t: Tensor3) -> float:
    return t.rows[0][0] + t.rows[1][1] + t.rows[2][2]


def identity() -> Tensor3:
    return Tensor3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def max_abs(t: Tensor3) -> float:
    return max(abs(v) for r in t.rows for v in r)


def render_matrix(t: Tensor3, digits: int = 6, width: int = 12) -> str:
    """Aligned text form: 3 rows of 3 values, row-major."""
    return "\n".join(
        "".join(f"{v:>{width}.{digits}g}" for v in r) for r in t.rows
    )

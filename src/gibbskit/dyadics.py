"""Dyadic (second-order tensor) algebra over Cartesian R^3.

A Tensor3 stores T_ij as the coefficient of e_i (x) e_j: row index is the
antecedent, column index the consequent.  A dyadic has no bare "multiply";
it acts on vectors either as a postfactor (c . T) or as a prefactor
(T . c), and the two are linked by c . T = transpose(T) . c.

``_json_value`` is the one JSON rule for every value and result record:
a Vec3 is [x, y, z], a Tensor3 its rows, a Multivector a blade ->
coefficient object, and a record its fields in ``__match_args__`` order.
"""

from __future__ import annotations

from operator import add, neg, sub

from .ga import BLADE_NAMES, Multivector, Vec3, _is_index, _new, _Value, _vec3, format_short

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
        r0, r1, r2 = rows if len(rows) == 3 else ((), (), ())
        if len(r0) != 3 or len(r1) != 3 or len(r2) != 3:
            raise ValueError("Tensor3 needs 3 rows of 3 entries")
        rows = (tuple(map(float, r0)), tuple(map(float, r1)), tuple(map(float, r2)))
        self.__dict__["rows"] = rows

    def entry(self, i: int, j: int) -> float:
        """T_ij with 1-based indices."""
        if not (_is_index(i) and _is_index(j)):
            raise ValueError(f"indices must be in 1..3, got ({i}, {j})")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> Vec3:
        if not _is_index(i):
            raise ValueError(f"row index must be in 1..3, got {i}")
        return _vec3(*self.rows[i - 1])

    def column(self, j: int) -> Vec3:
        if not _is_index(j):
            raise ValueError(f"column index must be in 1..3, got {j}")
        r0, r1, r2 = self.rows
        return _vec3(r0[j - 1], r1[j - 1], r2[j - 1])

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return _tensor(tuple([tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return _tensor(tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))

    def __neg__(self) -> "Tensor3":
        return _tensor(tuple([tuple(map(neg, r)) for r in self.rows]))

    def __mul__(self, s: float) -> "Tensor3":
        return Tensor3([[a * s for a in r] for r in self.rows])

    __rmul__ = __mul__

    def to_lists(self) -> list[list[float]]:
        """Row-major array-of-arrays, the JSON rendering."""
        return [list(r) for r in self.rows]

    @staticmethod
    def zero() -> "Tensor3":
        return Tensor3(((0.0,) * 3,) * 3)

    def __str__(self) -> str:
        return render_matrix(self)


def _json_value(value):
    """JSON form of a value, or of a record as field -> JSON form of the field."""
    if isinstance(value, Vec3):
        return list(value.as_tuple())
    if isinstance(value, Tensor3):
        return value.to_lists()
    if isinstance(value, Multivector):
        return dict(zip(BLADE_NAMES, value.coeffs))
    if isinstance(value, _Value):
        return {name: _json_value(getattr(value, name)) for name in value.__match_args__}
    return value


def _tensor(rows: Rows) -> Tensor3:
    # Trusted builder: rows must already be 3 tuples of 3 floats.
    t = _new(Tensor3)
    t.__dict__["rows"] = rows
    return t


def dyad(a: Vec3, b: Vec3) -> Tensor3:
    """Indeterminate product a (x) b: entry (i, j) is a_i b_j."""
    at, bt = a.as_tuple(), b.as_tuple()
    return _tensor(tuple([tuple([ai * bj for bj in bt]) for ai in at]))


def nonion_basis(i: int, j: int) -> Tensor3:
    """Basis dyad e_i (x) e_j, 1-based indices."""
    if not (_is_index(i) and _is_index(j)):
        raise ValueError(f"nonion indices must be in 1..3, got ({i}, {j})")
    return dyad(Vec3.basis(i), Vec3.basis(j))


# These two add left to right from 0.0, not with sum, which 3.12 made compensated.
def postfactor(c: Vec3, t: Tensor3) -> Vec3:
    """c . T, the vector applied from the left: result_j = sum_i c_i T_ij."""
    c0, c1, c2 = c.as_tuple()
    return _vec3(*[0.0 + c0 * a + c1 * b + c2 * e for a, b, e in zip(*t.rows)])


def prefactor(t: Tensor3, c: Vec3) -> Vec3:
    """T . c, the vector applied from the right: result_i = sum_j T_ij c_j."""
    c0, c1, c2 = c.as_tuple()
    return _vec3(*[0.0 + a * c0 + b * c1 + e * c2 for a, b, e in t.rows])


def transpose(t: Tensor3) -> Tensor3:
    return _tensor(tuple(zip(*t.rows)))


def sym(t: Tensor3) -> Tensor3:
    """Symmetric part (T + transpose(T)) / 2, entry by entry."""
    rows = t.rows
    return _tensor(
        tuple([tuple([(a + b) * 0.5 for a, b in zip(r, c)]) for r, c in zip(rows, zip(*rows))])
    )


def antisym(t: Tensor3) -> Tensor3:
    """Antisymmetric part (T - transpose(T)) / 2, entry by entry."""
    rows = t.rows
    return _tensor(
        tuple([tuple([(a - b) * 0.5 for a, b in zip(r, c)]) for r, c in zip(rows, zip(*rows))])
    )


def trace(t: Tensor3) -> float:
    return t.rows[0][0] + t.rows[1][1] + t.rows[2][2]


def identity() -> Tensor3:
    return Tensor3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def _nan_max(values: list[float]) -> float:
    # max of non-negative floats, or nan if one is nan: the builtin max keeps
    # a nan only in first place, and their sum is nan exactly when one is.
    total = sum(values)
    return total if total != total else max(values)


def max_abs(t: Tensor3) -> float:
    """Largest |entry|; nan if any entry is nan."""
    return _nan_max([abs(v) for r in t.rows for v in r])


def render_matrix(t: Tensor3) -> str:
    """Aligned text form: 3 rows of 3 values, row-major."""
    return "\n".join("".join(f"{format_short(v):>12}" for v in r) for r in t.rows)

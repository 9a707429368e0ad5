"""Exact arithmetic for the geometric algebra of R^3.

Multivectors carry 8 coefficients over the canonical basis blades
{1, e1, e2, e3, e12, e13, e23, e123}.  Basis vectors square to +1 and
anticommute, so the product of two basis blades is computed by merging
their index sets (bitmask XOR) with a swap-count sign.  The full Cayley
table, and its grade-filtered copies for the dot and wedge products, are
built at import.  ``_product_lines`` lists a product over a table as
straight-line code that skips zero operands at run time; with it, each
table's product and each frame sum of ``kinematics`` is one function,
compiled on first use (never at import) and kept.  Every operation below
is a pure function over immutable values.

Public constructors validate and coerce what the caller passes.  A result
whose every field is a float computed from other gibbskit values is built
by the trusted builders ``_vec3`` and ``_mv``, which skip that work and
come from the constructor's field list; scaling by a caller's scalar goes
through the constructor, as the scalar may be complex or a NumPy number.
"""

from __future__ import annotations

import math
from functools import cache
from operator import add, attrgetter, neg, sub

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


# _PRODUCT[i][j] = (j, result slot, sign) for basis blades i, j.  Row i of
# _DOT and _WEDGE keeps, in the same order, the entries whose result grade
# is |grade i - grade j| and grade i + grade j respectively.  Kernels are
# keyed by table name, in _TABLES.
_PRODUCT = tuple(
    tuple((j, _SLOT_OF_MASK[mi ^ mj], _merge_sign(mi, mj)) for j, mj in enumerate(_MASKS))
    for mi in _MASKS
)
_DOT = tuple(
    tuple(e for e in row if _GRADES[e[1]] == abs(_GRADES[i] - _GRADES[e[0]]))
    for i, row in enumerate(_PRODUCT)
)
_WEDGE = tuple(
    tuple(e for e in row if _GRADES[e[1]] == _GRADES[i] + _GRADES[e[0]])
    for i, row in enumerate(_PRODUCT)
)
_TABLES = {"geometric": _PRODUCT, "dot": _DOT, "wedge": _WEDGE}


def _product_lines(rows: tuple, a, b, out: str, body: list[str], wanted=range(8)) -> list:
    """Append to body the product over ``rows`` of operand slots a and b; return its slots.

    A slot is None (a literal zero), a non-zero float constant or a local's name.
    Slot k is None if it is not ``wanted`` or no pair lands in it, else the local
    ``{out}{k}``: bit for bit ``out[k] += sign * a[i] * b[j]`` from 0.0 over nonzero
    pairs, i-major, j-minor, since each local runs under ``if`` (a zero is skipped,
    as ``0 * inf`` is nan).
    """
    slots = [None] * 8
    for i, row in enumerate(rows):
        x, block = a[i], []
        for j, k, sign in row:
            if x is None or k not in wanted or (y := b[j]) is None:
                continue
            if slots[k] is None:
                slots[k] = f"{out}{k}"
                body.append(f"{out}{k} = 0.0")
            add = f"{out}{k} {'+' if sign > 0 else '-'}= {x} * {y}"
            block.append(f"if {y}: {add}" if isinstance(y, str) else add)
        if block and isinstance(x, str):
            block = [f"if {x}:", *(f"    {line}" for line in block)]
        body += block
    return slots


def _function(head: str, lines: list[str], filename: str, namespace: dict):
    """``def {head}:`` over ``lines``, compiled as the file ``filename`` in ``namespace``."""
    exec(compile(f"def {head}:\n    " + "\n    ".join(lines), filename, "exec"), namespace)
    return namespace[head.partition("(")[0]]


def _named(fn, name: str):
    """``fn``, its code named ``name``: pstats keys a function by file, first line and code name."""
    fn.__code__ = fn.__code__.replace(co_name=name)
    return fn


def _compile(params: str, lines: list[str], result: str):
    lines = [*lines, f"return {result}"]
    return _function(f"kernel({params})", lines, "<gibbskit.ga kernel>", {"_vec3": _vec3})


@cache
def _kernel(name: str):
    """``kernel(a, b)``: the coefficients of the product ``name`` of two 8-tuples."""
    a, b = [f"a{i}" for i in range(8)], [f"b{j}" for j in range(8)]
    lines = [f"{', '.join(a)} = a", f"{', '.join(b)} = b"]
    coeffs = ", ".join(s or "0.0" for s in _product_lines(_TABLES[name], a, b, "c", lines))
    return _named(_compile("a, b", lines, f"({coeffs})"), f"{name} kernel")


@cache
def _frame_kernel(term: tuple):
    """``kernel(g, dx.x, dx.y, dx.z)``: the grade-1 part of sum_i term(e_i, dx, d_i v).

    ``term`` is ``(table name, left, right)``; an operand is a term or a leaf: ``"e"`` is
    e_i, ``"a"`` dx and ``"d"`` row i of G.  A product computes only the slots read:
    an operand gets the slots of the pairs that land in a wanted slot, and a leaf goes
    first, so that its zero slots rule pairs out.  The frame adds from ``0.0`` in i
    order, skipping slots no pair reaches: a sum from ``0.0`` is never ``-0.0``.
    """
    lines = ["(d01, d02, d03), (d11, d12, d13), (d21, d22, d23) = g.rows"]

    def slots(node, i: int, out: str, wanted=range(8)) -> list:
        if isinstance(node, str):  # a vector: e_i, dx or d_i v
            vector = {"e": [1.0 if k == i else None for k in range(3)], "a": ["a1", "a2", "a3"],
                      "d": [f"d{i}1", f"d{i}2", f"d{i}3"]}[node]
            return [None, *vector, None, None, None, None]
        name, left, right = node
        pairs = [(l, r) for l, row in enumerate(_TABLES[name]) for r, k, _ in row if k in wanted]
        b = slots(right, i, out + "r") if isinstance(right, str) else None
        a = slots(left, i, out + "l", {l for l, r in pairs if b is None or b[r]})
        b = b or slots(right, i, out + "r", {r for l, r in pairs if a[l]})
        return _product_lines(_TABLES[name], a, b, out, lines, wanted)

    frame = [slots(term, i, f"t{i}", range(1, 4)) for i in range(3)]
    sums = ", ".join(" + ".join(["0.0", *(f[k] for f in frame if f[k])]) for k in (1, 2, 3))
    return _named(_compile("g, a1, a2, a3", lines, f"_vec3({sums})"), f"{_spelled(term)} kernel")


def _spelled(term) -> str:
    """``("dot", "e", ("wedge", "a", "d"))`` as ``dot(e, wedge(a, d))``."""
    return term if isinstance(term, str) else f"{term[0]}({_spelled(term[1])}, {_spelled(term[2])})"


def _stores(names) -> list[str]:
    """Lines that write each argument in ``names``, as given and in order, to ``self.__dict__``."""
    return ["fields = self.__dict__", *(f"fields[{n!r}] = {n}" for n in names)]


def _constructor(cls):
    """``cls.__init__``, compiled from ``cls.__match_args__`` and ``cls._defaults``."""
    names, defaults = cls.__match_args__, getattr(cls, "_defaults", {})
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    post = ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    head, file = f"__init__(self{params})", f"<{cls.__module__} constructor>"
    init = _function(head, _stores(names) + post, file, {"_defaults": defaults})
    init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
    return _named(init, init.__qualname__)


def _builder(cls):
    """``cls``'s trusted builder: ``_stores`` into ``object.__new__(cls)``, no ``__post_init__``."""
    names, namespace = cls.__match_args__, {"_new": object.__new__, "_cls": cls}
    lines = ["self = _new(_cls)", *_stores(names), "return self"]
    build = _function(f"build({', '.join(names)})", lines, f"<{cls.__module__} builder>", namespace)
    return _named(build, f"{cls.__qualname__} builder")


class _Value:
    """Base of gibbskit's immutable values.

    A subclass names its fields, in constructor order, in ``__match_args__``.
    One that inherits no ``__init__`` gets one compiled at class creation:
    a parameter per field in that order, defaulting to ``_defaults[name]``
    where that class-level mapping names it, each argument written to
    ``self.__dict__`` as given (``__setattr__`` refuses every assignment),
    then ``self.__post_init__()`` if the class has one.  ``__post_init__``
    validates or coerces the stored fields, and perfbench/tracer.py wraps it
    to count constructions.  ``Vec3`` and ``Tensor3`` coerce their
    arguments on hot public paths, so they write their own ``__init__``.
    ``==`` and ``hash`` use the fields named in ``_compared`` (all of them
    unless the subclass sets it), and ``==`` only holds between instances of
    the same class; ``repr`` shows every field.

    Public construction validates; a value computed by the library from
    other gibbskit values is built by a module-private builder (``ga._vec3``,
    ``ga._mv``, ``dyadics._tensor``, ``Poly._trusted``), which ``_builder``
    compiles from the same field list and which runs no ``__post_init__``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        compared = getattr(cls, "_compared", cls.__match_args__)
        cls._key = staticmethod(attrgetter(*compared) if compared else lambda obj: ())
        if cls.__init__ is object.__init__:
            cls.__init__ = _constructor(cls)

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
        fields = self.__dict__
        fields["x"] = float(x)
        fields["y"] = float(y)
        fields["z"] = float(z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return _vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return _vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return _vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return _vec3(
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
        return _BASIS[_basis_index(i)]


_vec3 = _builder(Vec3)  # x, y and z must already be floats


def _is_index(i, allowed=(1, 2, 3)) -> bool:
    """Whether i is one of ``allowed`` and an int; a bool or a float never is."""
    return not isinstance(i, bool) and isinstance(i, int) and i in allowed


def _basis_index(i: int) -> int:
    if not _is_index(i):
        raise ValueError(f"basis index must be 1, 2 or 3, got {i}")
    return i - 1


_BASIS = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))


class Multivector(_Value):
    """Element of G(R^3): coefficients over {1, e1, e2, e3, e12, e13, e23, e123}."""

    __match_args__ = ("coeffs",)

    def __post_init__(self) -> None:
        c = tuple(map(float, self.coeffs))
        if len(c) != 8:
            raise ValueError(f"need 8 blade coefficients, got {len(c)}")
        self.__dict__["coeffs"] = c

    @staticmethod
    def zero() -> "Multivector":
        return _mv((0.0,) * 8)

    @staticmethod
    def scalar(s: float) -> "Multivector":
        return Multivector((float(s), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def from_vec3(v: Vec3) -> "Multivector":
        return Multivector((0.0, v.x, v.y, v.z, 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def basis_vector(i: int) -> "Multivector":
        """e_i as a multivector, i in {1, 2, 3}."""
        return _MV_BASIS[_basis_index(i)]

    def __add__(self, other: "Multivector") -> "Multivector":
        return _mv(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return _mv(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "Multivector":
        return _mv(tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector([a * other for a in self.coeffs])

    def __rmul__(self, other: float) -> "Multivector":
        return Multivector([a * other for a in self.coeffs])

    def grade(self, k: int) -> "Multivector":
        return grade(self, k)

    def __str__(self) -> str:
        return render_multivector(self)


_mv = _builder(Multivector)  # coeffs must already be a tuple of 8 floats


def _mv_vec(v: Vec3) -> Multivector:
    # Trusted grade-1 builder: a Vec3 holds floats already.
    return _mv((0.0, v.x, v.y, v.z, 0.0, 0.0, 0.0, 0.0))


_MV_BASIS = tuple(map(_mv_vec, _BASIS))


def geometric_product(m: Multivector, n: Multivector) -> Multivector:
    """Clifford product of two multivectors (associative, non-commutative)."""
    return _mv(_kernel("geometric")(m.coeffs, n.coeffs))


def grade(m: Multivector, k: int) -> Multivector:
    """Projection of m onto its grade-k part, 0 <= k <= 3."""
    if not _is_index(k, (0, 1, 2, 3)):
        raise ValueError(f"grade must be an integer in 0..3, got {k!r}")
    return _mv(tuple([c if _GRADES[i] == k else 0.0 for i, c in enumerate(m.coeffs)]))


def grades_present(m: Multivector) -> set[int]:
    """Set of grades with a nonzero coefficient."""
    return {_GRADES[i] for i, c in enumerate(m.coeffs) if c != 0.0}


def dot(a: Multivector, b: Multivector) -> Multivector:
    """Grade-lowering product: the grade |j-k| part of each blade product.

    Extended bilinearly over the grade decomposition of both arguments;
    for a scalar operand this reduces to plain scalar multiplication.
    """
    return _mv(_kernel("dot")(a.coeffs, b.coeffs))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Grade-raising product: the grade j+k part of each blade product."""
    return _mv(_kernel("wedge")(a.coeffs, b.coeffs))


def scalar_part(m: Multivector) -> float:
    return m.coeffs[0]


def vector_part(m: Multivector) -> Vec3:
    """Grade-1 coefficients as a Vec3 (other grades are ignored)."""
    return _vec3(m.coeffs[1], m.coeffs[2], m.coeffs[3])


def vector_dual(b: Multivector) -> Vec3:
    """Axial vector w of a pure bivector b, so that b = w1 e23 + w2 e31 + w3 e12.

    Raises ValueError when b has any non-grade-2 coefficient.
    """
    c0, c1, c2, c3, c12, c13, c23, c123 = b.coeffs
    if c0 != 0.0 or c1 != 0.0 or c2 != 0.0 or c3 != 0.0 or c123 != 0.0:
        raise ValueError(
            f"vector_dual needs a pure bivector, found grade(s) {sorted(grades_present(b) - {2})}"
        )
    return _vec3(c23, 0.0 - c13, c12)  # 0.0 - x avoids -0.0 components


def dual_bivector(w: Vec3) -> Multivector:
    """Inverse of vector_dual: the bivector w1 e23 + w2 e31 + w3 e12."""
    return _mv((0.0, 0.0, 0.0, 0.0, w.z, -w.y, w.x, 0.0))


def format_number(c: float) -> str:
    """Shortest faithful rendering; integral values drop the '.0'."""
    # The magnitude test comes first: int() refuses inf and nan.
    if abs(c) < 1e16 and c == int(c):
        return str(int(c))
    return repr(c)


def format_short(c: float) -> str:
    """Text-output rendering: 6 significant digits, negative zero as ``0``."""
    # Adding +0.0 turns -0.0 into 0.0 and leaves every other value as it is.
    return f"{c + 0.0:.6g}"


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
        # The sign test is c < 0, so that nan takes no sign.
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"

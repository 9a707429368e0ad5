"""Vector fields v: R^3 -> R^3 and their differentiation.

Two representations are supported.  A PolyField holds one multivariate
polynomial per component and differentiates symbolically (exponent
decrement), giving exact derivatives.  A BlackBoxField wraps an arbitrary
evaluator and falls back to second-order central differences.

The gradient convention used throughout: ``grad_gibbs(f, x)`` has entry
(i, j) = dv_j/dx_i, so row i holds the partial derivative of the whole
field along axis i, and ``dv = postfactor(dr, grad_gibbs)``.  The
transposed layout, entry (i, j) = dv_i/dx_j, is ``grad_alt``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from functools import cached_property

from .dyadics import Tensor3, trace, transpose
from .ga import Vec3, _Value

__all__ = [
    "Poly",
    "PolyField",
    "BlackBoxField",
    "Field",
    "FieldSpecError",
    "DEFAULT_FD_STEP",
    "grad_gibbs",
    "grad_alt",
    "divergence",
    "fd_grad",
    "partial_vectors",
    "field_from_dict",
    "load_field",
]

DEFAULT_FD_STEP = 1e-5

Powers = tuple[int, int, int]

Terms = tuple[tuple[Powers, float], ...]


def _check_axis(axis) -> None:
    if isinstance(axis, bool) or not isinstance(axis, int) or axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")


def _lowered(terms: Terms) -> tuple[Terms, Terms, Terms]:
    """The terms of d/dx, d/dy and d/dz of a polynomial, in one pass.

    Entry ``axis`` holds ``(powers with exponent e lowered by one, coeff * e)``
    for each term whose exponent e along ``axis`` is at least 1, in term
    order.  Lowering the same exponent of every surviving term keeps
    distinct triples distinct and in sorted order, and ``coeff * e`` is
    non-zero for e >= 1, so canonical input gives canonical output.
    """
    dx, dy, dz = [], [], []
    for (px, py, pz), coeff in terms:
        if px:
            dx.append(((px - 1, py, pz), coeff * px))
        if py:
            dy.append(((px, py - 1, pz), coeff * py))
        if pz:
            dz.append(((px, py, pz - 1), coeff * pz))
    return tuple(dx), tuple(dy), tuple(dz)


def _top_powers(term_lists) -> Powers:
    """The highest exponent along each axis that any of the terms uses."""
    tx = ty = tz = 0
    for terms in term_lists:
        for (px, py, pz), _ in terms:
            if px > tx:
                tx = px
            if py > ty:
                ty = py
            if pz > tz:
                tz = pz
    return tx, ty, tz


def _power_tables(p: Vec3, top: Powers) -> tuple[list[float], list[float], list[float]]:
    """``x**k``, ``y**k`` and ``z**k`` for k up to ``top``, one table per axis.

    No table goes past the highest power a term uses, so a power that no
    term needs cannot overflow.
    """
    x, y, z = p.x, p.y, p.z
    tx, ty, tz = top
    return (
        [x**k for k in range(tx + 1)],
        [y**k for k in range(ty + 1)],
        [z**k for k in range(tz + 1)],
    )


def _eval_terms(terms: Terms, xs: list[float], ys: list[float], zs: list[float]) -> float:
    # The one polynomial evaluator: term by term and left to right, with
    # the powers read from the tables.
    total = 0.0
    for (px, py, pz), coeff in terms:
        total += coeff * xs[px] * ys[py] * zs[pz]
    return total


class Poly(_Value):
    """Polynomial in x, y, z as a canonical, merged monomial list.

    ``terms`` maps each exponent triple to its coefficient; no triple
    repeats, zero coefficients are dropped, and the triples are sorted, so
    equal polynomials compare equal.  The constructor validates and
    canonicalises; ``_trusted`` wraps terms that are already canonical.
    """

    __match_args__ = ("terms",)

    def __init__(self, terms: Terms) -> None:
        self.__dict__["terms"] = terms
        # A method of its own, so that perfbench/tracer.py can count
        # constructions by wrapping it.
        self.__post_init__()

    def __post_init__(self) -> None:
        checked = []
        # Input that is already strictly sorted with no zero coefficient is
        # canonical as it stands: merging would only add each coefficient
        # to 0.0, which leaves a non-zero float unchanged.
        canonical = True
        prev = ()
        for powers, coeff in self.terms:
            p = tuple(powers)
            px, py, pz = p if len(p) == 3 else (None, None, None)
            # type(e) is int also refuses bools and floats such as 1.5.
            if not (type(px) is type(py) is type(pz) is int and px >= 0 and py >= 0 and pz >= 0):
                raise ValueError(f"monomial powers must be 3 non-negative ints: {powers!r}")
            c = float(coeff)
            if c == 0.0 or not prev < p:
                canonical = False
            prev = p
            checked.append((p, c))
        if not canonical:
            merged: dict[Powers, float] = {}
            for p, c in checked:
                merged[p] = merged.get(p, 0.0) + c
            checked = sorted((p, c) for p, c in merged.items() if c != 0.0)
        self.__dict__["terms"] = tuple(checked)

    @classmethod
    def _trusted(cls, terms: Terms) -> "Poly":
        poly = object.__new__(cls)
        poly.__dict__["terms"] = terms
        return poly

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def constant(c: float) -> "Poly":
        return Poly((((0, 0, 0), float(c)),))

    def eval(self, p: Vec3) -> float:
        return _eval_terms(self.terms, *_power_tables(p, _top_powers((self.terms,))))

    def diff(self, axis: int) -> "Poly":
        """Partial derivative along axis 0, 1 or 2 (x, y, z).

        The lowered terms are already canonical (see ``_lowered``), so the
        result skips the validating constructor.
        """
        _check_axis(axis)
        return Poly._trusted(_lowered(self.terms)[axis])

    def grad_at(self, p: Vec3) -> Vec3:
        lowered = _lowered(self.terms)
        xs, ys, zs = _power_tables(p, _top_powers(lowered))
        return Vec3(*(_eval_terms(terms, xs, ys, zs) for terms in lowered))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.terms + other.terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-1.0) * other

    def __mul__(self, s: float) -> "Poly":
        return Poly(tuple([(p, c * s) for p, c in self.terms]))

    __rmul__ = __mul__


class PolyField(_Value):
    """Vector field with polynomial components; derivatives are exact.

    The Jacobian plan and the three partial fields are computed on first
    use and kept in write-once memos that take no part in ``==``, ``hash``
    or ``repr``.
    """

    __match_args__ = ("components",)

    def __init__(self, components: tuple[Poly, Poly, Poly]) -> None:
        if len(components) != 3:
            raise ValueError("PolyField needs exactly 3 components")
        self.__dict__["components"] = components

    def eval(self, x: Vec3) -> Vec3:
        terms = [c.terms for c in self.components]
        xs, ys, zs = _power_tables(x, _top_powers(terms))
        return Vec3(*(_eval_terms(t, xs, ys, zs) for t in terms))

    __call__ = eval

    @cached_property
    def _jacobian(self) -> tuple[tuple[tuple[Terms, Terms, Terms], ...], Powers]:
        """Jacobian plan: the terms of dv_j/dx_i at ``[0][i][j]``, top powers at ``[1]``.

        Entry (i, j) holds the terms of ``components[j].diff(i)``, in the
        same order; ``grad_gibbs`` evaluates them over power tables.
        """
        rows = tuple(zip(*(_lowered(c.terms) for c in self.components)))
        return rows, _top_powers(terms for row in rows for terms in row)

    @cached_property
    def _partials(self) -> tuple["PolyField", "PolyField", "PolyField"]:
        return tuple(
            PolyField(tuple(Poly._trusted(terms) for terms in row)) for row in self._jacobian[0]
        )

    def partial(self, axis: int) -> "PolyField":
        """The field d v / d x_axis; polynomial fields are closed under this."""
        _check_axis(axis)
        return self._partials[axis]

    def dotted(self, c: Vec3) -> Poly:
        """Scalar polynomial c . v for a constant vector c."""
        ct = c.as_tuple()
        acc = Poly.zero()
        for ci, comp in zip(ct, self.components):
            acc = acc + ci * comp
        return acc


class BlackBoxField(_Value):
    """Opaque field; derivatives use central differences with ``step``.

    The evaluator must be deterministic and side-effect-free while a
    derivative is being computed (it is called at perturbed points).
    """

    __match_args__ = ("evaluator", "step")

    def __init__(self, evaluator: Callable[[Vec3], Vec3], step: float = DEFAULT_FD_STEP) -> None:
        _check_fd_step(step)
        fields = self.__dict__
        fields["evaluator"] = evaluator
        fields["step"] = step

    def eval(self, x: Vec3) -> Vec3:
        return self.evaluator(x)

    __call__ = eval


Field = PolyField | BlackBoxField


def _check_fd_step(step: float) -> None:
    """Raise ValueError unless ``step`` is a finite number > 0."""
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"finite-difference step must be finite and > 0, got {step}")


def fd_grad(f, x: Vec3, step: float | None = None) -> Tensor3:
    """Central-difference gradient, entry (i, j) = [v_j(x+h e_i) - v_j(x-h e_i)] / 2h.

    Exact on affine fields for any h, O(h^2) otherwise.  Works on anything
    with an ``eval(Vec3) -> Vec3`` method.
    """
    if step is None:
        step = f.step if isinstance(f, BlackBoxField) else DEFAULT_FD_STEP
    rows = []
    for i in (1, 2, 3):
        e_i = Vec3.basis(i)
        plus = f.eval(x + step * e_i)
        minus = f.eval(x - step * e_i)
        rows.append(tuple((p - m) / (2.0 * step) for p, m in zip(plus.as_tuple(), minus.as_tuple())))
    return Tensor3(tuple(rows))


def grad_gibbs(f: Field, x: Vec3) -> Tensor3:
    """Gradient with entry (i, j) = dv_j/dx_i (row i = derivative along axis i)."""
    if isinstance(f, PolyField):
        rows, top = f._jacobian
        xs, ys, zs = _power_tables(x, top)
        return Tensor3([[_eval_terms(t, xs, ys, zs) for t in row] for row in rows])
    return fd_grad(f, x)


def grad_alt(f: Field, x: Vec3) -> Tensor3:
    """Transposed layout, entry (i, j) = dv_i/dx_j."""
    return transpose(grad_gibbs(f, x))


def divergence(f: Field, x: Vec3) -> float:
    return trace(grad_gibbs(f, x))


def partial_vectors(f: Field, x: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    """(dv/dx, dv/dy, dv/dz) at x: the rows of grad_gibbs."""
    g = grad_gibbs(f, x)
    return (g.row(1), g.row(2), g.row(3))


class FieldSpecError(ValueError):
    """Field-spec file violates the schema; ``pointer`` locates the offence."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


def _require_keys(obj: dict, allowed: set[str], required: set[str], pointer: str) -> None:
    for key in obj:
        if key not in allowed:
            raise FieldSpecError(f"unknown key {key!r}", f"{pointer}/{key}")
    for key in required:
        if key not in obj:
            raise FieldSpecError(f"missing key {key!r}", pointer)


def _parse_monomial(obj, pointer: str) -> tuple[Powers, float]:
    if not isinstance(obj, dict):
        raise FieldSpecError("monomial must be an object", pointer)
    _require_keys(obj, {"coeff", "powers"}, {"coeff", "powers"}, pointer)
    coeff = obj["coeff"]
    if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
        raise FieldSpecError("coeff must be a number", f"{pointer}/coeff")
    if not math.isfinite(coeff):
        raise FieldSpecError("coeff must be finite", f"{pointer}/coeff")
    powers = obj["powers"]
    if not isinstance(powers, list) or len(powers) != 3:
        raise FieldSpecError("powers must be a list of 3 integers", f"{pointer}/powers")
    for k, e in enumerate(powers):
        if isinstance(e, bool) or not isinstance(e, int):
            raise FieldSpecError("exponent must be an integer", f"{pointer}/powers/{k}")
        if e < 0:
            raise FieldSpecError("exponent must be non-negative", f"{pointer}/powers/{k}")
    return tuple(powers), float(coeff)


def field_from_dict(obj) -> PolyField:
    """Build a PolyField from the documented JSON schema.

    Unknown keys are rejected; errors carry a JSON pointer to the
    offending element.
    """
    if not isinstance(obj, dict):
        raise FieldSpecError("field spec must be an object", "")
    _require_keys(obj, {"type", "components"}, {"type", "components"}, "")
    if obj["type"] != "polynomial":
        raise FieldSpecError(
            f"unsupported field type {obj['type']!r} (only 'polynomial')", "/type"
        )
    comps = obj["components"]
    if not isinstance(comps, list) or len(comps) != 3:
        raise FieldSpecError("components must be a list of 3 monomial lists", "/components")
    polys = []
    for i, comp in enumerate(comps):
        if not isinstance(comp, list):
            raise FieldSpecError("component must be a list of monomials", f"/components/{i}")
        terms = tuple(
            _parse_monomial(m, f"/components/{i}/{k}") for k, m in enumerate(comp)
        )
        polys.append(Poly(terms))
    return PolyField(tuple(polys))


def _reject_constant(name: str):
    raise FieldSpecError(f"not valid JSON: {name} is not a JSON number", "")


def load_field(path: str) -> PolyField:
    """Read a field-spec JSON file; schema problems raise FieldSpecError.

    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's decoder accepts
    but RFC 8259 does not, are refused like any other JSON syntax error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FieldSpecError(f"not valid JSON: {exc}", "") from exc
    return field_from_dict(obj)

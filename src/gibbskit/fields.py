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
from functools import cached_property
from typing import Callable, Union

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

_UNIT: tuple[Powers, Powers, Powers] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _check_axis(axis) -> None:
    if isinstance(axis, bool) or not isinstance(axis, int) or axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")


class Poly(_Value):
    """Polynomial in x, y, z as a canonical, merged monomial list.

    ``terms`` maps each exponent triple to its coefficient; no triple
    repeats, zero coefficients are dropped, and the triples are sorted, so
    equal polynomials compare equal.  The constructor validates and
    canonicalises; ``_trusted`` wraps terms that are already canonical.
    """

    __match_args__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Powers, float], ...]) -> None:
        object.__setattr__(self, "terms", terms)
        # A method of its own, so that perfbench/tracer.py can count
        # constructions by wrapping it.
        self.__post_init__()

    def __post_init__(self) -> None:
        merged: dict[Powers, float] = {}
        for powers, coeff in self.terms:
            p = tuple(powers)
            # type(e) is int also refuses bools and floats such as 1.5.
            if len(p) != 3 or not all(type(e) is int and e >= 0 for e in p):
                raise ValueError(f"monomial powers must be 3 non-negative ints: {powers!r}")
            merged[p] = merged.get(p, 0.0) + float(coeff)
        canon = tuple(sorted((p, c) for p, c in merged.items() if c != 0.0))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _trusted(cls, terms: tuple[tuple[Powers, float], ...]) -> "Poly":
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def constant(c: float) -> "Poly":
        return Poly((((0, 0, 0), float(c)),))

    def eval(self, p: Vec3) -> float:
        total = 0.0
        for (px, py, pz), coeff in self.terms:
            total += coeff * p.x**px * p.y**py * p.z**pz
        return total

    def diff(self, axis: int) -> "Poly":
        """Partial derivative along axis 0, 1 or 2 (x, y, z).

        Lowering the same exponent of every surviving term keeps distinct
        triples distinct and in sorted order, and ``coeff * e`` is non-zero
        for e >= 1, so the result is already canonical and skips the
        validating constructor.
        """
        _check_axis(axis)
        ux, uy, uz = _UNIT[axis]
        out = []
        for powers, coeff in self.terms:
            e = powers[axis]
            if e == 0:
                continue
            px, py, pz = powers
            out.append(((px - ux, py - uy, pz - uz), coeff * e))
        return Poly._trusted(tuple(out))

    def grad_at(self, p: Vec3) -> Vec3:
        return Vec3(*(self.diff(axis).eval(p) for axis in range(3)))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.terms + other.terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-1.0) * other

    def __mul__(self, s: float) -> "Poly":
        return Poly(tuple((p, c * s) for p, c in self.terms))

    __rmul__ = __mul__


class PolyField(_Value):
    """Vector field with polynomial components; derivatives are exact.

    The three partial fields are computed on first use and kept in a
    write-once memo that takes no part in ``==``, ``hash`` or ``repr``.
    """

    __match_args__ = ("components",)

    def __init__(self, components: tuple[Poly, Poly, Poly]) -> None:
        if len(components) != 3:
            raise ValueError("PolyField needs exactly 3 components")
        object.__setattr__(self, "components", components)

    def eval(self, x: Vec3) -> Vec3:
        return Vec3(*(c.eval(x) for c in self.components))

    __call__ = eval

    @cached_property
    def _partials(self) -> tuple["PolyField", "PolyField", "PolyField"]:
        return tuple(
            PolyField(tuple(c.diff(axis) for c in self.components)) for axis in range(3)
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
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "step", step)

    def eval(self, x: Vec3) -> Vec3:
        return self.evaluator(x)

    __call__ = eval


Field = Union[PolyField, BlackBoxField]


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
        return Tensor3(tuple(f.partial(axis).eval(x).as_tuple() for axis in range(3)))
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

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

from .dyadics import Tensor3, _tensor, trace, transpose
from .ga import Vec3, _builder, _is_index, _Value, _vec3

__all__ = [
    "Poly",
    "PolyField",
    "BlackBoxField",
    "Field",
    "FieldSpecError",
    "DEFAULT_FD_STEP",
    "MAX_EXPONENT",
    "grad_gibbs",
    "grad_alt",
    "divergence",
    "fd_grad",
    "partial_vectors",
    "field_from_dict",
    "load_field",
]

DEFAULT_FD_STEP = 1e-5

# The highest exponent a monomial may have.  Evaluation builds a table of
# powers up to the highest exponent used, so this bounds its size.
MAX_EXPONENT = 10_000

Powers = tuple[int, int, int]

Terms = tuple[tuple[Powers, float], ...]


def _check_axis(axis) -> None:
    if not _is_index(axis, (0, 1, 2)):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")


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


def _partials_top(terms: Terms) -> Powers:
    """The highest exponent along each axis that a first partial of the terms uses.

    Lowering x keeps the other two exponents, so the x exponent is used
    whole when the term also depends on y or z, and lowered by one otherwise.
    """
    tx = ty = tz = 0
    for (px, py, pz), _ in terms:
        ex = px if py or pz else px - 1
        ey = py if px or pz else py - 1
        ez = pz if px or py else pz - 1
        if ex > tx:
            tx = ex
        if ey > ty:
            ty = ey
        if ez > tz:
            tz = ez
    return tx, ty, tz


def _canonical(checked: list[tuple[Powers, float]]) -> Terms:
    """Valid terms merged by exponent triple, zero coefficients dropped, sorted.

    Distinct triples with no zero coefficient only need sorting: 0.0 + c is c.
    """
    terms = sorted(checked)
    prev = None
    for p, c in terms:
        if c == 0.0 or p == prev:
            merged: dict[Powers, float] = {}
            for q, d in checked:  # in input order, as the sums are defined
                merged[q] = merged.get(q, 0.0) + d
            return tuple(sorted((p, c) for p, c in merged.items() if c != 0.0))
        prev = p
    return tuple(terms)


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


def _grad_terms(
    terms: Terms, xs: list[float], ys: list[float], zs: list[float]
) -> tuple[float, float, float]:
    # d/dx, d/dy and d/dz in one pass: each contribution is the term that
    # ``Poly.diff`` lowers it to (coefficient ``coeff * e``), evaluated as
    # ``_eval_terms`` would, left to right and in term order.
    gx = gy = gz = 0.0
    for (px, py, pz), coeff in terms:
        if px:
            gx += coeff * px * xs[px - 1] * ys[py] * zs[pz]
        if py:
            gy += coeff * py * xs[px] * ys[py - 1] * zs[pz]
        if pz:
            gz += coeff * pz * xs[px] * ys[py] * zs[pz - 1]
    return gx, gy, gz


class Poly(_Value):
    """Polynomial in x, y, z as a canonical, merged monomial list.

    ``terms`` maps each exponent triple to its coefficient; no triple
    repeats, zero coefficients are dropped, and the triples are sorted, so
    equal polynomials compare equal.  The constructor validates, then
    ``_canonical`` merges, drops and sorts; ``_trusted``, compiled from the
    constructor's fields, wraps canonical terms; ``_with_coeffs`` reuses these
    monomials with new coefficients.  ``_top``, the power-table sizes of the
    first partials, is a write-once memo outside ``==``, ``hash`` and ``repr``.
    """

    __match_args__ = ("terms",)

    def __post_init__(self) -> None:
        checked = []
        for powers, coeff in self.terms:
            p = tuple(powers)
            px, py, pz = p if len(p) == 3 else (None, None, None)
            # type(e) is int also refuses bools and floats such as 1.5.
            if not (type(px) is type(py) is type(pz) is int and px >= 0 and py >= 0 and pz >= 0):
                raise ValueError(f"monomial powers must be 3 non-negative ints: {powers!r}")
            if px > MAX_EXPONENT or py > MAX_EXPONENT or pz > MAX_EXPONENT:
                raise ValueError(f"monomial exponents must be at most {MAX_EXPONENT}: {powers!r}")
            checked.append((p, float(coeff)))
        self.__dict__["terms"] = _canonical(checked)

    def _with_coeffs(self, coeffs) -> "Poly":
        """This polynomial's monomials with ``coeffs``, one per term in order.

        Only the coefficients are checked (``float()`` in term order); a
        zero one sends the terms through the constructor, which drops it.
        """
        cs = [float(c) for _, c in zip(self.terms, coeffs)]
        terms = tuple([(p, c) for (p, _), c in zip(self.terms, cs)])
        if 0.0 in cs:
            return Poly(terms)
        poly = Poly._trusted(terms)
        # Same monomials, so the same table sizes.
        poly.__dict__["_top"] = self._top
        return poly

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def constant(c: float) -> "Poly":
        return Poly((((0, 0, 0), float(c)),))

    @cached_property
    def _top(self) -> Powers:
        """The highest exponent along each axis that a first partial uses."""
        return _partials_top(self.terms)

    def eval(self, p: Vec3) -> float:
        return _eval_terms(self.terms, *_power_tables(p, _top_powers((self.terms,))))

    def diff(self, axis: int) -> "Poly":
        """Partial derivative along axis 0, 1 or 2 (x, y, z).

        Each term whose exponent e along ``axis`` is at least 1 becomes
        ``(powers with e lowered by one, coeff * e)``, in term order.
        Lowering the same exponent of every surviving term keeps distinct
        triples distinct and in sorted order, and ``coeff * e`` is non-zero
        for e >= 1, so the result is canonical and skips the validating
        constructor.
        """
        _check_axis(axis)
        lowered = []
        for powers, coeff in self.terms:
            e = powers[axis]
            if e:
                lowered.append((powers[:axis] + (e - 1,) + powers[axis + 1 :], coeff * e))
        return Poly._trusted(tuple(lowered))

    def grad_at(self, p: Vec3) -> Vec3:
        xs, ys, zs = _power_tables(p, self._top)
        return _vec3(*_grad_terms(self.terms, xs, ys, zs))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.terms + other.terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-1.0) * other

    def __mul__(self, s: float) -> "Poly":
        return self._with_coeffs([c * s for _, c in self.terms])

    __rmul__ = __mul__


Poly._trusted = staticmethod(_builder(Poly))  # terms must already be canonical


class PolyField(_Value):
    """Vector field with polynomial components; derivatives are exact.

    Three memos take no part in ``==``, ``hash`` or ``repr``.  Two are
    write-once and computed on first use: the power-table sizes
    ``grad_gibbs`` needs and the three partial fields that ``partial``
    returns.  The third, ``_last_grad``, holds the last point ``grad_gibbs``
    was asked about and its ``G``, and each call at another point replaces
    it; threads that share the field can at worst recompute a ``G``.
    """

    __match_args__ = ("components",)

    def __post_init__(self) -> None:
        if len(self.components) != 3:
            raise ValueError("PolyField needs exactly 3 components")

    def eval(self, x: Vec3) -> Vec3:
        terms = [c.terms for c in self.components]
        xs, ys, zs = _power_tables(x, _top_powers(terms))
        return _vec3(*[_eval_terms(t, xs, ys, zs) for t in terms])

    __call__ = eval

    @cached_property
    def _grad_top(self) -> Powers:
        """The highest exponent along each axis that any first partial uses."""
        return tuple(map(max, *[c._top for c in self.components]))

    @cached_property
    def _partials(self) -> tuple["PolyField", "PolyField", "PolyField"]:
        return tuple(PolyField(tuple(c.diff(i) for c in self.components)) for i in range(3))

    def partial(self, axis: int) -> "PolyField":
        """The field d v / d x_axis; polynomial fields are closed under this."""
        _check_axis(axis)
        return self._partials[axis]

    def dotted(self, c: Vec3) -> Poly:
        """Scalar polynomial c . v for a constant vector c."""
        return Poly(tuple(
            (p, coeff * ci) for ci, comp in zip(c.as_tuple(), self.components)
            for p, coeff in comp.terms
        ))


class BlackBoxField(_Value):
    """Opaque field; derivatives use central differences with ``step``.

    The evaluator must be deterministic and side-effect-free while a
    derivative is being computed (it is called at perturbed points).
    """

    __match_args__ = ("evaluator", "step")
    _defaults = {"step": DEFAULT_FD_STEP}

    def __post_init__(self) -> None:
        _check_fd_step(self.step)

    def eval(self, x: Vec3) -> Vec3:
        return self.evaluator(x)

    __call__ = eval


Field = PolyField | BlackBoxField


def _check_fd_step(step: float) -> None:
    """Raise ValueError unless ``step`` > 0 and the divisor ``2 * step`` is finite."""
    if not (step > 0.0 and math.isfinite(2.0 * step)):
        raise ValueError(f"finite-difference step must be > 0 with 2 * step finite, got {step}")


def fd_grad(f, x: Vec3, step: float | None = None) -> Tensor3:
    """Central-difference gradient, entry (i, j) = [v_j(x+h e_i) - v_j(x-h e_i)] / 2h.

    No truncation error on affine fields, O(h^2) otherwise; works on anything
    with an ``eval(Vec3) -> Vec3`` method.  Raises FloatingPointError, after the
    two evaluations along axis i, if x + h e_i or x - h e_i rounds to x (the step
    is lost) or a quotient is not finite although both of its values are.
    """
    if step is None:
        step = f.step if isinstance(f, BlackBoxField) else DEFAULT_FD_STEP
    _check_fd_step(step)
    rows = []
    for i, c in zip((1, 2, 3), x.as_tuple()):
        e_i = Vec3.basis(i)
        plus = f.eval(x + step * e_i).as_tuple()
        minus = f.eval(x - step * e_i).as_tuple()
        if c + step == c or c - step == c:
            raise FloatingPointError(f"central difference fd_step {step!r} is lost in x_{i} = {c!r}")
        rows.append(row := tuple((p - m) / (2.0 * step) for p, m in zip(plus, minus)))
        if any(not math.isfinite(q) and math.isfinite(p) and math.isfinite(m)
               for q, p, m in zip(row, plus, minus)):
            raise FloatingPointError(f"central difference overflows at fd_step {step!r}")
    return Tensor3(tuple(rows))


def grad_gibbs(f: Field, x: Vec3) -> Tensor3:
    """Gradient with entry (i, j) = dv_j/dx_i (row i = derivative along axis i).

    A ``PolyField`` keeps the last point and its ``G``, and a call with that
    same ``Vec3`` object returns the kept ``G``: a ``Vec3`` cannot change.
    Any other point is differentiated and replaces it.  A ``BlackBoxField``
    goes through ``fd_grad``, and its refusals, on every call.
    """
    if isinstance(f, PolyField):
        memo = f.__dict__
        last = memo.get("_last_grad")
        if last is not None and last[0] is x and type(x) is Vec3:
            return last[1]
        xs, ys, zs = _power_tables(x, f._grad_top)
        columns = [_grad_terms(c.terms, xs, ys, zs) for c in f.components]
        g = _tensor(tuple(zip(*columns)))
        memo["_last_grad"] = (x, g)
        return g
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


def _parse_monomial(obj, i: int, k: int) -> tuple[Powers, float]:
    """Monomial k of component i as (powers, coeff), checked as ``Poly`` checks it."""
    if not isinstance(obj, dict):
        raise FieldSpecError("monomial must be an object", f"/components/{i}/{k}")
    if len(obj) != 2 or "coeff" not in obj or "powers" not in obj:
        _require_keys(obj, {"coeff", "powers"}, {"coeff", "powers"}, f"/components/{i}/{k}")
    coeff = obj["coeff"]
    if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
        raise FieldSpecError("coeff must be a number", f"/components/{i}/{k}/coeff")
    try:
        c = float(coeff)
    except OverflowError:  # an integer too large for a float
        c = math.inf
    if not math.isfinite(c):
        raise FieldSpecError("coeff must be finite", f"/components/{i}/{k}/coeff")
    powers = obj["powers"]
    if not isinstance(powers, list) or len(powers) != 3:
        raise FieldSpecError("powers must be a list of 3 integers", f"/components/{i}/{k}/powers")
    for n, e in enumerate(powers):
        # type(e) is int also refuses bools, and int subclasses that Poly refuses.
        if type(e) is not int:
            raise FieldSpecError("exponent must be an integer", f"/components/{i}/{k}/powers/{n}")
        if e < 0:
            raise FieldSpecError("exponent must be non-negative", f"/components/{i}/{k}/powers/{n}")
        if e > MAX_EXPONENT:
            message = f"exponent must be at most {MAX_EXPONENT}"
            raise FieldSpecError(message, f"/components/{i}/{k}/powers/{n}")
    return tuple(powers), c


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
        terms = [_parse_monomial(m, i, k) for k, m in enumerate(comp)]
        poly = Poly._trusted(_canonical(terms))
        if len(poly.terms) < len(terms):  # a repeat merged (coeffs added in order) or a 0 dropped
            sums: dict[Powers, float] = {}
            for k, (p, c) in enumerate(terms):
                sums[p] = sums.get(p, 0.0) + c
                if not math.isfinite(sums[p]):
                    message = "coeffs of repeated powers must have a finite sum"
                    raise FieldSpecError(message, f"/components/{i}/{k}/coeff")
        polys.append(poly)
    return PolyField(tuple(polys))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_field(path: str) -> PolyField:
    """Read a field-spec JSON file; schema problems raise FieldSpecError.

    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's decoder accepts
    but RFC 8259 does not, are refused like any other JSON syntax error, and
    so is text the decoder cannot read (nesting deeper than the interpreter's
    recursion limit, an integer literal longer than its digit limit).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too.
        except (ValueError, RecursionError) as exc:
            raise FieldSpecError(f"not valid JSON: {exc}", "") from exc
    return field_from_dict(obj)

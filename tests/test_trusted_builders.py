"""The four trusted builders, compiled by ``ga._builder``, match the hand-written ones.

``ga._vec3``, ``ga._mv``, ``dyadics._tensor`` and ``Poly._trusted`` are
compiled from each class's ``__match_args__``, the field list its
constructor comes from.  The hand-written bodies they replace are kept
below verbatim as the reference.  For random arguments each builder must
give the reference's class, the fields in ``__match_args__`` order, each
argument stored as the object itself, and no ``__post_init__`` call; each
is compiled under its module's builder file name and named after its class.
"""

import random

import pytest

from gibbskit import dyadics, fields, ga
from gibbskit.dyadics import Tensor3
from gibbskit.fields import Poly
from gibbskit.ga import Multivector, Vec3

# -- the hand-written builders, verbatim ------------------------------------

_new = object.__new__


def _vec3(x: float, y: float, z: float) -> Vec3:
    # Trusted builder: x, y and z must already be floats.
    v = _new(Vec3)
    fields = v.__dict__
    fields["x"] = x
    fields["y"] = y
    fields["z"] = z
    return v


def _mv(coeffs: tuple[float, ...]) -> Multivector:
    # Trusted builder: coeffs must already be a tuple of 8 floats.
    m = _new(Multivector)
    m.__dict__["coeffs"] = coeffs
    return m


def _tensor(rows) -> Tensor3:
    # Trusted builder: rows must already be 3 tuples of 3 floats.
    t = _new(Tensor3)
    t.__dict__["rows"] = rows
    return t


class _HandWrittenPoly:
    @classmethod
    def _trusted(cls, terms) -> "Poly":
        poly = object.__new__(cls)
        poly.__dict__["terms"] = terms
        return poly


def _poly_trusted(terms):
    return _HandWrittenPoly._trusted.__func__(Poly, terms)


# -- the comparison ---------------------------------------------------------

BUILDERS = [
    (Vec3, lambda: ga._vec3, _vec3, "<gibbskit.ga builder>"),
    (Multivector, lambda: ga._mv, _mv, "<gibbskit.ga builder>"),
    (Tensor3, lambda: dyadics._tensor, _tensor, "<gibbskit.dyadics builder>"),
    (Poly, lambda: fields.Poly._trusted, _poly_trusted, "<gibbskit.fields builder>"),
]
IDS = [cls.__name__ for cls, *_ in BUILDERS]


def random_argument(rng: random.Random):
    """A fresh object of a random kind; a builder stores whatever it is given."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.uniform(-1e6, 1e6)
    if kind == 1:
        return tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(1, 9)))
    if kind == 2:
        return object()
    return [rng.random()]


def refuse_post_init(self):
    raise AssertionError(f"a trusted builder ran {type(self).__name__}.__post_init__")


@pytest.mark.parametrize("cls, builder, reference, filename", BUILDERS, ids=IDS)
def test_a_builder_stores_its_arguments_as_the_hand_written_one_did(
    cls, builder, reference, filename, monkeypatch
):
    build = builder()
    monkeypatch.setattr(cls, "__post_init__", refuse_post_init, raising=False)
    names = list(cls.__match_args__)
    rng = random.Random(29)
    for _ in range(200):
        args = [random_argument(rng) for _ in names]
        got, want = build(*args), reference(*args)
        assert got.__class__ is want.__class__ is cls
        assert list(vars(got)) == list(vars(want)) == names
        for name, arg in zip(names, args):
            assert getattr(got, name) is arg and getattr(want, name) is arg


@pytest.mark.parametrize("cls, builder, reference, filename", BUILDERS, ids=IDS)
def test_a_builder_names_its_file_and_its_class(cls, builder, reference, filename):
    code = builder().__code__
    assert code.co_filename == filename
    assert code.co_name == f"{cls.__qualname__} builder"
    assert code.co_varnames[: code.co_argcount] == cls.__match_args__

"""The invariant suite fails when the arithmetic under it is wrong, and only then.

Each mutant breaks one piece of the library by monkeypatching it, and only
the rows of ``checks._CHECKS`` that read the gradient G run, in table
order, until one fails; unmutated, each of them passes with this RNG, as
``gibbskit check --seed 0`` shows.  A nan or an infinity in one entry of G
must fail every one of those rows.
"""

import math
import random

import pytest

from gibbskit import checks, dyadics, fields, kinematics as kin, notation
from gibbskit.dyadics import Tensor3, transpose

READS_G = (
    "fields: grad_alt is the transpose of grad_gibbs",
    "fields: Taylor remainder shrinks at order 2",
    "fields: central differences converge at order 2",
    "fields: polynomial derivatives are exact",
    "kinematics: gradient decomposition d + Ω",
    "kinematics: Ω action equals bivector contraction",
    "kinematics: postfactor Ω vs prefactor Ω†",
    "kinematics: compressive + incompressive = dv",
    "kinematics: symmetric divergence split",
    "kinematics: antisymmetric divergence split",
    "kinematics: vector-calculus forms of d and Ω",
    "kinematics: rigid rotation keeps its sense",
    "kinematics: report fields mutually consistent",
    "kinematics: divergence-free bidi relations",
    "notation: evaluator matches library calls",
    "notation: expression-level transpose law",
    "cli: report JSON round-trip is lossless",
)


def run_row(name, seed=0):
    """The CheckResult of one row, as ``run_all(seed)`` computes it."""
    return checks._run(checks.CHECK_NAMES.index(name), seed)


def run_rows(names):
    for name in names:
        yield name, run_row(name).passed


def with_entry(change):
    def mutant(g):
        rows = [list(r) for r in g.rows]
        rows[1][2] = change(rows[1][2])
        return Tensor3(rows)

    return mutant


def mutate_g(monkeypatch, mutant):
    original = fields.grad_gibbs
    for module in (fields, kin, notation, checks):
        monkeypatch.setattr(module, "grad_gibbs", lambda f, x: mutant(original(f, x)))


G_MUTANTS = {
    "scaled": lambda g: g * (1.0 + 1e-9),
    "one_entry_plus_1e-9": with_entry(lambda v: v + 1e-9),
    "transposed": transpose,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_g_fails_every_row_that_reads_it(monkeypatch, value):
    mutate_g(monkeypatch, with_entry(lambda v: value))
    assert [name for name, passed in run_rows(READS_G) if passed] == []


@pytest.mark.parametrize("mutant", G_MUTANTS)
def test_wrong_g_fails_a_row(monkeypatch, mutant):
    mutate_g(monkeypatch, G_MUTANTS[mutant])
    assert any(not passed for _, passed in run_rows(READS_G))


def test_flipped_nabla_wedge_fails_a_row(monkeypatch):
    original = kin.nabla_wedge_of
    for module in (kin, notation):
        monkeypatch.setattr(module, "nabla_wedge_of", lambda g: -original(g))
    assert any(not passed for _, passed in run_rows(READS_G))


def test_shifted_trace_fails_a_row(monkeypatch):
    for module in (kin, checks):
        monkeypatch.setattr(module, "trace", lambda t: dyadics.trace(t) + 1e-9)
    assert any(not passed for _, passed in run_rows(READS_G))


# Seeds whose Taylor row fits an order below 1.9 on correct code when the
# fit starts at h = 0.1, where the h^3 term still competes.
TAYLOR_SEEDS = (429, 1668, 2636, 2651, 2752, 41000, 72000, 89002, 526001)


@pytest.mark.parametrize("seed", TAYLOR_SEEDS)
def test_taylor_row_passes_on_correct_code(seed):
    result = run_row("fields: Taylor remainder shrinks at order 2", seed)
    assert result.passed, result.detail


def test_holds_fails_at_the_first_false_flag_and_draws_no_later_case():
    drawn = []

    def case(rng, n):
        drawn.append(n)
        yield True
        yield n != 3

    assert checks._holds(case, 10, "detail")(random.Random(0)) == (False, 10, "detail")
    assert drawn == [0, 1, 2, 3]
    assert checks._holds(case, 3, "detail")(random.Random(0)) == (True, 3, "detail")

"""Properties of the exact tables on random rational parameters, and their pin
to the partition-box sweep of symlpp.oracles."""

import tracemalloc
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlpp.core import ModelSpec, Partition, box_parts
from symlpp import core, oracles, rmt, symfunc
from symlpp.numerics import det_exact
from symlpp.oracles import (_schur_values, alternating_sum, box_cauchy_table,
                            box_dual_cauchy_table, box_weighted_table, odd_part_count,
                            pointreflection_selfdual_table, schur_bialternant)
from symlpp.rmt import model_rmt_distribution
from symlpp.variants import exact_table, model_rmt_table, variant_of

# Fixed example stream, so a failure reproduces from run to run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Shared and non-coprime denominators, and numerator 0, on purpose.
DENOMINATORS = (1, 2, 3, 4, 6, 9, 12, 25)


@st.composite
def rationals(draw, below=F(1)):
    d = draw(st.sampled_from(DENOMINATORS))
    top = -(-below.numerator * d // below.denominator)  # ceil(below * d)
    return F(draw(st.integers(0, max(top - 1, 0))), d)


def params(below=F(1)):
    return st.lists(rationals(below), min_size=1, max_size=3).map(tuple)


@st.composite
def models(draw, variant=None, below=F(1)):
    variant = variant or draw(st.sampled_from(
        ("johansson", "bernoulli", "antidiagonal", "diagonal",
         "doublysymmetric", "pointreflection")))
    if variant == "johansson":
        a = draw(params(below))
        b = draw(st.lists(rationals(below), min_size=len(a), max_size=len(a)).map(tuple))
        return ModelSpec(variant, a=a, b=b)
    if variant == "bernoulli":
        return ModelSpec(variant, a=draw(params(below)), b=draw(params(below)))
    q = draw(params(below))
    if variant == "antidiagonal":
        return ModelSpec(variant, q=q, beta=draw(rationals(below)))
    if variant in ("diagonal", "doublysymmetric"):
        return ModelSpec(variant, q=q, alpha=draw(rationals(below)))
    return ModelSpec(variant, q=q)


@PROPERTY
@given(models(), st.integers(0, 6), st.integers(0, 6))
def test_table_is_prefix_stable(spec, l, extra):
    long = exact_table(spec, l + extra)
    assert len(long) == l + extra + 1
    assert long[: l + 1] == exact_table(spec, l)


@PROPERTY
@given(models(), st.integers(0, 6))
def test_table_is_a_monotone_law(spec, lmax):
    table = exact_table(spec, lmax)
    assert all(isinstance(p, F) for p in table)
    assert all(0 <= p <= 1 for p in table)
    assert all(x <= y for x, y in zip(table, table[1:]))


@PROPERTY
@given(models("doublysymmetric"), st.integers(0, 6))
def test_doubly_symmetric_parity(spec, lmax):
    table = exact_table(spec, lmax)
    for h in range((lmax + 1) // 2):
        assert table[2 * h] == table[2 * h + 1]


@PROPERTY
@given(params(), st.integers(0, 6))
def test_selfdual_table_equals_factorisation(q, lmax):
    factored = exact_table(ModelSpec("pointreflection", q=q), lmax)
    assert pointreflection_selfdual_table(q, lmax) == factored


@PROPERTY
@given(models(), st.integers(0, 6))
def test_table_equals_matrix_average(spec, lmax):
    table = exact_table(spec, lmax)
    for l, exact in enumerate(table):
        average = model_rmt_distribution(spec, l)
        assert isinstance(average, F) and average == exact, (spec, l)


# n = 1 to 4 with a repeated and a zero parameter, each to its own bound.
POINT_REFLECTION_Q = [
    ((F(2, 5),), 9),
    ((F(1, 2), F(1, 3)), 8),
    ((F(1, 4), F(1, 4), F(0)), 7),
    ((F(1, 2), F(1, 3), F(2, 5), F(3, 7)), 9),
]


@pytest.mark.parametrize("q, lmax", POINT_REFLECTION_Q,
                         ids=[f"n{len(q)}-l{lmax}" for q, lmax in POINT_REFLECTION_Q])
def test_pointreflection_average_equals_exact_and_selfdual_tables(q, lmax):
    # the U(l // 2) x U((l + 1) // 2) column, the squared Gram tables and the
    # self-dual path sums are three routes to one table of rationals
    spec = ModelSpec("pointreflection", q=q)
    average = model_rmt_table(spec, lmax)
    assert all(isinstance(p, F) for p in average)
    assert average == exact_table(spec, lmax) == pointreflection_selfdual_table(q, lmax)
    assert symfunc.pointreflection_selfdual_sum(q, lmax) == average[lmax]


def _minors_one_by_one(rows):
    return [det_exact([row[:k] for row in rows[:k]]) for k in range(len(rows) + 1)]


@PROPERTY
@given(models(), st.integers(0, 9))
def test_sweep_table_equals_exact_table_and_each_determinant(spec, lmax):
    table = model_rmt_table(spec, lmax)
    assert all(isinstance(p, F) for p in table)
    assert table == exact_table(spec, lmax)
    # each bound's value is the determinant of its own leading matrix
    with mock.patch.object(rmt, "leading_minors", _minors_one_by_one):
        assert model_rmt_table(spec, lmax) == table


@PROPERTY
@given(st.lists(st.integers(0, 7), min_size=0, max_size=4, unique=True).map(tuple),
       st.integers(0, 4), st.integers(0, 4))
def test_schur_values_match_bialternant(xs, max_part, max_length):
    values = _schur_values(xs, max_part, max_length)
    assert list(values) == list(box_parts(max_part, min(max_length, len(xs))))
    for parts, value in values.items():
        assert value == schur_bialternant(Partition(parts), xs)


def test_oversized_pointreflection_box_raises_before_allocating():
    q = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            pointreflection_selfdual_table(q, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_thin_box_is_budgeted_by_cells():
    # one variable: only lmax + 1 partitions, but Schur values of weight up to lmax
    spec = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 3),))
    with pytest.raises(ValueError, match="budget"):
        exact_table(spec, 100_000)
    assert exact_table(spec, 2) == [1 - F(1, 6) ** (l + 1) for l in range(3)]


def box_sweep_table(spec, lmax):
    """exact_table from the term-by-term box sweeps: each variant's bounded sum
    read as in its Variant record, times its prefactor."""
    s = spec
    if s.variant == "johansson":
        table = box_cauchy_table(s.a, s.b, lmax)
    elif s.variant == "bernoulli":
        table = box_dual_cauchy_table(s.a, s.b, lmax)
    elif s.variant == "antidiagonal":
        table = box_weighted_table(s.q, s.beta, odd_part_count, lmax)
    elif s.variant == "diagonal":
        table = box_weighted_table(s.q, s.alpha, alternating_sum, lmax)
    elif s.variant == "doublysymmetric":
        half = box_cauchy_table(s.q, s.q + (s.alpha,), lmax // 2)
        table = [half[l // 2] for l in range(lmax + 1)]
    else:
        square = box_cauchy_table(s.q, s.q, lmax // 2 + 1)
        table = [square[l // 2] * square[(l + 1) // 2] for l in range(lmax + 1)]
    pref = variant_of(spec).prefactor(spec)
    return [pref * x for x in table]


@PROPERTY
@given(models(), st.integers(0, 8))
def test_exact_table_equals_the_box_sweep(spec, lmax):
    assert exact_table(spec, lmax) == box_sweep_table(spec, lmax)


# n = 5 and 6 with repeated and zero parameters, unequal Bernoulli sides, and
# zero weights: an odd n pads the Pfaffian table with a zero variable.
_Q5 = (F(1, 2), F(1, 2), F(0), F(1, 3), F(2, 5))
_Q6 = (F(1, 3), F(1, 3), F(1, 3), F(0), F(1, 6), F(5, 9))
FIXED_MODELS = [
    ModelSpec("johansson", a=_Q5, b=(F(1, 4), F(0), F(1, 4), F(3, 7), F(1, 2))),
    ModelSpec("johansson", a=_Q6, b=(F(2, 3), F(1, 4), F(1, 4), F(0), F(0), F(1, 2))),
    ModelSpec("bernoulli", a=_Q5, b=_Q6),
    ModelSpec("bernoulli", a=_Q6, b=(F(1, 3), F(1, 3), F(0))),
    ModelSpec("antidiagonal", q=_Q5, beta=F(0)),
    ModelSpec("antidiagonal", q=_Q6, beta=F(1, 2)),
    ModelSpec("diagonal", q=_Q5, alpha=F(0)),
    ModelSpec("diagonal", q=_Q6, alpha=F(2, 3)),
    ModelSpec("doublysymmetric", q=_Q5, alpha=F(0)),
    ModelSpec("doublysymmetric", q=_Q6, alpha=F(1, 2)),
    ModelSpec("pointreflection", q=_Q5),
    ModelSpec("pointreflection", q=_Q6),
]


@pytest.mark.parametrize("spec", FIXED_MODELS,
                         ids=[f"{m.variant}-n{len(m.q or m.b)}" for m in FIXED_MODELS])
def test_exact_table_equals_the_box_sweep_at_n5_and_n6(spec):
    assert exact_table(spec, 7) == box_sweep_table(spec, 7)


def test_exact_tables_never_enumerate_partitions(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a partition box was enumerated")

    for module, name in ((core, "partitions_in_box"), (core, "box_parts"),
                         (oracles, "partitions_in_box"), (oracles, "box_parts"),
                         (oracles, "_schur_values")):
        monkeypatch.setattr(module, name, no_sweep)
    for spec in FIXED_MODELS:
        assert len(exact_table(spec, 7)) == 8
    # the self-dual witness of the oracles does sweep a box
    with pytest.raises(AssertionError, match="partition box"):
        pointreflection_selfdual_table(_Q5, 3)

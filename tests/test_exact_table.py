"""Properties of the one-sweep exact tables on random rational parameters."""

import tracemalloc
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlpp.core import ModelSpec, Partition, box_parts
from symlpp import rmt
from symlpp.numerics import det_exact
from symlpp.rmt import model_rmt_distribution
from symlpp.symfunc import _schur_values, pointreflection_selfdual_table, schur_bialternant
from symlpp.variants import exact_table, model_rmt_table

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

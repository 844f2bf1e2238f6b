"""The variant records: one per parsed variant, orbits that partition the matrix."""

from fractions import Fraction as F

from symlpp.core import MODEL_PARAMETERS, ModelSpec
from symlpp.lpp import _site_plan
from symlpp.variants import VARIANTS, variant_of

MODELS = [
    ModelSpec("johansson", a=(F(1, 2), F(1, 3), F(1, 4)), b=(F(1, 5), F(2, 7), F(0))),
    ModelSpec("bernoulli", a=(F(1, 2), F(1, 3)), b=(F(1, 5), F(2, 7), F(1, 4))),
    ModelSpec("antidiagonal", q=(F(1, 2), F(1, 3), F(1, 4)), beta=F(2, 5)),
    ModelSpec("diagonal", q=(F(1, 2), F(1, 3), F(1, 4)), alpha=F(1, 3)),
    ModelSpec("doublysymmetric", q=(F(1, 2), F(1, 3), F(1, 4)), alpha=F(1, 3)),
    ModelSpec("pointreflection", q=(F(1, 2), F(1, 3), F(1, 4))),
]


def test_one_record_per_parsed_variant():
    assert list(VARIANTS) == list(MODEL_PARAMETERS)
    assert sorted(spec.variant for spec in MODELS) == sorted(VARIANTS)


def test_orbits_partition_the_matrix():
    for spec in MODELS:
        variant = variant_of(spec)
        n_rows, n_cols = spec.matrix_shape
        cells = [(i, j) for i in range(1, n_rows + 1) for j in range(1, n_cols + 1)]
        for cell in cells:
            orbit = variant.orbit(n_rows, *cell)
            assert cell in orbit and orbit <= set(cells)
            # the orbit of every member is the same set
            assert all(variant.orbit(n_rows, *other) == orbit for other in orbit)
        plan = _site_plan(spec)
        assert sorted(p for site in plan for p in site.positions) == cells

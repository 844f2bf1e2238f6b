import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from symlpp import lpp
from symlpp.core import IntMatrix, ModelSpec
from symlpp.lpp import _draw_vector, _Site, mc_distribution, sample_batch
from symlpp.oracles import (anti_transpose, entry, greene_multi, greene_oracle, last_passage,
                            last_passage_bernoulli, rotate180, sample_matrix, total, transpose)
from symlpp.symfunc import exact_distribution
from symlpp.variants import variant_of


def brute_last_passage(X):
    """Enumerate every up/right path from (1,1) to the corner."""
    best = 0
    stack = [(1, 1, entry(X, 1, 1))]
    while stack:
        i, j, total = stack.pop()
        if i == X.n_rows and j == X.n_cols:
            best = max(best, total)
            continue
        if i < X.n_rows:
            stack.append((i + 1, j, total + entry(X, i + 1, j)))
        if j < X.n_cols:
            stack.append((i, j + 1, total + entry(X, i, j + 1)))
    return best


def test_last_passage_examples():
    assert last_passage(IntMatrix(((5,),))) == 5
    assert last_passage(IntMatrix(((0, 0), (0, 0)))) == 0
    # bottom row (1,2), top row (3,4): the two monotone paths give 7 and 8
    X = IntMatrix(((1, 2), (3, 4)))
    assert brute_last_passage(X) == 8
    assert last_passage(X) == 8


def test_last_passage_matches_enumeration():
    rnd = random.Random(0)
    for _ in range(100):
        m, n = rnd.randint(1, 4), rnd.randint(1, 4)
        X = IntMatrix(tuple(tuple(rnd.randint(0, 4) for _ in range(n))
                            for _ in range(m)))
        assert last_passage(X) == brute_last_passage(X)


def test_last_passage_monotone_and_reflection_invariant():
    rnd = random.Random(1)
    for _ in range(60):
        n = rnd.randint(1, 4)
        rows = [[rnd.randint(0, 3) for _ in range(n)] for _ in range(n)]
        X = IntMatrix(tuple(tuple(r) for r in rows))
        base = last_passage(X)
        assert last_passage(transpose(X)) == base
        assert last_passage(anti_transpose(X)) == base
        assert last_passage(rotate180(X)) == base
        i, j = rnd.randrange(n), rnd.randrange(n)
        rows[i][j] += 1
        assert last_passage(IntMatrix(tuple(tuple(r) for r in rows))) >= base


def brute_bernoulli(X):
    """All weakly increasing column sequences, one entry per row."""
    m, n = X.n_rows, X.n_cols
    best = 0
    def rec(i, j_min, total):
        nonlocal best
        if i > m:
            best = max(best, total)
            return
        for j in range(j_min, n + 1):
            rec(i + 1, j, total + entry(X, i, j))
    rec(1, 1, 0)
    return best


def test_last_passage_bernoulli_examples():
    assert last_passage_bernoulli(IntMatrix(((1,),))) == 1
    for m, n in ((2, 3), (3, 2), (4, 4)):
        ones = IntMatrix(tuple(tuple(1 for _ in range(n)) for _ in range(m)))
        assert last_passage_bernoulli(ones) == m
    # bottom row (1,0), top row (0,1): a north-east move collects both ones
    assert last_passage_bernoulli(IntMatrix(((1, 0), (0, 1)))) == 2
    with pytest.raises(ValueError):
        last_passage_bernoulli(IntMatrix(((2,),)))


def test_last_passage_bernoulli_matches_enumeration():
    rnd = random.Random(2)
    for _ in range(150):
        m, n = rnd.randint(1, 4), rnd.randint(1, 4)
        X = IntMatrix(tuple(tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(m)))
        assert last_passage_bernoulli(X) == brute_bernoulli(X)


def test_greene_examples():
    zero = IntMatrix(((0, 0), (0, 0)))
    assert greene_oracle(zero, 1) == 0
    X = IntMatrix(((1, 2), (3, 4)))
    assert greene_multi(X, 1) == last_passage(X) == 8
    assert greene_multi(X, 2) == 10 == greene_oracle(X, 2)
    assert greene_oracle(X, 1) == 8
    assert greene_oracle(IntMatrix(((5,),)), 1) == 5
    with pytest.raises(ValueError):
        greene_multi(X, 0)
    with pytest.raises(ValueError):
        greene_oracle(IntMatrix(tuple(tuple(0 for _ in range(5)) for _ in range(5))), 1)


def test_greene_multi_matches_oracle():
    rnd = random.Random(3)
    for _ in range(120):
        n = rnd.randint(1, 3)
        X = IntMatrix(tuple(tuple(rnd.randint(0, 2) for _ in range(n)) for _ in range(n)))
        for l in range(1, n + 1):
            assert greene_multi(X, l) == greene_oracle(X, l)


def _all_zero_spec(variant):
    if variant == "johansson":
        return ModelSpec(variant, a=(F(0), F(0)), b=(F(0), F(0)))
    if variant == "bernoulli":
        return ModelSpec(variant, a=(F(0),), b=(F(0), F(0)))
    if variant == "antidiagonal":
        return ModelSpec(variant, q=(F(0), F(0)), beta=F(0))
    if variant == "diagonal":
        return ModelSpec(variant, q=(F(0), F(0)), alpha=F(0))
    if variant == "doublysymmetric":
        return ModelSpec(variant, q=(F(0), F(0)), alpha=F(0))
    return ModelSpec(variant, q=(F(0), F(0)))


@pytest.mark.parametrize("variant", ["johansson", "bernoulli", "antidiagonal",
                                     "diagonal", "doublysymmetric", "pointreflection"])
def test_sampler_zero_parameters_and_determinism(variant):
    spec = _all_zero_spec(variant)
    rng = np.random.default_rng(0)
    X = sample_matrix(spec, rng)
    assert total(X) == 0
    assert X.n_rows, X.n_cols == spec.matrix_shape
    a = sample_matrix(spec, np.random.default_rng(42))
    b = sample_matrix(spec, np.random.default_rng(42))
    assert a == b


def test_sampler_symmetries():
    rng = np.random.default_rng(11)
    q = (F(1, 2), F(2, 5), F(1, 3))
    anti = ModelSpec("antidiagonal", q=q, beta=F(1, 2))
    diag = ModelSpec("diagonal", q=q, alpha=F(1, 2))
    doubly = ModelSpec("doublysymmetric", q=q[:2], alpha=F(1, 2))
    point = ModelSpec("pointreflection", q=q[:2])
    for _ in range(80):
        X = sample_matrix(anti, rng)
        assert X == anti_transpose(X)
        X = sample_matrix(diag, rng)
        assert X == transpose(X)
        X = sample_matrix(doubly, rng)
        assert X == transpose(X) == anti_transpose(X)
        n = X.n_rows
        assert all(entry(X, i, n + 1 - i) % 2 == 0 for i in range(1, n + 1))
        X = sample_matrix(point, rng)
        assert X == rotate180(X)


def test_parity_geom_law():
    # empirical frequencies of the two-parameter diagonal law within 5 sigma
    q, beta = 0.5, 0.5
    site = _Site("parity_geom", (q, beta), ((1, 1),))
    rng = np.random.default_rng(123)
    n = 200_000
    values = _draw_vector(site, rng.random(n))
    norm = (1 - q * q) / (1 + beta * q)
    for k in range(6):
        expected = norm * beta ** (k % 2) * q**k
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs((values == k).mean() - expected) < 5 * se


def test_geometric_law():
    site = _Site("geom", (0.25,), ((1, 1),))
    rng = np.random.default_rng(5)
    n = 100_000
    values = _draw_vector(site, rng.random(n))
    for k in range(5):
        expected = 0.75 * 0.25**k
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs((values == k).mean() - expected) < 5 * se


def test_sample_batch_reproducible():
    spec = ModelSpec("diagonal", q=(F(1, 2), F(1, 3)), alpha=F(1, 4))
    one = sample_batch(spec, 50, seed=9)
    two = sample_batch(spec, 50, seed=9)
    assert one.matrices == two.matrices
    assert len(one.matrices) == 50
    statistic = last_passage_bernoulli if variant_of(spec).binary else last_passage
    assert statistic(one.matrices[0]) == last_passage(one.matrices[0])


def test_mc_distribution_edges():
    spec = _all_zero_spec("johansson")
    table = mc_distribution(spec, 2, 500, seed=1)
    assert table.probs[0] == 1.0
    single = mc_distribution(ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),)),
                             3, 1, seed=1)
    assert set(single.probs.values()) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        mc_distribution(spec, 2, 0, seed=1)


def test_mc_matches_exact_johansson():
    spec = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),))
    table = mc_distribution(spec, 1, 100_000, seed=7)
    exact = float(exact_distribution(spec, 1))  # 15/16
    se = math.sqrt(exact * (1 - exact) / 100_000)
    assert abs(table.probs[1] - exact) <= 4 * se
    assert table.stderr[1] > 0


def _stream_spec(variant):
    q = (F(1, 3), F(1, 2), F(2, 5))
    if variant == "johansson":
        return ModelSpec(variant, a=q, b=q[::-1])
    if variant == "bernoulli":
        return ModelSpec(variant, a=q[:2], b=q + (F(3, 4),))
    if variant == "antidiagonal":
        return ModelSpec(variant, q=q, beta=F(1, 2))
    if variant in ("diagonal", "doublysymmetric"):
        return ModelSpec(variant, q=q if variant == "diagonal" else q[:2], alpha=F(1, 3))
    return ModelSpec(variant, q=q[:2])


VARIANTS = ["johansson", "bernoulli", "antidiagonal", "diagonal", "doublysymmetric",
            "pointreflection"]


def test_mc_thread_count_invariance():
    # a chunk's draws depend on its index alone, so the chunks dealt out to
    # three workers, each adding up its own counts, give the serial table
    for variant in VARIANTS:
        spec = _stream_spec(variant)
        plan = lpp._site_plan(spec)
        # 20000 samples: four full chunks and a partial fifth
        chunks = list(lpp.chunk_streams(3, 20_000, lpp.MC_CHUNK))
        dealt = sum(sum(lpp._chunk_counts(spec, plan, 12, count, rng)
                        for count, rng in chunks[worker::3]) for worker in range(3))
        t3 = lpp.empirical_table(dealt, 20_000)
        t1 = mc_distribution(spec, 12, 20_000, seed=3)
        assert t1.probs == t3.probs and t1.stderr == t3.stderr, variant


def test_mc_memory_does_not_grow_with_chunk_count():
    # 50 chunks with 20002 counts each would hold 7.8 MiB of chunk counts at once
    spec = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),))
    tracemalloc.start()
    try:
        mc_distribution(spec, 20_000, 50 * 4096, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("variant", VARIANTS)
def test_chunk_kernel_matches_per_matrix_reference(variant):
    """Row-by-row site-major draws and the batched DP against one uniform vector
    per site, matrices assembled one at a time and the scalar DP."""
    spec = _stream_spec(variant)
    plan = lpp._site_plan(spec)
    n_rows, n_cols = spec.matrix_shape
    count = 300
    rng = np.random.default_rng(8)
    draws = [_draw_vector(site, rng.random(count)) for site in plan]
    statistic = last_passage_bernoulli if variant_of(spec).binary else last_passage
    expected = []
    for t in range(count):
        grid = [[0] * n_cols for _ in range(n_rows)]
        for site, values in zip(plan, draws):
            for (i, j) in site.positions:
                grid[i - 1][j - 1] = int(values[t])
        expected.append(statistic(IntMatrix(tuple(map(tuple, grid)))))
    uniforms = np.random.default_rng(8).random((len(plan), count))  # the stream of `draws`
    rows = lpp._entry_rows(plan, spec.matrix_shape, uniforms, count)
    if variant == "bernoulli":
        stat = lpp._batch_bernoulli_passage(rows)
    else:
        stat = lpp._batch_last_passage(rows, n_cols, count)
    assert stat.tolist() == expected


def test_sample_batch_is_sample_matrix_per_chunk():
    spec = _stream_spec("antidiagonal")
    batch = sample_batch(spec, 1030, seed=4)
    for chunk, start in enumerate((0, 1024)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(chunk,)))
        stop = min(start + 1024, 1030)
        assert batch.matrices[start:stop] == tuple(sample_matrix(spec, rng)
                                                    for _ in range(stop - start))

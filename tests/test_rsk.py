import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from symlpp.core import IntMatrix, ModelSpec, Partition
from symlpp.oracles import (check_symmetry_lemmas, conjugate, dual_rsk, entry, evacuate,
                            evacuate_by_word, greene_oracle, sample_matrix, schur, total,
                            transpose)
from symlpp.rsk import Tableau, rsk


def random_matrix(rnd, n_rows, n_cols, max_entry=2):
    return IntMatrix(tuple(tuple(rnd.randint(0, max_entry) for _ in range(n_cols))
                           for _ in range(n_rows)))


def test_tableau_validation():
    Tableau(((1, 1, 2), (2, 3)), 3)
    with pytest.raises(ValueError):
        Tableau(((2, 1),), 3)          # row decreases
    with pytest.raises(ValueError):
        Tableau(((1, 1), (1,)), 3)     # column not strict
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 2)), 3)     # row lengths increase
    with pytest.raises(ValueError):
        Tableau(((4,),), 3)            # entry above content bound


def test_rsk_single_cell_and_zero():
    X = IntMatrix(((5,),))
    pair = rsk(X)
    assert pair.p.rows == ((1, 1, 1, 1, 1),)
    assert pair.q.rows == ((1, 1, 1, 1, 1),)
    assert pair.p.shape == Partition((5,))
    zero = rsk(IntMatrix(((0, 0), (0, 0))))
    assert zero.p.shape == Partition()
    assert zero.p.rows == ()


def test_rsk_identity_matrix():
    pair = rsk(IntMatrix(((1, 0), (0, 1))))
    assert pair.p.rows == ((1, 2),)
    assert pair.q.rows == ((1, 2),)


def test_rsk_weight_and_content_conservation():
    rnd = random.Random(1)
    for _ in range(200):
        X = random_matrix(rnd, rnd.randint(1, 4), rnd.randint(1, 4), 3)
        pair = rsk(X)
        assert pair.p.shape == pair.q.shape
        assert pair.p.shape.weight == total(X)
        p_content = pair.p.content()
        q_content = pair.q.content()
        for j in range(1, X.n_cols + 1):
            assert p_content[j] == sum(entry(X, i, j) for i in range(1, X.n_rows + 1))
        for i in range(1, X.n_rows + 1):
            assert q_content[i] == sum(entry(X, i, j) for j in range(1, X.n_cols + 1))


def test_rsk_transpose_lemma():
    rnd = random.Random(2)
    for _ in range(100):
        X = random_matrix(rnd, rnd.randint(1, 4), rnd.randint(1, 4), 2)
        pair = rsk(X)
        swapped = rsk(transpose(X))
        assert swapped.p == pair.q
        assert swapped.q == pair.p


def test_rsk_greene_consistency_small():
    rnd = random.Random(3)
    for _ in range(120):
        n = rnd.randint(1, 3)
        X = random_matrix(rnd, n, n, 2)
        mu = rsk(X).p.shape
        for l in range(1, n + 1):
            assert sum(mu.parts[:l]) == greene_oracle(X, l)


def test_dual_rsk_examples():
    pair = dual_rsk(IntMatrix(((1,),)))
    assert pair.p.shape == Partition((1,)) and pair.q.shape == Partition((1,))
    # single all-ones row: the recording side is one row of n cells
    n = 4
    pair = dual_rsk(IntMatrix((tuple(1 for _ in range(n)),)))
    assert pair.p.shape == Partition((n,))
    assert pair.q.shape == Partition((1,) * n)
    zero = dual_rsk(IntMatrix(((0, 0),)))
    assert zero.p.shape == Partition()
    with pytest.raises(ValueError):
        dual_rsk(IntMatrix(((2,),)))


def test_dual_rsk_shapes_conjugate_and_bounded():
    rnd = random.Random(4)
    for _ in range(300):
        m, n = rnd.randint(1, 4), rnd.randint(1, 4)
        X = random_matrix(rnd, m, n, 1)
        pair = dual_rsk(X)
        mu = pair.q.shape
        assert pair.p.shape == conjugate(mu)
        assert mu.weight == total(X)
        assert (mu.parts[0] if mu.parts else 0) <= m
        p_content = pair.p.content()
        q_content = pair.q.content()
        for i in range(1, m + 1):
            assert p_content[i] == sum(entry(X, i, j) for j in range(1, n + 1))
        for j in range(1, n + 1):
            assert q_content[j] == sum(entry(X, i, j) for i in range(1, m + 1))


def test_dual_rsk_distributional_identity():
    # Summing the site weights over every binary matrix that lands on a given
    # shape must reproduce the paired Schur product for that shape.
    a = (F(1, 3), F(1, 2))
    b = (F(2, 5), F(1, 7), F(1, 4))
    by_shape: dict = {}
    for bits in product((0, 1), repeat=6):
        rows = tuple(tuple(bits[i * 3 + j] for j in range(3)) for i in range(2))
        X = IntMatrix(rows)
        weight = F(1)
        for i in range(2):
            for j in range(3):
                if rows[i][j]:
                    weight *= a[i] * b[j]
        mu = dual_rsk(X).q.shape
        by_shape[mu.parts] = by_shape.get(mu.parts, F(0)) + weight
    for parts, weight in by_shape.items():
        mu = Partition(parts)
        assert weight == schur(conjugate(mu), a) * schur(mu, b)


def test_evacuate_examples():
    assert evacuate(Tableau((), 3)) == Tableau((), 3)
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert evacuate(Tableau(((k,),), n)) == Tableau(((n + 1 - k,),), n)


def test_evacuate_involution_and_word_route():
    rnd = random.Random(5)
    rng = np.random.default_rng(6)
    spec = ModelSpec("johansson", a=(F(1, 2),) * 4, b=(F(1, 2),) * 4)
    seen = 0
    while seen < 150:
        t = rsk(sample_matrix(spec, rng)).p
        if t.shape.weight > 12:
            continue
        seen += 1
        e = evacuate(t)
        assert e.shape == t.shape
        assert evacuate(e) == t
        assert e == evacuate_by_word(t)
        content = t.content()
        e_content = e.content()
        n = t.content_bound
        for k in range(1, n + 1):
            assert e_content[k] == content[n + 1 - k]
    assert rnd is not None


def test_symmetry_lemma_examples():
    # 1x1 matrix: trace k equals the alternating sum of the shape (k)
    for k in range(4):
        report = check_symmetry_lemmas(IntMatrix(((k,),)), "diagonal")
        assert report["p_equals_q"] and report["trace_alt_sum"]
    # diagonal matrices are symmetric; the trace lemma is asserted
    report = check_symmetry_lemmas(IntMatrix(((2, 0), (0, 1))), "diagonal")
    assert report["trace_alt_sum"]
    # doubly symmetric with odd anti-diagonal entries violates the precondition
    with pytest.raises(ValueError, match="even"):
        check_symmetry_lemmas(IntMatrix(((1, 1), (1, 1))), "doublysymmetric")
    with pytest.raises(ValueError, match="symmetric"):
        check_symmetry_lemmas(IntMatrix(((0, 1), (0, 0))), "diagonal")
    with pytest.raises(ValueError):
        check_symmetry_lemmas(IntMatrix(((0, 1), (0, 0))), "johansson")


def test_symmetry_lemmas_on_sampled_matrices():
    rng = np.random.default_rng(7)
    qs = (F(1, 3), F(1, 2), F(1, 4))
    specs = {
        "antidiagonal": ModelSpec("antidiagonal", q=qs, beta=F(1, 2)),
        "diagonal": ModelSpec("diagonal", q=qs, alpha=F(1, 3)),
        "doublysymmetric": ModelSpec("doublysymmetric", q=qs[:2], alpha=F(1, 3)),
        "pointreflection": ModelSpec("pointreflection", q=qs[:2]),
    }
    for name, spec in specs.items():
        for _ in range(150):
            X = sample_matrix(spec, rng)
            report = check_symmetry_lemmas(X, name)
            assert all(report.values()), (name, X.rows, report)

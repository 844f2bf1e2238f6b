import random
from fractions import Fraction as F

import pytest

from symlpp.core import ModelSpec, Partition, partitions_in_box
from symlpp.oracles import (
    domino_tilable,
    iter_ssyt,
    pointreflection_selfdual_table,
    schur,
    schur_bialternant,
    selfdual_schur,
    selfdual_schur_oracle,
    two_quotient,
)
from symlpp.symfunc import (
    alternating_table,
    cauchy_table,
    dual_cauchy_table,
    exact_distribution,
    odd_part_table,
)


# Each bounded sum at one bound l, read from its kernel table.
def bounded_cauchy_sum(a, b, l):
    return cauchy_table(a, b, l)[l]


def bounded_dual_cauchy_sum(a, b, l):
    return dual_cauchy_table(a, b, l)[l]


def beta_weighted_sum(q, beta, l):
    return odd_part_table(q, beta, l)[l]


def alpha_weighted_sum(q, alpha, l):
    return alternating_table(q, alpha, l)[l]


def schur_by_tableaux(mu, xs):
    """Independent route: sum the content monomials of every filling."""
    total = F(0)
    for t in iter_ssyt(mu, len(xs)):
        term = F(1)
        for k, count in t.content().items():
            term *= xs[k - 1] ** count
        total += term
    return total


def test_schur_examples():
    q = (F(1, 3), F(1, 5))
    assert schur(Partition(), q) == 1
    assert schur(Partition((1,)), q) == q[0] + q[1]
    # two fillings of shape (2,1) with entries <= 2
    assert schur(Partition((2, 1)), q) == q[0] * q[1] * (q[0] + q[1])
    assert schur(Partition((1, 1, 1)), q) == 0


def test_schur_matches_tableau_enumeration():
    rnd = random.Random(0)
    xs3 = (F(1, 2), F(1, 3), F(2, 7))
    for mu in partitions_in_box(3, 3):
        assert schur(mu, xs3) == schur_by_tableaux(mu, xs3)
    for _ in range(20):
        mu = Partition(tuple(sorted((rnd.randint(1, 4) for _ in range(2)), reverse=True)))
        assert schur(mu, xs3) == schur_by_tableaux(mu, xs3)


def test_schur_symmetry_and_repeats():
    rnd = random.Random(1)
    for _ in range(30):
        xs = [F(rnd.randint(0, 5), rnd.randint(1, 6)) for _ in range(3)]
        mu = Partition(tuple(sorted((rnd.randint(1, 3) for _ in range(2)), reverse=True)))
        base = schur(mu, xs)
        shuffled = xs[:]
        rnd.shuffle(shuffled)
        assert schur(mu, shuffled) == base
    # repeated variables are fine for the branching route
    assert schur(Partition((2,)), (F(1, 2), F(1, 2))) == F(3, 4)


def test_schur_bialternant_agrees_on_distinct_inputs():
    xs = (F(1, 2), F(1, 3), F(2, 7))
    for mu in partitions_in_box(3, 3):
        assert schur_bialternant(mu, xs) == schur(mu, xs)
    with pytest.raises(ValueError):
        schur_bialternant(Partition((1,)), (F(1, 2), F(1, 2)))


def test_bounded_cauchy_sum():
    a, b = (F(1, 2),), (F(1, 3),)
    for l in range(5):
        assert bounded_cauchy_sum(a, b, l) == sum((a[0] * b[0]) ** k for k in range(l + 1))
    assert bounded_cauchy_sum(a, b, 0) == 1
    # normalization: the prefactor times the sum climbs to 1 as the bound grows
    a = (F(1, 3), F(1, 4))
    b = (F(1, 5), F(2, 7))
    pref = F(1)
    for x in a:
        for y in b:
            pref *= 1 - x * y
    values = [pref * bounded_cauchy_sum(a, b, l) for l in (2, 6, 14, 30)]
    assert all(v < 1 for v in values)
    assert values == sorted(values)
    assert 1 - values[-1] < F(1, 10**8)


def test_bounded_dual_cauchy_sum():
    assert bounded_dual_cauchy_sum((F(1, 2),), (F(1, 3),), 0) == 1
    assert bounded_dual_cauchy_sum((F(1, 2),), (F(1, 3),), 1) == 1 + F(1, 6)
    # the full box reproduces the product over all pairs, exactly
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 3)):
        a = tuple(F(1, 2 + i) for i in range(m))
        b = tuple(F(1, 3 + 2 * j) for j in range(n))
        product = F(1)
        for x in a:
            for y in b:
                product *= 1 + x * y
        for l in (m, m + 1, m + 3):
            assert bounded_dual_cauchy_sum(a, b, l) == product


def test_weighted_sums_single_variable():
    q, beta, alpha = (F(1, 3),), F(1, 2), F(1, 5)
    # shapes (), (1), (2): one odd part for (1), none for (2)
    assert beta_weighted_sum(q, beta, 2) == 1 + beta * q[0] + q[0] ** 2
    # columns: (1) has one odd column, (2) has two
    assert alpha_weighted_sum(q, alpha, 2) == 1 + alpha * q[0] + alpha**2 * q[0] ** 2
    assert beta_weighted_sum(q, F(1), 3) == alpha_weighted_sum(q, F(1), 3)
    assert beta_weighted_sum(q, beta, 0) == 1
    assert alpha_weighted_sum(q, alpha, 0) == 1


def test_alpha_marginal_branching_identity():
    # summing the alternating alpha weight over interlacing even-indexed halves
    # reproduces the Schur polynomial with alpha appended as a variable
    q = (F(1, 3), F(1, 4))
    alpha = F(1, 5)
    for lam_plus in partitions_in_box(2, 2):
        total = F(0)
        padded = lam_plus.padded(lam_plus.length + 1)
        choices = [range(padded[k + 1], padded[k] + 1) for k in range(lam_plus.length)]

        def walk(k, chosen):
            nonlocal total
            if k == lam_plus.length:
                lam_minus = Partition(tuple(c for c in chosen if c))
                exponent = lam_plus.weight - lam_minus.weight
                total += alpha**exponent * schur(lam_minus, q)
                return
            for c in choices[k]:
                walk(k + 1, chosen + (c,))

        walk(0, ())
        assert total == schur(lam_plus, q + (alpha,))


def test_domino_tilable():
    assert domino_tilable(Partition())
    assert not domino_tilable(Partition((1,)))
    assert domino_tilable(Partition((4, 2)))
    assert domino_tilable(Partition((1, 1)))
    assert not domino_tilable(Partition((2, 1)))


def test_two_quotient_examples():
    assert two_quotient(Partition()) == (Partition(), Partition())
    q0, q1 = two_quotient(Partition((4, 2)))
    assert {q0.parts, q1.parts} == {(2,), (1,)}
    q0, q1 = two_quotient(Partition((1, 1)))
    assert {q0.parts, q1.parts} == {(1,), ()}
    with pytest.raises(ValueError, match="colour"):
        two_quotient(Partition((1,)))


def test_two_quotient_halves_weight_and_matches_even_split():
    for mu in partitions_in_box(6, 5):
        if not domino_tilable(mu):
            continue
        q0, q1 = two_quotient(mu)
        assert q0.weight + q1.weight == mu.weight // 2
    # an even partition's quotient pair is its interleaved halves, unordered
    for lam in partitions_in_box(3, 4):
        doubled = Partition(tuple(2 * p for p in lam.parts))
        plus, minus = Partition(lam.parts[0::2]), Partition(lam.parts[1::2])
        q0, q1 = two_quotient(doubled)
        assert {q0.parts, q1.parts} == {plus.parts, minus.parts}


def test_two_quotient_bound_split():
    # mu_1 <= 2l forces both first parts <= l; mu_1 <= 2l+1 allows l+1 only in slot 0
    for mu in partitions_in_box(7, 6):
        if not domino_tilable(mu):
            continue
        q0, q1 = two_quotient(mu)
        mu1 = mu.parts[0] if mu.parts else 0
        w0 = q0.parts[0] if q0.parts else 0
        w1 = q1.parts[0] if q1.parts else 0
        l, parity = divmod(mu1, 2)
        if parity == 0:
            assert w0 <= l and w1 <= l
        else:
            assert w0 <= l + 1 and w1 <= l


def test_selfdual_schur_examples():
    q = (F(1, 3),)
    assert selfdual_schur(Partition((1,)), q) == 0
    assert selfdual_schur(Partition(), q) == 1
    assert selfdual_schur(Partition((4, 2)), q) == q[0] ** 3


def test_selfdual_oracle_examples():
    q = (F(1, 3),)
    assert selfdual_schur_oracle(Partition((2,)), 1, q) == q[0]
    assert selfdual_schur_oracle(Partition((1,)), 1, q) == 0
    assert selfdual_schur_oracle(Partition(), 1, q) == 1
    with pytest.raises(ValueError):
        selfdual_schur_oracle(Partition((6, 5)), 1, q)


def test_selfdual_schur_matches_oracle():
    for n, q in ((1, (F(1, 3),)), (2, (F(1, 3), F(1, 2)))):
        for mu in partitions_in_box(6, 4):
            if mu.weight > 8:
                continue
            assert selfdual_schur(mu, q) == selfdual_schur_oracle(mu, n, q), mu.parts


def test_exact_distribution_examples():
    m = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),))
    assert exact_distribution(m, 1) == F(15, 16)
    # single-site diagonal model: a geometric with parameter alpha*q
    alpha, q = F(1, 2), F(1, 2)
    m = ModelSpec("diagonal", q=(q,), alpha=alpha)
    for l in range(5):
        assert exact_distribution(m, l) == 1 - (alpha * q) ** (l + 1)
    # Bernoulli law saturates exactly once the bound passes the row count
    m = ModelSpec("bernoulli", a=(F(1, 2), F(1, 3)), b=(F(1, 4), F(1, 5)))
    assert exact_distribution(m, 2) == 1
    assert exact_distribution(m, 7) == 1
    # all parameters zero: the matrix is identically zero
    m = ModelSpec("antidiagonal", q=(F(0), F(0)), beta=F(0))
    assert exact_distribution(m, 0) == 1
    with pytest.raises(ValueError):
        exact_distribution(m, -1)


def test_doubly_symmetric_parity_degeneracy():
    m = ModelSpec("doublysymmetric", q=(F(1, 3), F(1, 4)), alpha=F(1, 3))
    for l in range(0, 8, 2):
        assert exact_distribution(m, l) == exact_distribution(m, l + 1)


def test_pointreflection_selfdual_sum_matches_factorization():
    q = (F(1, 3), F(1, 4))
    m = ModelSpec("pointreflection", q=q)
    for l in range(6):
        assert pointreflection_selfdual_table(q, l)[l] == exact_distribution(m, l)

"""Bounded pairing sums as Gram determinants and Pfaffians.

Everything here is exact: parameters come in as Fractions and probabilities go
out as Fractions.  The bounded sums read two small tables built from h_k and
e_k of the parameters: Gram determinants by Cauchy-Binet on Jacobi-Trudi
minors (cauchy_table, dual_cauchy_table) and Pfaffians by minor summation
(odd_part_table, alternating_table), each of order n at every bound.  Both
keep their running matrix as integers at the parameters scaled once by the
lcm of their denominators and make one Fraction per bound, and each
pair-product prefactor is one integer product over one power; nothing here
sweeps a partition box.  The Schur evaluator and the self-dual
point-reflection sum, which do, are test witnesses in symlpp.oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .core import InputError, ModelSpec, check_table_bound
from .numerics import leading_minors, pfaffian, scaled

# ---------------------------------------------------------------------------
# Bounded sums: Gram determinants and Pfaffians of Jacobi-Trudi minors
# ---------------------------------------------------------------------------

# Bound on a Gram or Pfaffian table, checked before any h_k is built.  Bound l
# eliminates an order-n matrix of entries of about E = (lmax + n) b bits, b the
# summed bit sizes of the scaled parameters' denominators, and a table to lmax
# is charged n^4 (lmax + 1) E^2, a fit to times measured on the Gram table: at
# the budget it takes 0.4-2.3 s on a 2-CPU host, from n = 1 to n = 16.  The
# Pfaffian table is charged the same and runs well under the fit: at its last
# admitted bound, over the primes 5..29 at n = 8 and over 2..17 at n = 16, it
# takes 0.13-0.17 s where the Gram table takes 0.65-0.7 s.
TABLE_BIT_BUDGET = 1 << 41


def _check_table_budget(order: int, lmax: int, *scales: int) -> None:
    bits = (lmax + order) * sum(d.bit_length() for d in scales)
    cost = order**4 * (lmax + 1) * bits**2
    if cost > TABLE_BIT_BUDGET:
        raise InputError(f"exact table of order {order} to bound {lmax} over {bits}-bit "
                         f"entries costs about {cost}, over the budget of {TABLE_BIT_BUDGET}")


def _columns(xs: tuple[int, ...], n: int, lmax: int, elementary: bool = False) -> list[int]:
    """[0] * (n - 1) + [h_0(xs), ..., h_{lmax+n-1}(xs)] (e_k if elementary), one
    variable at a time; column c of M[i][c] = h_{c-n+i}, i = 1..n, is [c:c + n]."""
    h = [1] + [0] * (lmax + n - 1)
    for x in xs:
        for k in (range(len(h) - 1, 0, -1) if elementary else range(1, len(h))):
            h[k] += x * h[k - 1]
    return [0] * (n - 1) + h


def _gram_table(a, b, n: int, lmax: int, elementary: bool = False) -> list[Fraction]:
    """[det(M_a M_b^T) over the columns c < l + n, for l = 0..lmax]; M_a holds e_k(a)
    if elementary.

    Each mu with mu_1 <= l and at most n parts is the column set {mu_i + n - i},
    and s_mu (s_{mu'} for e_k) is that minor of M (Jacobi-Trudi), so
    Cauchy-Binet sums the products of minors to det G_l, G_l = M_a M_b^T.  At
    the scaled points, row i scaled by da^(l-1+i) and column j by db^(l-1+j)
    make G_l the integer K_l = t K_{l-1} + (column l + n - 1 term), t = da db,
    and det G_l = det K_l / t^(n l + n(n-1)/2).  Every leading minor of G holds
    a unit term and the h and e Toeplitz matrices of parameters in [0, 1) are
    totally nonnegative, so no pivot is zero.
    """
    (da, xa), (db, xb) = scaled(a), scaled(b)
    _check_table_budget(n, lmax, da, db)
    ma, mb, t = _columns(xa, n, lmax, elementary), _columns(xb, n, lmax), da * db
    k = [[0] * n for _ in range(n)]
    table = []
    for c in range(lmax + n):
        u, v = ma[c:c + n], mb[c:c + n]
        k = [[t * x + ui * vj for x, vj in zip(row, v)] for row, ui in zip(k, u)]
        if c >= n - 1:
            table.append(Fraction(leading_minors(k)[-1],
                                  t ** (n * (c + 1) - n * (n + 1) // 2)))
    return table


def cauchy_table(a, b, lmax: int) -> list[Fraction]:
    """[sum of s_mu(a) s_mu(b) over mu_1 <= l, for l = 0..lmax]."""
    return _gram_table(a, b, min(len(a), len(b)), lmax)


def dual_cauchy_table(a, b, lmax: int) -> list[Fraction]:
    """[sum of s_{mu'}(a) s_mu(b) over mu_1 <= l, for l = 0..lmax], saturating at
    lmax >= len(a): s_{mu'}(a) vanishes once mu_1 > len(a)."""
    check_table_bound(lmax)
    table = _gram_table(a, b, len(b), min(lmax, len(a)), elementary=True)
    return table + table[-1:] * (lmax + 1 - len(table))


def _minor_sum_table(q, lmax: int, x: tuple, y: tuple, r) -> list[Fraction]:
    """[sum of w(mu) s_mu(q) over mu_1 <= l, for l = 0..lmax] by minor summation.

    For n even, Pf(M A M^T) sums det(M[:, C]) Pf(A[C, C]) over the n-subsets C
    of the columns (Ishikawa & Wakayama 1995); an odd n gets one zero variable,
    which changes no s_mu.  With A[d][c] = x[d % 2] y[c % 2] r^(c-d-1), d < c,
    Pf(A[C, C]) pairs consecutive columns into w(mu), and the Jacobi-Trudi
    order of C is the reverse, so the sum is (-1)^(n(n-1)/2) Pf(P), P = M A M^T.
    Column c adds S M_c^T - M_c S^T to P, S = y_c sum_{d<c} x_d r^(c-d-1) M_d.
    At the scaled points (q by d; x, y, r by e) the integer Q_c = t Q_{c-1} + (its
    term), t = d^2 e, carries P_c: Pf(P_c) = Pf(Q_c) d^(n(n-1)/2) / (t^c e)^(n/2).
    """
    q = tuple(q) + (0,) * (len(q) % 2)
    (d, xq), (e, (x0, x1, y0, y1, er)) = scaled(q), scaled(x + y + (r,))
    n = len(xq)
    _check_table_budget(n, lmax, d, d, e)
    m, t = _columns(xq, n, lmax), d * d * e
    p, tail, table = [[0] * n for _ in range(n)], [0] * n, []
    for c in range(lmax + n):
        col, s, w = m[c:c + n], [(y0, y1)[c % 2] * v for v in tail], (x0, x1)[c % 2] * e**c
        p = [[t * pij + si * cj - ci * sj for pij, cj, sj in zip(row, col, s)]
             for row, si, ci in zip(p, s, col)]
        tail = [d * (er * u + w * v) for u, v in zip(tail, col)]
        if c >= n - 1:
            table.append(Fraction((-1) ** (n // 2) * pfaffian(p) * d ** (n * (n - 1) // 2),
                                  (t**c * e) ** (n // 2)))
    return table


def odd_part_table(q, beta, lmax: int) -> list[Fraction]:
    """[sum of beta^(#odd parts of mu) s_mu(q) over mu_1 <= l, for l = 0..lmax]."""
    return _minor_sum_table(q, lmax, (1, beta), (beta, 1), 1)


def alternating_table(q, alpha, lmax: int) -> list[Fraction]:
    """[sum of alpha^(mu_1 - mu_2 + mu_3 - ...) s_mu(q) over mu_1 <= l, for l = 0..lmax]."""
    return _minor_sum_table(q, lmax, (1, 1), (1, 1), alpha)


# ---------------------------------------------------------------------------
# Pair products and the one-bound reads
# ---------------------------------------------------------------------------


def _pair_product(a, b) -> Fraction:
    (da, xa), (db, xb) = scaled(a), scaled(b)
    t = da * db
    return Fraction(prod(t - x * y for x in xa for y in xb), t ** (len(xa) * len(xb)))


def _upper_pair_product(q) -> Fraction:
    d, x = scaled(q)
    return Fraction(prod(d * d - u * v for i, u in enumerate(x) for v in x[i + 1:]),
                    d ** (len(x) * (len(x) - 1)))


def exact_distribution(spec: ModelSpec, l: int) -> Fraction:
    """Pr(L <= l) for the class statistic of the given model: variants.exact_table(spec, l)[l]."""
    from .variants import exact_table

    return exact_table(spec, l)[l]




def pointreflection_selfdual_sum(q, l: int) -> Fraction:
    """The self-dual witness of symlpp.oracles at one bound.  Kept only because
    perfbench's tracer wraps this name; no production route calls it."""
    from .oracles import pointreflection_selfdual_table

    return pointreflection_selfdual_table(tuple(q), l)[l]

"""Schur polynomials, bounded pairing sums, 2-quotients, and the self-dual law.

Everything here is exact: parameters come in as Fractions and probabilities go
out as Fractions.  The bounded sums read two small tables built from h_k and
e_k of the parameters: Gram determinants by Cauchy-Binet on Jacobi-Trudi
minors (cauchy_table, dual_cauchy_table) and Pfaffians by minor summation
(odd_part_table, alternating_table), each of order n at every bound.  Both
keep their running matrix as integers at the parameters scaled by the lcm of
their denominators and make one Fraction per bound.  Only the self-dual
point-reflection witness sweeps a partition box.  The Schur evaluator also
accepts complex, numpy and Laurent-polynomial values, which the oracle
engines of symlpp.oracles reuse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod

from .core import (
    BudgetError,
    ModelSpec,
    Partition,
    box_parts,
    check_table_bound,
    count_partitions_in_box,
    partitions_in_box,
)
from .numerics import leading_minors, pfaffian, scaled

# ---------------------------------------------------------------------------
# Schur evaluation
# ---------------------------------------------------------------------------

# Most cells one Schur table or box sweep may cover, checked before anything is
# built.  It bounds schur() and the self-dual witness, the box sweeps left in
# production, and the box-sweep oracles of symlpp.oracles.  A max_part x
# max_length box holds C(max_part + max_length, max_length) partitions of mean
# weight max_part * max_length / 2, and exact Schur values grow with the
# weight, so the box's total cell count bounds both the time and the memory of
# a sweep (about 2 s and 100 MiB at the budget).
CELL_BUDGET = 1 << 22


def _check_box(max_part: int, max_length: int):
    if max_part < 0:
        raise ValueError("bound must be nonnegative")
    size = count_partitions_in_box(max_part, max_length)
    cells = size * max_part * max_length // 2
    if cells > CELL_BUDGET:
        raise BudgetError(f"partition box {max_part} x {max_length} holds {size} partitions "
                         f"of {cells} cells in all, over the budget of {CELL_BUDGET} cells")


def _schur_values(xs: tuple, max_part: int, max_length: int) -> dict:
    """s_mu(xs) for every mu in the max_part x max_length box, keyed by its parts.

    Adds one variable at a time: s_mu(x_1..x_k) sums s_nu(x_1..x_{k-1})
    x_k ** |mu/nu| over horizontal strips mu/nu.  Peeling the strip cell by
    cell, lowest row first, that sum is one in-place pass per row j = k..1,
    G_j(mu) = G_{j+1}(mu) + x_k G_j(mu - e_j) whenever mu_j > mu_{j+1}, so each
    partition costs O(k) steps per variable instead of one per strip.
    """
    length = min(max_length, len(xs))
    _check_box(max_part, length)
    boxed = list(box_parts(max_part, length))
    index = {parts: i for i, parts in enumerate(boxed)}
    steps: list[list[tuple[int, int]]] = [[] for _ in range(length)]
    for i, parts in enumerate(boxed):
        for j, p in enumerate(parts):
            if p > (parts[j + 1] if j + 1 < len(parts) else 0):
                smaller = parts[:j] + ((p - 1,) if p > 1 else ()) + parts[j + 1:]
                steps[j].append((i, index[smaller]))
    values = [0] * len(boxed)
    values[0] = 1
    for k, x in enumerate(xs, start=1):
        for row in reversed(steps[:k]):
            for i, smaller in row:
                values[i] += x * values[smaller]
    return dict(zip(boxed, values))


def schur(mu: Partition, xs):
    """Schur polynomial s_mu at the variable list xs (zero when len(mu) > len(xs)).

    Read off _schur_values over the box that mu fits in.  The evaluation never
    divides, so repeated variables are fine and any value type with + and *
    works: Fractions, complex numbers, numpy arrays, Laurent polynomials.
    """
    xs = tuple(xs)
    if mu.length > len(xs):
        return 0
    return _schur_values(xs, mu.part(1), mu.length)[mu.parts]


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
        raise BudgetError(f"exact table of order {order} to bound {lmax} over {bits}-bit "
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
            table.append(leading_minors(k)[-1] / t ** (n * (c + 1) - n * (n + 1) // 2))
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
            table.append((-1) ** (n // 2) * pfaffian(p) * d ** (n * (n - 1) // 2)
                         / (t**c * e) ** (n // 2))
    return table


def odd_part_table(q, beta, lmax: int) -> list[Fraction]:
    """[sum of beta^(#odd parts of mu) s_mu(q) over mu_1 <= l, for l = 0..lmax]."""
    return _minor_sum_table(q, lmax, (1, beta), (beta, 1), 1)


def alternating_table(q, alpha, lmax: int) -> list[Fraction]:
    """[sum of alpha^(mu_1 - mu_2 + mu_3 - ...) s_mu(q) over mu_1 <= l, for l = 0..lmax]."""
    return _minor_sum_table(q, lmax, (1, 1), (1, 1), alpha)


# ---------------------------------------------------------------------------
# Dominoes and 2-quotients
# ---------------------------------------------------------------------------


def _color_counts(mu: Partition) -> tuple[int, int]:
    even = odd = 0
    for i, p in enumerate(mu.parts, start=1):
        # cells (i, j), j = 1..p; i+j even iff j has the parity of i
        same_parity = p // 2 if i % 2 == 0 else (p + 1) // 2
        even += same_parity
        odd += p - same_parity
    return even, odd


def domino_tilable(mu: Partition) -> bool:
    """True iff the diagram has equally many cells of each checkerboard colour."""
    even, odd = _color_counts(mu)
    return even == odd


def two_quotient(mu: Partition) -> tuple[Partition, Partition]:
    """2-quotient via beta-numbers, padding mu with zeros to an even length m.

    Beta-numbers mu_k + (m - k) split by parity; the even half maps through
    b -> b/2 and the odd half through b -> (b-1)/2, and each half has its
    staircase stripped.  |quotient_0| + |quotient_1| = |mu| / 2.  With this
    convention mu_1 <= 2l forces both first parts <= l, and mu_1 <= 2l + 1
    forces quotient_0 first part <= l + 1 and quotient_1 first part <= l.
    """
    even, odd = _color_counts(mu)
    if even != odd:
        raise ValueError(
            f"no domino tiling: colour counts {even} vs {odd} for {mu}")
    m = mu.length + (mu.length % 2)
    padded = mu.padded(m)
    betas = [padded[k] + (m - 1 - k) for k in range(m)]

    def strip(values: list[int]) -> Partition:
        values = sorted(values, reverse=True)
        r = len(values)
        return Partition(tuple(v - (r - 1 - idx) for idx, v in enumerate(values)))

    quotient_even = strip([b // 2 for b in betas if b % 2 == 0])
    quotient_odd = strip([(b - 1) // 2 for b in betas if b % 2 == 1])
    return quotient_even, quotient_odd


def selfdual_schur(mu: Partition, q) -> Fraction:
    """Generating function of self-dual path families with displacement mu.

    Zero unless mu admits a domino tiling; otherwise the product of the Schur
    polynomials of the two 2-quotient components.  For an even partition
    mu = 2*lambda this equals s_{lambda+} * s_{lambda-} with lambda+ the
    odd-indexed and lambda- the even-indexed parts of lambda.
    """
    q = tuple(q)
    if not domino_tilable(mu):
        return Fraction(0)
    q0, q1 = two_quotient(mu)
    return schur(q0, q) * schur(q1, q)


# ---------------------------------------------------------------------------
# Pair products and the self-dual point-reflection law
# ---------------------------------------------------------------------------


def _pair_product(a, b) -> Fraction:
    return prod((1 - x * y for x in a for y in b), start=Fraction(1))


def _upper_pair_product(q) -> Fraction:
    return prod((1 - q[i] * q[j] for i in range(len(q)) for j in range(i + 1, len(q))),
                start=Fraction(1))


def exact_distribution(spec: ModelSpec, l: int) -> Fraction:
    """Pr(L <= l) for the class statistic of the given model: variants.exact_table(spec, l)[l]."""
    from .variants import exact_table

    return exact_table(spec, l)[l]


def pointreflection_selfdual_table(q, lmax: int) -> list[Fraction]:
    """[Pr(L <= l) for l = 0..lmax] of the point-reflection model from self-dual path sums.

    Independent of the factored route in exact_table: enumerates displacements
    mu with mu_1 <= lmax directly, once, and squares their generating
    functions.  The square of s_{q0}(q) s_{q1}(q) at the scaled points carries
    D ** (2 |q0| + 2 |q1|) = D ** |mu|, so terms sharing (mu_1, |mu|) add up as
    integers before one Fraction each.
    """
    d, xq = scaled(q)
    _check_box(lmax, 2 * len(xq))  # the sweep's box, before the smaller quotient box is built
    # mu_1 <= lmax bounds both quotients' first parts by (lmax + 1) // 2
    sq = _schur_values(xq, (lmax + 1) // 2, len(xq))
    buckets: dict[tuple[int, int], int] = {}
    for mu in partitions_in_box(lmax, 2 * len(xq)):
        if domino_tilable(mu):
            q0, q1 = two_quotient(mu)
            key = (mu.part(1), mu.weight)
            buckets[key] = buckets.get(key, 0) + (sq[q0.parts] * sq[q1.parts]) ** 2
    rows = [Fraction(0)] * (lmax + 1)
    for (first, w), value in buckets.items():
        rows[first] += Fraction(value, d**w)
    pref = _pair_product(q, q) ** 2
    return [pref * x for x in accumulate(rows)]


def pointreflection_selfdual_sum(q, l: int) -> Fraction:
    """Pr(L <= l) for the point-reflection model straight from self-dual path sums."""
    return pointreflection_selfdual_table(tuple(q), l)[l]

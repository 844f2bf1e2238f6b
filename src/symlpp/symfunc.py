"""Schur polynomials, bounded pairing sums, 2-quotients, and the self-dual law.

Everything here is exact: parameters come in as Fractions and probabilities go
out as Fractions.  The same Schur evaluator also accepts complex, numpy and
Laurent-polynomial values, which the oracle engines of symlpp.oracles reuse.
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
    conjugate,
    count_partitions_in_box,
    partitions_in_box,
)
from .numerics import det_exact, scaled
from .rsk import Tableau, evacuate

# ---------------------------------------------------------------------------
# Schur evaluation
# ---------------------------------------------------------------------------

# Most cells one Schur table or box sweep may cover, checked before anything is
# built.  A max_part x max_length box holds C(max_part + max_length, max_length)
# partitions of mean weight max_part * max_length / 2, and exact Schur values
# grow with the weight, so the box's total cell count bounds both the time and
# the memory of an exact table (about 2 s and 100 MiB at the budget).
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


def schur_bialternant(mu: Partition, xs) -> Fraction:
    """Cross-check evaluator: ratio of alternants, valid for distinct rational xs."""
    xs = tuple(Fraction(x) for x in xs)
    n = len(xs)
    if len(set(xs)) != n:
        raise ValueError("bialternant needs distinct variables")
    if mu.length > n:
        return Fraction(0)
    lam = mu.padded(n)
    num = [[x ** (n - k + lam[k - 1]) for k in range(1, n + 1)] for x in xs]
    den = [[x ** (n - k) for k in range(1, n + 1)] for x in xs]
    return det_exact(num) / det_exact(den)


# ---------------------------------------------------------------------------
# Bounded sums: one sweep of the partition box per table
# ---------------------------------------------------------------------------


def _bounded_table(lmax: int, max_length: int, term, scale: int,
                   weight: Fraction = Fraction(1)) -> list[Fraction]:
    """Cumulative sums over mu_1 <= l, l = 0..lmax, of term(mu) / scale**|mu| * weight**k.

    term(mu) returns (k, integer value) for each mu in the lmax x max_length
    box, which is enumerated once; values sharing (mu_1, |mu|, k) add up as
    integers, and each such bucket becomes one Fraction at the end.  Every box
    is checked against CELL_BUDGET before it is built, here and in
    _schur_values.
    """
    _check_box(lmax, max_length)
    buckets: dict[tuple[int, int, int], int] = {}
    for mu in partitions_in_box(lmax, max_length):
        k, value = term(mu)
        if value:
            key = (mu.part(1), mu.weight, k)
            buckets[key] = buckets.get(key, 0) + value
    rows = [Fraction(0)] * (lmax + 1)
    for (first, w, k), value in buckets.items():
        rows[first] += Fraction(value, scale**w) * weight**k
    return list(accumulate(rows))


def _cauchy_table(a, b, lmax: int) -> list[Fraction]:
    """[sum of s_mu(a) s_mu(b) over mu_1 <= l, for l = 0..lmax]."""
    (da, xa), (db, xb) = scaled(a), scaled(b)
    length = min(len(xa), len(xb))
    sa = _schur_values(xa, lmax, length)
    sb = sa if xb == xa else _schur_values(xb, lmax, length)
    return _bounded_table(lmax, length, lambda mu: (0, sa[mu.parts] * sb[mu.parts]), da * db)


def _dual_cauchy_table(a, b, lmax: int) -> list[Fraction]:
    """[sum of s_{mu'}(a) s_mu(b) over mu_1 <= l, for l = 0..lmax].

    Saturates at lmax >= len(a): s_{mu'}(a) vanishes once mu_1 > len(a).
    """
    check_table_bound(lmax)
    (da, xa), (db, xb) = scaled(a), scaled(b)
    width = min(lmax, len(xa))
    sa = _schur_values(xa, len(xb), width)
    sb = _schur_values(xb, width, len(xb))
    table = _bounded_table(width, len(xb), lambda mu: (0, sa[conjugate(mu).parts] * sb[mu.parts]),
                           da * db)
    return table + table[-1:] * (lmax + 1 - len(table))


def _weighted_table(q, weight, exponent, lmax: int) -> list[Fraction]:
    """[sum of weight ** exponent(mu) s_mu(q) over mu_1 <= l, for l = 0..lmax]."""
    d, xq = scaled(q)
    sq = _schur_values(xq, lmax, len(xq))
    return _bounded_table(lmax, len(xq), lambda mu: (exponent(mu), sq[mu.parts]), d,
                          Fraction(weight))


def odd_part_count(mu: Partition) -> int:
    """#odd parts of mu, the alternating sum of mu' (alternating_sum(mu) counts
    the odd columns)."""
    return sum(p % 2 for p in mu.parts)


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


def even_partition_halves(lam: Partition) -> tuple[Partition, Partition]:
    """(odd-indexed parts, even-indexed parts) of lam, the halves paired with 2*lam."""
    return Partition(lam.parts[0::2]), Partition(lam.parts[1::2])


def iter_ssyt(mu: Partition, bound: int):
    """All semistandard fillings of shape mu with entries in 1..bound."""
    shape = mu.parts
    if not shape:
        yield Tableau((), bound)
        return
    grid = [[0] * p for p in shape]
    cells = [(r, c) for r, p in enumerate(shape) for c in range(p)]

    def rec(idx: int):
        if idx == len(cells):
            yield Tableau(tuple(tuple(row) for row in grid), bound)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, bound + 1):
            grid[r][c] = v
            yield from rec(idx + 1)
        grid[r][c] = 0

    yield from rec(0)


def selfdual_schur_oracle(mu: Partition, n: int, q) -> Fraction:
    """Brute force: sum over evacuation-fixed fillings of shape mu, content 2n.

    Under the identification of variable i with variable 2n+1-i a fixed filling
    contributes the monomial prod_i q_i ** (#letters i), i = 1..n, because its
    letter counts are complement-symmetric.
    """
    if mu.weight > 10 or n > 3:
        raise ValueError("oracle guard: |mu| <= 10 and n <= 3")
    q = tuple(q)
    if len(q) != n:
        raise ValueError("need one variable per reflected pair")
    total = Fraction(0)
    for t in iter_ssyt(mu, 2 * n):
        if evacuate(t) != t:
            continue
        counts = t.content()
        term = Fraction(1)
        for i in range(1, n + 1):
            if counts[i] != counts[2 * n + 1 - i]:
                raise AssertionError("fixed filling with asymmetric content")
            term *= q[i - 1] ** counts[i]
        total += term
    return total


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
    D ** (2 |q0| + 2 |q1|) = D ** |mu|, so it buckets like any other term.
    """
    d, xq = scaled(q)
    _check_box(lmax, 2 * len(xq))  # the sweep's box, before the smaller quotient box is built
    # mu_1 <= lmax bounds both quotients' first parts by (lmax + 1) // 2
    sq = _schur_values(xq, (lmax + 1) // 2, len(xq))

    def term(mu):
        if not domino_tilable(mu):
            return 0, 0
        q0, q1 = two_quotient(mu)
        value = sq[q0.parts] * sq[q1.parts]
        return 0, value * value

    pref = _pair_product(q, q) ** 2
    return [pref * x for x in _bounded_table(lmax, 2 * len(xq), term, d)]


def pointreflection_selfdual_sum(q, l: int) -> Fraction:
    """Pr(L <= l) for the point-reflection model straight from self-dual path sums."""
    return pointreflection_selfdual_table(tuple(q), l)[l]

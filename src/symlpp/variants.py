"""The six ensembles, one record each: every per-variant fact in one table.

The paper gives each lattice ensemble a sampling law, a bounded Schur-sum law
and a classical-group average (Baik & Rains, Duke Math. J. 109, 2001).  A
Variant holds all three: the symmetry orbit and law of each cell, the
statistic, the prefactor, and the kernel calls of the two exact routes.
exact_table and model_rmt_table read the record; lpp, harness and cli read it
through variant_of and never branch on a variant name.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable

from .core import ModelSpec, format_rational, record
from .numerics import GeomInv, PolyPlus, SymbolSpec
from .rmt import _averages
from .symfunc import (_pair_product, _upper_pair_product, alternating_table, cauchy_table,
                      dual_cauchy_table, odd_part_table)

Table = list[Fraction]


@record
class Variant:
    """One ensemble.  `exact` and `average` give the tables at bounds 0..lmax
    before the prefactor: the bounded Schur sums and the matrix averages."""

    orbit: Callable[[int, int, int], set]      # (side, i, j): the cells that hold x_{i,j}
    site: Callable[[ModelSpec, int, int], tuple[str, tuple[float, ...]]]  # law, params
    prefactor: Callable[[ModelSpec], Fraction]
    exact: Callable[[ModelSpec, int], Table]
    average: Callable[[ModelSpec, int], Table]
    method: str                                # how `rmt` and `verify` label `average`
    binary: bool = False                       # 0/1 entries, read by the Bernoulli DP
    # What verify needs beyond that: the least bound its columns reach; the
    # notes read off its columns.
    least_bound: int = 0
    notes: Callable[[ModelSpec, Table, Table], dict] = lambda spec, exact, second: {}


def _reflected(s, i):
    """q_i for i = 1..2n with the reflection q_{2n+1-i} = q_i."""
    return s.q[min(i, 2 * s.n + 1 - i) - 1]


def _doubly_site(s, i, j):
    if i == j:
        return "geom", (float(s.alpha * s.q[i - 1]),)
    if i + j == 2 * s.n + 1:  # parity weight 0: anti-diagonal entries are even
        return "parity_geom", (float(s.q[i - 1]), 0.0)
    return "geom", (float(_reflected(s, i) * _reflected(s, j)),)


def _halved(table: Table, lmax: int) -> Table:
    """The statistic is even: Pr(<= 2l) = Pr(<= 2l + 1) = table[l]."""
    return [table[l // 2] for l in range(lmax + 1)]


def _u_table(row_factor, a, b, lmax: int) -> Table:
    """U(l) averages of prod(row factor of a_i) prod(1 + b_j z), l = 0..lmax.
    Bernoulli row parameters enter as geometric inverses: the transposed
    assignment reproduces the length-bounded sum, not the width-bounded law."""
    return _averages("U", SymbolSpec(
        tuple(row_factor(x, -1) for x in a) + tuple(PolyPlus(y, 1) for y in b)),
        range(lmax + 1))


def _halves(square):
    """Point reflection from the square law at a = b = q, square(q, lmax): the
    product of the two laws at the halved bounds l // 2 and (l + 1) // 2."""
    def table(s, lmax) -> Table:
        half = square(s.q, (lmax + 1) // 2)
        return [half[l // 2] * half[(l + 1) // 2] for l in range(lmax + 1)]
    return table


def _antidiagonal_averages(s, lmax) -> Table:
    """Sp(2 (l // 2)) averages, one symbol per bound parity.  The odd-bound
    formula's prefactor is the even one times prod(1 + beta q_i)."""
    poly = tuple(PolyPlus(x, 1) for x in s.q)
    odd = _averages("Sp", SymbolSpec(poly), range((lmax + 1) // 2))
    even = _averages("Sp", SymbolSpec((GeomInv(s.beta, -1),) + poly), range(lmax // 2 + 1))
    lift = prod(1 + s.beta * x for x in s.q)
    return [lift * odd[l // 2] if l % 2 else even[l // 2] for l in range(lmax + 1)]


def _doubly_averages(s, lmax) -> Table:
    factors = (PolyPlus(s.alpha, 1),) + tuple(
        f for x in s.q for f in (PolyPlus(x, 1), PolyPlus(x, -1)))
    return _halved(_averages("U", SymbolSpec(factors), range(lmax // 2 + 1)), lmax)


def antidiagonal_odd_prefactors(q) -> dict[str, Fraction]:
    """Both candidate prefactors for the odd-bound anti-diagonal formula.

    'standard' uses prod_{i<j} (1 - q_i q_j) like every parallel formula;
    'printed' uses prod_{i<j} (1 - q_i q_{n+1-j}) as displayed in the source
    of the formula.  _antidiagonal_notes reports which one matches the exact
    law; they coincide for n = 1.
    """
    q = tuple(q)
    n = len(q)
    base = prod(1 - x * x for x in q)
    printed = base * prod(1 - q[i - 1] * q[n - j]
                          for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return {"standard": base * _upper_pair_product(q), "printed": printed}


def _antidiagonal_notes(s, exact_column: Table, second_column: Table) -> dict:
    """Both candidate prefactors of the odd-bound formula against the exact law.

    The two candidates differ in the index pairing of the cross terms; they
    agree for n = 1.  Whichever reproduces the exact law at every odd bound of
    the columns (bound 1 at least) is reported as 'resolved'; the mismatch of
    the other candidate is reported, not silently fixed.  The second column
    at an odd bound is the standard prefactor times the Sp average, so each
    candidate's value is rescaled from it.
    """
    candidates = antidiagonal_odd_prefactors(s.q)
    diffs = {name: [abs(exact_column[l] - pref / candidates["standard"] * second_column[l])
                    for l in range(1, len(exact_column), 2)]
             for name, pref in candidates.items()}
    matches = {name: not any(d) for name, d in diffs.items()}
    return {"odd_bound_prefactor": {
        "resolved": next((n for n in ("standard", "printed") if matches[n]), None),
        "matches": matches,
        "max_abs_diff": {n: float(max(d)) for n, d in diffs.items()},
        "prefactors": {n: format_rational(v) for n, v in candidates.items()},
    }}


VARIANTS: dict[str, Variant] = {
    "johansson": Variant(
        orbit=lambda n, i, j: {(i, j)},
        site=lambda s, i, j: ("geom", (float(s.a[i - 1] * s.b[j - 1]),)),
        prefactor=lambda s: _pair_product(s.a, s.b),
        exact=lambda s, lmax: cauchy_table(s.a, s.b, lmax),
        average=lambda s, lmax: _u_table(PolyPlus, s.a, s.b, lmax), method="toeplitz-U"),
    "bernoulli": Variant(
        orbit=lambda n, i, j: {(i, j)},
        site=lambda s, i, j: ("bernoulli", (float(s.a[i - 1] * s.b[j - 1]),)),
        prefactor=lambda s: 1 / _pair_product(s.a, tuple(-y for y in s.b)),
        exact=lambda s, lmax: dual_cauchy_table(s.a, s.b, lmax),
        average=lambda s, lmax: _u_table(GeomInv, s.a, s.b, lmax), method="toeplitz-U",
        binary=True),
    "antidiagonal": Variant(
        orbit=lambda n, i, j: {(i, j), (n + 1 - j, n + 1 - i)},
        site=lambda s, i, j: (("parity_geom", (float(s.q[i - 1]), float(s.beta)))
                              if i + j == s.n + 1
                              else ("geom", (float(s.q[i - 1] * s.q[s.n - j]),))),
        prefactor=lambda s: _upper_pair_product(s.q) * prod(
            (1 - x * x) / (1 + s.beta * x) for x in s.q),
        exact=lambda s, lmax: odd_part_table(s.q, s.beta, lmax),
        average=_antidiagonal_averages, method="sp-average",
        least_bound=1, notes=_antidiagonal_notes),
    "diagonal": Variant(
        orbit=lambda n, i, j: {(i, j), (j, i)},
        site=lambda s, i, j: ("geom", (float((s.alpha if i == j else s.q[j - 1]) * s.q[i - 1]),)),
        prefactor=lambda s: _upper_pair_product(s.q) * prod(1 - s.alpha * x for x in s.q),
        exact=lambda s, lmax: alternating_table(s.q, s.alpha, lmax),
        # the mean of O+(l) and O-(l); the last factor is det(1 + alpha U)
        average=lambda s, lmax: _averages("O", SymbolSpec(
            tuple(PolyPlus(x, 1) for x in s.q) + (PolyPlus(s.alpha, 1),)), range(lmax + 1)),
        method="o-average-mean"),
    "doublysymmetric": Variant(
        orbit=lambda n, i, j: {(i, j), (j, i), (n + 1 - j, n + 1 - i), (n + 1 - i, n + 1 - j)},
        site=_doubly_site,
        prefactor=lambda s: _pair_product(s.q, s.q) * prod(1 - s.alpha * x for x in s.q),
        exact=lambda s, lmax: _halved(cauchy_table(s.q, s.q + (s.alpha,), lmax // 2), lmax),
        average=_doubly_averages, method="toeplitz-U"),
    # The point-reflection law is a product of two square-lattice laws at the
    # halved bounds, so its average is over U(l // 2) x U((l + 1) // 2): both
    # routes read the square law at a = b = q, as Gram table or U averages.
    "pointreflection": Variant(
        orbit=lambda n, i, j: {(i, j), (n + 1 - i, n + 1 - j)},
        site=lambda s, i, j: ("geom", (float(_reflected(s, i) * _reflected(s, j)),)),
        prefactor=lambda s: _pair_product(s.q, s.q) ** 2,
        exact=_halves(lambda q, lmax: cauchy_table(q, q, lmax)),
        average=_halves(lambda q, lmax: _u_table(PolyPlus, q, q, lmax)),
        method="toeplitz-U-halves"),
}


def variant_of(spec: ModelSpec) -> Variant:
    return VARIANTS[spec.variant]


def _with_prefactor(spec: ModelSpec, route, lmax: int) -> Table:
    if lmax < 0:
        raise ValueError("l must be nonnegative")
    pref = variant_of(spec).prefactor(spec)
    return [pref * x for x in route(spec, lmax)]


def exact_table(spec: ModelSpec, lmax: int) -> Table:
    """[Pr(L <= l) for l = 0..lmax] from the bounded Schur sums: one Gram-determinant
    or Pfaffian table of order n (symfunc.cauchy_table and its siblings)."""
    return _with_prefactor(spec, variant_of(spec).exact, lmax)


def model_rmt_table(spec: ModelSpec, lmax: int) -> Table:
    """[Pr(L <= l) for l = 0..lmax] from the model's matrix-average formula, one
    determinant sweep per form (rmt._averages)."""
    return _with_prefactor(spec, variant_of(spec).average, lmax)

"""Independent witnesses for the production engines, used only by tests.

The production engine (symlpp.rmt) evaluates every Sp/O average as a
Toeplitz +- Hankel determinant and every U average as a Toeplitz determinant.
This module keeps one general engine that shares no code with those
determinants, so tests can check them against each other: exact_average
takes the same (family, l, symbol) as rmt.group_average and expands the Weyl
density and the polynomial factors of the symbol (times a SchurFactor, which
production averages do not carry) as an exact Laurent polynomial P in the
free angles.  Without a geometric factor the average is P's constant term;
one geometric factor (1 - c z^s)^-1 has exact Fourier coefficients g_k, and
the average is sum_e P_e prod_j g_{-e_j}, a Fraction either way.  The
expansion grows exponentially with the number of free angles, so more than
MAX_EXACT_ANGLES of them raise ValueError before anything is built, as does a
second geometric factor.

The Schur-average identities (sp_schur_identity, o_schur_identity,
o_component_reflection_gap) evaluate through this engine, so their reports
hold Fractions only.

Schur values are evaluated here over a whole partition box at once
(_schur_values, schur), each box checked against CELL_BUDGET.  With them the
bounded Schur sums that symlpp.symfunc takes as Gram determinants and
Pfaffians are summed term by term (box_cauchy_table, box_dual_cauchy_table,
box_weighted_table), and the point-reflection law is summed over self-dual
path families (pointreflection_selfdual_table: domino-tilable displacements
and their 2-quotients), the witness for both of its production routes.
antidiagonal_odd_prefactors gives the odd-bound anti-diagonal prefactor as
printed in the source of the formula and in its standard form.  Two
Pfaffian identities check numerics.pfaffian, through rational_pfaffian (the
integer Pfaffian of the matrix scaled by its lcm denominator): the closed
pairing evaluation of a sign-ratio matrix (pfaffian_sign_identity_check) and
the minor-sum expansion of Pf(A + B) (pfaffian_minor_sum_check).

The one-matrix references check the batch kernels and the correspondences:
last_passage and last_passage_bernoulli take the passage time of one matrix,
dual_rsk is the dual correspondence of a 0/1 matrix and evacuate is
Schuetzenberger evacuation.  The tableau witnesses check the combinatorics by
other routes: check_symmetry_lemmas the tableau side of each matrix symmetry,
greene_oracle Greene's theorem on the insertion shape by brute force over
site subsets (greene_multi reads the shape), evacuate_by_word evacuation by
inserting the reversed, complemented reading word (insertion_tableau),
schur_bialternant the Schur evaluator as a ratio of alternants, and
selfdual_schur_oracle the self-dual Schur functions by enumerating the
evacuation-fixed fillings (iter_ssyt).  They read partitions and matrices
through helpers that production does not need: conjugate, alternating_sum,
the entry, total and trace of a matrix, its reflections transpose,
anti_transpose and rotate180, and sample_matrix, which draws one matrix at a
time from a generator as lpp.sample_chunks draws a chunk.  No production
route imports this module; symfunc.pointreflection_selfdual_sum, kept for the
benchmark's tracer, imports it when called.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

import numpy as np

from .core import (InputError, IntMatrix, ModelSpec, Partition, box_parts, check_table_bound,
                   count_partitions_in_box, partitions_in_box, record)
from .lpp import _matrices, _site_plan
from .numerics import (GeomInv, PolyPlus, SymbolSpec, _check_skew, det_exact, pfaffian,
                       scaled)
from .rmt import _Structure, _structure
from .rsk import Tableau, TableauPair, _insert, rsk
from .symfunc import _pair_product, _upper_pair_product

# Most free angles the constant-term expander takes: at four, three linear
# factors over Sp(8) already take over a minute.
MAX_EXACT_ANGLES = 3


@record
class SchurFactor:
    """Class-function factor s_rho over all eigenvalues (forced real eigenvalues
    included), with `extra_vars` appended as further Schur variables; only the
    engine here averages it."""

    rho: Partition
    extra_vars: tuple[Fraction, ...] = ()


def _divisor(st: _Structure) -> int:
    """Normalisation of the Weyl density over the free angles."""
    return (2**st.pairs if st.paired else 1) * factorial(st.pairs) // (1 + st.halved)


def exact_average(family: str, l: int, symbol: SymbolSpec = SymbolSpec(()),
                  schur_factor: SchurFactor | None = None) -> Fraction:
    """Average of prod symbol(eigenvalue) over the family at size l, with at most
    one geometric factor, times the Schur factor if given, by constant-term
    extraction.  Family 'O' is the half-half mixture of O+ and O-."""
    if family == "O":
        return (exact_average("O+", l, symbol, schur_factor)
                + exact_average("O-", l, symbol, schur_factor)) / 2
    return _exact_average(_structure(family, l), symbol, schur_factor)


# ---------------------------------------------------------------------------
# Constant-term engine: multivariate Laurent polynomials
# ---------------------------------------------------------------------------


class _ZPoly:
    """Laurent polynomial in the angle variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    @staticmethod
    def constant(nvars: int, value) -> "_ZPoly":
        return _ZPoly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def monomial(nvars: int, var: int, power: int, coeff=1) -> "_ZPoly":
        e = [0] * nvars
        e[var] = power
        return _ZPoly(nvars, {tuple(e): Fraction(coeff)})

    def __add__(self, other):
        if not isinstance(other, _ZPoly):
            other = _ZPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return _ZPoly(self.nvars, out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _ZPoly):
            c = Fraction(other)
            return _ZPoly(self.nvars, {e: v * c for e, v in self.terms.items()})
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                out[e] = s
        return _ZPoly(self.nvars, out)

    __rmul__ = __mul__


def _density_zpoly(st: _Structure) -> _ZPoly:
    p = st.pairs
    out = _ZPoly.constant(p, 1)
    two = Fraction(2)
    for j in range(p):
        if st.single == "sin2":
            out = out * (_ZPoly.constant(p, two)
                         + _ZPoly.monomial(p, j, 2, -1) + _ZPoly.monomial(p, j, -2, -1))
        elif st.single == "one_minus":
            out = out * (_ZPoly.constant(p, two)
                         + _ZPoly.monomial(p, j, 1, -1) + _ZPoly.monomial(p, j, -1, -1))
        elif st.single == "one_plus":
            out = out * (_ZPoly.constant(p, two)
                         + _ZPoly.monomial(p, j, 1, 1) + _ZPoly.monomial(p, j, -1, 1))
    for j in range(p):
        for k in range(j + 1, p):
            diff = _ZPoly(p, {
                _exps(p, {j: 0}): two,
                _exps(p, {j: 1, k: -1}): Fraction(-1),
                _exps(p, {j: -1, k: 1}): Fraction(-1),
            })
            out = out * diff
            if st.paired:
                summ = _ZPoly(p, {
                    _exps(p, {j: 0}): two,
                    _exps(p, {j: 1, k: 1}): Fraction(-1),
                    _exps(p, {j: -1, k: -1}): Fraction(-1),
                })
                out = out * summ
    return out


def _exps(p: int, assignments: dict[int, int]) -> tuple[int, ...]:
    e = [0] * p
    for var, power in assignments.items():
        e[var] = power
    return tuple(e)


def _geometric_coefficients(st: _Structure, fac: GeomInv):
    """k -> Fourier coefficient g_k of the geometric factor on one free angle.

    Paired angles carry (1 - c z^s)^-1 (1 - c z^-s)^-1 = sum_k c^|k| z^k / (1 - c^2);
    an unpaired angle carries (1 - c z^s)^-1 = sum of c^|k| z^k over k of sign s or 0.
    """
    c, sign = fac.c, fac.exponent_sign
    if st.paired:
        scale = 1 / (1 - c * c)
        return lambda k: c ** abs(k) * scale
    return lambda k: c ** abs(k) if k * sign >= 0 else 0


def _exact_average(st: _Structure, symbol: SymbolSpec, schur_factor: SchurFactor | None
                   ) -> Fraction:
    """Expand density, polynomial factors and Schur factor as a Laurent polynomial
    P, and return sum_e P_e prod_j g(-e_j) / divisor, with g the coefficients of
    the geometric factor (g_k = [k = 0] without one): the constant term of P
    times the geometric series, exactly."""
    if st.pairs > MAX_EXACT_ANGLES:
        raise ValueError(f"constant-term expansion over {st.pairs} free angles exceeds "
                         f"the limit of {MAX_EXACT_ANGLES}")
    geometric = [fac for fac in symbol.factors if isinstance(fac, GeomInv)]
    if len(geometric) > 1:
        raise ValueError("constant-term witness takes at most one geometric factor")
    g = _geometric_coefficients(st, geometric[0]) if geometric else (lambda k: k == 0)
    p = st.pairs
    f = _density_zpoly(st)
    scalar = Fraction(1)
    for fac in symbol.factors:
        if isinstance(fac, GeomInv):
            for eps in st.forced:
                scalar /= 1 - fac.c * eps
            continue
        for j in range(p):
            f = f * (_ZPoly.constant(p, 1)
                     + _ZPoly.monomial(p, j, fac.exponent_sign, fac.c))
            if st.paired:
                f = f * (_ZPoly.constant(p, 1)
                         + _ZPoly.monomial(p, j, -fac.exponent_sign, fac.c))
        for eps in st.forced:
            scalar *= 1 + fac.c * eps
    if schur_factor is not None:
        eigs: list = []
        for j in range(p):
            eigs.append(_ZPoly.monomial(p, j, 1))
            if st.paired:
                eigs.append(_ZPoly.monomial(p, j, -1))
        eigs.extend(Fraction(eps) for eps in st.forced)
        eigs.extend(Fraction(x) for x in schur_factor.extra_vars)
        value = schur(schur_factor.rho, eigs)
        f = f * value if isinstance(value, _ZPoly) else f * Fraction(value)
    total = sum((c * prod(g(-k) for k in e) for e, c in f.terms.items()), Fraction(0))
    return total * scalar / _divisor(st)


# ---------------------------------------------------------------------------
# Partitions and matrices: conjugates, reflections, one-matrix draws
# ---------------------------------------------------------------------------


def conjugate(mu: Partition) -> Partition:
    """Transpose of the diagram: column j of mu has height #{k : mu_k >= j}."""
    if not mu.parts:
        return Partition()
    cols = [0] * mu.parts[0]
    for p in mu.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(tuple(cols))


def alternating_sum(mu: Partition) -> int:
    """Sum of parts with alternating signs, mu_1 - mu_2 + mu_3 - ..."""
    return sum(p if j % 2 == 0 else -p for j, p in enumerate(mu.parts))


def entry(X: IntMatrix, i: int, j: int) -> int:
    """Entry x_{i,j}: i-th row from the bottom, j-th column, both 1-based."""
    if not (1 <= i <= X.n_rows and 1 <= j <= X.n_cols):
        raise IndexError(f"({i},{j}) outside {X.n_rows}x{X.n_cols}")
    return X.rows[i - 1][j - 1]


def total(X: IntMatrix) -> int:
    return sum(sum(r) for r in X.rows)


def trace(X: IntMatrix) -> int:
    if X.n_rows != X.n_cols:
        raise ValueError("trace needs a square matrix")
    return sum(entry(X, i, i) for i in range(1, X.n_rows + 1))


def transpose(X: IntMatrix) -> IntMatrix:
    """x_{i,j} -> x_{j,i}; reflection in the diagonal i = j."""
    return IntMatrix(tuple(tuple(entry(X, j, i) for j in range(1, X.n_rows + 1))
                           for i in range(1, X.n_cols + 1)))


def anti_transpose(X: IntMatrix) -> IntMatrix:
    """x_{i,j} -> x_{n+1-j,n+1-i}; reflection in the anti-diagonal (square only)."""
    n = X.n_rows
    if n != X.n_cols:
        raise ValueError("anti-transpose needs a square matrix")
    return IntMatrix(tuple(tuple(entry(X, n + 1 - j, n + 1 - i) for j in range(1, n + 1))
                           for i in range(1, n + 1)))


def rotate180(X: IntMatrix) -> IntMatrix:
    """x_{i,j} -> x_{n_rows+1-i,n_cols+1-j}; point reflection through the centre."""
    return IntMatrix(tuple(tuple(reversed(r)) for r in reversed(X.rows)))


def sample_matrix(spec: ModelSpec, rng: np.random.Generator) -> IntMatrix:
    """One matrix from the ensemble; dependent entries filled by its symmetry."""
    rows = _matrices(_site_plan(spec), spec.matrix_shape, rng, 1)[0]
    return IntMatrix(tuple(map(tuple, reversed(rows))))


# ---------------------------------------------------------------------------
# Schur evaluation over a partition box
# ---------------------------------------------------------------------------

# Most cells one Schur table or box sweep may cover, checked before anything is
# built: schur(), the box sweeps below and the self-dual witness.  A max_part x
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
        raise InputError(f"partition box {max_part} x {max_length} holds {size} partitions "
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
# Bounded Schur sums over the partition box
# ---------------------------------------------------------------------------


def odd_part_count(mu: Partition) -> int:
    """#odd parts of mu, the alternating sum of mu' (alternating_sum(mu) counts
    the odd columns)."""
    return sum(p % 2 for p in mu.parts)


def _box_table(lmax: int, max_length: int, term) -> list[Fraction]:
    """Cumulative sums over mu_1 <= l, l = 0..lmax, of term(mu) over the
    lmax x max_length box, enumerated once."""
    _check_box(lmax, max_length)
    rows = [Fraction(0)] * (lmax + 1)
    for mu in partitions_in_box(lmax, max_length):
        rows[mu.part(1)] += term(mu)
    return list(accumulate(rows))


def box_cauchy_table(a, b, lmax: int) -> list[Fraction]:
    """[sum of s_mu(a) s_mu(b) over mu_1 <= l, for l = 0..lmax]."""
    length = min(len(a), len(b))
    sa, sb = _schur_values(tuple(a), lmax, length), _schur_values(tuple(b), lmax, length)
    return _box_table(lmax, length, lambda mu: sa[mu.parts] * sb[mu.parts])


def box_dual_cauchy_table(a, b, lmax: int) -> list[Fraction]:
    """[sum of s_{mu'}(a) s_mu(b) over mu_1 <= l, for l = 0..lmax], saturating
    at lmax >= len(a)."""
    check_table_bound(lmax)
    width = min(lmax, len(a))
    sa, sb = _schur_values(tuple(a), len(b), width), _schur_values(tuple(b), width, len(b))
    table = _box_table(width, len(b), lambda mu: sa[conjugate(mu).parts] * sb[mu.parts])
    return table + table[-1:] * (lmax + 1 - len(table))


def box_weighted_table(q, weight, exponent, lmax: int) -> list[Fraction]:
    """[sum of weight ** exponent(mu) s_mu(q) over mu_1 <= l, for l = 0..lmax]."""
    sq, weight = _schur_values(tuple(q), lmax, len(q)), Fraction(weight)
    return _box_table(lmax, len(q), lambda mu: weight ** exponent(mu) * sq[mu.parts])


# ---------------------------------------------------------------------------
# Dominoes, 2-quotients and the self-dual point-reflection law
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


def pointreflection_selfdual_table(q, lmax: int) -> list[Fraction]:
    """[Pr(L <= l) for l = 0..lmax] of the point-reflection model from self-dual path sums.

    Independent of both production routes (the squared Gram tables and the
    U averages at the halved bounds): enumerates displacements mu with
    mu_1 <= lmax directly, once, and squares their generating functions.  The
    square of s_{q0}(q) s_{q1}(q) at the scaled points carries
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


def antidiagonal_odd_prefactors(q) -> dict[str, Fraction]:
    """Both candidate prefactors of the odd-bound anti-diagonal formula.

    'standard' is prod(1 - q_i^2) prod_{i<j} (1 - q_i q_j), as in every parallel
    formula; 'printed' pairs the cross terms as (1 - q_i q_{n+1-j}), as the
    source of the formula displays them.  They coincide for n = 1; the tests
    pin that only 'standard' reproduces the exact law.
    """
    q = tuple(q)
    n = len(q)
    base = prod(1 - x * x for x in q)
    printed = base * prod(1 - q[i - 1] * q[n - j]
                          for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return {"standard": base * _upper_pair_product(q), "printed": printed}


# ---------------------------------------------------------------------------
# Schur-average identities
# ---------------------------------------------------------------------------


def sp_schur_identity(rho: Partition, beta: Fraction, l: int, odd_case: bool) -> dict:
    """Evaluate both sides of the symplectic Schur-average identity.

    Even case: average of s_rho on the 2l eigenvalues against the
    |1 - beta e^{-i theta}|^{-2} weight.  Odd case: beta joins the eigenvalue
    list as an extra Schur variable and the weight is plain.  Both sides equal
    beta ** (alternating sum of rho), with 0**0 = 1.
    """
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise ValueError("beta must lie in [0, 1)")
    limit = 2 * l + 1 if odd_case else 2 * l
    if rho.length > limit:
        raise ValueError(f"rho has more than {limit} parts")
    if odd_case:
        symbol, factor = SymbolSpec(()), SchurFactor(rho, (beta,))
    else:
        symbol, factor = SymbolSpec((GeomInv(beta, -1),)), SchurFactor(rho)
    lhs = exact_average("Sp", l, symbol, factor)
    rhs = beta ** alternating_sum(rho)
    return {"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs)}


def o_schur_identity(rho: Partition, alpha: Fraction, l: int) -> dict:
    """Averages of det(1 + alpha U) s_rho(U) over both orthogonal components.

    With n_odd odd parts in rho (padded to length l), the predictions are
    alpha**n_odd + alpha**(l - n_odd) on the plus component, the difference on
    the minus component, and alpha**n_odd for the half-half mixture.
    """
    alpha = Fraction(alpha)
    if rho.length > l:
        raise ValueError("rho has more parts than eigenvalues")
    det = SymbolSpec((PolyPlus(alpha, 1),))
    actual = {key: exact_average(family, l, det, SchurFactor(rho))
              for key, family in (("plus", "O+"), ("minus", "O-"), ("mean", "O"))}
    n_odd = odd_part_count(rho)
    expected = {
        "plus": alpha**n_odd + alpha ** (l - n_odd),
        "minus": alpha**n_odd - alpha ** (l - n_odd),
        "mean": alpha**n_odd,
    }
    report = {"expected": expected, "actual": actual}
    for key in expected:
        report[f"abs_diff_{key}"] = abs(actual[key] - expected[key])
    return report


def o_component_reflection_gap(rho: Partition, alpha: Fraction, l_odd: int) -> Fraction:
    """Difference in the change-of-variables relation between the two odd
    components: <det(1+aU)s_rho>_{O-(l)} - (-1)^|rho| <det(1-aU)s_rho>_{O+(l)}."""
    if l_odd % 2 == 0:
        raise ValueError("relation is for odd sizes")
    alpha = Fraction(alpha)
    left = exact_average("O-", l_odd, SymbolSpec((PolyPlus(alpha, 1),)), SchurFactor(rho))
    right = exact_average("O+", l_odd, SymbolSpec((PolyPlus(-alpha, 1),)), SchurFactor(rho))
    sign = -1 if rho.weight % 2 else 1
    return left - sign * right


# ---------------------------------------------------------------------------
# Pfaffian identities
# ---------------------------------------------------------------------------


def rational_pfaffian(matrix) -> Fraction:
    """Pf(A) of a skew-symmetric rational matrix: Pf(D A) / D^(n/2), with D A the
    integer matrix scaled by the lcm D of the denominators."""
    m = _check_skew(matrix)
    n = len(m)
    d, flat = scaled(x for row in m for x in row)
    return Fraction(pfaffian([flat[j * n:(j + 1) * n] for j in range(n)]), d ** (n // 2))


def pfaffian_sign_identity_check(x, f_values) -> bool:
    """Check the closed pairing evaluation of Pf[(f_j/f_k)^sgn(x_j-x_k) sgn(x_j-x_k)].

    x is an even-length list of distinct integers, f_values the matching
    positive rationals f(x_j).  The right-hand side pairs positions sorted by
    decreasing x value and carries the sign of that sorting permutation.
    """
    x = [int(v) for v in x]
    f = [Fraction(v) for v in f_values]
    if len(x) != len(f):
        raise ValueError("x and f_values must align")
    if len(x) % 2 == 1:
        raise ValueError("need an even number of points")
    if len(set(x)) != len(x):
        raise ValueError("duplicate x entries")
    if any(v <= 0 for v in f):
        raise ValueError("f values must be positive")
    n = len(x)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            sgn = 1 if x[j] > x[k] else -1
            ratio = f[j] / f[k] if sgn == 1 else f[k] / f[j]
            mat[j][k] = sgn * ratio
    lhs = rational_pfaffian(mat)

    order = sorted(range(n), key=lambda j: -x[j])
    inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                     if order[a] > order[b])
    rhs = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
    for j in range(0, n, 2):
        rhs *= f[order[j]] / f[order[j + 1]]
    return lhs == rhs


def pfaffian_minor_sum_check(a, b) -> bool:
    """Check Pf(A+B) as a signed sum of complementary-minor Pfaffians.

    Enumerates every even-size index subset S, with weights
    (-1)^(sum of the 1-based indices in S minus |S|/2).
    """
    ma = _check_skew(a)
    mb = _check_skew(b)
    n = len(ma)
    if n != len(mb):
        raise ValueError("matrices must have equal dimension")
    if n % 2 == 1 or n > 8:
        raise ValueError("need even dimension at most 8")
    total = 0
    full = list(range(n))
    for mask in range(1 << n):
        subset = tuple(i for i in full if mask >> i & 1)
        if len(subset) % 2:
            continue
        complement = tuple(i for i in full if not mask >> i & 1)
        weight = sum(i + 1 for i in subset) - len(subset) // 2
        term = (rational_pfaffian([[ma[i][j] for j in subset] for i in subset])
                * rational_pfaffian([[mb[i][j] for j in complement] for i in complement]))
        total = total + term if weight % 2 == 0 else total - term
    lhs = rational_pfaffian([[ma[i][j] + mb[i][j] for j in range(n)] for i in range(n)])
    return lhs == total


# ---------------------------------------------------------------------------
# Passage times and correspondences, one matrix at a time
# ---------------------------------------------------------------------------


def last_passage(X: IntMatrix) -> int:
    """Maximum weight of an up/right path from (1,1) to the top-right corner."""
    prev: list[int] = []
    for i, row in enumerate(X.rows):
        current: list[int] = []
        for j, x in enumerate(row):
            if i > 0 and j > 0:
                base = max(prev[j], current[j - 1])
            elif i > 0:
                base = prev[j]
            elif j > 0:
                base = current[j - 1]
            else:
                base = 0
            current.append(x + base)
        prev = current
    return prev[-1]


def last_passage_bernoulli(X: IntMatrix) -> int:
    """Maximum weight over north / north-east paths from the bottom row to the top.

    One entry per row, start and end columns free; each successive entry sits
    north or north-east of the previous one, i.e. the column sequence is
    weakly increasing.  (Restricting the eastward moves to single columns
    breaks the dual-correspondence identity; this is the reading under which
    the law matches the bounded dual Cauchy sum.)
    """
    for row in X.rows:
        for x in row:
            if x not in (0, 1):
                raise ValueError(f"binary matrix required, found entry {x}")
    scores = list(X.rows[0])
    for i in range(1, X.n_rows):
        row = X.rows[i]
        best = 0
        carried = []
        for j in range(X.n_cols):
            best = max(best, scores[j])
            carried.append(row[j] + best)
        scores = carried
    return max(scores)


def _transpose_rows(rows: list[list[int]]) -> list[tuple[int, ...]]:
    if not rows:
        return []
    cols: list[list[int]] = [[] for _ in range(len(rows[0]))]
    for r in rows:
        for j, x in enumerate(r):
            cols[j].append(x)
    return [tuple(c) for c in cols]


def dual_rsk(X: IntMatrix) -> TableauPair:
    """Dual correspondence for 0/1 matrices.

    For an m x n binary matrix the result has shape(p) conjugate to shape(q):
    p records row indices (content bound m) on the conjugate shape, q holds
    column indices (content bound n), and shape(q)_1 <= m always.
    """
    rows_strict: list[list[int]] = []
    record: list[list[int]] = []
    for i, row in enumerate(X.rows, 1):
        for j, x in enumerate(row, 1):
            if x not in (0, 1):
                raise ValueError(f"dual correspondence needs 0/1 entries, got {x} at ({i},{j})")
            if x == 0:
                continue
            r = _insert(rows_strict, j, bisect_left)
            if r == len(record):
                record.append([i])
            else:
                record[r].append(i)
    p = Tableau(tuple(tuple(r) for r in record), X.n_rows)
    q = Tableau(tuple(_transpose_rows(rows_strict)), X.n_cols)
    return TableauPair(p, q)


def evacuate(t: Tableau) -> Tableau:
    """Schuetzenberger evacuation: a shape-preserving involution sending letter k to n+1-k.

    Repeatedly removes the corner entry at (1,1), slides the hole to an outer
    corner with inward jeu-de-taquin moves (ties go to the cell below so column
    strictness survives), and writes the complemented removed letter at the
    vacated cell of the output.
    """
    n = t.content_bound
    work = [list(r) for r in t.rows]
    out: list[list] = [[None] * len(r) for r in t.rows]
    remaining = sum(len(r) for r in work)
    while remaining:
        removed = work[0][0]
        r, c = 0, 0
        while True:
            right = work[r][c + 1] if c + 1 < len(work[r]) else None
            below = work[r + 1][c] if r + 1 < len(work) and c < len(work[r + 1]) else None
            if right is None and below is None:
                break
            if below is not None and (right is None or below <= right):
                work[r][c] = below
                r += 1
            else:
                work[r][c] = right
                c += 1
        work[r].pop()
        if not work[r]:
            work.pop()
        out[r][c] = n + 1 - removed
        remaining -= 1
    return Tableau(tuple(tuple(r) for r in out), n)


# ---------------------------------------------------------------------------
# Tableau witnesses: the symmetry lemmas, Greene's theorem, Schur evaluation
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def check_symmetry_lemmas(X: IntMatrix, symmetry_class: str) -> dict[str, bool]:
    """Verify the tableau-side consequences of a matrix symmetry.

    symmetry_class is one of 'diagonal', 'antidiagonal', 'doublysymmetric',
    'pointreflection'.  The matrix must actually have the claimed symmetry
    (checked, error if not); the returned mapping gives one boolean per lemma:

      p_equals_q          X = X^T forces P = Q
      trace_alt_sum       X = X^T forces trace(X) = mu_1 - mu_2 + mu_3 - ...
      odd_counts          X = X^R forces #odd anti-diagonal entries
                          = #odd parts of mu = alternating_sum(mu')
      q_is_evacuated_p    X = X^R forces Q = evacuate(P)
      p_evacuation_fixed  X = X^T = X^R forces evacuate(P) = P
      all_parts_even      even anti-diagonal entries force an even shape
      q_evacuation_fixed  point reflection forces evacuate(Q) = Q
    """
    if symmetry_class not in ("diagonal", "antidiagonal", "doublysymmetric", "pointreflection"):
        raise ValueError(f"no symmetry lemmas for class {symmetry_class!r}")
    n = X.n_rows
    _require(n == X.n_cols, "symmetry lemmas need a square matrix")
    if symmetry_class in ("diagonal", "doublysymmetric"):
        _require(X == transpose(X), "matrix is not symmetric about the diagonal")
    if symmetry_class in ("antidiagonal", "doublysymmetric"):
        _require(X == anti_transpose(X), "matrix is not symmetric about the anti-diagonal")
    if symmetry_class == "doublysymmetric":
        _require(all(entry(X, i, n + 1 - i) % 2 == 0 for i in range(1, n + 1)),
                 "anti-diagonal entries must be even")
    if symmetry_class == "pointreflection":
        _require(X == rotate180(X), "matrix is not point-reflection symmetric")

    pair = rsk(X)
    mu = pair.p.shape
    report: dict[str, bool] = {}

    if symmetry_class in ("diagonal", "doublysymmetric"):
        report["p_equals_q"] = pair.p == pair.q
        report["trace_alt_sum"] = trace(X) == alternating_sum(mu)
    if symmetry_class in ("antidiagonal", "doublysymmetric"):
        odd_anti = sum(entry(X, i, n + 1 - i) % 2 for i in range(1, n + 1))
        odd_parts = sum(p % 2 for p in mu.parts)
        report["odd_counts"] = odd_anti == odd_parts == alternating_sum(conjugate(mu))
        report["q_is_evacuated_p"] = pair.q == evacuate(pair.p)
    if symmetry_class == "doublysymmetric":
        report["p_evacuation_fixed"] = evacuate(pair.p) == pair.p
        report["all_parts_even"] = all(p % 2 == 0 for p in mu.parts)
    if symmetry_class == "pointreflection":
        report["p_evacuation_fixed"] = evacuate(pair.p) == pair.p
        report["q_evacuation_fixed"] = evacuate(pair.q) == pair.q
    return report


def greene_multi(X: IntMatrix, l: int) -> int:
    """Sum of the first l parts of the insertion shape of X."""
    if l < 1:
        raise ValueError("l must be at least 1")
    shape = rsk(X).p.shape
    return sum(shape.parts[:l])


def _antichain_width(points: list[tuple[int, int]]) -> int:
    """Largest antichain of lattice sites in the product order."""
    pts = sorted(points)
    best = [0] * len(pts)
    for idx, (_, j) in enumerate(pts):
        longest = 0
        for prev in range(idx):
            if pts[prev][1] > j and best[prev] > longest:
                longest = best[prev]
        best[idx] = longest + 1
    return max(best, default=0)


@lru_cache(maxsize=8)
def _site_subset_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^(n*n) site subsets of the n x n grid with their antichain widths."""
    sites = [(i, j) for i in range(n) for j in range(n)]
    count = 1 << len(sites)
    masks = np.zeros((count, len(sites)), dtype=np.int64)
    widths = np.zeros(count, dtype=np.int64)
    for mask in range(count):
        chosen = [sites[t] for t in range(len(sites)) if mask >> t & 1]
        widths[mask] = _antichain_width(chosen)
        for t in range(len(sites)):
            if mask >> t & 1:
                masks[mask, t] = 1
    return masks, widths


def greene_oracle(X: IntMatrix, l: int) -> int:
    """Brute force: best total weight of a site set whose antichains have size <= l.

    By Dilworth such sets are exactly the unions of at most l vertex-disjoint
    monotone chains.  Enumeration-guarded to square matrices with n <= 4.
    """
    if X.n_rows != X.n_cols or X.n_rows > 4:
        raise ValueError("oracle guard: square matrices with n <= 4 only")
    if l < 1:
        raise ValueError("l must be at least 1")
    masks, widths = _site_subset_tables(X.n_rows)
    flat = np.array([x for row in X.rows for x in row], dtype=np.int64)
    sums = masks @ flat
    return int(sums[widths <= l].max())


def _word_of(t: Tableau) -> list[int]:
    """Row reading word, bottom row first, left to right."""
    word = []
    for r in reversed(t.rows):
        word.extend(r)
    return word


def insertion_tableau(word, content_bound: int) -> Tableau:
    rows: list[list[int]] = []
    for x in word:
        _insert(rows, x, bisect_right)
    return Tableau(tuple(tuple(r) for r in rows), content_bound)


def evacuate_by_word(t: Tableau) -> Tableau:
    """Independent route to evacuation: insert the reversed, complemented reading word."""
    n = t.content_bound
    return insertion_tableau([n + 1 - x for x in reversed(_word_of(t))], n)


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

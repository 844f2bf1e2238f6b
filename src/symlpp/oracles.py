"""Independent witnesses for the group averages of symlpp.rmt.

The production engine (symlpp.rmt) evaluates every Sp/O average as a
Toeplitz +- Hankel determinant and every U average as a Toeplitz determinant.
This module keeps two general engines that share no code with those
determinants, so tests can check them against each other:

* exact_average expands the Weyl density and a polynomial class function (a
  Schur factor included) as exact Laurent polynomials in the free angles and
  returns the constant term as a Fraction.  The expansion grows exponentially
  with the number of free angles, so more than MAX_EXACT_ANGLES of them raise
  ValueError before anything is built.
* quadrature_average integrates any class function with the product
  trapezoidal rule on a uniform grid whose node count exceeds the integrand's
  trigonometric degree, so polynomial parts are integrated exactly and series
  parts contribute below the requested tolerance.  The grid size is checked
  against _QUAD_POINT_BUDGET before anything is allocated.

The Schur-average identities (sp_schur_identity, o_schur_identity,
o_component_reflection_gap) evaluate through these engines.

The bounded Schur sums that symlpp.symfunc takes as Gram determinants and
Pfaffians are also summed here term by term over the partition box
(box_cauchy_table, box_dual_cauchy_table, box_weighted_table), each box
checked against symfunc.CELL_BUDGET.  Two Pfaffian identities check
numerics.pfaffian: the closed pairing evaluation of a sign-ratio matrix
(pfaffian_sign_identity_check) and the minor-sum expansion of Pf(A + B)
(pfaffian_minor_sum_check).  Production code does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import exp, factorial

import numpy as np

from .core import (BudgetError, Partition, alternating_sum, check_table_bound, conjugate,
                   partitions_in_box)
from .numerics import GeomInv, PolyPlus, SymbolSpec, _check_skew, pfaffian
from .rmt import UNIT, ClassFunctionSpec, GroupSpec, _Structure, _structure, _value_at_point
from .symfunc import _check_box, _schur_values, schur

# Most free angles the constant-term expander takes: at four, three linear
# factors over Sp(8) already take over a minute.
MAX_EXACT_ANGLES = 3

# Largest tensor grid quadrature builds, in points; each array over the grid
# holds one complex128 per point.
_QUAD_POINT_BUDGET = 1 << 22

_SINGLE_DEGREE = {"sin2": 2, "one_minus": 1, "one_plus": 1, None: 0}


@dataclass(frozen=True)
class ExpCos:
    """Symbol factor exp(c * (z + 1/z) / 2), which only quadrature integrates."""

    c: float


def _bessel_order(c: float, tol: float, norm_product: float) -> int:
    """Last Bessel order kept for exp(c cos theta), the tail below tol."""
    c = abs(c)
    n = 0
    bound = 2 * exp(c * c / 4) * norm_product
    while bound * (c / 2) ** (n + 1) / factorial(min(n + 1, 170)) >= tol:
        n += 1
        if n > 500:
            break
    return n


def _mean_of_components(engine, group: GroupSpec, cf: ClassFunctionSpec, *args):
    """Family 'O' is the half-half mixture of O+ and O-; other families pass through."""
    if group.family != "O":
        return engine(_structure(group.family, group.l), cf, *args)
    plus = _mean_of_components(engine, GroupSpec("O+", group.l), cf, *args)
    minus = _mean_of_components(engine, GroupSpec("O-", group.l), cf, *args)
    if isinstance(plus, Fraction) and isinstance(minus, Fraction):
        return (plus + minus) / 2
    return (float(plus) + float(minus)) / 2.0


def exact_average(group: GroupSpec, cf: ClassFunctionSpec = UNIT) -> Fraction:
    """Average of a polynomial class function by constant-term extraction."""
    return _mean_of_components(_exact_average, group, cf)


def quadrature_average(group: GroupSpec, cf: ClassFunctionSpec = UNIT,
                       tol: float = 1e-12):
    """Average of any class function by product trapezoidal quadrature (a float,
    or a Fraction when there is no free angle and the class function is rational)."""
    return _mean_of_components(_quad_average, group, cf, tol)


def _average(group: GroupSpec, cf: ClassFunctionSpec, tol: float):
    """Constant terms for polynomial class functions, quadrature for the rest."""
    if cf.effective_symbol().is_polynomial():
        return exact_average(group, cf)
    return quadrature_average(group, cf, tol)


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

    def __pow__(self, k: int):
        out = _ZPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))


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


def _exact_average(st: _Structure, cf: ClassFunctionSpec) -> Fraction:
    if st.pairs > MAX_EXACT_ANGLES:
        raise ValueError(f"constant-term expansion over {st.pairs} free angles exceeds "
                         f"the limit of {MAX_EXACT_ANGLES}")
    symbol = cf.effective_symbol()
    if not symbol.is_polynomial():
        raise ValueError("exact engine needs a polynomial class function")
    p = st.pairs
    f = _density_zpoly(st)
    for j in range(p):
        for fac in symbol.factors:
            f = f * (_ZPoly.constant(p, 1)
                     + _ZPoly.monomial(p, j, fac.exponent_sign, fac.c))
            if st.paired:
                f = f * (_ZPoly.constant(p, 1)
                         + _ZPoly.monomial(p, j, -fac.exponent_sign, fac.c))
    scalar = Fraction(1)
    for eps in st.forced:
        for fac in symbol.factors:
            scalar *= 1 + fac.c * eps
    if cf.schur_rho is not None:
        eigs: list = []
        for j in range(p):
            eigs.append(_ZPoly.monomial(p, j, 1))
            if st.paired:
                eigs.append(_ZPoly.monomial(p, j, -1))
        eigs.extend(Fraction(eps) for eps in st.forced)
        eigs.extend(Fraction(x) for x in cf.schur_extra_vars)
        value = schur(cf.schur_rho, eigs)
        f = f * value if isinstance(value, _ZPoly) else f * Fraction(value)
    return f.constant_term() * scalar / st.divisor


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------


def _evaluate(symbol: SymbolSpec, z):
    """Value of the symbol at a point (or numpy array of points) on the unit circle."""
    out = 1
    for f in symbol.factors:
        if isinstance(f, ExpCos):
            out = out * np.exp(f.c * (z + 1 / z) / 2)
            continue
        zz = z if f.exponent_sign == 1 else 1 / z
        if isinstance(f, PolyPlus):
            out = out * (1 + float(f.c) * zz)
        else:
            out = out / (1 - float(f.c) * zz)
    return out


def _norm_product(symbol: SymbolSpec) -> float:
    """Sup norm bound of the symbol on the unit circle: the product of its factors'."""
    out = 1.0
    for f in symbol.factors:
        if isinstance(f, PolyPlus):
            out *= 1 + abs(float(f.c))
        elif isinstance(f, GeomInv):
            out *= 1 / (1 - abs(float(f.c)))
        else:
            out *= exp(abs(f.c))
    return out


def _truncation_order(f, tol: float, norm_product: float) -> int:
    """Fourier degree kept for one factor: the tail of a geometric or exponential
    series below tol, relative to the symbol's norm product."""
    if isinstance(f, PolyPlus):
        return 1
    if isinstance(f, ExpCos):
        return _bessel_order(f.c, tol, norm_product)
    c = abs(float(f.c))
    n = 0
    bound = norm_product / (1 - c)
    while bound * c ** (n + 1) >= tol:
        n += 1
        if n > 100_000:
            raise ArithmeticError("geometric truncation failed to converge")
    return n


def _angle_degree(st: _Structure, cf: ClassFunctionSpec, tol: float) -> int:
    symbol = cf.effective_symbol()
    norm = _norm_product(symbol)
    sym_deg = sum(_truncation_order(fac, tol, norm) for fac in symbol.factors)
    degree = _SINGLE_DEGREE[st.single] + (st.pairs - 1) * (2 if st.paired else 1)
    degree += sym_deg * (2 if st.paired else 1)
    if cf.schur_rho is not None:
        degree += cf.schur_rho.weight
    return max(degree, 1)


def _forced_only_average(st: _Structure, cf: ClassFunctionSpec) -> Fraction:
    """No free angles: the average is a finite product over forced eigenvalues."""
    symbol = cf.effective_symbol()
    value = Fraction(1)
    for eps in st.forced:
        value *= _value_at_point(symbol, eps)
    if cf.schur_rho is not None:
        eigs = tuple(Fraction(eps) for eps in st.forced) + tuple(
            Fraction(x) for x in cf.schur_extra_vars)
        value *= schur(cf.schur_rho, eigs)
    return value / st.divisor


def _quad_average(st: _Structure, cf: ClassFunctionSpec, tol: float) -> float:
    symbol = cf.effective_symbol()
    p = st.pairs
    if p == 0:
        try:
            return _forced_only_average(st, cf)
        except ValueError:
            pass
        value = 1.0
        for eps in st.forced:
            value *= float(np.real(_evaluate(symbol, complex(eps))))
        if cf.schur_rho is not None:
            eigs = tuple(float(eps) for eps in st.forced) + tuple(
                float(x) for x in cf.schur_extra_vars)
            value *= float(schur(cf.schur_rho, eigs))
        return value / st.divisor
    scalar = 1.0
    for eps in st.forced:
        scalar *= float(np.real(_evaluate(symbol, complex(eps))))

    nodes = 2 * _angle_degree(st, cf, tol) + 2
    if nodes**p > _QUAD_POINT_BUDGET:
        raise BudgetError(f"quadrature grid of {nodes}^{p} points exceeds the budget of "
                         f"{_QUAD_POINT_BUDGET} points")
    theta = 2 * np.pi * np.arange(nodes) / nodes
    grids = np.meshgrid(*([theta] * p), indexing="ij")
    zs = [np.exp(1j * g.ravel()) for g in grids]

    weight = np.ones_like(zs[0])
    for j in range(p):
        z = zs[j]
        if st.single == "sin2":
            weight = weight * (2 - z**2 - z**-2)
        elif st.single == "one_minus":
            weight = weight * (2 - z - 1 / z)
        elif st.single == "one_plus":
            weight = weight * (2 + z + 1 / z)
    for j in range(p):
        for k in range(j + 1, p):
            weight = weight * (2 - zs[j] / zs[k] - zs[k] / zs[j])
            if st.paired:
                weight = weight * (2 - zs[j] * zs[k] - 1 / (zs[j] * zs[k]))

    values = np.ones_like(zs[0])
    for j in range(p):
        values = values * _evaluate(symbol, zs[j])
        if st.paired:
            values = values * _evaluate(symbol, np.conj(zs[j]))
    if cf.schur_rho is not None:
        eigs: list = []
        for j in range(p):
            eigs.append(zs[j])
            if st.paired:
                eigs.append(np.conj(zs[j]))
        eigs.extend(complex(eps) for eps in st.forced)
        eigs.extend(complex(x) for x in cf.schur_extra_vars)
        values = values * schur(cf.schur_rho, eigs)

    mean = (weight * values).mean()
    return float(np.real(mean)) * scalar / st.divisor


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
# Schur-average identities
# ---------------------------------------------------------------------------


def _as_diff(lhs, rhs) -> float:
    return abs(float(lhs) - float(rhs))


def sp_schur_identity(rho: Partition, beta: Fraction, l: int,
                      odd_case: bool, tol: float = 1e-12) -> dict:
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
        cf = ClassFunctionSpec(schur_rho=rho, schur_extra_vars=(beta,))
    else:
        cf = ClassFunctionSpec(symbol=SymbolSpec((GeomInv(beta, -1),)), schur_rho=rho)
    lhs = _average(GroupSpec("Sp", l), cf, tol)
    rhs = beta ** alternating_sum(rho)
    exact = isinstance(lhs, Fraction)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": Fraction(0) if exact and lhs == rhs else _as_diff(lhs, rhs),
        "exact": exact,
    }


def o_schur_identity(rho: Partition, alpha: Fraction, l: int,
                     tol: float = 1e-12) -> dict:
    """Averages of det(1 + alpha U) s_rho(U) over both orthogonal components.

    With n_odd odd parts in rho (padded to length l), the predictions are
    alpha**n_odd + alpha**(l - n_odd) on the plus component, the difference on
    the minus component, and alpha**n_odd for the half-half mixture.
    """
    alpha = Fraction(alpha)
    if rho.length > l:
        raise ValueError("rho has more parts than eigenvalues")
    cf = ClassFunctionSpec(det_alpha=alpha, schur_rho=rho)
    actual = {key: _average(GroupSpec(family, l), cf, tol)
              for key, family in (("plus", "O+"), ("minus", "O-"), ("mean", "O"))}
    n_odd = odd_part_count(rho)
    expected = {
        "plus": alpha**n_odd + alpha ** (l - n_odd),
        "minus": alpha**n_odd - alpha ** (l - n_odd),
        "mean": alpha**n_odd,
    }
    report = {"expected": expected, "actual": actual}
    for key in expected:
        a, e = actual[key], expected[key]
        if isinstance(a, Fraction) and a == e:
            report[f"abs_diff_{key}"] = Fraction(0)
        else:
            report[f"abs_diff_{key}"] = _as_diff(a, e)
    return report


def o_component_reflection_gap(rho: Partition, alpha: Fraction, l_odd: int,
                               tol: float = 1e-12):
    """Difference in the change-of-variables relation between the two odd
    components: <det(1+aU)s_rho>_{O-(l)} - (-1)^|rho| <det(1-aU)s_rho>_{O+(l)}."""
    if l_odd % 2 == 0:
        raise ValueError("relation is for odd sizes")
    alpha = Fraction(alpha)
    left = _average(GroupSpec("O-", l_odd),
                    ClassFunctionSpec(det_alpha=alpha, schur_rho=rho), tol)
    right = _average(GroupSpec("O+", l_odd),
                     ClassFunctionSpec(det_alpha=-alpha, schur_rho=rho), tol)
    sign = -1 if rho.weight % 2 else 1
    if isinstance(left, Fraction) and isinstance(right, Fraction):
        return left - sign * right
    return float(left) - sign * float(right)


# ---------------------------------------------------------------------------
# Pfaffian identities
# ---------------------------------------------------------------------------


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
    lhs = pfaffian(mat)

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
        term = pfaffian([[ma[i][j] for j in subset] for i in subset]) * pfaffian(
            [[mb[i][j] for j in complement] for i in complement])
        total = total + term if weight % 2 == 0 else total - term
    lhs = pfaffian([[ma[i][j] + mb[i][j] for j in range(n)] for i in range(n)])
    return lhs == total

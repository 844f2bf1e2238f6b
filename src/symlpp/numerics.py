"""Exact linear algebra, circle symbols, and their Fourier coefficients.

Symbols are multiplicative descriptions of scalar functions on the unit circle,
built from two factor kinds: (1 + c z^s) and (1 - c z^s)^-1 with |c| < 1.  Both
keep exact rational Fourier data (the geometric ones divide exactly when they
share one exponent sign).  leading_minors gives every leading minor of a
rational matrix from one integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import BudgetError, Rational


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyPlus:
    """Factor (1 + c * z^sign)."""

    c: Fraction
    exponent_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.exponent_sign not in (1, -1):
            raise ValueError("exponent sign must be +1 or -1")


@dataclass(frozen=True)
class GeomInv:
    """Factor (1 - c * z^sign)^(-1) with |c| < 1 so the series converges."""

    c: Fraction
    exponent_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.exponent_sign not in (1, -1):
            raise ValueError("exponent sign must be +1 or -1")
        if not abs(self.c) < 1:
            raise ValueError(f"geometric factor needs |c| < 1, got {self.c}")


Factor = PolyPlus | GeomInv


@dataclass(frozen=True)
class SymbolSpec:
    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(f for f in self.factors if f.c != 0))

    def is_polynomial(self) -> bool:
        return all(isinstance(f, PolyPlus) for f in self.factors)

    def times(self, *extra: Factor) -> "SymbolSpec":
        return SymbolSpec(self.factors + tuple(extra))


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


def fourier_coefficients(s: SymbolSpec, k_min: int, k_max: int) -> dict[int, Rational]:
    """Exact coefficients of z^k, k_min <= k <= k_max.

    Polynomial factors convolve exactly.  Geometric factors (1 - c z^s)^-1 of
    one exponent sign s divide exactly, out_k = acc_k + c out_{k-s} from the
    far end of the polynomial part to the window: the coefficient of z^k in
    prod(1 + b_j z) / prod(1 - a_i / z) is the finite sum sum_s e_s(b) h_{s-k}(a).
    """
    if k_min > k_max:
        raise ValueError("empty coefficient range")
    geometric = [f for f in s.factors if isinstance(f, GeomInv)]
    if len({f.exponent_sign for f in geometric}) > 1:
        raise ValueError("no finite expansion: geometric factors of both exponent signs")
    acc: dict[int, Fraction] = {0: Fraction(1)}
    for f in s.factors:
        if isinstance(f, PolyPlus):
            out = dict(acc)
            for k, v in acc.items():
                out[k + f.exponent_sign] = out.get(k + f.exponent_sign, 0) + f.c * v
            acc = out
    for f in geometric:
        # powers only move away from the far end, so nothing past the window returns
        end = (max(acc), k_min - 1) if f.exponent_sign == -1 else (min(acc), k_max + 1)
        out, prev = {}, Fraction(0)
        for k in range(*end, f.exponent_sign):
            prev = acc.get(k, 0) + f.c * prev
            out[k] = prev
        acc = out or {0: Fraction(0)}
    return {k: acc.get(k, Fraction(0)) for k in range(k_min, k_max + 1)}


# ---------------------------------------------------------------------------
# Leading minors, exact determinant and Pfaffian
# ---------------------------------------------------------------------------

def scaled(xs) -> tuple[int, tuple[int, ...]]:
    """(D, D * xs) with D the lcm of the denominators, so D * xs are integers."""
    xs = tuple(Fraction(x) for x in xs)
    d = lcm(*(x.denominator for x in xs)) if xs else 1
    return d, tuple(int(x * d) for x in xs)


# Bound on the elimination of leading_minors, checked before any matrix is
# built: order n over b-bit integer entries holds n^2 minors of at most
# n (b + log2(n) / 2) bits each (Hadamard).  It admits order 200 at 28 bits.
MINOR_BIT_BUDGET = 1 << 28


def check_minor_budget(order: int, coefficients=()) -> None:
    """Raise BudgetError unless a sweep of this order, over entries that are sums or
    differences of two of these coefficients, fits in MINOR_BIT_BUDGET.  With no
    coefficients the order alone is checked, at 1-bit entries."""
    bits = max((abs(x).bit_length() for x in scaled(coefficients)[1]), default=0) + 1
    cost = order**3 * (bits + order.bit_length() // 2)
    if cost > MINOR_BIT_BUDGET:
        raise BudgetError(f"determinant sweep of order {order} over {bits}-bit entries needs "
                          f"about {cost} bits, over the budget of {MINOR_BIT_BUDGET} bits")


def leading_minors(rows) -> list[Fraction]:
    """[D_0, ..., D_n]: every leading principal minor of a rational matrix, in one pass.

    One fraction-free (Bareiss) elimination without pivoting runs on the
    matrix scaled to integers by the lcm d of its denominators; its k-th pivot
    is d^k D_k.  A zero pivot raises ArithmeticError: callers' minors are positive.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("leading minors need a square matrix")
    d, flat = scaled(x for row in rows for x in row)
    m = [list(flat[j * n:(j + 1) * n]) for j in range(n)]
    minors = [Fraction(1)]
    prev = 1
    for k in range(n):
        pivot, row_k = m[k][k], m[k]
        if pivot == 0:
            raise ArithmeticError(f"leading minor of order {k + 1} is zero")
        minors.append(Fraction(pivot, d ** (k + 1)))
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return minors


def det_exact(matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination; all divisions exact."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _check_skew(matrix) -> list[list]:
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("Pfaffian needs a square matrix")
    if any(m[j][k] != -m[k][j] for j in range(n) for k in range(j, n)):
        raise ValueError("Pfaffian needs a skew-symmetric matrix (zero diagonal)")
    return m


def pfaffian(matrix) -> Fraction:
    """Pfaffian of an even-dimensional skew-symmetric rational matrix; Pf(A)^2 = det(A).

    Exact elimination: row 0 pairs with its first nonzero partner k, and
    Pf(A) = (-1)^(k-1) a_0k Pf(B), B the Schur complement
    B_ij = a_ij - (a_0i a_kj - a_0j a_ki) / a_0k on the other rows, in order.
    """
    m = [[Fraction(x) for x in row] for row in _check_skew(matrix)]
    if len(m) % 2 == 1:
        raise ValueError("Pfaffian needs even dimension")
    result = Fraction(1)
    while m:
        k = next((k for k in range(1, len(m)) if m[0][k]), None)
        if k is None:
            return Fraction(0)
        a, rest = m[0][k], [i for i in range(1, len(m)) if i != k]
        result *= a if k % 2 else -a
        m = [[m[i][j] - (m[0][i] * m[k][j] - m[0][j] * m[k][i]) / a for j in rest] for i in rest]
    return result


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

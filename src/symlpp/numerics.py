"""Exact linear algebra, circle symbols, and their Fourier coefficients.

Symbols are multiplicative descriptions of scalar functions on the unit circle,
built from two factor kinds: (1 + c z^s) and (1 - c z^s)^-1 with |c| < 1.  Both
keep exact rational Fourier data (the geometric ones divide exactly when they
share one exponent sign).  leading_minors gives every leading minor of a
rational matrix, and pfaffian its Pfaffian, each from one fraction-free
elimination over integers that divides exactly by the previous pivot.
det_exact is the Fraction reference.  The Pfaffian identities that check
pfaffian live in symlpp.oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import BudgetError, Rational, record


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@record
class PolyPlus:
    """Factor (1 + c * z^sign)."""

    c: Fraction
    exponent_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.exponent_sign not in (1, -1):
            raise ValueError("exponent sign must be +1 or -1")


@record
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


@record
class SymbolSpec:
    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not all(isinstance(f, Factor) for f in self.factors):
            raise TypeError("symbol factors must be PolyPlus or GeomInv")
        object.__setattr__(self, "factors", tuple(f for f in self.factors if f.c != 0))

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
    xs = [Fraction(x) for x in xs]
    d = lcm(*(x.denominator for x in xs))
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


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

    Fraction-free elimination on d A, d the lcm of the denominators: row 0 pairs
    with its first nonzero partner k, and every other entry becomes the sub-Pfaffian
    (a m_ij - m_0i m_kj + m_0j m_ki) // prev, a = m_0k and prev the previous pivot,
    so the division is exact (Knuth 1996) and the last pivot is d^(n/2) Pf(A) up to
    the sign (-1)^(k-1) of each pairing.
    """
    m = _check_skew(matrix)
    n = len(m)
    if n % 2 == 1:
        raise ValueError("Pfaffian needs even dimension")
    d, flat = scaled(x for row in m for x in row)
    m, sign, prev = [list(flat[j * n:(j + 1) * n]) for j in range(n)], 1, 1
    while m:
        k = next((k for k in range(1, len(m)) if m[0][k]), None)
        if k is None:
            return Fraction(0)
        a, rest, sign = m[0][k], [i for i in range(1, len(m)) if i != k], sign if k % 2 else -sign
        m, prev = [[(a * m[i][j] - m[0][i] * m[k][j] + m[0][j] * m[k][i]) // prev for j in rest]
                   for i in rest], a
    return Fraction(sign * prev, d ** (n // 2))

"""Eigenvalue averages over the classical compact groups and the model formulas.

One engine computes every average, as a determinant in exact Fourier
coefficients.

* Over U(l), the average of a multiplicative symbol is the Toeplitz
  determinant of its Fourier coefficients (u_average, Heine's identity).
* Over Sp(2l), O+(l) and O-(l), multiplicative class functions made of
  (1 + c z^s) factors (the det(1 + alpha U) factor included) and at most one
  geometric factor (1 - c z^s)^-1 have the Toeplitz +- Hankel determinant
  forms of Johansson (Ann. Math. 145, 1997) and Baik & Rains (Duke Math. J.
  109, 2001) in the exact Fourier coefficients of g(z) = f(z) f(1/z).  The
  result is a rational of determinant order at most l.

Every matrix average a model formula asks for has one of these forms;
group_average raises ValueError for any other class function.  Two general
engines (constant-term extraction and tensor quadrature) live in
symlpp.oracles as independent witnesses for tests.

Conventions: an average over a size-0 group is 1, and 0**0 = 1 wherever a
weight parameter is 0 with a vanishing exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .core import ModelSpec, Partition
from .numerics import GeomInv, PolyPlus, SymbolSpec, det_exact, fourier_coefficients
from .symfunc import _upper_pair_product, exact_distribution, model_prefactor

GROUP_FAMILIES = ("U", "Sp", "O+", "O-", "O")


@dataclass(frozen=True)
class GroupSpec:
    """Family plus the size convention used in the formulas: Sp(2l) has l pairs,
    O+(l)/O-(l) split by the parity of l, and 'O' means the half-half mixture."""

    family: str
    l: int

    def __post_init__(self):
        if self.family not in GROUP_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.l < 0:
            raise ValueError("size parameter must be nonnegative")


@dataclass(frozen=True)
class ClassFunctionSpec:
    """Multiplicative class function: a per-eigenvalue symbol, an optional
    det(1 + alpha U) factor, and an optional Schur factor over all eigenvalues
    (forced real eigenvalues included), possibly with extra appended variables."""

    symbol: SymbolSpec = SymbolSpec(())
    det_alpha: Fraction | None = None
    schur_rho: Partition | None = None
    schur_extra_vars: tuple[Fraction, ...] = ()

    def effective_symbol(self) -> SymbolSpec:
        if self.det_alpha is None:
            return self.symbol
        return self.symbol.times(PolyPlus(Fraction(self.det_alpha), 1))

    def is_polynomial(self) -> bool:
        return self.effective_symbol().is_polynomial()


UNIT = ClassFunctionSpec()


# ---------------------------------------------------------------------------
# Eigenvalue structure of each family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Structure:
    pairs: int                    # number of free angles
    paired: bool                  # each free angle carries z and its conjugate
    forced: tuple[int, ...]       # real eigenvalues fixed by the component
    single: str | None            # per-angle density factor
    pair_kind: str                # "A" -> |z_j - z_k|^2 only, "BC" -> both factors
    divisor: int


def _structure(family: str, l: int) -> _Structure:
    if family == "U":
        return _Structure(l, False, (), None, "A", factorial(l))
    if family == "Sp":
        return _Structure(l, True, (), "sin2", "BC", 2**l * factorial(l))
    if family == "O+":
        if l % 2 == 0:
            m = l // 2
            divisor = 2 ** (m - 1) * factorial(m) if m else 1
            return _Structure(m, True, (), None, "BC", divisor)
        m = (l - 1) // 2
        return _Structure(m, True, (1,), "one_minus", "BC", 2**m * factorial(m))
    if family == "O-":
        if l % 2 == 0:
            m = l // 2
            if m == 0:
                return _Structure(0, True, (), None, "BC", 1)
            return _Structure(m - 1, True, (1, -1), "sin2", "BC",
                              2 ** (m - 1) * factorial(m - 1))
        m = (l - 1) // 2
        return _Structure(m, True, (-1,), "one_plus", "BC", 2**m * factorial(m))
    raise ValueError(f"no eigenvalue structure for {family!r}")


# ---------------------------------------------------------------------------
# Determinant engine: Toeplitz +- Hankel forms of multiplicative averages
# ---------------------------------------------------------------------------

# Hankel shift and sign of det(g_{j-k} + sign * g_{j+k+shift}), by the per-angle
# density factor of the component.
_HANKEL = {"sin2": (2, -1), "one_minus": (1, -1), "one_plus": (1, 1), None: (0, 1)}


def _has_determinant_form(cf: ClassFunctionSpec) -> bool:
    """Multiplicative, rational and with at most one geometric factor."""
    if cf.schur_rho is not None:
        return False
    factors = cf.effective_symbol().factors
    return (all(isinstance(f, (PolyPlus, GeomInv)) for f in factors)
            and sum(isinstance(f, GeomInv) for f in factors) <= 1)


def _pair_coefficients(symbol: SymbolSpec, k_max: int) -> list[Fraction]:
    """Exact Fourier coefficients g_0..g_{k_max} of g(z) = f(z) f(1/z).

    Each polynomial factor contributes (1 + cz)(1 + c/z) whatever its exponent
    sign.  A geometric factor contributes sum_k c^|k| z^k / (1 - c^2), so
    g_k = sum_a P_a c^|k-a| / (1 - c^2) over the polynomial part P, in closed
    form instead of a truncated series.
    """
    poly = {0: Fraction(1)}
    geom = None
    for fac in symbol.factors:
        if isinstance(fac, GeomInv):
            geom = fac.c
            continue
        out: dict[int, Fraction] = {}
        for a, v in poly.items():
            for shift, w in ((-1, fac.c), (0, 1 + fac.c * fac.c), (1, fac.c)):
                out[a + shift] = out.get(a + shift, 0) + v * w
        poly = out
    if geom is None:
        return [poly.get(k, Fraction(0)) for k in range(k_max + 1)]
    scale = 1 / (1 - geom * geom)
    return [scale * sum(v * geom ** abs(k - a) for a, v in poly.items())
            for k in range(k_max + 1)]


def _determinant_average(st: _Structure, symbol: SymbolSpec) -> Fraction:
    """Sp/O+-/O- average of prod f(eigenvalue) as a Toeplitz +- Hankel determinant.

    Sp(2l): det(g_{j-k} - g_{j+k+2}); O+(2m): 1/2 det(g_{j-k} + g_{j+k});
    O+-(2m+1): f(+-1) det(g_{j-k} -+ g_{j+k+1}); O-(2m): f(1) f(-1)
    det(g_{j-k} - g_{j+k+2}) of order m - 1.  The order is the number of free
    angles and each forced eigenvalue contributes its point value.
    """
    shift, sign = _HANKEL[st.single]
    p = st.pairs
    g = _pair_coefficients(symbol, max(2 * p - 2 + shift, 0))
    value = det_exact([[g[abs(j - k)] + sign * g[j + k + shift] for k in range(p)]
                       for j in range(p)])
    if st.single is None and p:
        value /= 2
    for eps in st.forced:
        value *= _value_at_point(symbol, eps)
    return value


def _value_at_point(symbol: SymbolSpec, eps: int) -> Fraction:
    """Exact value of a rational symbol at the real eigenvalue eps = +-1."""
    value = Fraction(1)
    for fac in symbol.factors:
        if isinstance(fac, PolyPlus):
            value *= 1 + fac.c * eps
        elif isinstance(fac, GeomInv):
            value /= 1 - fac.c * eps
        else:
            raise ValueError("exponential factor is not rational at a point")
    return value


def group_average(group: GroupSpec, cf: ClassFunctionSpec = UNIT):
    """Average of the class function over the group's eigenvalue measure.

    U averages are Toeplitz determinants (u_average).  Sp and O averages of
    multiplicative class functions built from (1 + c z^s) factors,
    det(1 + alpha U) and at most one geometric factor are exact Toeplitz +-
    Hankel determinants (a Fraction).  Any other class function, a Schur
    factor among them, raises ValueError.  Family 'O' averages the two
    components.
    """
    if group.family == "O":
        plus = group_average(GroupSpec("O+", group.l), cf)
        minus = group_average(GroupSpec("O-", group.l), cf)
        return (plus + minus) / 2
    if group.family == "U" and cf.schur_rho is None:
        return u_average(cf.effective_symbol(), group.l)
    if group.family == "U" or not _has_determinant_form(cf):
        raise ValueError("class function has no determinant form: it has a Schur factor, "
                         "an exponential factor or several geometric factors")
    return _determinant_average(_structure(group.family, group.l), cf.effective_symbol())


def sp_average(cf: ClassFunctionSpec, l: int):
    return group_average(GroupSpec("Sp", l), cf)


def o_average(cf: ClassFunctionSpec, l: int, component: str = "mean"):
    family = {"plus": "O+", "minus": "O-", "mean": "O"}[component]
    return group_average(GroupSpec(family, l), cf)


def u_average(s: SymbolSpec, l: int, tol: float = 1e-12):
    """U(l) average of a multiplicative symbol as a Toeplitz determinant.

    The (j,k) entry is the (j-k)-th Fourier coefficient of the symbol; exact
    rational whenever the symbol is polynomial, float otherwise.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        return Fraction(1) if s.is_polynomial() else 1.0
    coeffs, exact = fourier_coefficients(s, -(l - 1), l - 1, tol)
    rows = [[coeffs[j - k] for k in range(l)] for j in range(l)]
    if exact:
        return det_exact(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


# ---------------------------------------------------------------------------
# Model distributions through matrix averages
# ---------------------------------------------------------------------------


def johansson_symbol(a, b) -> SymbolSpec:
    factors = tuple(PolyPlus(x, -1) for x in a) + tuple(PolyPlus(x, 1) for x in b)
    return SymbolSpec(factors)


def antidiagonal_odd_prefactors(q) -> dict[str, Fraction]:
    """Both candidate prefactors for the odd-bound anti-diagonal formula.

    'standard' uses prod_{i<j} (1 - q_i q_j) like every parallel formula;
    'printed' uses prod_{i<j} (1 - q_i q_{n+1-j}) as displayed in the source
    of the formula.  The verification harness reports which one matches the
    exact law; they coincide for n = 1.
    """
    q = tuple(q)
    n = len(q)
    base = Fraction(1)
    for x in q:
        base *= 1 - x * x
    printed = base
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            printed *= 1 - q[i - 1] * q[n - j]
    return {"standard": base * _upper_pair_product(q), "printed": printed}


def rmt_method(spec: ModelSpec) -> str:
    return {
        "johansson": "toeplitz-U",
        "bernoulli": "toeplitz-U-series",
        "antidiagonal": "sp-average",
        "diagonal": "o-average-mean",
        "doublysymmetric": "toeplitz-U",
        "pointreflection": "exact-factorization (no separate matrix-average formula)",
    }[spec.variant]


def model_rmt_distribution(spec: ModelSpec, l: int, tol: float = 1e-12):
    """Pr(L <= l) through the model's matrix-average formula.

    Exact (Fraction) for every route but one: the square-lattice and doubly
    symmetric Toeplitz determinants, and the anti-diagonal (Sp) and diagonal
    (O) Toeplitz +- Hankel determinants, the even anti-diagonal bound at
    beta > 0 included, whose geometric factor has closed-form coefficients.
    Float for the Bernoulli series symbol only.  The point-reflection law
    factors into square-lattice laws instead of having its own average; this
    dispatches to the exact engine.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    v = spec.variant
    if v == "pointreflection":
        return exact_distribution(spec, l)
    if v == "antidiagonal" and l % 2 == 1:
        pref = antidiagonal_odd_prefactors(spec.q)["standard"]
    else:
        pref = model_prefactor(spec)
    if v == "johansson":
        return pref * u_average(johansson_symbol(spec.a, spec.b), l, tol)
    if v == "bernoulli":
        # Polynomial factors carry the column parameters and the geometric
        # inverses the row parameters; the transposed assignment reproduces the
        # length-bounded sum instead of the width-bounded law.
        symbol = SymbolSpec(tuple(PolyPlus(y, 1) for y in spec.b)
                            + tuple(GeomInv(x, -1) for x in spec.a))
        value = u_average(symbol, l, tol)
        return float(pref) * value if not isinstance(value, Fraction) else pref * value
    if v == "antidiagonal":
        factors = tuple(PolyPlus(x, 1) for x in spec.q)
        if l % 2 == 0:
            factors = (GeomInv(spec.beta, -1),) + factors
        return pref * sp_average(ClassFunctionSpec(symbol=SymbolSpec(factors)), l // 2)
    if v == "diagonal":
        cf = ClassFunctionSpec(symbol=SymbolSpec(tuple(PolyPlus(x, 1) for x in spec.q)),
                               det_alpha=spec.alpha)
        return pref * o_average(cf, l, "mean")
    # doublysymmetric
    factors = (PolyPlus(spec.alpha, 1),)
    for x in spec.q:
        factors += (PolyPlus(x, 1), PolyPlus(x, -1))
    return pref * u_average(SymbolSpec(factors), l // 2, tol)

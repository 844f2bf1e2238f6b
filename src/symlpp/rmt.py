"""Eigenvalue averages over the classical compact groups and the model formulas.

An average is a function of (family, l, symbol): the family U, Sp, O+, O- or
O (the half-half mixture of O+ and O-), its size convention l (Sp(2l) has l
pairs; O+(l) and O-(l) split by the parity of l) and a multiplicative symbol
f, averaged as prod f(eigenvalue).  One engine computes every average, as a
determinant in exact Fourier coefficients.

* Over U(l), the average of a rational multiplicative symbol ((1 + c z^s)
  factors and geometric factors (1 - c z^s)^-1 of one exponent sign) is the
  Toeplitz determinant of its exact Fourier coefficients (Heine; Gessel 1990).
* Over Sp(2l), O+(l) and O-(l), symbols made of (1 + c z^s) factors (a
  det(1 + alpha U) factor is PolyPlus(alpha, 1)) and at most one geometric
  factor (1 - c z^s)^-1 have the Toeplitz +- Hankel determinant forms of
  Johansson (Ann. Math. 145, 1997) and Baik & Rains (Duke Math. J. 109, 2001)
  in the exact Fourier coefficients of g(z) = f(z) f(1/z).

The determinant at each size is a leading minor of the matrix at the largest
size, so one integer elimination (numerics.leading_minors) gives a whole table
of rationals (_averages) from coefficients scaled once; each model's formula
calls it from its record in symlpp.variants, whose model_rmt_table mirrors
exact_table.  What has no such form raises ValueError where its coefficients
are built: a second geometric factor in _pair_coefficients, geometric factors
of both exponent signs in fourier_coefficients; _structure refuses an unknown
family or a negative size.  An independent witness (constant-term extraction)
lives in symlpp.oracles for the tests.

Conventions: an average over a size-0 group is 1, and 0**0 = 1 wherever a
weight parameter is 0 with a vanishing exponent.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ModelSpec, record
from .numerics import (
    GeomInv,
    PolyPlus,
    SymbolSpec,
    check_minor_budget,
    fourier_coefficients,
    leading_minors,
    scaled,
)


# ---------------------------------------------------------------------------
# Eigenvalue structure of each family
# ---------------------------------------------------------------------------

# Hankel shift and sign of det(g_{j-k} + sign * g_{j+k+shift}), by the per-angle
# density factor of the component.
_HANKEL = {"sin2": (2, -1), "one_minus": (1, -1), "one_plus": (1, 1), None: (0, 1)}


@record
class _Structure:
    pairs: int                    # number of free angles
    paired: bool                  # each free angle carries z and its conjugate
    forced: tuple[int, ...]       # real eigenvalues fixed by the component
    single: str | None            # per-angle density factor

    @property
    def halved(self) -> bool:
        """O+(2m), m >= 1: its Toeplitz + Hankel determinant is twice the average."""
        return self.paired and self.single is None and self.pairs > 0

    @property
    def hankel(self) -> tuple[int, int] | None:
        """(shift, sign) of the Hankel part; None for U, whose form is Toeplitz only."""
        return _HANKEL[self.single] if self.paired else None


def _structure(family: str, l: int) -> _Structure:
    """Unpaired angles (U) have the density |z_j - z_k|^2 only, paired ones both factors."""
    if l < 0:
        raise ValueError(f"group size must be nonnegative, got {l}")
    m = l // 2
    if family in ("U", "Sp"):
        return _Structure(l, family == "Sp", (), "sin2" if family == "Sp" else None)
    if family == "O+":
        return _Structure(m, True, (1,), "one_minus") if l % 2 else _Structure(m, True, (), None)
    if family == "O-":
        if l % 2:
            return _Structure(m, True, (-1,), "one_plus")
        return _Structure(m - 1, True, (1, -1), "sin2") if m else _Structure(0, True, (), None)
    raise ValueError(f"no eigenvalue structure for {family!r}")


# ---------------------------------------------------------------------------
# Determinant engine: leading minors of Toeplitz (+- Hankel) matrices
# ---------------------------------------------------------------------------


def _pair_coefficients(symbol: SymbolSpec, k_max: int) -> list[Fraction]:
    """Exact Fourier coefficients g_0..g_{k_max} of g(z) = f(z) f(1/z).

    Each polynomial factor contributes (1 + cz)(1 + c/z) whatever its exponent
    sign.  A geometric factor contributes sum_k c^|k| z^k / (1 - c^2), so
    g_k = sum_a P_a c^|k-a| / (1 - c^2) over the polynomial part P, in closed
    form instead of a truncated series.  A second geometric factor has no
    such form and raises ValueError.
    """
    poly = {0: Fraction(1)}
    geom = None
    for fac in symbol.factors:
        if isinstance(fac, GeomInv):
            if geom is not None:
                raise ValueError("no determinant form: more than one geometric factor "
                                 "over Sp or O")
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


def _sweep(hankel: tuple[int, int] | None, symbol: SymbolSpec, order: int) -> list[Fraction]:
    """[D_0, ..., D_order] of det(f_{j-k}) (hankel None) or det(g_{|j-k|} + sign g_{j+k+shift}).

    The budget is checked on the order alone before any coefficient is
    computed, then on the coefficients scaled once to integers c = d f.
    """
    check_minor_budget(order)
    if hankel is None:
        d, c = scaled(fourier_coefficients(symbol, -order, order).values())
        check_minor_budget(order, c)
        rows = [[c[order + j - k] for k in range(order)] for j in range(order)]
    else:
        shift, sign = hankel
        d, c = scaled(_pair_coefficients(symbol, max(2 * order - 2 + shift, 0)))
        check_minor_budget(order, c)
        rows = [[c[abs(j - k)] + sign * c[j + k + shift] for k in range(order)]
                for j in range(order)]
    return [Fraction(minor, d**k) for k, minor in enumerate(leading_minors(rows))]


def _averages(family: str, symbol: SymbolSpec, sizes) -> list[Fraction]:
    """Averages of prod f(eigenvalue) over the family at each size, one sweep per form.

    U(l): det(f_{j-k}) (Heine).  Sp(2l): det(g_{j-k} - g_{j+k+2});
    O+(2m): 1/2 det(g_{j-k} + g_{j+k}); O+-(2m+1): f(+-1) det(g_{j-k} -+
    g_{j+k+1}); O-(2m): f(1) f(-1) det(g_{j-k} - g_{j+k+2}) of order m - 1.
    The order is the number of free angles and each forced eigenvalue
    contributes its point value.  Family 'O' averages the two components.
    """
    if family == "O":
        return [(plus + minus) / 2 for plus, minus in
                zip(_averages("O+", symbol, sizes), _averages("O-", symbol, sizes))]
    orders: dict = {}
    for l in sizes:
        st = _structure(family, l)
        orders[st.hankel] = max(orders.get(st.hankel, 0), st.pairs)
    sweeps = {form: _sweep(form, symbol, order) for form, order in orders.items()}
    values = []
    for l in sizes:
        st = _structure(family, l)
        value = sweeps[st.hankel][st.pairs]
        if st.halved:
            value /= 2
        for eps in st.forced:
            value *= _value_at_point(symbol, eps)
        values.append(value)
    return values


def _value_at_point(symbol: SymbolSpec, eps: int) -> Fraction:
    """Exact value of a rational symbol at the real eigenvalue eps = +-1."""
    value = Fraction(1)
    for fac in symbol.factors:
        if isinstance(fac, PolyPlus):
            value *= 1 + fac.c * eps
        else:
            value /= 1 - fac.c * eps
    return value


def group_average(family: str, l: int, symbol: SymbolSpec = SymbolSpec(())) -> Fraction:
    """Average of prod symbol(eigenvalue) over the family at size l, a Fraction."""
    return _averages(family, symbol, [l])[0]


def u_average(s: SymbolSpec, l: int) -> Fraction:
    """U(l) average of a rational symbol: the Toeplitz determinant of its coefficients."""
    return group_average("U", l, s)


# ---------------------------------------------------------------------------
# Model distributions through matrix averages
# ---------------------------------------------------------------------------


def model_rmt_distribution(spec: ModelSpec, l: int) -> Fraction:
    """Pr(L <= l) through the matrix-average formula: variants.model_rmt_table(spec, l)[l]."""
    from .variants import model_rmt_table

    return model_rmt_table(spec, l)[l]

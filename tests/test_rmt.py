import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import factorial, fsum

import pytest

import symlpp
from symlpp.core import ModelSpec, Partition, partitions_in_box
from symlpp.harness import toeplitz_bessel
from symlpp.numerics import GeomInv, PolyPlus, SymbolSpec
from symlpp.rmt import _averages, group_average, model_rmt_distribution, u_average
from symlpp.oracles import (
    SchurFactor,
    exact_average,
    o_component_reflection_gap,
    o_schur_identity,
    schur,
    sp_schur_identity,
)
from symlpp.symfunc import exact_distribution
from symlpp.variants import antidiagonal_odd_prefactors


def test_normalizations_both_engines():
    for family, lmax in (("U", 3), ("Sp", 3), ("O+", 5), ("O-", 5), ("O", 5)):
        for l in range(lmax + 1):
            exact = exact_average(family, l)
            determinant = group_average(family, l)
            assert exact == determinant == 1, (family, l)


def test_u_average_examples():
    assert u_average(SymbolSpec(()), 5) == 1
    a, b = F(1, 3), F(1, 5)
    symbol = SymbolSpec((PolyPlus(a, -1), PolyPlus(b, 1)))
    assert u_average(symbol, 1) == 1 + a * b
    assert u_average(symbol, 2) == 1 + a * b + (a * b) ** 2
    assert u_average(symbol, 0) == 1


def test_u_average_agrees_with_weyl_constant_terms():
    a, b = F(1, 3), F(2, 5)
    symbol = SymbolSpec((PolyPlus(a, -1), PolyPlus(b, 1), PolyPlus(F(1, 7), 1)))
    for l in (1, 2, 3):
        toeplitz = u_average(symbol, l)
        assert toeplitz == exact_average("U", l, symbol)


def test_sp_average_examples():
    assert group_average("Sp", 2) == 1
    assert exact_average("Sp", 2, schur_factor=SchurFactor(Partition())) == 1
    # pair products of a linear symbol expand through bounded dual pairing sums:
    # the average of prod |1+q e^{i theta}|^2 picks out the shapes whose
    # conjugate averages to 1, i.e. the even shapes
    q = F(1, 2)
    lhs = group_average("Sp", 1, SymbolSpec((PolyPlus(q, 1),)))
    rhs = F(0)
    for mu in partitions_in_box(2, 1):
        coeff = exact_average("Sp", 1, schur_factor=SchurFactor(Partition(
            tuple(sorted((p for p in _conj(mu)), reverse=True)))))
        rhs += schur(mu, (q,)) * coeff
    assert lhs == rhs


def _conj(mu):
    if not mu.parts:
        return ()
    cols = [0] * mu.parts[0]
    for p in mu.parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def test_sp_schur_average_vanishing_pattern():
    # with no weight, the Schur average over conjugate pairs is 1 exactly when
    # every column has even length, else 0
    for rho in partitions_in_box(3, 4):
        value = exact_average("Sp", 2, schur_factor=SchurFactor(rho))
        expect = 1 if all(c % 2 == 0 for c in _conj(rho)) else 0
        assert value == expect, rho.parts


def test_o_average_forced_eigenvalues():
    alpha = F(1, 3)
    det = SymbolSpec((PolyPlus(alpha, 1),))
    assert group_average("O-", 1, det) == 1 - alpha
    assert group_average("O+", 1, det) == 1 + alpha
    assert group_average("O+", 2, det) == 1 + alpha**2
    assert group_average("O-", 2, det) == 1 - alpha**2
    assert group_average("O", 2, det) == 1
    assert group_average("O", 0, det) == 1


def test_sp_schur_identity():
    rep = sp_schur_identity(Partition(), F(1, 2), 1, odd_case=False)
    assert rep["lhs"] == rep["rhs"] == 1
    # zero weight with zero alternating sum hits the 0**0 = 1 convention
    rep = sp_schur_identity(Partition((2, 2)), F(0), 2, odd_case=False)
    assert rep["rhs"] == 1 and rep["lhs"] == 1
    rep = sp_schur_identity(Partition((1,)), F(1, 2), 1, odd_case=False)
    assert rep["rhs"] == F(1, 2)
    assert rep["abs_diff"] == 0
    rep = sp_schur_identity(Partition((2, 1)), F(1, 3), 1, odd_case=True)
    assert rep["rhs"] == F(1, 3)
    assert rep["abs_diff"] == 0
    with pytest.raises(ValueError):
        sp_schur_identity(Partition((1, 1, 1)), F(1, 3), 1, odd_case=False)


def test_o_schur_identity():
    rep = o_schur_identity(Partition(), F(1, 4), 2)
    assert rep["actual"]["plus"] == 1 + F(1, 16)
    assert rep["actual"]["minus"] == 1 - F(1, 16)
    assert rep["actual"]["mean"] == 1
    rep = o_schur_identity(Partition((1,)), F(1, 3), 2)
    assert rep["actual"]["mean"] == F(1, 3)
    for key in ("plus", "minus", "mean"):
        assert float(rep[f"abs_diff_{key}"]) == 0
    with pytest.raises(ValueError):
        o_schur_identity(Partition((1, 1, 1)), F(1, 3), 2)


def test_o_component_reflection():
    for rho in ((), (1,), (2, 1)):
        for l in (1, 3):
            if len(rho) > l:
                continue
            gap = o_component_reflection_gap(Partition(rho), F(1, 3), l)
            assert gap == 0


def test_model_rmt_examples():
    m = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),))
    assert model_rmt_distribution(m, 1) == F(15, 16)
    m = ModelSpec("bernoulli", a=(F(1, 3),), b=(F(1, 2),))
    assert model_rmt_distribution(m, 1) == 1
    q, beta = F(1, 2), F(1, 3)
    m = ModelSpec("antidiagonal", q=(q,), beta=beta)
    assert model_rmt_distribution(m, 0) == (1 - q * q) / (1 + beta * q)
    with pytest.raises(ValueError):
        model_rmt_distribution(m, -1)


def test_pointreflection_dispatches_to_exact():
    m = ModelSpec("pointreflection", q=(F(1, 3), F(1, 4)))
    for l in range(4):
        assert model_rmt_distribution(m, l) == exact_distribution(m, l)


def test_antidiagonal_prefactor_candidates():
    # the candidates coincide for n = 1 and split for n >= 2 with unequal q
    q1 = (F(1, 2),)
    both = antidiagonal_odd_prefactors(q1)
    assert both["standard"] == both["printed"]
    q2 = (F(1, 2), F(1, 5))
    both = antidiagonal_odd_prefactors(q2)
    assert both["standard"] != both["printed"]
    # only the standard pairing reproduces the exact law
    spec = ModelSpec("antidiagonal", q=q2, beta=F(1, 3))
    symbol = SymbolSpec(tuple(PolyPlus(x, 1) for x in q2))
    for l in (1, 3, 5):
        average = group_average("Sp", l // 2, symbol)
        exact = exact_distribution(spec, l)
        assert both["standard"] * average == exact
        assert both["printed"] * average != exact


def test_geominv_average_exactness_tagging():
    # Sp(2): g_0 - g_2 = (1 - c^2) / (1 - c^2) = 1, as an exact rational
    value = group_average("Sp", 1, SymbolSpec((GeomInv(F(1, 2), -1),)))
    assert isinstance(value, F) and value == 1
    assert group_average("Sp", 1, SymbolSpec((GeomInv(F(0), -1),))) == 1


def _bessel_i(n: int, c: float) -> float:
    """I_n(c) by its power series sum_m (c/2)^(2m+n) / (m! (m+n)!)."""
    return fsum((c / 2) ** (2 * m + n) / (factorial(m) * factorial(m + n)) for m in range(40))


def test_toeplitz_bessel_matches_bessel_series():
    # the symbol exp(c cos theta) has Fourier coefficients I_k(c)
    c = 1.5
    i0, i1 = _bessel_i(0, c), _bessel_i(1, c)
    assert toeplitz_bessel(c, 1) == pytest.approx(i0, rel=1e-13)
    assert toeplitz_bessel(c, 2) == pytest.approx(i0 * i0 - i1 * i1, rel=1e-13)


def test_determinant_engine_matches_constant_terms():
    rnd = random.Random(404)

    def param():
        return F(rnd.randint(-9, 9), rnd.randint(10, 19))

    for sign, alpha in ((1, None), (-1, param()), (-1, None), (1, param())):
        factors = (PolyPlus(param(), 1), PolyPlus(param(), -1), GeomInv(param(), sign))
        det = () if alpha is None else (PolyPlus(alpha, 1),)
        symbol = SymbolSpec(factors + det)
        for family, lmax in (("U", 3), ("Sp", 3), ("O+", 6), ("O-", 6), ("O", 6)):
            for l in range(lmax + 1):
                auto = group_average(family, l, symbol)
                exact = exact_average(family, l, symbol)
                assert isinstance(auto, F) and auto == exact, (family, l, factors, alpha)


def test_model_averages_are_exact_laws():
    rnd = random.Random(505)
    for n in (1, 2, 3):
        q = tuple(F(rnd.randint(0, 12), 25) for _ in range(n))
        specs = [ModelSpec("antidiagonal", q=q, beta=beta)
                 for beta in (F(0), F(2, 5), F(1, 2))]
        specs += [ModelSpec("diagonal", q=q, alpha=alpha) for alpha in (F(0), F(1, 3))]
        for spec in specs:
            for l in range(10):
                value = model_rmt_distribution(spec, l)
                assert isinstance(value, F) and value == exact_distribution(spec, l), (spec, l)


def test_constant_term_guard_raises_before_expanding():
    # four free angles and more are refused before the density is expanded
    factors = (PolyPlus(F(1, 2), 1), PolyPlus(F(1, 3), 1), PolyPlus(F(1, 5), -1))
    start = time.monotonic()
    with pytest.raises(ValueError, match="free angles"):
        exact_average("Sp", 8, SymbolSpec(factors))
    assert time.monotonic() - start < 1.0
    two_geometric = SymbolSpec((GeomInv(F(1, 2), 1), GeomInv(F(1, 3), 1)))
    with pytest.raises(ValueError, match="geometric"):
        exact_average("U", 1, two_geometric)


class _ExpCos:
    """A factor exp(c cos theta), which has no rational Fourier coefficients."""

    def __init__(self, c):
        self.c = c


def test_production_average_rejects_non_determinant_forms():
    with pytest.raises(TypeError, match="PolyPlus or GeomInv"):
        SymbolSpec((_ExpCos(1.5),))
    two_geometric = SymbolSpec((GeomInv(F(1, 2), 1), GeomInv(F(1, 3), -1)))
    with pytest.raises(ValueError, match="no determinant form"):
        group_average("Sp", 2, two_geometric)


def test_engine_refuses_what_it_cannot_average():
    # every model formula goes through the sweep, so the sweep checks its own limits
    two_geometric = SymbolSpec((GeomInv(F(1, 2)), GeomInv(F(1, 3))))
    with pytest.raises(ValueError, match="no determinant form"):
        _averages("O", two_geometric, [3])
    with pytest.raises(ValueError, match="nonnegative"):
        group_average("Sp", -1)


def test_cli_import_does_not_load_oracles():
    src = os.path.dirname(os.path.dirname(symlpp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, symlpp.cli; assert 'symlpp.oracles' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

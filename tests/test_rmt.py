import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import symlpp
from symlpp.core import ModelSpec, Partition, partitions_in_box
from symlpp.harness import toeplitz_bessel
from symlpp.numerics import GeomInv, PolyPlus, SymbolSpec
from symlpp.rmt import (
    ClassFunctionSpec,
    GroupSpec,
    antidiagonal_odd_prefactors,
    group_average,
    model_rmt_distribution,
    u_average,
)
from symlpp.oracles import (
    ExpCos,
    SchurFactor,
    exact_average,
    o_component_reflection_gap,
    o_schur_identity,
    quadrature_average,
    sp_schur_identity,
)
from symlpp.symfunc import exact_distribution, schur


def test_normalizations_both_engines():
    for family, lmax in (("U", 3), ("Sp", 3), ("O+", 5), ("O-", 5), ("O", 5)):
        for l in range(lmax + 1):
            exact = exact_average(GroupSpec(family, l))
            quad = quadrature_average(GroupSpec(family, l))
            assert exact == 1, (family, l)
            assert abs(quad - 1) < 1e-12, (family, l)


def test_u_average_examples():
    assert u_average(SymbolSpec(()), 5) == 1
    a, b = F(1, 3), F(1, 5)
    symbol = SymbolSpec((PolyPlus(a, -1), PolyPlus(b, 1)))
    assert u_average(symbol, 1) == 1 + a * b
    assert u_average(symbol, 2) == 1 + a * b + (a * b) ** 2
    assert u_average(symbol, 0) == 1


def test_u_average_agrees_with_weyl_quadrature():
    a, b = F(1, 3), F(2, 5)
    symbol = SymbolSpec((PolyPlus(a, -1), PolyPlus(b, 1), PolyPlus(F(1, 7), 1)))
    for l in (1, 2, 3):
        toeplitz = u_average(symbol, l)
        quad = quadrature_average(GroupSpec("U", l), ClassFunctionSpec(symbol=symbol))
        assert abs(float(toeplitz) - quad) < 1e-10


def test_sp_average_examples():
    assert group_average(GroupSpec("Sp", 2), ClassFunctionSpec()) == 1
    assert exact_average(GroupSpec("Sp", 2), schur_factor=SchurFactor(Partition())) == 1
    # pair products of a linear symbol expand through bounded dual pairing sums:
    # the average of prod |1+q e^{i theta}|^2 picks out the shapes whose
    # conjugate averages to 1, i.e. the even shapes
    q = F(1, 2)
    lhs = group_average(GroupSpec("Sp", 1),
                        ClassFunctionSpec(symbol=SymbolSpec((PolyPlus(q, 1),))))
    rhs = F(0)
    for mu in partitions_in_box(2, 1):
        coeff = exact_average(GroupSpec("Sp", 1), schur_factor=SchurFactor(Partition(
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
        value = exact_average(GroupSpec("Sp", 2), schur_factor=SchurFactor(rho))
        expect = 1 if all(c % 2 == 0 for c in _conj(rho)) else 0
        assert value == expect, rho.parts


def test_o_average_forced_eigenvalues():
    alpha = F(1, 3)
    cf = ClassFunctionSpec(det_alpha=alpha)
    assert group_average(GroupSpec("O-", 1), cf) == 1 - alpha
    assert group_average(GroupSpec("O+", 1), cf) == 1 + alpha
    assert group_average(GroupSpec("O+", 2), cf) == 1 + alpha**2
    assert group_average(GroupSpec("O-", 2), cf) == 1 - alpha**2
    assert group_average(GroupSpec("O", 2), cf) == 1
    assert group_average(GroupSpec("O", 0), cf) == 1


def test_sp_schur_identity():
    rep = sp_schur_identity(Partition(), F(1, 2), 1, odd_case=False)
    assert rep["lhs"] == rep["rhs"] == 1
    # zero weight with zero alternating sum hits the 0**0 = 1 convention
    rep = sp_schur_identity(Partition((2, 2)), F(0), 2, odd_case=False)
    assert rep["rhs"] == 1 and rep["lhs"] == 1
    rep = sp_schur_identity(Partition((1,)), F(1, 2), 1, odd_case=False)
    assert rep["rhs"] == F(1, 2)
    assert float(rep["abs_diff"]) < 1e-9
    rep = sp_schur_identity(Partition((2, 1)), F(1, 3), 1, odd_case=True)
    assert rep["rhs"] == F(1, 3)
    assert float(rep["abs_diff"]) < 1e-9
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
        average = group_average(GroupSpec("Sp", l // 2), ClassFunctionSpec(symbol=symbol))
        exact = exact_distribution(spec, l)
        assert both["standard"] * average == exact
        assert both["printed"] * average != exact


def test_geominv_average_exactness_tagging():
    # Sp(2): g_0 - g_2 = (1 - c^2) / (1 - c^2) = 1, as an exact rational
    cf = ClassFunctionSpec(symbol=SymbolSpec((GeomInv(F(1, 2), -1),)))
    value = group_average(GroupSpec("Sp", 1), cf)
    assert isinstance(value, F) and value == 1
    cf0 = ClassFunctionSpec(symbol=SymbolSpec((GeomInv(F(0), -1),)))
    assert group_average(GroupSpec("Sp", 1), cf0) == 1


def test_expcos_quadrature_matches_toeplitz():
    symbol = SymbolSpec((ExpCos(1.5),))
    for l in (1, 2):
        toeplitz = toeplitz_bessel(1.5, l)
        quad = quadrature_average(GroupSpec("U", l), ClassFunctionSpec(symbol=symbol),
                                  tol=1e-12)
        assert abs(toeplitz - quad) < 1e-9


def test_determinant_engine_matches_constant_terms():
    rnd = random.Random(404)

    def param():
        return F(rnd.randint(-9, 9), rnd.randint(10, 19))

    for det_alpha in (None, param(), None, param()):
        factors = (PolyPlus(param(), 1), PolyPlus(param(), -1))
        cf = ClassFunctionSpec(symbol=SymbolSpec(factors), det_alpha=det_alpha)
        for family, lmax in (("Sp", 3), ("O+", 6), ("O-", 6), ("O", 6)):
            for l in range(lmax + 1):
                auto = group_average(GroupSpec(family, l), cf)
                exact = exact_average(GroupSpec(family, l), cf)
                assert isinstance(auto, F) and auto == exact, (family, l, factors, det_alpha)


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


def test_quadrature_grid_budget_checked_before_allocation():
    cf = ClassFunctionSpec(symbol=SymbolSpec((GeomInv(F(1, 2), -1),)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            quadrature_average(GroupSpec("Sp", 8), cf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_constant_term_guard_raises_before_expanding():
    # four free angles and more are refused before the density is expanded
    factors = (PolyPlus(F(1, 2), 1), PolyPlus(F(1, 3), 1), PolyPlus(F(1, 5), -1))
    cf = ClassFunctionSpec(symbol=SymbolSpec(factors))
    start = time.monotonic()
    with pytest.raises(ValueError, match="free angles"):
        exact_average(GroupSpec("Sp", 8), cf)
    assert time.monotonic() - start < 1.0


def test_production_average_rejects_non_determinant_forms():
    exponential = ClassFunctionSpec(symbol=SymbolSpec((ExpCos(1.5),)), det_alpha=F(1, 3))
    for family in ("U", "Sp", "O+", "O-", "O"):
        with pytest.raises(ValueError, match="no determinant form"):
            group_average(GroupSpec(family, 2), exponential)
    two_geometric = ClassFunctionSpec(symbol=SymbolSpec((GeomInv(F(1, 2), 1),
                                                         GeomInv(F(1, 3), -1))))
    with pytest.raises(ValueError, match="no determinant form"):
        group_average(GroupSpec("Sp", 2), two_geometric)


def test_cli_import_does_not_load_oracles():
    src = os.path.dirname(os.path.dirname(symlpp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, symlpp.cli; assert 'symlpp.oracles' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

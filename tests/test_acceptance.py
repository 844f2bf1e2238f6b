"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; exact routes, group averages and their
identities among them, must agree as identical rationals (tolerance zero), and
Monte Carlo within z-score bounds.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import product

import numpy as np

from symlpp.core import IntMatrix, ModelSpec, Partition, partitions_in_box
from symlpp.harness import hammersley_check, longest_increasing_chain, verify_model
from symlpp.lpp import mc_distribution
from symlpp.oracles import (
    check_symmetry_lemmas,
    conjugate,
    dual_rsk,
    exact_average,
    greene_oracle,
    o_schur_identity,
    pfaffian_minor_sum_check,
    pfaffian_sign_identity_check,
    pointreflection_selfdual_table,
    sample_matrix,
    selfdual_schur,
    selfdual_schur_oracle,
    sp_schur_identity,
    total,
    transpose,
    two_quotient,
)
from symlpp.rmt import group_average, model_rmt_distribution
from symlpp.rsk import rsk
from symlpp.symfunc import exact_distribution
from symlpp.variants import antidiagonal_odd_prefactors


# Eight marked points whose longest strictly increasing chain has length 3,
# matching the worked unit-square illustration (four segments once the path
# is extended to the corners).
EIGHT_POINT_CONFIGURATION = (
    (0.10, 0.55), (0.20, 0.30), (0.30, 0.80), (0.40, 0.10),
    (0.50, 0.60), (0.65, 0.40), (0.80, 0.90), (0.90, 0.20),
)


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_params(rnd, count, top=F(3, 4)):
    return tuple(F(rnd.randint(0, 24), 32) * top / F(3, 4) for _ in range(count))


def test_01_johansson_triangle():
    start = time.monotonic()
    rnd = random.Random(101)
    worst = None
    for n in (1, 2, 3):
        for _ in range(2):
            spec = ModelSpec("johansson", a=random_params(rnd, n), b=random_params(rnd, n))
            for l in range(7):
                exact = exact_distribution(spec, l)
                average = model_rmt_distribution(spec, l)
                assert isinstance(average, F)
                if exact != average:
                    worst = (spec, l, exact, average)
    elapsed = time.monotonic() - start
    report(1, "square-lattice law vs Toeplitz determinant",
           worst is None and elapsed < 10.0, f"runtime {elapsed:.1f}s, tolerance 0")


def test_02_bernoulli_triangle():
    start = time.monotonic()
    rnd = random.Random(202)
    mismatches = 0
    max_z = 0.0
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        spec = ModelSpec("bernoulli", a=random_params(rnd, m), b=random_params(rnd, n))
        mc = mc_distribution(spec, 3, 100_000, seed=rnd.randint(0, 2**31))
        for l in range(4):
            exact = exact_distribution(spec, l)
            average = model_rmt_distribution(spec, l)
            assert isinstance(average, F)
            mismatches += exact != average
            p = float(exact)
            if 0 < p < 1:
                se = math.sqrt(p * (1 - p) / 100_000)
                max_z = max(max_z, abs(mc.probs[l] - p) / se)
            else:
                assert mc.probs[l] == p
    elapsed = time.monotonic() - start
    report(2, "binary law vs Toeplitz determinant and Monte Carlo",
           mismatches == 0 and max_z <= 4.0 and elapsed < 30.0,
           f"{mismatches} exact-vs-rmt mismatches, tolerance 0, max|z|={max_z:.2f} <= 4, "
           f"runtime {elapsed:.1f}s")


def test_03_antidiagonal():
    rnd = random.Random(303)
    exact_ok = True
    for n in (1, 2, 3):
        q = random_params(rnd, n)
        for beta in (F(0), F(1, 2)):
            spec = ModelSpec("antidiagonal", q=q, beta=beta)
            for l in range(6):
                exact = exact_distribution(spec, l)
                average = model_rmt_distribution(spec, l)
                exact_ok = exact_ok and isinstance(average, F) and exact == average
    # the odd-bound prefactor question: resolved and reported, not silently fixed
    q = (F(1, 2), F(1, 3), F(1, 5))
    spec = ModelSpec("antidiagonal", q=q, beta=F(1, 2))
    note = verify_model(spec, 5, 10_000, seed=9).notes["odd_bound_prefactor"]
    resolved = note["resolved"] == "standard" and not note["matches"]["printed"]
    candidates = antidiagonal_odd_prefactors(q)
    report(3, "anti-diagonal symmetry vs symplectic average",
           exact_ok and resolved,
           f"exact equality at beta = 0 and 1/2, l <= 5; odd-bound prefactor resolved to "
           f"'standard' ({candidates['standard']}), 'printed' ({candidates['printed']}) "
           f"mismatches by {note['max_abs_diff']['printed']:.2e}")


def test_04_diagonal():
    rnd = random.Random(404)
    ok = True
    for n in (1, 2, 3):
        q = random_params(rnd, n)
        for alpha in (F(0), F(1, 3)):
            spec = ModelSpec("diagonal", q=q, alpha=alpha)
            for l in range(5):
                exact = exact_distribution(spec, l)
                average = model_rmt_distribution(spec, l)
                ok = ok and isinstance(average, F) and exact == average
    report(4, "diagonal symmetry vs orthogonal mean average", ok,
           "exact equality at alpha = 0 and 1/3, l <= 4")


def test_05_doubly_symmetric():
    rnd = random.Random(505)
    ok = True
    for n in (1, 2):
        q = random_params(rnd, n)
        for alpha in (F(0), F(1, 3)):
            spec = ModelSpec("doublysymmetric", q=q, alpha=alpha)
            for l in range(7):
                exact = exact_distribution(spec, l)
                average = model_rmt_distribution(spec, l)
                ok = ok and isinstance(average, F) and exact == average
            for l in range(0, 6, 2):
                ok = ok and exact_distribution(spec, l) == exact_distribution(spec, l + 1)
    report(5, "doubly symmetric law vs unitary average and parity degeneracy", ok,
           "exact equality, parity Pr(<=2l) = Pr(<=2l+1) exact")


def test_06_point_reflection():
    rnd = random.Random(606)
    ok = True
    for n in (1, 2, 3):
        q = random_params(rnd, n, top=F(1, 2))
        square = ModelSpec("johansson", a=q, b=q)
        for l in range(5):
            direct = pointreflection_selfdual_table(q, l)[l]
            h = l // 2
            if l % 2 == 0:
                factored = exact_distribution(square, h) ** 2
            else:
                factored = exact_distribution(square, h + 1) * exact_distribution(square, h)
            ok = ok and direct == factored
    report(6, "point-reflection law factors into two square-lattice laws", ok,
           "exact rational identities, n <= 3, l <= 4")


def _sampled_class_checks(spec, symmetry_class, count, seed):
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(count):
        X = sample_matrix(spec, rng)
        if symmetry_class is None:
            pair = rsk(X)
            ok = (pair.p.shape == pair.q.shape
                  and pair.p.shape.weight == total(X))
            swapped = rsk(transpose(X))
            ok = ok and swapped.p == pair.q and swapped.q == pair.p
        elif symmetry_class == "bernoulli":
            pair = dual_rsk(X)
            mu = pair.q.shape
            ok = (pair.p.shape == conjugate(mu)
                  and mu.weight == total(X)
                  and (mu.parts[0] if mu.parts else 0) <= X.n_rows)
        else:
            ok = all(check_symmetry_lemmas(X, symmetry_class).values())
        failures += 0 if ok else 1
    return failures


def test_07_rsk_lemma_suite():
    start = time.monotonic()
    count = 10_000
    q4 = (F(1, 2), F(1, 3), F(2, 5), F(1, 4))
    classes = [
        (ModelSpec("johansson", a=q4, b=q4), None),
        (ModelSpec("bernoulli", a=q4, b=q4), "bernoulli"),
        (ModelSpec("antidiagonal", q=q4, beta=F(1, 2)), "antidiagonal"),
        (ModelSpec("diagonal", q=q4, alpha=F(1, 2)), "diagonal"),
        (ModelSpec("doublysymmetric", q=q4[:2], alpha=F(1, 2)), "doublysymmetric"),
        (ModelSpec("pointreflection", q=q4[:2]), "pointreflection"),
    ]
    failures = 0
    for seed, (spec, symmetry_class) in enumerate(classes, start=70):
        failures += _sampled_class_checks(spec, symmetry_class, count, seed)

    greene_failures = 0
    for n in (1, 2, 3):
        for entries in product(range(3), repeat=n * n):
            X = IntMatrix(tuple(tuple(entries[i * n + j] for j in range(n))
                                for i in range(n)))
            mu = rsk(X).p.shape
            for l in range(1, n + 1):
                if sum(mu.parts[:l]) != greene_oracle(X, l):
                    greene_failures += 1
    elapsed = time.monotonic() - start
    report(7, "tableau lemma suite and exhaustive chain-invariant check",
           failures == 0 and greene_failures == 0,
           f"{count} samples x 6 classes, 0 failures; all n<=3 entries<=2 "
           f"matrices match the oracle; runtime {elapsed:.0f}s")


def test_08_pfaffian_identities():
    rnd = random.Random(808)
    ok = True
    for _ in range(100):
        for size in (2, 4, 6):
            xs = rnd.sample(range(-30, 31), size)
            fs = [F(rnd.randint(1, 12), rnd.randint(1, 12)) for _ in range(size)]
            ok = ok and pfaffian_sign_identity_check(xs, fs)

    def rand_skew(n):
        m = [[F(0)] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                v = F(rnd.randint(-9, 9), rnd.randint(1, 7))
                m[j][k] = v
                m[k][j] = -v
        return m

    for _ in range(100):
        ok = ok and pfaffian_minor_sum_check(rand_skew(4), rand_skew(4))
    report(8, "Pfaffian pairing and minor-sum identities", ok,
           "100 exact instances each at sizes 2/4/6 and 4x4")


def test_09_group_normalizations():
    worst = F(0)
    for family in ("U", "Sp", "O+", "O-", "O"):
        for l in range(4):
            exact = exact_average(family, l)
            determinant = group_average(family, l)
            worst = max(worst, abs(exact - 1), abs(determinant - 1))
    report(9, "average of 1 is 1 on every group and component", worst == 0,
           f"worst deviation {worst} == 0, constant terms and determinants, l <= 3")


def test_10_schur_average_identities():
    start = time.monotonic()
    params = (F(0), F(1, 3), F(1, 2))
    worst = F(0)
    cases = 0
    for rho in partitions_in_box(3, 3):
        for l in (0, 1, 2):
            for value in params:
                if rho.length <= 2 * l:
                    rep = sp_schur_identity(rho, value, l, odd_case=False)
                    worst = max(worst, rep["abs_diff"])
                    cases += 1
                if rho.length <= 2 * l + 1:
                    rep = sp_schur_identity(rho, value, l, odd_case=True)
                    worst = max(worst, rep["abs_diff"])
                    cases += 1
        for size in (1, 2, 3, 4, 5):
            if rho.length > size:
                continue
            for value in params:
                rep = o_schur_identity(rho, value, size)
                for key in ("plus", "minus", "mean"):
                    worst = max(worst, rep[f"abs_diff_{key}"])
                cases += 1
    elapsed = time.monotonic() - start
    report(10, "symplectic and orthogonal Schur-average identities",
           worst == 0, f"{cases} cases, worst |lhs-rhs| = {worst} == 0, "
           f"runtime {elapsed:.0f}s")


def test_11_selfdual_schur():
    ok = True
    for n, q in ((1, (F(1, 3),)), (2, (F(1, 3), F(2, 5)))):
        for mu in partitions_in_box(8, 8):
            if mu.weight > 8:
                continue
            ok = ok and selfdual_schur(mu, q) == selfdual_schur_oracle(mu, n, q)
    q0, q1 = two_quotient(Partition((4, 2)))
    ok = ok and {q0.parts, q1.parts} == {(2,), (1,)}
    report(11, "self-dual generating function factors through the 2-quotient", ok,
           "exact match with the evacuation-fixed enumeration, |mu| <= 8, n <= 2")


def test_12_hammersley():
    chain = longest_increasing_chain(EIGHT_POINT_CONFIGURATION)
    rep = hammersley_check(4.0, 12, 100_000, seed=5, z_max=4.0)
    worst = max(abs(r.z_score) for r in rep.rows)
    resolved = rep.notes["resolved_normalization"]
    report(12, "Poisson chain law vs Toeplitz-Bessel determinant",
           chain == 3 and rep.verdict == "PASS"
           and not rep.notes["displayed_form_matches"],
           f"fixed 8-point chain = {chain}; worst |z| = {worst:.2f} <= 4 over "
           f"100000 samples; normalization resolved to {resolved!r}")

import math
import random
from fractions import Fraction as F

import pytest
import scipy.special

from symlpp.harness import _bessel_fixed
from symlpp.numerics import (
    GeomInv,
    PolyPlus,
    SymbolSpec,
    det_exact,
    fourier_coefficients,
    leading_minors,
    pfaffian,
)
from symlpp.oracles import (_is_polynomial, pfaffian_minor_sum_check,
                            pfaffian_sign_identity_check)


def rand_skew(rnd, n):
    m = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            v = F(rnd.randint(-9, 9), rnd.randint(1, 7))
            m[j][k] = v
            m[k][j] = -v
    return m


def rand_sparse_skew(rnd, n, rational):
    # 20-50 % of the entries above the diagonal are nonzero; integer entries
    # stay Python ints
    density = rnd.uniform(0.2, 0.5)
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            if rnd.random() < density:
                v = rnd.choice((-1, 1)) * rnd.randint(1, 9)
                v = F(v, rnd.randint(1, 7)) if rational else v
                m[j][k], m[k][j] = v, -v
    return m


def pf_laplace(m):
    """Pf(A) = sum over j of (-1)^(j-1) a_0j Pf(A without rows and columns 0 and j)."""
    if not m:
        return 1
    rest = range(1, len(m))
    return sum((-1) ** (j - 1) * m[0][j]
               * pf_laplace([[m[a][b] for b in rest if b != j] for a in rest if a != j])
               for j in rest if m[0][j])


def test_symbol_validation():
    with pytest.raises(ValueError):
        GeomInv(F(3, 2), -1)
    with pytest.raises(ValueError):
        PolyPlus(F(1, 2), 2)
    s = SymbolSpec((PolyPlus(F(0), 1), GeomInv(F(0), -1)))
    assert s.factors == ()
    assert _is_polynomial(s)


def test_fourier_constant_symbol():
    coeffs = fourier_coefficients(SymbolSpec(()), -2, 2)
    assert coeffs == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}


def test_fourier_polynomial_product():
    a, b = F(1, 3), F(1, 5)
    s = SymbolSpec((PolyPlus(a, -1), PolyPlus(b, 1)))
    coeffs = fourier_coefficients(s, -1, 1)
    assert coeffs[0] == 1 + a * b
    assert coeffs[1] == b
    assert coeffs[-1] == a


def test_fourier_polynomial_convolution_property():
    rnd = random.Random(2)
    for _ in range(20):
        f1 = SymbolSpec(tuple(PolyPlus(F(rnd.randint(0, 4), 5), rnd.choice((1, -1)))
                              for _ in range(2)))
        f2 = SymbolSpec(tuple(PolyPlus(F(rnd.randint(0, 4), 5), rnd.choice((1, -1)))
                              for _ in range(2)))
        both = SymbolSpec(f1.factors + f2.factors)
        c1 = fourier_coefficients(f1, -4, 4)
        c2 = fourier_coefficients(f2, -4, 4)
        c = fourier_coefficients(both, -2, 2)
        for k in range(-2, 3):
            conv = sum(c1[r] * c2[k - r] for r in range(-2, 3) if -4 <= k - r <= 4)
            assert c[k] == conv


def test_fourier_geometric_series():
    b = F(1, 4)
    coeffs = fourier_coefficients(SymbolSpec((GeomInv(b, -1),)), -3, 1)
    assert coeffs == {-3: b**3, -2: b**2, -1: b, 0: 1, 1: 0}


def test_bessel_series_against_scipy():
    # the fixed-point coefficients of the Toeplitz-Bessel minors, at enough
    # bits for the smallest of them (I_60(0.5) is about 2^-392)
    bits = 512
    for c in (0.5, 1.0, 4.0, 7.5, 20.0, 2 * math.sqrt(128), 22.7):
        coeffs = _bessel_fixed(c, 61, bits)
        for k, value in enumerate(coeffs):
            assert value / 2**bits == pytest.approx(scipy.special.iv(k, c), rel=1e-12), (c, k)


def test_fourier_geometric_factors_divide_exactly():
    a, b = F(2, 3), F(3, 4)
    s = SymbolSpec((PolyPlus(b, 1), GeomInv(a, -1), GeomInv(a, -1)))
    coeffs = fourier_coefficients(s, -4, 2)
    # (1 + b z) / (1 - a/z)^2: z^-r carries (r + 1) a^r, z^1 carries b
    assert coeffs == {k: (1 - k) * a ** -k + b * (2 - k) * a ** (1 - k) if k <= 0 else
                      (b if k == 1 else 0) for k in range(-4, 3)}
    with pytest.raises(ValueError, match="finite expansion"):
        fourier_coefficients(SymbolSpec((GeomInv(a, -1), GeomInv(a, 1))), -1, 1)


def test_leading_minors_match_each_determinant():
    rnd = random.Random(7)
    for n in range(6):
        rows = [[F(rnd.randint(-9, 9), rnd.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        for j in range(n):
            rows[j][j] += 20  # diagonally dominant: no leading minor vanishes
        assert leading_minors(rows) == [det_exact([r[:k] for r in rows[:k]])
                                        for k in range(n + 1)]


def test_leading_minors_zero_pivot_raises():
    with pytest.raises(ArithmeticError, match="order 1"):
        leading_minors([[F(0), F(1)], [F(1), F(0)]])
    with pytest.raises(ArithmeticError, match="order 2"):
        leading_minors([[F(1), F(2), F(0)], [F(1, 2), F(1), F(3)], [F(0), F(1), F(1)]])


def test_det_exact_examples():
    assert det_exact([[F(1), F(0)], [F(0), F(1)]]) == 1
    a, b, c, d = F(1, 2), F(2, 3), F(3, 5), F(5, 7)
    assert det_exact([[a, b], [c, d]]) == a * d - b * c
    hilbert = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert det_exact(hilbert) == F(1, 2160)
    assert det_exact([[F(1), F(2)], [F(2), F(4)]]) == 0
    with pytest.raises(ValueError):
        det_exact([[F(1), F(2)]])


def test_pfaffian_small():
    c = F(7, 3)
    assert pfaffian([[F(0), c], [-c, F(0)]]) == c
    rnd = random.Random(3)
    m = rand_skew(rnd, 4)
    expected = m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
    assert pfaffian(m) == expected
    with pytest.raises(ValueError):
        pfaffian(rand_skew(rnd, 3))
    with pytest.raises(ValueError):
        pfaffian([[F(1)]])
    assert pfaffian([]) == 1


def test_pfaffian_squares_to_determinant():
    rnd = random.Random(4)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            m = rand_skew(rnd, n)
            assert pfaffian(m) ** 2 == det_exact(m)
    # sparse inputs: row 0 skips zero partners, and many matrices are singular
    singular = skipped = 0
    for n in (2, 4, 6, 8):
        for rational in (False, True):
            for _ in range(25):
                m = rand_sparse_skew(rnd, n, rational)
                pf = pfaffian(m)
                assert pf ** 2 == det_exact(m)
                assert pf == pf_laplace(m)
                singular += pf == 0
                skipped += m[0][1] == 0
    assert singular >= 20 and skipped >= 20
    # rank two with no zero row: the elimination empties only after one step
    u, v = [F(k, 3) for k in (1, 2, 0, 5, 4, 7)], [F(k, 5) for k in (2, 1, 3, 0, 6, 1)]
    m = [[a * d - b * c for c, d in zip(u, v)] for a, b in zip(u, v)]
    assert all(m[0][1:]) and pfaffian(m) == 0 == det_exact(m)


def test_pfaffian_sign_identity_examples():
    # l = 1, x = (3, 1): both sides are f(3)/f(1) = 5/2
    assert pfaffian_sign_identity_check([3, 1], [F(5), F(2)])
    mat = [[F(0), F(5, 2)], [F(-5, 2), F(0)]]
    assert pfaffian(mat) == F(5, 2)
    # reversed order: the sorting permutation is odd and compensates
    assert pfaffian_sign_identity_check([1, 3], [F(2), F(5)])
    with pytest.raises(ValueError):
        pfaffian_sign_identity_check([1, 1], [F(2), F(5)])
    with pytest.raises(ValueError):
        pfaffian_sign_identity_check([1, 2], [F(2), F(-5)])


def test_pfaffian_sign_identity_random():
    rnd = random.Random(5)
    for _ in range(100):
        for size in (2, 4, 6):
            xs = rnd.sample(range(-30, 31), size)
            fs = [F(rnd.randint(1, 12), rnd.randint(1, 12)) for _ in range(size)]
            assert pfaffian_sign_identity_check(xs, fs)


def test_pfaffian_minor_sum():
    rnd = random.Random(6)
    zero4 = [[F(0)] * 4 for _ in range(4)]
    a = rand_skew(rnd, 4)
    assert pfaffian_minor_sum_check(a, zero4)
    assert pfaffian_minor_sum_check(zero4, a)
    for _ in range(100):
        assert pfaffian_minor_sum_check(rand_skew(rnd, 4), rand_skew(rnd, 4))
    with pytest.raises(ValueError):
        pfaffian_minor_sum_check(rand_skew(rnd, 4), rand_skew(rnd, 6))

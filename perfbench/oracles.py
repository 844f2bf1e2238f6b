"""Reference values computed apart from symlpp, and the checks that use them.

Nothing here imports the package under test.  Site laws are written from the
model definitions, the lattice statistics are recomputed by their own dynamic
programs, and the determinant formulas are evaluated with this module's own
Fourier coefficients and elimination (exact) or with mpmath (high precision).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

Z_BOUND = 6.0


# ---------------------------------------------------------------------------
# (a) brute-force laws over each variant's free site orbits
# ---------------------------------------------------------------------------


def _geom(p: Fraction):
    return lambda k: (1 - p) * p**k


def _bern(p: Fraction):
    return lambda k: 1 / (1 + p) if k == 0 else (p / (1 + p) if k == 1 else Fraction(0))


def _parity(q: Fraction, beta: Fraction):
    norm = (1 - q * q) / (1 + beta * q)
    return lambda k: (beta if k % 2 else Fraction(1)) * q**k * norm


def site_orbits(model: dict):
    """(shape, {position: orbit index}, [law of each orbit]) from the model's definition.

    Positions are (i, j), row i counted from the bottom, both 1-based.
    """
    v = model["variant"]
    if v in ("johansson", "bernoulli"):
        a = [Fraction(x) for x in model["a"]]
        b = [Fraction(x) for x in model["b"]]
        law = _geom if v == "johansson" else _bern
        orbits = {}
        laws = []
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                orbits[(i, j)] = len(laws)
                laws.append(law(a[i - 1] * b[j - 1]))
        return (len(a), len(b)), orbits, laws
    q = [Fraction(x) for x in model["q"]]
    n = len(q)
    if v in ("antidiagonal", "diagonal"):
        size = n
        qq = q
    else:
        size = 2 * n
        qq = q + q[::-1]                     # q_{2n+1-i} = q_i

    def images(i, j):
        if v == "antidiagonal":
            return {(i, j), (n + 1 - j, n + 1 - i)}
        if v == "diagonal":
            return {(i, j), (j, i)}
        m = 2 * n + 1
        if v == "doublysymmetric":
            return {(i, j), (j, i), (m - j, m - i), (m - i, m - j)}
        return {(i, j), (m - i, m - j)}     # pointreflection

    def law_at(i, j):
        if v == "antidiagonal" and i + j == n + 1:
            return _parity(q[i - 1], Fraction(model["beta"]))
        if v == "doublysymmetric" and i + j == 2 * n + 1:
            return _parity(qq[i - 1], Fraction(0))
        if v in ("diagonal", "doublysymmetric") and i == j:
            return _geom(Fraction(model["alpha"]) * qq[i - 1])
        if v == "antidiagonal":
            return _geom(q[i - 1] * q[n - j])      # q_i q_{n+1-j}
        return _geom(qq[i - 1] * qq[j - 1])

    orbits = {}
    laws = []
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if (i, j) in orbits:
                continue
            for pos in images(i, j):
                orbits[pos] = len(laws)
            laws.append(law_at(i, j))
    return (size, size), orbits, laws


def brute_force_law(model: dict, l: int) -> Fraction:
    """Pr(L <= l) by enumerating every configuration with entries at most l.

    Sites are filled row by row from the bottom; a branch is cut as soon as a
    partial passage time exceeds l, since passage times only grow along paths.
    """
    (rows, cols), orbits, laws = site_orbits(model)
    bernoulli = model["variant"] == "bernoulli"
    order = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    value = [None] * len(laws)
    passage = {}
    weights = [[law(k) for k in range(l + 1)] for law in laws]

    def rec(idx: int) -> Fraction:
        if idx == len(order):
            return Fraction(1)
        i, j = order[idx]
        orbit = orbits[(i, j)]
        if bernoulli:
            below = max((passage[(i - 1, c)] for c in range(1, j + 1)), default=0) if i > 1 else 0
        else:
            below = max(passage.get((i - 1, j), 0), passage.get((i, j - 1), 0))
        fixed = value[orbit]
        total = Fraction(0)
        for k in ([fixed] if fixed is not None else range(l + 1)):
            if below + k > l:
                break
            w = Fraction(1) if fixed is not None else weights[orbit][k]
            if not w:
                continue
            passage[(i, j)] = below + k
            if fixed is None:
                value[orbit] = k
            total += w * rec(idx + 1)
        if fixed is None:
            value[orbit] = None
        passage.pop((i, j), None)
        return total

    return rec(0)


# ---------------------------------------------------------------------------
# Determinant formulas for the square-lattice laws
# ---------------------------------------------------------------------------


def _elementary(xs, top: int) -> list[Fraction]:
    e = [Fraction(1)] + [Fraction(0)] * top
    for x in xs:
        for r in range(top, 0, -1):
            e[r] += x * e[r - 1]
    return e


def _complete(xs, top: int) -> list[Fraction]:
    h = [Fraction(1)] + [Fraction(0)] * top
    for x in xs:
        for r in range(1, top + 1):
            h[r] += x * h[r - 1]
    return h


def _det(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                for c in range(k, n):
                    m[r][c] -= f * m[k][c]
    return det


def square_lattice_law(model: dict, l_max: int, exact: bool = True) -> dict[int, object]:
    """Pr(L <= l), l = 0..l_max, for the johansson and bernoulli models by Gessel's identity.

    johansson: prod(1 - a_i b_j) * D_l(E(a; z) E(b; 1/z));
    bernoulli: prod(1 + a_i b_j)^-1 * D_l(H(a; z) E(b; 1/z)), the dual form.
    D_l is the l x l Toeplitz determinant; E and H are the elementary and
    complete generating functions, so every Fourier coefficient is a finite sum.
    With exact=False the determinants are taken with mpmath at 60 digits.
    """
    a = [Fraction(x) for x in model["a"]]
    b = [Fraction(x) for x in model["b"]]
    eb = _elementary(b, len(b))
    if model["variant"] == "johansson":
        ea = _elementary(a, len(a))
        side = lambda r: ea[r] if 0 <= r < len(ea) else Fraction(0)
        pref = Fraction(1)
        for x in a:
            for y in b:
                pref *= 1 - x * y
    else:
        ha = _complete(a, l_max + len(b) + 1)
        side = lambda r: ha[r] if r >= 0 else Fraction(0)
        pref = Fraction(1)
        for x in a:
            for y in b:
                pref /= 1 + x * y
    coeff = {k: sum((side(k + m) * eb[m] for m in range(len(eb))), Fraction(0))
             for k in range(-l_max, l_max + 1)}
    out = {}
    with mpmath.workdps(60):
        for l in range(l_max + 1):
            rows = [[coeff[j - k] for k in range(l)] for j in range(l)]
            if exact:
                out[l] = pref * _det(rows)
            else:
                m = mpmath.matrix([[mpmath.mpf(c.numerator) / c.denominator for c in r]
                                   for r in rows]) if l else None
                d = mpmath.det(m) if l else mpmath.mpf(1)
                out[l] = float(mpmath.mpf(pref.numerator) / pref.denominator * d)
    return out


def poisson_chain_law(lam: float, l_max: int) -> dict[int, float]:
    """Pr(longest chain <= l) = exp(-lam) det[I_{j-k}(2 sqrt(lam))], at 110 digits."""
    out = {}
    with mpmath.workdps(110):
        lam_mp = mpmath.mpf(lam)
        arg = 2 * mpmath.sqrt(lam_mp)
        bessel = {k: mpmath.besseli(k, arg) for k in range(-l_max, l_max + 1)}
        for l in range(l_max + 1):
            if l == 0:
                d = mpmath.mpf(1)
            else:
                d = mpmath.det(mpmath.matrix([[bessel[j - k] for k in range(l)]
                                              for j in range(l)]))
            out[l] = float(mpmath.exp(-lam_mp) * d)
    return out


# ---------------------------------------------------------------------------
# Lattice statistics and RSK properties
# ---------------------------------------------------------------------------


def last_passage(rows_bottom_up) -> int:
    """Up/right last-passage time from the bottom-left to the top-right corner."""
    prev = [0] * len(rows_bottom_up[0])
    for row in rows_bottom_up:
        cur = []
        for j, x in enumerate(row):
            cur.append(x + max(prev[j], cur[j - 1] if j else 0))
        prev = cur
    return prev[-1]


# ---------------------------------------------------------------------------
# Checks on CLI payloads; each returns a list of problems (empty when correct)
# ---------------------------------------------------------------------------


def z_score(estimate: float, p: float, samples: int) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0 if abs(estimate - p) < 1e-12 else math.inf
    return (estimate - p) / math.sqrt(p * (1 - p) / samples)


def check_cdf(values: dict[int, object], what: str) -> list[str]:
    """(c) a cumulative law lies in [0, 1] and never decreases in l."""
    problems = []
    prev = None
    for l in sorted(values):
        p = values[l]
        if not 0 <= p <= 1:
            problems.append(f"{what}: Pr(L <= {l}) = {p} outside [0, 1]")
        if prev is not None and p < prev:
            problems.append(f"{what}: Pr(L <= {l}) decreases")
        prev = p
    return problems


def check_mc_rows(estimates: dict[int, float], law: dict[int, object], samples: int,
                  what: str) -> list[str]:
    """(d) Monte Carlo estimates against an exact law by z-score."""
    problems = []
    for l, p in law.items():
        if l in estimates:
            z = z_score(estimates[l], float(p), samples)
            if abs(z) > Z_BOUND:
                problems.append(f"{what}: l={l} z={z:.2f} beyond {Z_BOUND}")
    return problems


def check_exact_equal(got: dict[int, Fraction], want: dict[int, Fraction],
                      what: str) -> list[str]:
    return [f"{what}: l={l} got {got.get(l)} want {p}"
            for l, p in want.items() if got.get(l) != p]

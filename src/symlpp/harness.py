"""Verification pipelines: Monte Carlo vs exact law vs matrix-average formula.

Exact-vs-average comparisons are equalities of rationals; Monte Carlo enters
only through z-scores against the exact value.  The two error models are never
mixed in one verdict.  numpy is imported inside the Poisson-chain functions,
the only ones that make arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import BudgetError, DistributionTable, ModelSpec, format_rational, record
from .lpp import MC_CHUNK, chunk_streams, empirical_table, mc_distribution
from .variants import exact_table, model_rmt_table, variant_of

if TYPE_CHECKING:
    import numpy as np


@record
class ReportRow:
    l: int
    mc_estimate: float
    mc_stderr: float
    exact_value: Fraction | float
    second_value: Fraction | None
    abs_diff: Fraction | None
    z_score: float
    verdict: str

    def to_json_dict(self) -> dict:
        out: dict = {
            "l": self.l,
            "mc_estimate": self.mc_estimate,
            "mc_stderr": self.mc_stderr,
            "exact_value": (format_rational(self.exact_value)
                            if isinstance(self.exact_value, Fraction) else self.exact_value),
        }
        if self.second_value is not None:
            out["second_value"] = format_rational(self.second_value)
            out["abs_diff"] = format_rational(self.abs_diff)
        out["z_score"] = self.z_score
        out["verdict"] = self.verdict
        return out


@record
class VerificationReport:
    model: dict
    second_kind: str
    rows: list[ReportRow]
    verdict: str
    notes: dict

    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "model": self.model,
            "second_kind": self.second_kind,
            "rows": [r.to_json_dict() for r in self.rows],
            "verdict": self.verdict,
            "notes": self.notes,
        }


def _report(model: dict, second_kind: str, mc: DistributionTable, n_samples: int,
            z_max: float, first: list, second: list | None, notes: dict) -> VerificationReport:
    """A row per bound of `mc`: it passes when |z| against `first` is at most z_max
    and `first` equals `second`, if given; the report passes when every row does."""
    rows: list[ReportRow] = []
    for l, p in mc.probs.items():
        exact = first[l]
        value = float(exact)
        if 0.0 < value < 1.0:
            z = (p - value) / math.sqrt(value * (1.0 - value) / n_samples)
        else:
            z = 0.0 if p == value else math.inf
        other = diff = None
        if second is not None:
            other, diff = second[l], abs(exact - second[l])
        ok = abs(z) <= z_max and (second is None or exact == other)
        rows.append(ReportRow(l, p, mc.stderr[l], exact, other, diff, z,
                              "PASS" if ok else "FAIL"))
    verdict = "PASS" if all(r.verdict == "PASS" for r in rows) else "FAIL"
    return VerificationReport(model, second_kind, rows, verdict, notes)


def verify_model(spec: ModelSpec, l_max: int, mc_samples: int, seed: int,
                 z_max: float = 4.0, threads: int = 1) -> VerificationReport:
    """Three-column check of Pr(L <= l) for l = 0..l_max.

    Columns: Monte Carlo with binomial standard errors, the exact bounded
    Schur-sum law, and the matrix-average formula, each exact column one
    table, the same three for every variant.  The columns reach the variant's
    least bound, and its notes are read off them.
    """
    variant = variant_of(spec)
    top = max(l_max, variant.least_bound)
    # the exact tables check their budgets, so they come before any sampling
    exact_column = exact_table(spec, top)
    second_column = model_rmt_table(spec, top)
    mc = mc_distribution(spec, l_max, mc_samples, seed, threads)
    return _report(spec.to_json_dict(), variant.method, mc, mc_samples,
                   z_max, exact_column, second_column,
                   variant.notes(spec, exact_column, second_column))


# ---------------------------------------------------------------------------
# Continuum model: Poisson points in the unit square
# ---------------------------------------------------------------------------


def _chain_lengths(ns: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Longest chain strictly increasing in both coordinates, per sample.

    Sample s owns the next ns[s] rows of `points`.  Each sample's points are
    sorted by (x, -y), so ties in x (measure zero for random input) cannot
    stack in one chain.  All samples are then patience-sorted together: step
    k inserts the k-th y of every sample at the number of its tails below y,
    which is where bisect_left would put it.  A sample with k points or fewer
    inserts inf at its first inf tail, which changes nothing.
    """
    import numpy as np
    size = len(ns)
    # one row per sample, padded with inf - inf j, which sorts last and whose
    # -y is inf; complex order is by x, then by -y
    mask = np.arange(int(ns.max(initial=0))) < ns[:, None]
    key = np.full(mask.shape, complex(np.inf, -np.inf))
    # row-major mask order is sample order; a row (x, y) read as x + y j
    key[mask] = np.conjugate(np.ascontiguousarray(points).view(complex)[:, 0])
    key.sort(axis=1)
    ys = np.negative(key.imag.T, order="C")
    tails = np.full_like(ys, np.inf)
    columns = np.arange(size)
    # an insertion row is at most the largest sample's point count, so the
    # smallest type that holds that count sums the comparisons
    row_type = np.min_scalar_type(len(ys))
    width = 0  # the longest chain so far: tails from row `width` on are inf
    for y in ys:
        idx = (tails[:width + 1] < y).sum(axis=0, dtype=row_type)
        tails[idx, columns] = y
        width += bool(np.isfinite(tails[width]).any())
    return np.isfinite(tails).sum(axis=0)


def longest_increasing_chain(points) -> int:
    """Longest chain strictly increasing in both coordinates, by patience sorting."""
    import numpy as np
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return int(_chain_lengths(np.array([len(pts)]), pts)[0])


# Most Poisson points per Monte Carlo chunk, lam * MC_CHUNK on average (at the
# budget a chunk's chain counts peak at 3.9 MiB of traced allocations).  It
# admits lam <= 128.
POINT_BUDGET = 1 << 19
# Most points the chain kernel sorts at once, unless one sample holds more; a
# run takes about 64 bytes a point.
CHAIN_RUN_POINTS = 1 << 16
# Largest order of the Toeplitz-Bessel minors, an elimination of l^3 / 6 products
# of up to 153-bit integers (at lam = 128): 0.4 to 0.7 s at 256 on a 2-CPU host.
BESSEL_ORDER_BUDGET = 256


def _point_runs(ns: np.ndarray):
    """Consecutive slices of the point counts `ns`, each of at most CHAIN_RUN_POINTS
    points or else of one sample; a chunk whose points fit is one run."""
    import numpy as np
    if ns.sum() <= CHAIN_RUN_POINTS:
        yield ns
        return
    ends = np.cumsum(ns)
    start = 0
    while start < len(ns):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + CHAIN_RUN_POINTS, "right")))
        yield ns[start:stop]
        start = stop


def _poisson_chain_counts(lam: float, l_max: int, n_samples: int, seed: int) -> np.ndarray:
    """Chain-length counts; each chunk draws its point counts, then its points run
    by run.  The generator fills in order, so the runs draw the same points."""
    import numpy as np
    counts = np.zeros(l_max + 2, dtype=np.int64)
    for size, rng in chunk_streams(seed, n_samples, MC_CHUNK):
        for ns in _point_runs(rng.poisson(lam, size)):
            chains = _chain_lengths(ns, rng.random((int(ns.sum()), 2)))
            counts += np.bincount(np.minimum(chains, l_max + 1), minlength=l_max + 2)
    return counts


def _fixed_point_bits(c: float, l_max: int) -> int:
    """Fraction bits of the minors of exp(c cos theta), c >= 0: 53 past cond(T_l) <=
    e^(2c) (the symbol lies in [e^-c, e^c]), past the rounding of the elimination."""
    return 53 + math.ceil(2 * c * math.log2(math.e)) + 2 * l_max.bit_length() + 16


def _bessel_fixed(c: float, count: int, bits: int) -> list[int]:
    """[I_0(c), ..., I_{count-1}(c)] times 2^bits for c >= 0, by the ascending series
    sum_m (c/2)^(2m+k) / (m! (m+k)!) on the exact value of c/2 = p/q: every term
    is rounded down, and the series stops at the first one that rounds to zero."""
    p, q = (Fraction(c) / 2).as_integer_ratio()
    out, power, denominator = [], 1, 1  # p^k and q^k k!
    for k in range(count):
        term = total = (power << bits) // denominator
        m = 0
        while term:
            m += 1
            term = term * p * p // (q * q * m * (m + k))
            total += term
        out.append(total)
        power, denominator = power * p, denominator * q * (k + 1)
    return out


def _fixed_point_minors(c: float, l_max: int, bits: int) -> list[float]:
    """[D_0, ..., D_lmax] of exp(c cos theta), c >= 0: Gaussian elimination without
    pivoting on the upper triangle of the positive-definite Toeplitz matrix
    (I_{|j-k|}(c)) with `bits` fraction bits; D_l is the product of l pivots."""
    coeffs = _bessel_fixed(c, l_max, bits)
    rows = [coeffs[j::-1] + coeffs[1:l_max - j] for j in range(l_max)]
    det, minors = 1 << bits, [1.0]
    for k, row_k in enumerate(rows):
        pivot = row_k[k]
        if pivot <= 0:
            raise ArithmeticError(f"Toeplitz-Bessel pivot of order {k + 1} is not positive")
        det = det * pivot >> bits
        minors.append(det / (1 << bits))
        for i in range(k + 1, l_max):
            ratio = (row_k[i] << bits) // pivot
            row = rows[i]
            row[i:] = [x - (ratio * y >> bits) for x, y in zip(row[i:], row_k[i:])]
    return minors


def toeplitz_bessel_minors(cos_coefficient: float, l_max: int) -> list[float]:
    """[D_0, ..., D_lmax]: the l x l Toeplitz determinants of exp(c cos theta), each
    rounded once to a float from fixed point.  theta -> theta + pi takes c to -c."""
    if l_max < 0:
        raise ValueError("l must be nonnegative")
    if l_max > BESSEL_ORDER_BUDGET:
        raise BudgetError(f"Toeplitz-Bessel determinants of order {l_max} are over the "
                          f"budget of order {BESSEL_ORDER_BUDGET}")
    c = abs(cos_coefficient)
    return _fixed_point_minors(c, l_max, _fixed_point_bits(c, l_max))


def toeplitz_bessel(cos_coefficient: float, l: int) -> float:
    """l x l Toeplitz determinant of the exponential symbol exp(c cos theta)."""
    return toeplitz_bessel_minors(cos_coefficient, l)[l]


def hammersley_check(lam: float, l_max: int, mc_samples: int, seed: int,
                     z_max: float = 4.0) -> VerificationReport:
    """Poisson Monte Carlo against the chain law exp(-lam) D_l(exp(2 sqrt(lam) cos theta)).

    Two exact identities fix that normalization, with no sampling: D_0 = 1 against
    Pr(L <= 0) = exp(-lam) gives the prefactor, and D_1 = I_0(c) against
    Pr(L <= 1) = exp(-lam) I_0(2 sqrt(lam)) gives c = 2 sqrt(lam), so the displayed
    form (no prefactor, coefficient sqrt(lam)) does not match.  The budgets are
    checked, and the determinants taken, before any sampling.
    """
    if not 0 < lam < math.inf:
        raise ValueError("intensity must be positive and finite")
    if lam * MC_CHUNK > POINT_BUDGET:
        raise BudgetError(f"intensity {lam} puts about {lam * MC_CHUNK:.6g} points in a chunk "
                          f"of {MC_CHUNK} samples, over the budget of {POINT_BUDGET} points",
                          field="lam")
    formula = [min(math.exp(-lam) * d, 1.0)
               for d in toeplitz_bessel_minors(2 * math.sqrt(lam), l_max)]
    mc = empirical_table(_poisson_chain_counts(lam, l_max, mc_samples, seed), mc_samples)
    notes = {"resolved_normalization": "prefactor=exp(-lam), coefficient=2*sqrt(lam)",
             "displayed_form_matches": False}
    return _report({"lambda": lam}, "toeplitz-bessel", mc, mc_samples, z_max, formula, None,
                   notes)

"""Verification pipelines: Monte Carlo vs exact law vs matrix-average formula.

Exact-vs-average comparisons are equalities of rationals; Monte Carlo enters
only through z-scores against the exact value.  The two error models are never
mixed in one verdict.  numpy is imported inside the Poisson-chain and
Toeplitz-Bessel functions, the only ones that make arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import BudgetError, ModelSpec, format_rational
from .lpp import MC_CHUNK, chunk_streams, mc_distribution
from .numerics import ExpCos, SymbolSpec, fourier_coefficients
from .variants import exact_table, model_rmt_table, variant_of

if TYPE_CHECKING:
    import numpy as np


@dataclass
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


@dataclass
class VerificationReport:
    model: dict
    second_kind: str
    rows: list[ReportRow]
    verdict: str
    notes: dict = field(default_factory=dict)

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


def _z_score(mc: float, exact: float, n_samples: int) -> float:
    if exact <= 0.0 or exact >= 1.0:
        return 0.0 if mc == exact else math.inf
    se = math.sqrt(exact * (1.0 - exact) / n_samples)
    return (mc - exact) / se


def verify_model(spec: ModelSpec, l_max: int, mc_samples: int, seed: int,
                 z_max: float = 4.0, threads: int = 1) -> VerificationReport:
    """Three-column check of Pr(L <= l) for l = 0..l_max.

    Columns: Monte Carlo with binomial standard errors, the exact bounded
    Schur-sum law, and the matrix-average formula, each exact column one
    table.  A variant with a witness takes its exact column from it: the
    point-reflection model, whose matrix-average route is its factored exact
    table, is checked against self-dual path sums.  The columns reach the
    variant's least bound, and its notes are read off them.
    """
    variant = variant_of(spec)
    top = max(l_max, variant.least_bound)
    # the exact tables check their budgets, so they come before any sampling
    exact_column = (variant.witness or exact_table)(spec, top)
    second_column = model_rmt_table(spec, top)
    mc = mc_distribution(spec, l_max, mc_samples, seed, threads)
    rows: list[ReportRow] = []
    for l in range(l_max + 1):
        exact, second = exact_column[l], second_column[l]
        z = _z_score(mc.probs[l], float(exact), mc_samples)
        ok = exact == second and abs(z) <= z_max
        rows.append(ReportRow(l, mc.probs[l], mc.stderr[l], exact, second,
                              abs(exact - second), z, "PASS" if ok else "FAIL"))
    verdict = "PASS" if all(r.verdict == "PASS" for r in rows) else "FAIL"
    return VerificationReport(spec.to_json_dict(), variant.second_kind or variant.method, rows,
                              verdict, variant.notes(spec, exact_column, second_column))


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
    # one row per sample, padded with inf; complex order is by x, then by -y
    mask = np.arange(int(ns.max(initial=0))) < ns[:, None]
    key = np.full(mask.shape, np.inf, dtype=complex)
    key[mask] = points[:, 0] - 1j * points[:, 1]  # row-major mask order is sample order
    key.sort(axis=1)
    ys = np.where(mask, -key.imag, np.inf).T.copy()
    tails = np.full_like(ys, np.inf)
    width = 0  # the longest chain so far: tails from row `width` on are inf
    for y in ys:
        idx = (tails[:width + 1] < y).sum(axis=0)
        tails[idx, np.arange(size)] = y
        width += bool(np.isfinite(tails[width]).any())
    return np.isfinite(tails).sum(axis=0)


def longest_increasing_chain(points) -> int:
    """Longest chain strictly increasing in both coordinates, by patience sorting."""
    import numpy as np
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return int(_chain_lengths(np.array([len(pts)]), pts)[0])


# Eight marked points whose longest strictly increasing chain has length 3,
# matching the worked unit-square illustration (four segments once the path
# is extended to the corners).
EIGHT_POINT_CONFIGURATION = (
    (0.10, 0.55), (0.20, 0.30), (0.30, 0.80), (0.40, 0.10),
    (0.50, 0.60), (0.65, 0.40), (0.80, 0.90), (0.90, 0.20),
)


# Most Poisson points per Monte Carlo chunk, lam * MC_CHUNK on average (the
# chain kernel takes about 25 MiB at the budget).  It admits lam <= 128, and the
# Bessel series of exp(2 sqrt(lam) cos theta) leaves float range from lam = 195.
POINT_BUDGET = 1 << 19
# Largest order of the float Toeplitz-Bessel minors, O(l^4) flops: 0.5 s at 256.
BESSEL_ORDER_BUDGET = 256


def _poisson_chain_counts(lam: float, l_max: int, n_samples: int, seed: int) -> np.ndarray:
    """Chain-length counts; each chunk draws its point counts, then all its points."""
    import numpy as np
    counts = np.zeros(l_max + 2, dtype=np.int64)
    for size, rng in chunk_streams(seed, n_samples, MC_CHUNK):
        ns = rng.poisson(lam, size)
        chains = _chain_lengths(ns, rng.random((int(ns.sum()), 2)))
        counts += np.bincount(np.minimum(chains, l_max + 1), minlength=l_max + 2)
    return counts


def toeplitz_bessel_minors(cos_coefficient: float, l_max: int) -> list[float]:
    """[D_0, ..., D_lmax]: the l x l Toeplitz determinants of exp(c cos theta).

    The Bessel coefficients are computed once, for the largest order; each
    D_l is then the float determinant of its own l x l matrix.
    """
    if l_max < 0:
        raise ValueError("l must be nonnegative")
    if l_max > BESSEL_ORDER_BUDGET:
        raise BudgetError(f"Toeplitz-Bessel determinants of order {l_max} are over the "
                          f"budget of order {BESSEL_ORDER_BUDGET}")
    if l_max == 0:
        return [1.0]
    import numpy as np
    coeffs, _ = fourier_coefficients(SymbolSpec((ExpCos(cos_coefficient),)),
                                     -(l_max - 1), l_max - 1)
    matrix = np.array([[coeffs[j - k] for k in range(l_max)] for j in range(l_max)],
                      dtype=float)
    return [1.0] + [float(np.linalg.det(matrix[:l, :l])) for l in range(1, l_max + 1)]


def toeplitz_bessel(cos_coefficient: float, l: int) -> float:
    """l x l Toeplitz determinant of the exponential symbol exp(c cos theta)."""
    return toeplitz_bessel_minors(cos_coefficient, l)[l]


def hammersley_check(lam: float, l_max: int, mc_samples: int, seed: int,
                     z_max: float = 4.0) -> VerificationReport:
    """Poisson Monte Carlo against the Toeplitz evaluation of the chain law.

    The normalization of the determinant formula is resolved empirically: the
    four (prefactor, cosine coefficient) candidates built from {1, exp(-lam)}
    and {sqrt(lam), 2 sqrt(lam)} are scored by their worst z-score and the
    winner is reported; the displayed form of the formula (no prefactor,
    coefficient sqrt(lam)) is flagged when it loses.  The point and order
    budgets are checked, and the determinants taken, before any sampling.
    """
    if not 0 < lam < math.inf:
        raise ValueError("intensity must be positive and finite")
    if lam * MC_CHUNK > POINT_BUDGET:
        raise BudgetError(f"intensity {lam} puts about {lam * MC_CHUNK:.6g} points in a chunk "
                          f"of {MC_CHUNK} samples, over the budget of {POINT_BUDGET} points",
                          field="lam")
    root = math.sqrt(lam)
    minors = {c: toeplitz_bessel_minors(c, l_max) for c in (2 * root, root)}
    counts = _poisson_chain_counts(lam, l_max, mc_samples, seed)
    cumulative = counts.cumsum()[: l_max + 1]
    mc = {l: float(cumulative[l] / mc_samples) for l in range(l_max + 1)}
    stderr = {l: math.sqrt(mc[l] * (1 - mc[l]) / mc_samples) for l in mc}

    candidates = {
        "prefactor=exp(-lam), coefficient=2*sqrt(lam)": (math.exp(-lam), 2 * root),
        "prefactor=1, coefficient=2*sqrt(lam)": (1.0, 2 * root),
        "prefactor=exp(-lam), coefficient=sqrt(lam)": (math.exp(-lam), root),
        "prefactor=1, coefficient=sqrt(lam) (as displayed)": (1.0, root),
    }
    tables = {name: [min(pref * d, 1.0) for d in minors[coeff]]
              for name, (pref, coeff) in candidates.items()}
    scores = {name: max(abs(_z_score(mc[l], t, mc_samples)) for l, t in enumerate(table))
              for name, table in tables.items()}
    resolved = min(scores, key=lambda n: scores[n])
    displayed = "prefactor=1, coefficient=sqrt(lam) (as displayed)"

    rows: list[ReportRow] = []
    for l, formula in enumerate(tables[resolved]):
        z = _z_score(mc[l], formula, mc_samples)
        rows.append(ReportRow(l, mc[l], stderr[l], formula, None, None, z,
                              "PASS" if abs(z) <= z_max else "FAIL"))
    notes = {
        "resolved_normalization": resolved,
        "candidate_worst_z": scores,
        "displayed_form_matches": resolved == displayed,
    }
    verdict = "PASS" if all(r.verdict == "PASS" for r in rows) else "FAIL"
    return VerificationReport({"lambda": lam}, "toeplitz-bessel", rows, verdict, notes)

"""Verification pipelines: Monte Carlo vs exact law vs matrix-average formula.

Exact-vs-average comparisons are equalities of rationals; Monte Carlo enters
only through z-scores against the exact value.  The two error models are never
mixed in one verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import ModelSpec, format_rational
from .lpp import MC_CHUNK, chunk_streams, mc_distribution
from .numerics import ExpCos, SymbolSpec, fourier_coefficients
from .rmt import antidiagonal_odd_prefactors, model_rmt_table, rmt_method
from .symfunc import exact_table, pointreflection_selfdual_table


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
    table.  The point-reflection model has no separate average; its exact
    column comes straight from self-dual path sums and the second column is
    the product of two independently computed square-lattice laws.
    """
    point_reflection = spec.variant == "pointreflection"
    second_kind = "johansson-factorization" if point_reflection else rmt_method(spec)
    # the odd-bound prefactor of the anti-diagonal model is resolved at bound 1 or more
    top = max(l_max, 1) if spec.variant == "antidiagonal" else l_max
    # the exact tables check their budgets, so they come before any sampling
    if point_reflection:
        exact_column = pointreflection_selfdual_table(spec.q, l_max)
        second_column = exact_table(spec, l_max)
    else:
        exact_column = exact_table(spec, top)
        second_column = model_rmt_table(spec, top)
    mc = mc_distribution(spec, l_max, mc_samples, seed, threads)
    rows: list[ReportRow] = []
    for l in range(l_max + 1):
        exact, second = exact_column[l], second_column[l]
        z = _z_score(mc.probs[l], float(exact), mc_samples)
        ok = exact == second and abs(z) <= z_max
        rows.append(ReportRow(l, mc.probs[l], mc.stderr[l], exact, second,
                              abs(exact - second), z, "PASS" if ok else "FAIL"))
    notes: dict = {}
    if spec.variant == "antidiagonal":
        notes["odd_bound_prefactor"] = _resolve_antidiagonal_prefactor(
            spec, exact_column, second_column)
    verdict = "PASS" if all(r.verdict == "PASS" for r in rows) else "FAIL"
    return VerificationReport(spec.to_json_dict(), second_kind, rows, verdict, notes)


def _resolve_antidiagonal_prefactor(spec: ModelSpec, exact_column: list[Fraction],
                                    second_column: list[Fraction]) -> dict:
    """Try both candidate prefactors of the odd-bound formula against the exact law.

    The two candidates differ in the index pairing of the cross terms; they
    agree for n = 1.  Whichever reproduces the exact law at every odd bound of
    the columns (bound 1 at least) is reported as 'resolved'; the mismatch of
    the other candidate is reported, not silently fixed.  The second column
    at an odd bound is the standard prefactor times the Sp average, so each
    candidate's value is rescaled from it.
    """
    candidates = antidiagonal_odd_prefactors(spec.q)
    standard = candidates["standard"]
    matches = {name: True for name in candidates}
    worst = {name: Fraction(0) for name in candidates}
    for l in range(1, len(exact_column), 2):
        for name, pref in candidates.items():
            diff = abs(exact_column[l] - pref / standard * second_column[l])
            matches[name] = matches[name] and diff == 0
            worst[name] = max(worst[name], diff)
    return {
        "resolved": next((n for n in ("standard", "printed") if matches[n]), None),
        "matches": matches,
        "max_abs_diff": {n: float(worst[n]) for n in worst},
        "prefactors": {n: format_rational(v) for n, v in candidates.items()},
    }


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
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return int(_chain_lengths(np.array([len(pts)]), pts)[0])


# Eight marked points whose longest strictly increasing chain has length 3,
# matching the worked unit-square illustration (four segments once the path
# is extended to the corners).
EIGHT_POINT_CONFIGURATION = (
    (0.10, 0.55), (0.20, 0.30), (0.30, 0.80), (0.40, 0.10),
    (0.50, 0.60), (0.65, 0.40), (0.80, 0.90), (0.90, 0.20),
)


def _poisson_chain_counts(lam: float, l_max: int, n_samples: int, seed: int) -> np.ndarray:
    """Chain-length counts; each chunk draws its point counts, then all its points."""
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
    if l_max == 0:
        return [1.0]
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
    coefficient sqrt(lam)) is flagged when it loses.
    """
    if lam <= 0:
        raise ValueError("intensity must be positive")
    counts = _poisson_chain_counts(lam, l_max, mc_samples, seed)
    cumulative = np.cumsum(counts)[: l_max + 1]
    mc = {l: float(cumulative[l] / mc_samples) for l in range(l_max + 1)}
    stderr = {l: math.sqrt(mc[l] * (1 - mc[l]) / mc_samples) for l in mc}

    root = math.sqrt(lam)
    candidates = {
        "prefactor=exp(-lam), coefficient=2*sqrt(lam)": (math.exp(-lam), 2 * root),
        "prefactor=1, coefficient=2*sqrt(lam)": (1.0, 2 * root),
        "prefactor=exp(-lam), coefficient=sqrt(lam)": (math.exp(-lam), root),
        "prefactor=1, coefficient=sqrt(lam) (as displayed)": (1.0, root),
    }
    minors = {c: toeplitz_bessel_minors(c, l_max) for c in (2 * root, root)}
    scores: dict[str, float] = {}
    tables: dict[str, list[float]] = {}
    for name, (pref, coeff) in candidates.items():
        table = [min(pref * d, 1.0) for d in minors[coeff]]
        tables[name] = table
        worst = 0.0
        for l in range(l_max + 1):
            if 0.0 < table[l] < 1.0:
                se = math.sqrt(table[l] * (1 - table[l]) / mc_samples)
                worst = max(worst, abs(mc[l] - table[l]) / se)
            elif mc[l] != table[l]:
                worst = math.inf
        scores[name] = worst
    resolved = min(scores, key=lambda n: scores[n])
    displayed = "prefactor=1, coefficient=sqrt(lam) (as displayed)"

    rows: list[ReportRow] = []
    for l in range(l_max + 1):
        formula = tables[resolved][l]
        if 0.0 < formula < 1.0:
            se = math.sqrt(formula * (1 - formula) / mc_samples)
            z = (mc[l] - formula) / se
        else:
            z = 0.0 if mc[l] == formula else math.inf
        rows.append(ReportRow(l, mc[l], stderr[l], formula, None, None, z,
                              "PASS" if abs(z) <= z_max else "FAIL"))
    notes = {
        "resolved_normalization": resolved,
        "candidate_worst_z": scores,
        "displayed_form_matches": resolved == displayed,
    }
    verdict = "PASS" if all(r.verdict == "PASS" for r in rows) else "FAIL"
    return VerificationReport({"lambda": lam}, "toeplitz-bessel", rows, verdict, notes)

import math
from bisect import bisect_left
from fractions import Fraction as F

import numpy as np
import pytest

from symlpp import harness
from symlpp.core import ModelSpec
from symlpp.harness import (
    _chain_lengths,
    _fixed_point_bits,
    _fixed_point_minors,
    _point_runs,
    _poisson_chain_counts,
    hammersley_check,
    longest_increasing_chain,
    toeplitz_bessel,
    toeplitz_bessel_minors,
    verify_model,
)


def test_verify_johansson_geometric_column():
    spec = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),))
    report = verify_model(spec, l_max=3, mc_samples=30_000, seed=2)
    assert report.verdict == "PASS"
    exact = [r.exact_value for r in report.rows]
    assert exact == [F(3, 4), F(15, 16), F(63, 64), F(255, 256)]
    assert [r.second_value for r in report.rows] == exact
    assert all(r.abs_diff == 0 for r in report.rows)
    assert all(abs(r.z_score) <= 4 for r in report.rows)


def test_verify_all_zero_parameters():
    spec = ModelSpec("diagonal", q=(F(0), F(0)), alpha=F(0))
    report = verify_model(spec, l_max=2, mc_samples=200, seed=0)
    assert report.verdict == "PASS"
    for row in report.rows:
        assert row.exact_value == 1
        assert row.second_value == 1
        assert row.mc_estimate == 1.0


def test_verify_doubly_symmetric_parity_rows():
    spec = ModelSpec("doublysymmetric", q=(F(1, 3),), alpha=F(1, 4))
    report = verify_model(spec, l_max=5, mc_samples=20_000, seed=4)
    assert report.verdict == "PASS"
    values = [r.exact_value for r in report.rows]
    assert values[0] == values[1] and values[2] == values[3] and values[4] == values[5]


def test_verify_pointreflection_factorization_column():
    spec = ModelSpec("pointreflection", q=(F(1, 3), F(1, 4)))
    report = verify_model(spec, l_max=4, mc_samples=20_000, seed=5)
    assert report.second_kind == "toeplitz-U-halves"
    assert report.verdict == "PASS"
    for row in report.rows:
        assert isinstance(row.second_value, F)
        assert row.abs_diff == 0


def test_verify_antidiagonal_reports_prefactor_resolution():
    spec = ModelSpec("antidiagonal", q=(F(1, 2), F(1, 5)), beta=F(1, 3))
    report = verify_model(spec, l_max=4, mc_samples=20_000, seed=6)
    note = report.notes["odd_bound_prefactor"]
    assert note["resolved"] == "standard"
    assert note["matches"] == {"standard": True, "printed": False}
    assert note["max_abs_diff"]["printed"] > 0


def test_longest_increasing_chain():
    assert longest_increasing_chain([]) == 0
    assert longest_increasing_chain([(0.1, 0.9)]) == 1
    ascending = [(i / 10, i / 10) for i in range(1, 8)]
    assert longest_increasing_chain(ascending) == 7
    # tails counted past 255, beyond an 8-bit insertion row
    assert longest_increasing_chain([(i, i) for i in range(300)]) == 300
    # equal x cannot stack inside one chain
    assert longest_increasing_chain([(0.5, 0.1), (0.5, 0.2), (0.5, 0.3)]) == 1
    descending = [(i / 10, 1 - i / 10) for i in range(1, 8)]
    assert longest_increasing_chain(descending) == 1


def _patience_chain(points):
    """Reference: one sample at a time, sorted by (x, -y), bisect_left on the tails."""
    tails = []
    for _, y in sorted(points, key=lambda p: (p[0], -p[1])):
        idx = bisect_left(tails, y)
        tails[idx:idx + 1] = [y]
    return len(tails)


def test_batched_chains_match_one_sample_patience_sort():
    rng = np.random.default_rng(4)
    # lam 0: every sample of the chunk is empty
    for lam, size in ((0.5, 300), (4, 300), (30, 60), (0, 50), (0.5, 5000)):
        ns = rng.poisson(lam, size)
        # coarse coordinates, so ties in x, in y and whole points repeat
        points = rng.integers(0, 6, (int(ns.sum()), 2)) / 5
        lengths = _chain_lengths(ns, points)
        starts = np.cumsum(ns) - ns
        expected = [_patience_chain(map(tuple, points[a:a + n])) for a, n in zip(starts, ns)]
        assert lengths.tolist() == expected


# Chain-length counts of `hammersley --lam 100 --lmax 30 --samples 9000
# --seed 0`, recorded before the chain kernel changed: this pins the Monte
# Carlo column only, not the Toeplitz formula column.
PINNED_LAM100_COUNTS = [0] * 11 + [8, 44, 248, 727, 1370, 1870, 1850, 1386, 847, 395,
                                   174, 61, 14, 6] + [0] * 7


def test_lam100_chain_counts_are_pinned():
    counts = _poisson_chain_counts(100.0, 30, 9000, 0)
    assert counts.tolist() == PINNED_LAM100_COUNTS
    report = hammersley_check(100.0, 30, 9000, seed=0)
    assert [r.mc_estimate for r in report.rows] == \
        (np.cumsum(PINNED_LAM100_COUNTS)[:31] / 9000).tolist()


def test_point_runs_cut_at_the_limit_or_at_one_sample(monkeypatch):
    monkeypatch.setattr(harness, "CHAIN_RUN_POINTS", 5)
    runs = [run.tolist() for run in _point_runs(np.array([3, 0, 5, 2, 9, 1, 1, 3, 0]))]
    assert runs == [[3, 0], [5], [2], [9], [1, 1, 3, 0]]
    ns = np.array([2, 1, 2])
    assert [run is ns for run in _point_runs(ns)] == [True]


@pytest.mark.parametrize("lam, n_samples", [(4.0, 5000), (100.0, 300)])
def test_chain_runs_draw_the_same_points(lam, n_samples, monkeypatch):
    # one sample per run (at lam = 100 each over the limit), a few samples per
    # run, and one run per chunk give the same counts
    counts = []
    for run_points in (1, 1000, 1 << 40):
        monkeypatch.setattr(harness, "CHAIN_RUN_POINTS", run_points)
        counts.append(_poisson_chain_counts(lam, 30, n_samples, 3).tolist())
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[0]) == n_samples


# Eight marked points whose longest strictly increasing chain has length 3,
# matching the worked unit-square illustration (four segments once the path
# is extended to the corners).
EIGHT_POINT_CONFIGURATION = (
    (0.10, 0.55), (0.20, 0.30), (0.30, 0.80), (0.40, 0.10),
    (0.50, 0.60), (0.65, 0.40), (0.80, 0.90), (0.90, 0.20),
)


def test_eight_point_configuration_has_chain_three():
    assert longest_increasing_chain(EIGHT_POINT_CONFIGURATION) == 3
    # brute force over all subsets as an independent check
    pts = EIGHT_POINT_CONFIGURATION
    best = 0
    for mask in range(1 << len(pts)):
        chosen = sorted(pts[i] for i in range(len(pts)) if mask >> i & 1)
        if all(a[0] < b[0] and a[1] < b[1] for a, b in zip(chosen, chosen[1:])):
            best = max(best, len(chosen))
    assert best == 3


def test_toeplitz_bessel_small_intensity():
    # Pr(chain <= 0) = exp(-lam): the empty determinant leaves the prefactor
    lam = 0.3
    assert toeplitz_bessel(2 * math.sqrt(lam), 0) == 1.0
    value = math.exp(-lam) * toeplitz_bessel(2 * math.sqrt(lam), 1)
    # one-point squares always chain: Pr(<=1) = Pr(N<=1) + sum_{k>=2} ...
    assert 0 < value < 1


# mpmath at 110 digits: (l, c, e^{-c^2/4} D_l) for the l x l Toeplitz matrix of
# exp(c cos theta); the float c = 2 sqrt(128) has c^2 / 4 within 3e-14 of 128.
MPMATH_MINORS = (
    (10, 20.0, 4.8798400711552117e-5),
    (20, 20.0, 0.97205948011446078),
    (30, 20.0, 0.99999999737468931),
    (30, 2 * math.sqrt(128), 0.9999991635715906),
)


def test_toeplitz_bessel_minors_match_mpmath():
    for l, c, value in MPMATH_MINORS:
        minors = toeplitz_bessel_minors(c, 30)
        assert len(minors) == 31
        assert math.exp(-round(c * c / 4)) * minors[l] == pytest.approx(value, rel=1e-13)
        assert toeplitz_bessel(c, l) == minors[l]
        assert toeplitz_bessel_minors(-c, 30) == minors
    assert toeplitz_bessel_minors(3.0, 0) == [1.0]
    with pytest.raises(ValueError):
        toeplitz_bessel_minors(3.0, -1)


def test_toeplitz_bessel_minors_keep_their_value_at_twice_the_bits():
    for c in (0.5, 4.0, 10.0, 20.0, 2 * math.sqrt(128)):
        bits = _fixed_point_bits(c, 64)
        minors = _fixed_point_minors(c, 64, bits)
        assert minors == toeplitz_bessel_minors(c, 64)
        for l, (d, twice) in enumerate(zip(minors, _fixed_point_minors(c, 64, 2 * bits))):
            assert d == pytest.approx(twice, rel=1e-15), (c, l)


def test_hammersley_check_resolves_normalization():
    report = hammersley_check(2.0, 8, 20_000, seed=11)
    assert report.verdict == "PASS"
    assert report.notes["resolved_normalization"] == \
        "prefactor=exp(-lam), coefficient=2*sqrt(lam)"
    assert report.notes["displayed_form_matches"] is False
    # the resolved table starts at exp(-lam)
    assert report.rows[0].exact_value == pytest.approx(math.exp(-2.0), rel=1e-9)
    with pytest.raises(ValueError):
        hammersley_check(0.0, 4, 100, seed=1)


def test_hammersley_check_passes_at_lam_100():
    # e^{-100} D_20 is 0.972; a float determinant of that order reads -0.83
    report = hammersley_check(100.0, 30, 10_000, seed=0, z_max=6)
    assert report.verdict == "PASS"
    assert report.notes["resolved_normalization"] == \
        "prefactor=exp(-lam), coefficient=2*sqrt(lam)"
    assert report.rows[20].exact_value == pytest.approx(0.97205948011446078, rel=1e-13)


def _bessel_i0_of_twice_root(lam: float) -> float:
    """I_0(2 sqrt(lam)) = sum_N lam^N / (N!)^2; past N = 100 the terms vanish for lam <= 100."""
    terms = [1.0]
    for n in range(1, 100):
        terms.append(terms[-1] * lam / (n * n))
    return math.fsum(terms)


@pytest.mark.parametrize("lam", [0.5, 4.0, 100.0])
def test_hammersley_rows_zero_and_one_are_the_poisson_identities(lam):
    # Pr(L <= 0) = e^-lam and Pr(L <= 1) = e^-lam I_0(2 sqrt(lam)): no point,
    # or N points with no two increasing, weighted lam^N / (N!)^2
    report = hammersley_check(lam, 3, 100, seed=2)
    assert report.rows[0].exact_value == pytest.approx(math.exp(-lam), rel=1e-13)
    assert report.rows[1].exact_value == pytest.approx(
        math.exp(-lam) * _bessel_i0_of_twice_root(lam), rel=1e-13)


def test_report_serialization_shape():
    spec = ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 2),))
    report = verify_model(spec, l_max=1, mc_samples=1000, seed=1)
    data = report.to_json_dict()
    assert data["schema"] == 1
    assert data["verdict"] in ("PASS", "FAIL")
    assert {"l", "mc_estimate", "mc_stderr", "exact_value", "second_value",
            "abs_diff", "z_score", "verdict"} <= set(data["rows"][0])

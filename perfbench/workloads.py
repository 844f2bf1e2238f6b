"""The three workloads: their models, made from the workload seed, and their operations.

Every operation is one `symlpp` CLI invocation with `--out`, except the
tableau batch, which feeds each matrix of the round's `sample` output through
`rsk.rsk` in-process.  Only the variants, sizes, bounds and sample counts are
fixed; parameters are rationals k/d whose denominators d are a seeded
permutation of fixed primes, so exact arithmetic costs the same from seed to
seed.  Every operation runs with `--threads 1`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
VERIFY_SAMPLES = 20_000
Z_MAX = "6"                 # verify/hammersley z gate: a 6-sigma row is never chance
AS_LIMIT_MIB = 2048         # address-space cap for the MemoryError fault child
FIXED_SEED = 0              # seed of the known-fault operations, whatever --seed is


@dataclass
class Op:
    """One timed operation of a round."""

    name: str
    kind: str               # verify | exact | mc | hammersley | sample | tableaux | rmt
    argv: list[str]         # CLI arguments without --out
    work: int               # bounds, samples or matrices the op delivers
    rate: str | None        # the throughput metric its work counts toward
    model: dict | None = None
    fault: str | None = None  # the known fault that makes it fail, if any
    extra: dict = field(default_factory=dict)


def _params(rng: random.Random, n: int, center: Fraction) -> list[str]:
    """n rationals k/d near `center`: d a seeded arrangement of fixed primes,
    k = floor(center * d) or one more, so numerator sizes vary little."""
    dens = list(PRIMES[:n]) if n <= len(PRIMES) else [rng.choice(PRIMES) for _ in range(n)]
    rng.shuffle(dens)
    return [f"{center.numerator * d // center.denominator + rng.randint(0, 1)}/{d}"
            for d in dens]


def _norm_band(q: list[str]) -> bool:
    """prod(1 + q_i) inside (1.15, 2.15): keeps the beta = 1/2 even-bound
    quadrature at one truncation order, hence one grid size, for every seed."""
    prod = 1.0
    for x in q:
        prod *= 1 + float(Fraction(x))
    return 1.15 < prod < 2.15


def _write(workdir: Path, name: str, model: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(model))
    return str(path)


def _verify(workdir, name, model, lmax, seed):
    path = _write(workdir, name, model)
    argv = ["verify", "--model", path, "--lmax", str(lmax), "--samples", str(VERIFY_SAMPLES),
            "--seed", str(seed), "--threads", "1", "--zmax", Z_MAX]
    return Op(name, "verify", argv, lmax + 1, "verify_bounds_per_s", model)


def _exact(workdir, name, model, lmax):
    path = _write(workdir, name, model)
    return Op(name, "exact", ["exact", "--model", path, "--lmax", str(lmax)],
              lmax + 1, "exact_bounds_per_s", model)


def _mc(workdir, name, model, lmax, samples, seed, rate, threads_check=False):
    path = _write(workdir, name, model)
    argv = ["mc", "--model", path, "--lmax", str(lmax), "--samples", str(samples),
            "--seed", str(seed), "--threads", "1"]
    return Op(name, "mc", argv, samples, rate, model, extra={"threads_check": threads_check})


def _hammersley(name, lam, lmax, samples, seed, rate, fault=None):
    argv = ["hammersley", "--lam", str(lam), "--lmax", str(lmax), "--samples", str(samples),
            "--seed", str(seed), "--zmax", Z_MAX]
    return Op(name, "hammersley", argv, samples, rate, None, fault, {"lam": lam})


def groups(seed: int, workdir: Path) -> list[Op]:
    """Symmetrized verify at n = 3: the group-average engines carry the round."""
    rng = random.Random(f"groups-{seed}")
    c = Fraction(1, 4)
    q = _params(rng, 3, c)
    while not _norm_band(q):
        q = _params(rng, 3, c)
    anti = {"variant": "antidiagonal", "q": q, "beta": "1/2"}
    diag = {"variant": "diagonal", "q": _params(rng, 3, c),
            "alpha": _params(rng, 1, Fraction(2, 5))[0]}
    dsym = {"variant": "doublysymmetric", "q": _params(rng, 3, c),
            "alpha": _params(rng, 1, Fraction(2, 5))[0]}
    pref = {"variant": "pointreflection", "q": _params(rng, 3, c)}
    fault_model = {"variant": "antidiagonal", "q": ["1/2", "1/3", "1/4"], "beta": "1/2"}
    fault_path = _write(workdir, "rmt-anti-l8", fault_model)
    return [
        _verify(workdir, "verify-diagonal", diag, 7, seed),
        _verify(workdir, "verify-antidiagonal", anti, 7, seed),
        _verify(workdir, "verify-doublysymmetric", dsym, 9, seed),
        _verify(workdir, "verify-pointreflection", pref, 8, seed),
        Op("rmt-antidiagonal-l8", "rmt", ["rmt", "--model", fault_path, "--l", "8"], 1, None,
           fault_model,
           "rmt._quad_average asks for a 12.4 GiB float64 meshgrid (202^4 nodes) "
           "at l=8, beta=1/2: uncaught MemoryError, exit 1"),
    ]


def schur(seed: int, workdir: Path) -> list[Op]:
    """Exact tables at n = 5: bounded Schur sums over partitions in a box."""
    rng = random.Random(f"schur-{seed}")
    c = Fraction(1, 3)
    joh = {"variant": "johansson", "a": _params(rng, 5, c), "b": _params(rng, 5, c)}
    diag = {"variant": "diagonal", "q": _params(rng, 5, c),
            "alpha": _params(rng, 1, Fraction(2, 5))[0]}
    anti = {"variant": "antidiagonal", "q": _params(rng, 5, c),
            "beta": _params(rng, 1, Fraction(2, 5))[0]}
    bern = {"variant": "bernoulli", "a": _params(rng, 4, c), "b": _params(rng, 6, c)}
    return [
        _exact(workdir, "exact-johansson", joh, 8),
        _exact(workdir, "exact-diagonal", diag, 8),
        _exact(workdir, "exact-antidiagonal", anti, 8),
        _exact(workdir, "exact-bernoulli", bern, 4),
        _verify(workdir, "verify-johansson", joh, 7, seed),
    ]


def sampling(seed: int, workdir: Path) -> list[Op]:
    """Monte Carlo, Poisson chains and tableaux: samplers, DP and insertion."""
    rng = random.Random(f"sampling-{seed}")
    c = Fraction(2, 5)

    def joh(n):
        return {"variant": "johansson", "a": _params(rng, n, c), "b": _params(rng, n, c)}

    bern = {"variant": "bernoulli", "a": _params(rng, 16, c), "b": _params(rng, 16, c)}
    diag8 = {"variant": "diagonal", "q": _params(rng, 8, c),
             "alpha": _params(rng, 1, Fraction(2, 5))[0]}
    sample_path = _write(workdir, "sample-diagonal", diag8)
    return [
        _mc(workdir, "mc-johansson-n4", joh(4), 30, 1_000_000, seed, "mc_n4_samples_per_s"),
        _mc(workdir, "mc-johansson-n16", joh(16), 80, 100_000, seed, "mc_n16_samples_per_s"),
        _mc(workdir, "mc-bernoulli-16x16", bern, 16, 100_000, seed, "mc_n16_samples_per_s"),
        _mc(workdir, "mc-johansson-n64", joh(64), 320, 8192, seed, "mc_n64_samples_per_s",
            threads_check=True),
        _hammersley("hammersley-lam4", 4, 14, 100_000, seed, "hammersley_lam4_samples_per_s"),
        _hammersley("hammersley-lam100", 100, 30, 10_000, FIXED_SEED,
                    "hammersley_lam100_samples_per_s",
                    "rmt.u_average takes a float64 np.linalg.det of the I_k(20) Toeplitz "
                    "matrix (condition ~2.5e16 at order 20); the formula column goes "
                    "negative and the resolver reports FAIL, exit 1"),
        Op("sample-diagonal-n8", "sample",
           ["sample", "--model", sample_path, "--count", "2000", "--seed", str(seed)],
           2000, "tableaux_per_s", diag8),
        Op("tableaux-diagonal-n8", "tableaux", [], 2000, "tableaux_per_s", diag8),
    ]


WORKLOADS = {"groups": groups, "schur": schur, "sampling": sampling}

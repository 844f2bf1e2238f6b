"""Samplers for the six ensembles, passage-time recursions, and Monte Carlo.

Sampling is inverse-CDF on uniform variates (no rejection anywhere), so the
laws are exact and a fixed seed reproduces the run bit for bit.  Monte Carlo
fans out over fixed-size chunks whose generator streams derive from
(seed, chunk_index); the per-chunk counts add commutatively, so the result is
independent of worker count and scheduling.

numpy is imported inside the functions that make or read arrays, so a
process that never samples (`exact`, `rmt`, `rsk`) never loads it.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import (DistributionTable, IntMatrix, ModelSpec, check_table_bound,
                   matrix_from_rows_top_to_bottom, record)
from .variants import variant_of

if TYPE_CHECKING:
    import numpy as np

# Samples per Monte Carlo chunk (`mc`, `verify`, Poisson chains) and matrices
# per `sample` chunk.  Both are part of the pinned output streams: each chunk
# has its own generator, so another size gives other draws.
MC_CHUNK = 4096
SAMPLE_CHUNK = 1024


# ---------------------------------------------------------------------------
# Site plans: which positions get sampled under which law, and which positions
# the symmetry then fills with the same value.
# ---------------------------------------------------------------------------


@record
class _Site:
    law: str                      # geom | bernoulli | parity_geom
    params: tuple[float, ...]     # geom/bernoulli: (p,); parity_geom: (q, beta)
    positions: tuple[tuple[int, int], ...]


@lru_cache(maxsize=32)
def _site_plan(spec: ModelSpec) -> tuple[_Site, ...]:
    """One site per orbit of the model's symmetry, in row-major order of the
    cell that comes first in its orbit under (i + j, i); its law is the
    record's law of that cell.  Cached: the one-matrix sampler of symlpp.oracles
    asks for it per matrix.  A geometric or parity site whose largest draw
    (53 ln 2 / -ln p, as w = 1 - u >= 2^-53) times the n_rows + n_cols - 1 cells
    of a path overflows int64, p = 1.0 among them, raises ValueError."""
    variant = variant_of(spec)
    n_rows, n_cols = spec.matrix_shape
    sites: list[_Site] = []
    for i in range(1, n_rows + 1):
        for j in range(1, n_cols + 1):
            orbit = variant.orbit(n_rows, i, j)
            if min(orbit, key=lambda cell: (cell[0] + cell[1], cell[0])) == (i, j):
                law, params = variant.site(spec, i, j)
                if law != "bernoulli" and 0 < params[0] and math.log(params[0]) * -2.0**63 \
                        <= 53 * math.log(2) * (n_rows + n_cols - 1):
                    raise ValueError(f"site ({i},{j}) parameter {params[0]!r} is too close to 1")
                sites.append(_Site(law, params, tuple(sorted(orbit))))
    return tuple(sites)


# ---------------------------------------------------------------------------
# Inverse-CDF draws and the batch sampler
# ---------------------------------------------------------------------------


def _draw_vector(site: _Site, u: np.ndarray, out: np.ndarray | None = None,
                 scratch: bool = False) -> np.ndarray:
    """Draws of `site`'s law from uniforms `u` on [0, 1), stored into `out`.

    With w = 1 - u: a geometric site (survival Pr(X >= k) = p^k) draws
    floor(log(w) / log(p)), where log(0) = -inf gives 0; a Bernoulli site
    draws u < p / (1 + p).  For the parity-weighted geometric law, Pr(k)
    proportional to beta^(k mod 2) q^k, [0,1) splits into consecutive
    survival intervals Pr(X >= 2j) = q^(2j) and
    Pr(X >= 2j+1) = q^(2j+1) (beta+q)/(1+beta q); the draw is the largest k
    whose survival still covers w.

    Only `out` is written, unless `scratch` is set: then `u` holds w and its
    logarithm along the way and is overwritten.
    """
    import numpy as np
    if out is None:
        out = np.empty(u.shape, dtype=np.int64)
    if site.law == "bernoulli":
        p = site.params[0]
        out[...] = u < p / (1 + p)
        return out
    w = np.subtract(1.0, u, out=u) if scratch else 1.0 - u
    if site.law == "geom":
        p = site.params[0]
        np.log(w, out=w)
        w /= math.log(p) if p > 0.0 else -math.inf
        out[...] = np.floor(w, out=w)
        return out
    q, beta = site.params
    if q <= 0.0:
        out[...] = 0
        return out
    j = np.floor(np.log(w) / (2 * math.log(q))).astype(np.int64)
    j = np.where((j > 0) & (q ** (2 * j) < w), j - 1, j)
    j = np.where(q ** (2 * j + 2) >= w, j + 1, j)
    odd_survival = q ** (2 * j + 1) * (beta + q) / (1 + beta * q)
    out[...] = 2 * j + (odd_survival >= w)
    return out


def _sample_grid(plan: tuple[_Site, ...], shape: tuple[int, int], rng: np.random.Generator,
                 count: int) -> np.ndarray:
    """`count` matrices as one (count, rows, cols) array, bottom row first; each
    matrix takes one uniform per site, in plan order."""
    import numpy as np
    u = rng.random((count, len(plan)))
    grid = np.empty((count, *shape), dtype=np.int64)
    for site, column in zip(plan, u.T):
        (i, j), *images = site.positions
        values = _draw_vector(site, column, grid[:, i - 1, j - 1])
        for (i, j) in images:
            grid[:, i - 1, j - 1] = values
    return grid


def chunk_streams(seed: int, total: int, size: int):
    """(size, generator) for each chunk of `total` draws, `size` per full chunk.

    Chunk k draws from SeedSequence(seed, spawn_key=(k,)), so the draws do not
    depend on how the chunks are spread over workers.
    """
    import numpy as np
    for index, start in enumerate(range(0, total, size)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        yield min(size, total - start), np.random.default_rng(seq)


def sample_chunks(spec: ModelSpec, count: int, seed: int):
    """The `count` matrices of `seed`, one list per chunk of SAMPLE_CHUNK, drawn
    as the caller asks for it; each matrix is a list of rows, top row first.
    The site plan is checked at the call, before any chunk is drawn."""
    plan = _site_plan(spec)
    return (_sample_grid(plan, spec.matrix_shape, rng, size)[:, ::-1].tolist()
            for size, rng in chunk_streams(seed, count, SAMPLE_CHUNK))


@record
class SampleBatch:
    spec: ModelSpec
    seed: int
    matrices: tuple[IntMatrix, ...]


def sample_batch(spec: ModelSpec, count: int, seed: int) -> SampleBatch:
    """Deterministic batch: the matrices of `sample_chunks`, held together."""
    return SampleBatch(spec, seed, tuple(matrix_from_rows_top_to_bottom(rows)
                                         for chunk in sample_chunks(spec, count, seed)
                                         for rows in chunk))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _entry_rows(plan: tuple[_Site, ...], shape: tuple[int, int], rng: np.random.Generator,
                count: int):
    """A chunk's `count` matrices row by row, bottom row first, each row as a
    (cols, count) array, yielded once the sites drawn so far fill it and every
    row below it.  Uniforms are drawn site-major: `count` per site, in plan
    order, into one buffer that each site's draw then uses as scratch.
    """
    import numpy as np
    n_rows, n_cols = shape
    last_site = {i: s for s, site in enumerate(plan) for i, _ in site.positions}
    rows: dict[int, np.ndarray] = {}
    u = np.empty(count)

    def cell(i, j):
        if i not in rows:
            rows[i] = np.empty((n_cols, count), dtype=np.int64)
        return rows[i][j - 1]

    done = 0
    for s, site in enumerate(plan):
        first, *images = site.positions
        values = _draw_vector(site, rng.random(out=u), cell(*first), scratch=True)
        for (i, j) in images:
            cell(i, j)[...] = values
        while done < n_rows and last_site[done + 1] <= s:
            done += 1
            yield rows.pop(done)


def _batch_last_passage(rows, n_cols: int, count: int) -> np.ndarray:
    import numpy as np
    scores = np.zeros((n_cols, count), dtype=np.int64)
    for row in rows:
        scores[0] += row[0]
        for j in range(1, n_cols):
            np.maximum(scores[j], scores[j - 1], out=scores[j])
            scores[j] += row[j]
    return scores[-1]


def _batch_bernoulli_passage(rows) -> np.ndarray:
    import numpy as np
    scores = next(rows)
    for row in rows:
        for j in range(1, len(scores)):  # prefix max over columns, in place
            np.maximum(scores[j], scores[j - 1], out=scores[j])
        row += scores
        scores = row
    return scores.max(axis=0)


def _chunk_counts(spec: ModelSpec, plan: tuple[_Site, ...], l_max: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    rows = _entry_rows(plan, spec.matrix_shape, rng, count)
    if variant_of(spec).binary:
        stat = _batch_bernoulli_passage(rows)
    else:
        stat = _batch_last_passage(rows, spec.matrix_shape[1], count)
    clipped = np.clip(stat, 0, l_max + 1)
    return np.bincount(clipped, minlength=l_max + 2)


def mc_distribution(spec: ModelSpec, l_max: int, n_samples: int, seed: int,
                    threads: int = 1) -> DistributionTable:
    """Empirical cumulative law of the class statistic with binomial standard errors."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    check_table_bound(l_max)
    plan = _site_plan(spec)

    def run(chunk):
        count, rng = chunk
        return _chunk_counts(spec, plan, l_max, count, rng)

    # no more workers than CPUs: map submits every chunk at once, and the pool
    # starts a thread per submitted chunk up to max_workers
    workers = min(threads, os.cpu_count() or 1)
    # chunk counts are added as they arrive, so memory does not grow with
    # the number of chunks times l_max
    chunks = chunk_streams(seed, n_samples, MC_CHUNK)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(run, chunks))
    else:
        counts = sum(map(run, chunks))
    return empirical_table(counts, n_samples)


def empirical_table(counts: np.ndarray, n_samples: int) -> DistributionTable:
    """Pr(L <= l) with binomial standard errors from the counts of `n_samples` samples:
    counts[l] at L = l, for l up to len(counts) - 2, and the last bin the rest."""
    import numpy as np
    probs = counts.cumsum()[:-1] / n_samples
    stderr = np.sqrt(probs * (1 - probs) / n_samples)
    return DistributionTable(dict(enumerate(probs.tolist())), exact=False,
                             stderr=dict(enumerate(stderr.tolist())))

"""Row-insertion and dual correspondences for integer matrices, plus evacuation.

The biword of a matrix is read with the bottom row (i = 1) first and columns
left to right inside each row; entry x_{i,j} = k contributes k copies of the
biletter (i, j).  Insertion puts the column index j into the first tableau and
records the row index i in the second, so for a matrix distributed with row
weights a_i and column weights b_j the recording side carries the a-content and
the insertion side the b-content.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import IntMatrix, Partition, alternating_sum, conjugate


@dataclass(frozen=True)
class Tableau:
    """Semistandard filling: rows weakly increase, columns strictly increase."""

    rows: tuple[tuple[int, ...], ...]
    content_bound: int

    def __post_init__(self):
        rows = tuple(tuple(map(int, r)) for r in self.rows if len(r) > 0)
        object.__setattr__(self, "rows", rows)
        if self.content_bound < 0:
            raise ValueError("content bound must be nonnegative")
        for r in rows:
            if any(map(operator.gt, r, r[1:])):
                raise ValueError(f"row not weakly increasing: {r}")
            if r[0] < 1 or r[-1] > self.content_bound:
                raise ValueError(f"entries of {r} outside 1..{self.content_bound}")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            if any(map(operator.ge, upper, lower)):
                raise ValueError("columns must strictly increase")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    def content(self) -> dict[int, int]:
        """Multiplicity of each letter 1..content_bound."""
        counts = {k: 0 for k in range(1, self.content_bound + 1)}
        for r in self.rows:
            for x in r:
                counts[x] += 1
        return counts

    def __str__(self):
        if not self.rows:
            return "(empty)"
        return "\n".join(" ".join(f"{x:2d}" for x in r) for r in self.rows)


@dataclass(frozen=True)
class TableauPair:
    p: Tableau
    q: Tableau


def _transpose_rows(rows: list[list[int]]) -> list[tuple[int, ...]]:
    if not rows:
        return []
    cols: list[list[int]] = [[] for _ in range(len(rows[0]))]
    for r in rows:
        for j, x in enumerate(r):
            cols[j].append(x)
    return [tuple(c) for c in cols]


def _insert_rsk(rows: list[list[int]], x: int) -> int:
    """Row-insert x, bumping the leftmost entry > x; returns the row index of the new cell."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return r
        row = rows[r]
        pos = bisect_right(row, x)
        if pos == len(row):
            row.append(x)
            return r
        x, row[pos] = row[pos], x
        r += 1


def _insert_dual(rows: list[list[int]], x: int) -> int:
    """Insert x keeping rows strictly increasing, bumping the leftmost entry >= x."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return r
        row = rows[r]
        pos = bisect_left(row, x)
        if pos == len(row):
            row.append(x)
            return r
        x, row[pos] = row[pos], x
        r += 1


def rsk(X: IntMatrix) -> TableauPair:
    """Row-insertion correspondence; shapes of P and Q agree and |shape| = sum of entries."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, row in enumerate(X.rows, 1):
        for j, x in enumerate(row, 1):
            for _ in range(x):
                r = _insert_rsk(p_rows, j)
                if r == len(q_rows):
                    q_rows.append([i])
                else:
                    q_rows[r].append(i)
    p = Tableau(tuple(tuple(r) for r in p_rows), X.n_cols)
    q = Tableau(tuple(tuple(r) for r in q_rows), X.n_rows)
    return TableauPair(p, q)


def rsk_shape(X: IntMatrix) -> Partition:
    return rsk(X).p.shape


def dual_rsk(X: IntMatrix) -> TableauPair:
    """Dual correspondence for 0/1 matrices.

    For an m x n binary matrix the result has shape(p) conjugate to shape(q):
    p records row indices (content bound m) on the conjugate shape, q holds
    column indices (content bound n), and shape(q)_1 <= m always.
    """
    rows_strict: list[list[int]] = []
    record: list[list[int]] = []
    for i, row in enumerate(X.rows, 1):
        for j, x in enumerate(row, 1):
            if x not in (0, 1):
                raise ValueError(f"dual correspondence needs 0/1 entries, got {x} at ({i},{j})")
            if x == 0:
                continue
            r = _insert_dual(rows_strict, j)
            if r == len(record):
                record.append([i])
            else:
                record[r].append(i)
    p = Tableau(tuple(tuple(r) for r in record), X.n_rows)
    q = Tableau(tuple(_transpose_rows(rows_strict)), X.n_cols)
    return TableauPair(p, q)


def evacuate(t: Tableau) -> Tableau:
    """Schuetzenberger evacuation: a shape-preserving involution sending letter k to n+1-k.

    Repeatedly removes the corner entry at (1,1), slides the hole to an outer
    corner with inward jeu-de-taquin moves (ties go to the cell below so column
    strictness survives), and writes the complemented removed letter at the
    vacated cell of the output.
    """
    n = t.content_bound
    work = [list(r) for r in t.rows]
    out: list[list] = [[None] * len(r) for r in t.rows]
    remaining = sum(len(r) for r in work)
    while remaining:
        removed = work[0][0]
        r, c = 0, 0
        while True:
            right = work[r][c + 1] if c + 1 < len(work[r]) else None
            below = work[r + 1][c] if r + 1 < len(work) and c < len(work[r + 1]) else None
            if right is None and below is None:
                break
            if below is not None and (right is None or below <= right):
                work[r][c] = below
                r += 1
            else:
                work[r][c] = right
                c += 1
        work[r].pop()
        if not work[r]:
            work.pop()
        out[r][c] = n + 1 - removed
        remaining -= 1
    return Tableau(tuple(tuple(r) for r in out), n)


def _word_of(t: Tableau) -> list[int]:
    """Row reading word, bottom row first, left to right."""
    word = []
    for r in reversed(t.rows):
        word.extend(r)
    return word


def insertion_tableau(word, content_bound: int) -> Tableau:
    rows: list[list[int]] = []
    for x in word:
        _insert_rsk(rows, x)
    return Tableau(tuple(tuple(r) for r in rows), content_bound)


def evacuate_by_word(t: Tableau) -> Tableau:
    """Independent route to evacuation: insert the reversed, complemented reading word."""
    n = t.content_bound
    return insertion_tableau([n + 1 - x for x in reversed(_word_of(t))], n)


# ---------------------------------------------------------------------------
# Symmetry lemmas
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def check_symmetry_lemmas(X: IntMatrix, symmetry_class: str) -> dict[str, bool]:
    """Verify the tableau-side consequences of a matrix symmetry.

    symmetry_class is one of 'diagonal', 'antidiagonal', 'doublysymmetric',
    'pointreflection'.  The matrix must actually have the claimed symmetry
    (checked, error if not); the returned mapping gives one boolean per lemma:

      p_equals_q          X = X^T forces P = Q
      trace_alt_sum       X = X^T forces trace(X) = mu_1 - mu_2 + mu_3 - ...
      odd_counts          X = X^R forces #odd anti-diagonal entries
                          = #odd parts of mu = alternating_sum(mu')
      q_is_evacuated_p    X = X^R forces Q = evacuate(P)
      p_evacuation_fixed  X = X^T = X^R forces evacuate(P) = P
      all_parts_even      even anti-diagonal entries force an even shape
      q_evacuation_fixed  point reflection forces evacuate(Q) = Q
    """
    if symmetry_class not in ("diagonal", "antidiagonal", "doublysymmetric", "pointreflection"):
        raise ValueError(f"no symmetry lemmas for class {symmetry_class!r}")
    n = X.n_rows
    _require(n == X.n_cols, "symmetry lemmas need a square matrix")
    if symmetry_class in ("diagonal", "doublysymmetric"):
        _require(X == X.transpose(), "matrix is not symmetric about the diagonal")
    if symmetry_class in ("antidiagonal", "doublysymmetric"):
        _require(X == X.anti_transpose(), "matrix is not symmetric about the anti-diagonal")
    if symmetry_class == "doublysymmetric":
        _require(all(X.entry(i, n + 1 - i) % 2 == 0 for i in range(1, n + 1)),
                 "anti-diagonal entries must be even")
    if symmetry_class == "pointreflection":
        _require(X == X.rotate180(), "matrix is not point-reflection symmetric")

    pair = rsk(X)
    mu = pair.p.shape
    report: dict[str, bool] = {}

    if symmetry_class in ("diagonal", "doublysymmetric"):
        report["p_equals_q"] = pair.p == pair.q
        report["trace_alt_sum"] = X.trace() == alternating_sum(mu)
    if symmetry_class in ("antidiagonal", "doublysymmetric"):
        odd_anti = sum(X.entry(i, n + 1 - i) % 2 for i in range(1, n + 1))
        odd_parts = sum(p % 2 for p in mu.parts)
        report["odd_counts"] = odd_anti == odd_parts == alternating_sum(conjugate(mu))
        report["q_is_evacuated_p"] = pair.q == evacuate(pair.p)
    if symmetry_class == "doublysymmetric":
        report["p_evacuation_fixed"] = evacuate(pair.p) == pair.p
        report["all_parts_even"] = all(p % 2 == 0 for p in mu.parts)
    if symmetry_class == "pointreflection":
        report["p_evacuation_fixed"] = evacuate(pair.p) == pair.p
        report["q_evacuation_fixed"] = evacuate(pair.q) == pair.q
    return report

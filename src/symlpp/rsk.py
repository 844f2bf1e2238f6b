"""The row-insertion correspondence (RSK) of an integer matrix, and its budget.

The biword of a matrix is read with the bottom row (i = 1) first and columns
left to right inside each row; entry x_{i,j} = k contributes k copies of the
biletter (i, j).  Insertion puts the column index j into the first tableau and
records the row index i in the second, so for a matrix distributed with row
weights a_i and column weights b_j the recording side carries the a-content and
the insertion side the b-content.
"""

from __future__ import annotations

import operator
from bisect import bisect_right

from .core import BudgetError, IntMatrix, Partition, record

# Most steps the `rsk` command may spend on a matrix, checked before the
# IntMatrix is built.  Each letter (the entries' total) is inserted once and
# bumps through at most min(n_rows, n_cols) rows of P; it is charged that many
# steps plus RSK_LETTER_STEPS for its tableau records and JSON, and each cell
# RSK_LETTER_STEPS for its tuple entry and JSON.  At the budget a fresh
# `symlpp rsk` took 0.5 to 1.5 s and peaked at 26 to 75 MiB RSS on a 2-CPU host,
# over square matrices from 1 x 1 (508k letters) to 724 x 724 (no letters).
RSK_STEP_BUDGET = 1 << 24
RSK_LETTER_STEPS = 32


@record
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


@record
class TableauPair:
    p: Tableau
    q: Tableau


def _insert(rows: list[list[int]], x: int, bisect) -> int:
    """Row-insert x, bumping the entry at bisect(row, x): the leftmost entry > x with
    bisect_right (RSK), >= x with bisect_left (rows strictly increasing).  Returns
    the row index of the new cell."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return r
        row = rows[r]
        pos = bisect(row, x)
        if pos == len(row):
            row.append(x)
            return r
        x, row[pos] = row[pos], x
        r += 1


def check_rsk_budget(rows) -> None:
    depth = min(len(rows), len(rows[0])) if rows else 0
    letters, cells = sum(map(sum, rows)), sum(map(len, rows))
    steps = letters * (depth + RSK_LETTER_STEPS) + cells * RSK_LETTER_STEPS
    if steps > RSK_STEP_BUDGET:
        raise BudgetError(f"{cells} cells and the insertion of {letters} letters into at most "
                          f"{depth} rows cost about {steps} steps, over the budget of "
                          f"{RSK_STEP_BUDGET} steps", field="matrix")


def rsk(X: IntMatrix) -> TableauPair:
    """Row-insertion correspondence; shapes of P and Q agree and |shape| = sum of entries."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, row in enumerate(X.rows, 1):
        for j, x in enumerate(row, 1):
            for _ in range(x):
                r = _insert(p_rows, j, bisect_right)
                if r == len(q_rows):
                    q_rows.append([i])
                else:
                    q_rows[r].append(i)
    p = Tableau(tuple(tuple(r) for r in p_rows), X.n_cols)
    q = Tableau(tuple(tuple(r) for r in q_rows), X.n_rows)
    return TableauPair(p, q)

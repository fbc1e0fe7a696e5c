"""Exact rational linear algebra for the order-by-order solvers.

Tiny dense Gaussian elimination over ``Fraction``; dimensions here are the
manifold dimension (a handful), so nothing clever is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple


def _eliminate(rows: List[list], ncols: int) -> Tuple[List[int], Fraction]:
    """Forward elimination of ``rows``, in place, over its first ``ncols``
    columns.

    Each column pivots on its first nonzero entry at or below the current
    rank; a column with none is skipped.  Rows below the rank end zero in the
    first ``ncols`` columns; later columns (a right-hand side) are carried
    along.  Returns the pivot columns and the product of the pivots, negated
    once per row swap.
    """
    pivots: List[int] = []
    product = Fraction(1)
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            product = -product
        top = rows[rank]
        product *= top[col]
        for row in rows[rank + 1:]:
            if row[col] != 0:
                factor = Fraction(row[col]) / top[col]
                row[col + 1:] = [v - factor * t
                                 for v, t in zip(row[col + 1:], top[col + 1:])]
                row[col] = 0
        pivots.append(col)
    return pivots, product


def determinant(m: Sequence[Sequence[Fraction]]) -> Fraction:
    a = [list(row) for row in m]
    pivots, product = _eliminate(a, len(a))
    return product if len(pivots) == len(a) else Fraction(0)


class SingularSystemError(ValueError):
    """A linear system has no solution or more than one."""


def solve_overdetermined(m: Sequence[Sequence[Fraction]],
                         rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve an m x n system with m >= n exactly.

    Raises SingularSystemError if no solution exists or if the coefficient
    matrix has rank below n.
    """
    rows = [list(row) + [b] for row, b in zip(m, rhs)]
    ncols = len(m[0]) if m else 0
    pivots, _ = _eliminate(rows, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        raise SingularSystemError("no exact solution")
    if len(pivots) < ncols:
        raise SingularSystemError("rank deficient system")
    # full rank: row r pivots on column r
    solution: List[Fraction] = [Fraction(0)] * ncols
    for r in reversed(range(ncols)):
        row = rows[r]
        tail = sum((row[c] * solution[c] for c in range(r + 1, ncols)),
                   Fraction(0))
        solution[r] = (row[ncols] - tail) / row[r]
    return solution

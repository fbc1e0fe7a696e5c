"""Exact rational linear algebra for the order-by-order solvers.

Tiny dense Gaussian elimination over ``Fraction``; dimensions here are the
manifold dimension (a handful), so nothing clever is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence


def determinant(m: Sequence[Sequence[Fraction]]) -> Fraction:
    a = [list(row) for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


class InconsistentSystem(ValueError):
    pass


class UnderdeterminedSystem(ValueError):
    pass


def solve_overdetermined(m: Sequence[Sequence[Fraction]],
                         rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve an m x n system with m >= n exactly.

    Raises InconsistentSystem if no solution exists and UnderdeterminedSystem
    if the coefficient matrix has rank below n.
    """
    rows = [list(row) + [b] for row, b in zip(m, rhs)]
    ncols = len(m[0]) if m else 0
    rank = 0
    pivots: List[int] = []
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][ncols] != 0:
            raise InconsistentSystem("no exact solution")
    if rank < ncols:
        raise UnderdeterminedSystem("rank deficient system")
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][ncols]
    return solution

from fractions import Fraction

import pytest

from flatcirc.linalg import (SingularSystemError, determinant,
                             solve_overdetermined)


class TestDeterminant:
    def test_singular_matrix_gives_zero(self):
        assert determinant([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0

    def test_row_swap_flips_the_sign(self):
        m = [[Fraction(1, 2), 3, 0], [0, 2, 1], [4, 0, Fraction(-1, 3)]]
        swapped = [m[1], m[0], m[2]]
        assert determinant(m) == Fraction(35, 3)
        assert determinant(swapped) == -determinant(m)

    def test_int_input_gives_a_fraction(self):
        det = determinant([[2, 1], [1, 1]])
        assert type(det) is Fraction and det == 1


class TestSolveOverdetermined:
    def test_consistent_system_is_solved(self):
        # x = 1/2, y = -3; the first column pivots on the second row
        m = [[0, 1], [2, 1], [1, 1]]
        rhs = [-3, -2, Fraction(-5, 2)]
        solution = solve_overdetermined(m, rhs)
        assert solution == [Fraction(1, 2), -3]
        assert all(type(v) is Fraction for v in solution)

    def test_inconsistent_system(self):
        with pytest.raises(SingularSystemError, match="^no exact solution$"):
            solve_overdetermined([[1, 0], [0, 1], [1, 1]], [1, 1, 3])

    def test_consistent_rank_deficient_system(self):
        with pytest.raises(SingularSystemError,
                           match="^rank deficient system$"):
            solve_overdetermined([[1, 2], [2, 4], [3, 6]], [1, 2, 3])

    def test_inconsistency_is_reported_before_rank(self):
        with pytest.raises(SingularSystemError, match="^no exact solution$"):
            solve_overdetermined([[1, 2], [2, 4], [3, 6]], [1, 2, 4])

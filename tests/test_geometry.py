from fractions import Fraction

import pytest

from flatcirc.geometry import (Connection, EndField, FlatnessError,
                               HiggsField, VectorField, covariant_derivative,
                               curvature, lie_bracket,
                               pencil_curvature_split, tensor_first_offending,
                               tensor_vanishes_through, torsion)
from flatcirc.series import TruncatedSeries

CAP = 6


def x(axis, n=2):
    return TruncatedSeries.variable(n, CAP, axis)


def c(v, n=2):
    return TruncatedSeries.constant(n, CAP, v)


def zero(n=2):
    return TruncatedSeries.zero(n, CAP)


class TestVectorField:
    def test_apply_is_derivation(self):
        v = VectorField((x(0), c(2)))  # x0 d0 + 2 d1
        f = x(0) * x(1)
        assert v.apply(f).coeffs == {(1, 1): Fraction(1), (1, 0): Fraction(2)}

    def test_basis(self):
        e0 = VectorField.basis(2, CAP, 0)
        assert e0.components[0].constant_term == 1
        assert e0.components[1].coeffs == {}

    def test_lie_bracket_euler(self):
        e = VectorField.basis(2, CAP, 0)
        euler = VectorField((x(0), c(2)))
        b = lie_bracket(euler, e)
        assert b.components[0].coeffs == {(0, 0): Fraction(-1)}
        assert b.components[1].coeffs == {}

    def test_bracket_antisymmetric(self):
        a = VectorField((x(0) * x(1), x(1) * x(1)))
        b = VectorField((x(1), x(0)))
        lhs = lie_bracket(a, b)
        rhs = lie_bracket(b, a)
        assert (lhs + rhs).vanishes_through(lhs.valid_to)

    def test_jacobi(self):
        a = VectorField((x(0) * x(1), zero()))
        b = VectorField((x(1), x(0)))
        d = VectorField((c(1), x(0) * x(0)))
        s = lie_bracket(a, lie_bracket(b, d)) \
            + lie_bracket(b, lie_bracket(d, a)) \
            + lie_bracket(d, lie_bracket(a, b))
        assert s.vanishes_through(s.valid_to - 1)


class TestEndField:
    def test_identity(self):
        i = EndField.identity(2, CAP)
        v = VectorField((x(1), x(0) * x(0)))
        assert (i.apply(v) - v).vanishes_through(CAP)

    def test_commutator_of_noncommuting(self):
        a = EndField(((zero(), c(1)), (zero(), zero())))
        b = EndField(((zero(), zero()), (c(1), zero())))
        comm = a.commutator(b)
        assert comm.matrix[0][0].constant_term == 1
        assert comm.matrix[1][1].constant_term == -1


class TestConnection:
    def test_flat_connection_has_zero_curvature(self):
        conn = Connection.zero(2, CAP)
        assert tensor_vanishes_through(curvature(conn), CAP)

    def test_covariant_derivative_flat_frame(self):
        conn = Connection.zero(2, CAP)
        v = VectorField((x(0) * x(1), zero()))
        w = covariant_derivative(conn, VectorField.basis(2, CAP, 1), v)
        assert w.components[0].coeffs == {(1, 0): Fraction(1)}

    def test_torsion_detects_asymmetry(self):
        gamma = HiggsField.build(
            2, lambda a, b, c_: x(1) if (a, b, c_) == (0, 1, 0) else zero())
        t = torsion(Connection(gamma.tensor))
        assert not tensor_vanishes_through(t, CAP)


class TestPencilSplit:
    def _structure(self):
        # d1 o d1 = exp-like series times d0; d0 is the identity
        exp1 = TruncatedSeries(2, CAP, CAP,
                               {(0, k): Fraction(1, [1, 1, 2, 6, 24, 120, 720][k])
                                for k in range(CAP + 1)})

        def entry(a, b, c_):
            if a == 0:
                return c(1) if b == c_ else zero()
            if b == 0:
                return c(1) if a == c_ else zero()
            return exp1 if c_ == 0 else zero()

        return HiggsField.build(2, entry)

    def test_split_vanishes_for_compatible_structure(self):
        higgs = self._structure()
        r1, r2 = pencil_curvature_split(higgs, Connection.zero(2, CAP))
        assert tensor_vanishes_through(r1, CAP - 1)
        assert tensor_vanishes_through(r2, CAP)

    def test_split_agrees_with_direct_curvature(self):
        # at lambda = 1 the curvature of base + A must equal R1 + R2
        higgs = self._structure()
        base = Connection.zero(2, CAP)
        r1, r2 = pencil_curvature_split(higgs, base)
        at_one = curvature(base.shifted(higgs, Fraction(1)))
        n = 2
        for a in range(n):
            for b in range(n):
                for cc in range(n):
                    for d in range(n):
                        diff = at_one[a][b][cc][d] - r1[a][b][cc][d] \
                            - r2[a][b][cc][d]
                        assert diff.vanishes_through(diff.valid_to)

    def test_quadratic_part_detects_nonassociativity(self):
        prod = HiggsField.build(
            2, lambda a, b, c_: c(1) if (a == b == 1 and c_ == 1) or
            (a == b == 0 and c_ == 0) else zero())
        _, r2 = pencil_curvature_split(prod, Connection.zero(2, CAP))
        assert tensor_vanishes_through(r2, CAP)  # diagonal algebra: associative
        # d0 o d0 = d1, d0 o d1 = d0, d1 o d1 = -d1: commutative, slices
        # [[0,1],[1,0]] and [[1,0],[0,-1]] do not commute
        values = {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 1): -1}
        skew = HiggsField.build(
            2, lambda a, b, c_: c(values.get((a, b, c_), 0)))
        _, r2b = pencil_curvature_split(skew, Connection.zero(2, CAP))
        # this commutative product is not associative, so R2 != 0
        assert not tensor_vanishes_through(r2b, CAP)

    def test_nonflat_base_rejected(self):
        gamma = HiggsField.build(
            2, lambda a, b, c_: x(0) if (a, b, c_) == (1, 1, 0) else zero())
        bad = Connection(gamma.tensor)
        with pytest.raises(FlatnessError):
            pencil_curvature_split(self._structure(), bad)


class TestTensorHelpers:
    def test_first_offending_picks_lowest_degree(self):
        t = ((TruncatedSeries(1, CAP, CAP, {(2,): Fraction(5)}),
              TruncatedSeries(1, CAP, CAP, {(1,): Fraction(3)})),)
        hit = tensor_first_offending(t)
        assert hit == ((0, 1), (1,), Fraction(3))

    def test_first_offending_lies_inside_the_proven_degree(self):
        t = ((TruncatedSeries(2, CAP, 2, {(0, 5): Fraction(7),
                                          (1, 0): Fraction(1)}),),)
        hit = tensor_first_offending(t)
        assert hit == ((0, 0), (1, 0), Fraction(1))

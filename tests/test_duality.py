from fractions import Fraction

import pytest

from flatcirc.duality import (NotFlatSectionError, NotInvertibleError,
                              circ_inverse, dual_structure, duality_verify,
                              flat_section_solve, primitive_section)
from flatcirc.fmanifold import five_term_residual, shift_base
from flatcirc.geometry import (Connection, VectorField, lie_bracket,
                               pencil_curvature_split,
                               tensor_vanishes_through)
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries, exp_series

CAP = 8


def qc():
    return load_model("qc-p1").instantiate(CAP).structure


def qc_epsilon():
    # exp(-x1) d1
    x1 = TruncatedSeries.variable(2, CAP, 1)
    return VectorField((TruncatedSeries.zero(2, CAP), exp_series(-x1)))


class TestCircInverse:
    def test_inverse_of_identity(self):
        s = qc()
        inv = circ_inverse(s, s.identity)
        assert (inv - s.identity).vanishes_through(s.valid_to)

    def test_inverse_property(self):
        s = qc()
        eps = qc_epsilon()
        inv = circ_inverse(s, eps)
        prod = s.multiply(eps, inv)
        diff = prod - s.identity
        assert diff.vanishes_through(min(c.valid_to
                                         for c in diff.components))

    def test_nilpotent_direction_not_invertible(self):
        s = load_model("nilpotent").instantiate(CAP).structure
        with pytest.raises(NotInvertibleError):
            circ_inverse(s, s.basis(1))


class TestDualStructure:
    def test_dual_is_commutative_and_associative(self):
        s = qc()
        pair = dual_structure(s, qc_epsilon())
        n = 2
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    diff = pair.dual.structure.tensor[a][b][c] \
                        - pair.dual.structure.tensor[b][a][c]
                    assert diff.vanishes_through(5)
        _, r2 = pencil_curvature_split(pair.dual.structure,
                                       Connection.zero(2, CAP))
        assert tensor_vanishes_through(r2, 5)

    def test_dual_structure_oracle_values(self):
        s = qc()
        pair = dual_structure(s, qc_epsilon())
        # d0 * d0 = d1 and d1 * d1 = exp(x1) d1
        p00 = pair.dual.multiply(s.basis(0), s.basis(0))
        assert (p00 - s.basis(1)).vanishes_through(5)
        p11 = pair.dual.multiply(s.basis(1), s.basis(1))
        x1 = TruncatedSeries.variable(2, CAP, 1)
        expected = VectorField((TruncatedSeries.zero(2, CAP),
                                exp_series(x1)))
        assert (p11 - expected).vanishes_through(5)

    def test_twist_by_non_eventual_identity_breaks_integrability(self):
        # exp(-x1) d1 is not covariantly constant for any nonzero pencil
        # member, so the twisted product, while associative, fails the
        # four-field integrability identity; the residual must say so.
        s = qc()
        pair = dual_structure(s, qc_epsilon())
        res = five_term_residual(pair.dual)
        assert not tensor_vanishes_through(res, 5)

    def test_twist_by_identity_preserves_integrability(self):
        s = qc()
        pair = dual_structure(s, s.identity)
        res = five_term_residual(pair.dual)
        assert tensor_vanishes_through(res, 5)

    def test_twist_is_dual_identity(self):
        s = qc()
        eps = qc_epsilon()
        pair = dual_structure(s, eps)
        for axis in range(2):
            prod = pair.dual.multiply(eps, s.basis(axis))
            diff = prod - s.basis(axis)
            assert diff.vanishes_through(5)

    def test_double_twist_returns_original(self):
        s = qc()
        eps = qc_epsilon()
        pair = dual_structure(s, eps)
        # twisting the dual by the old identity e recovers the original
        back = dual_structure(pair.dual, s.identity)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    diff = back.dual.structure.tensor[a][b][c] \
                        - s.structure.tensor[a][b][c]
                    assert diff.vanishes_through(5)


class TestPrimitiveSection:
    def test_chart_for_identity_is_linear(self):
        s = qc()
        report = primitive_section(s, Connection.zero(2, CAP), s.identity)
        # B e = x0 d0 + x1 d1 exactly
        assert report.image_map.components[0].coeffs == {(1, 0): Fraction(1)}
        assert report.image_map.components[1].coeffs == {(0, 1): Fraction(1)}
        assert report.primitive

    def test_gradient_equation_residual_zero(self):
        s = qc()
        report = primitive_section(s, Connection.zero(2, CAP), s.identity)
        n = 2
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    diff = report.b_field.matrix[c][b].derivative(a) \
                        - s.structure.tensor[a][b][c]
                    assert diff.vanishes_through(diff.valid_to)
        assert tensor_vanishes_through(report.closedness_residual, 6)

    def test_second_direction_antidiagonal_jacobian(self):
        s = qc()
        report = primitive_section(s, Connection.zero(2, CAP), s.basis(1))
        assert report.jacobian_at_0 == ((Fraction(0), Fraction(1)),
                                        (Fraction(1), Fraction(0)))
        assert report.primitive

    def test_nilpotent_direction_not_primitive(self):
        s = load_model("nilpotent").instantiate(CAP).structure
        report = primitive_section(s, Connection.zero(2, CAP), s.basis(1))
        assert not report.primitive

    def test_nonconstant_section_rejected(self):
        s = qc()
        bad = VectorField((TruncatedSeries.variable(2, CAP, 0),
                           TruncatedSeries.zero(2, CAP)))
        with pytest.raises(NotFlatSectionError):
            primitive_section(s, Connection.zero(2, CAP), bad)


class TestDualityVerify:
    def _one_dim(self):
        inst = load_model("one-dim").instantiate(CAP)
        s = inst.structure
        base = Connection.zero(1, CAP)
        conn = shift_base(s, base, Fraction(1))
        return s, base, conn, inst.epsilon

    def test_bracket_defect_under_flat_twist(self):
        s, base, conn, eps = self._one_dim()
        report = duality_verify(s, base, conn, eps)
        # with the twist field itself flat, [eps, e] = eps on the nose
        assert report.bracket_defect_flat_eps.vanishes_through(
            min(c.valid_to for c in report.bracket_defect_flat_eps.components))

    def test_opposite_sign_under_inverse_flat_twist(self):
        s, base, conn, _ = self._one_dim()
        # exp(x0) d0: its circ-inverse is the flat one
        x0 = TruncatedSeries.variable(1, CAP, 0)
        eps_tilde = VectorField((exp_series(x0),))
        report = duality_verify(s, base, conn, eps_tilde)
        assert report.bracket_defect_flat_inverse.vanishes_through(
            min(c.valid_to
                for c in report.bracket_defect_flat_inverse.components))
        labels = {h.label: h.holds for h in report.hypotheses}
        assert labels["inverse of twist field flat for shifted connection"]
        assert not labels["twist field flat for shifted connection"]

    def test_dual_euler_weight_one(self):
        s, base, conn, eps = self._one_dim()
        report = duality_verify(s, base, conn, eps)
        for row in report.euler_weight_one:
            for v in row:
                assert v.vanishes_through(
                    min(c.valid_to for c in v.components))

    def test_kernel_stability(self):
        # [e, eps o X] + eps o X = 0 for flat X: the twisted kernel is stable
        s, _, _, eps = self._one_dim()
        for a in range(s.dim):
            eps_x = s.multiply(eps, s.basis(a))
            v = lie_bracket(s.identity, eps_x) + eps_x
            assert v.vanishes_through(min(c.valid_to for c in v.components))

    def test_bracket_convention_recorded(self):
        s, base, conn, eps = self._one_dim()
        report = duality_verify(s, base, conn, eps)
        assert report.bracket_convention == "[X,Y]^c = X(Y^c) - Y(X^c)"
        # and the recorded convention is the one actually used
        e = s.identity
        direct = lie_bracket(eps, e)
        defect = direct - eps
        assert (defect - report.bracket_defect_flat_eps).vanishes_through(5)


class TestFlatSectionSolve:
    def test_solution_is_covariant_constant(self):
        s = qc()
        base = Connection.zero(2, CAP)
        w = flat_section_solve(s, base, Fraction(1), (Fraction(1), Fraction(0)))
        conn = shift_base(s, base, Fraction(1))
        from flatcirc.geometry import covariant_derivative
        for axis in range(2):
            r = covariant_derivative(conn, s.basis(axis), w)
            assert r.vanishes_through(min(c.valid_to for c in r.components) - 1)

    def test_initial_value(self):
        s = qc()
        w = flat_section_solve(s, Connection.zero(2, CAP), Fraction(1),
                               (Fraction(2), Fraction(3)))
        assert w.components[0].constant_term == 2
        assert w.components[1].constant_term == 3

    def test_one_dim_solution_is_exponential(self):
        inst = load_model("one-dim").instantiate(CAP)
        s = inst.structure
        w = flat_section_solve(s, Connection.zero(1, CAP), Fraction(-1),
                               (Fraction(1),))
        x0 = TruncatedSeries.variable(1, CAP, 0)
        expected = exp_series(x0)
        diff = w.components[0] - expected
        assert diff.vanishes_through(diff.valid_to)

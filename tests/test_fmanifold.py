import random
from fractions import Fraction

import pytest

from flatcirc.fmanifold import (FStructure, NotPotentialError, VectorPotential,
                                d_tensor, find_identity, five_term_residual,
                                l_membership, nabla_e_e_mode, p_tensor,
                                potential_to_structure, shift_base,
                                structure_to_potential)
from flatcirc.geometry import (Connection, HiggsField, VectorField,
                               covariant_derivative, lie_bracket,
                               pencil_curvature_split,
                               tensor_vanishes_through)
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries

CAP = 8


def x(axis, n=2, cap=CAP):
    return TruncatedSeries.variable(n, cap, axis)


def qc_structure(order=CAP):
    return load_model("qc-p1").instantiate(order).structure


class TestVectorPotential:
    def test_gauge_normalization_strips_low_degrees(self):
        comp = TruncatedSeries(1, CAP, CAP, {(0,): Fraction(5),
                                             (1,): Fraction(3),
                                             (2,): Fraction(1, 2)})
        vp = VectorPotential(VectorField((comp,)))
        assert vp.potential.components[0].coeffs == {(2,): Fraction(1, 2)}

    def test_structure_from_known_potential(self):
        s = qc_structure()
        # d1 o d1 = exp(x1) d0
        prod = s.multiply(s.basis(1), s.basis(1))
        assert prod.components[0].coeffs[(0, 0)] == 1
        assert prod.components[0].coeffs[(0, 3)] == Fraction(1, 6)
        assert prod.components[1].coeffs == {}

    def test_identity_found_automatically(self):
        s = qc_structure()
        assert s.identity is not None
        assert s.identity.components[0].constant_term == 1
        assert s.identity.components[1].coeffs == {}


class TestPotentialRoundtrip:
    def test_roundtrip(self):
        doc = load_model("qc-p1")
        inst = doc.instantiate(CAP)
        back = structure_to_potential(inst.structure)
        for mine, original in zip(back.potential.components,
                                  inst.potential.potential.components):
            assert mine.eq_up_to(original, mine.valid_to)

    def test_asymmetric_structure_rejected(self):
        n = 2
        tensor = HiggsField.build(
            n, lambda a, b, c: x(1) if (a, b, c) == (0, 1, 0)
            else TruncatedSeries.zero(n, CAP))
        with pytest.raises(NotPotentialError):
            structure_to_potential(FStructure(tensor))


class TestHmResidual:
    def test_vanishes_on_compatible_model(self):
        res = five_term_residual(qc_structure())
        assert tensor_vanishes_through(res, 5)

    def test_nonzero_on_broken_model(self):
        s = load_model("broken-assoc").instantiate(6).structure
        res = five_term_residual(s)
        assert not tensor_vanishes_through(res, 4)


class TestFindIdentity:
    def test_no_identity_when_product_degenerate(self):
        n = 2
        zero = TruncatedSeries.zero(n, CAP)
        tensor = HiggsField.build(n, lambda a, b, c: zero)
        result = find_identity(FStructure(tensor))
        assert result.field is None

    def test_identity_with_series_components(self):
        # conjugated product still has an identity, constant in this frame
        s = qc_structure()
        assert find_identity(s).field is not None


class TestMembership:
    def setup_method(self):
        inst = load_model("shifted-identity").instantiate(CAP)
        self.s = inst.structure
        flat = Connection.zero(2, CAP)
        self.conn = shift_base(self.s, flat, inst.lambda0)

    def test_identity_is_member(self):
        rep = l_membership(self.s, self.conn, self.s.identity)
        assert rep.member

    def test_flat_fields_are_members(self):
        for axis in range(2):
            rep = l_membership(self.s, self.conn, self.s.basis(axis))
            assert rep.member

    def test_nabla_e_e_chain_members(self):
        e = self.s.identity
        w = covariant_derivative(self.conn, e, e)
        assert l_membership(self.s, self.conn, w).member
        w2 = covariant_derivative(self.conn, e, w)
        assert l_membership(self.s, self.conn, w2).member

    def test_derivation_residual_zero(self):
        # ad e is a derivation of the product over the frame
        s = self.s
        for y in range(2):
            for z in range(2):
                v = p_tensor(s, s.identity, s.basis(y), s.basis(z))
                assert v.vanishes_through(v.valid_to)

    def test_consequence_residuals_zero_for_member(self):
        # a member eps satisfies the ad-formula
        #   [eps, Y] = nabla_eps Y - Y o nabla_e eps
        # and P_eps(Y, Z) = D(eps, Y, Z) + (Y o Z) o nabla_e eps
        s, conn = self.s, self.conn
        eps = s.identity
        assert l_membership(s, conn, eps).member
        nabla_e_eps = covariant_derivative(conn, s.identity, eps)
        for b in range(2):
            v = lie_bracket(eps, s.basis(b)) \
                - covariant_derivative(conn, eps, s.basis(b)) \
                + s.multiply(s.basis(b), nabla_e_eps)
            assert v.vanishes_through(v.valid_to)
        for y in range(2):
            for z in range(2):
                v = p_tensor(s, eps, s.basis(y), s.basis(z)) \
                    - d_tensor(s, conn, eps, s.basis(y), s.basis(z)) \
                    - s.multiply(s.multiply(s.basis(y), s.basis(z)),
                                 nabla_e_eps)
                assert v.vanishes_through(v.valid_to - 1)

    def test_non_member_detected(self):
        bad = VectorField((x(0) * x(0), x(1)))
        rep = l_membership(self.s, self.conn, bad)
        assert not rep.member


class TestNablaEEMode:
    def test_flat_mode(self):
        s = qc_structure()
        mode = nabla_e_e_mode(s, Connection.zero(2, CAP))
        assert mode.kind == "flat"

    def test_eigen_mode_on_shifted_base(self):
        inst = load_model("shifted-identity").instantiate(CAP)
        conn = shift_base(inst.structure, Connection.zero(2, CAP),
                          inst.lambda0)
        mode = nabla_e_e_mode(inst.structure, conn)
        assert mode.kind == "eigen"
        assert mode.eigenvalue == 1

    def test_other_mode(self):
        n = 2
        gamma = HiggsField.build(
            n, lambda a, b, c: x(1) if (a, b, c) == (0, 0, 1)
            else TruncatedSeries.zero(n, CAP))
        s = qc_structure()
        mode = nabla_e_e_mode(s, Connection(gamma.tensor))
        assert mode.kind == "other"


class TestShiftBase:
    def test_shift_preserves_pencil_flatness(self):
        s = qc_structure()
        conn = shift_base(s, Connection.zero(2, CAP), Fraction(1))
        r1, r2 = pencil_curvature_split(s.structure, conn)
        assert tensor_vanishes_through(r1, 5)
        assert tensor_vanishes_through(r2, 6)

    def test_zero_shift_is_identity_operation(self):
        s = qc_structure()
        conn = shift_base(s, Connection.zero(2, CAP), Fraction(0))
        assert tensor_vanishes_through(conn.tensor, CAP)

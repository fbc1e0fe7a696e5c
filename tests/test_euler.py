from fractions import Fraction

import pytest

from flatcirc.euler import (CertificationError, MuSeriesVF, certify_euler,
                            e_equation_residual, euler_family, euler_residual,
                            flat_compat, full_flatness_residual,
                            geometric_inverse, h_from_e, mu_bracket,
                            mu_multiply, mu_nabla)
from flatcirc.fmanifold import shift_base
from flatcirc.geometry import Connection, VectorField, covariant_derivative
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries

CAP = 8
MU = 4


def x(axis, n=2, cap=CAP):
    return TruncatedSeries.variable(n, cap, axis)


def c(v, n=2, cap=CAP):
    return TruncatedSeries.constant(n, cap, v)


def qc():
    inst = load_model("qc-p1").instantiate(CAP)
    return inst.structure, inst.euler[0]


class TestEulerResidual:
    def test_certified_weight_one(self):
        s, e_field = qc()
        certified = certify_euler(s, e_field, 1)
        assert certified.weight == 1

    def test_wrong_weight_fails(self):
        s, e_field = qc()
        with pytest.raises(CertificationError):
            certify_euler(s, e_field, 2)

    def test_perturbation_fails(self):
        s, e_field = qc()
        bad = e_field + VectorField((x(0) * x(0),
                                     TruncatedSeries.zero(2, CAP)))
        res = euler_residual(s, bad, 1)
        assert any(not v.vanishes_through(v.valid_to)
                   for row in res for v in row)

    def test_flat_compat(self):
        _, e_field = qc()
        assert flat_compat(e_field)
        assert not flat_compat(VectorField((x(0) * x(0), x(1))))

    def test_family_shift_by_identity(self):
        s, e_field = qc()
        certified = certify_euler(s, e_field, 1)
        shifted = euler_family(certified, s.identity, Fraction(3, 2), s)
        assert shifted.weight == 1
        assert shifted.field.components[0].coeffs[(0, 0)] == Fraction(3, 2)


class TestGeometricInverse:
    def test_inverse_of_identity_plus_mu_e1(self):
        s, _ = qc()
        e = s.identity
        e1 = s.basis(1)
        g = geometric_inverse(s, e, e1, MU)
        # (e + mu e1) o g = e in the mu-truncated sense
        lhs = mu_multiply(
            s, MuSeriesVF.constant(e, MU)
            + MuSeriesVF.constant(e1, MU).shift_mu(), g)
        diff = lhs - MuSeriesVF.constant(e, MU)
        assert diff.vanishes_through(diff.proven_to())

    def test_alternating_signs(self):
        s, _ = qc()
        g = geometric_inverse(s, s.identity, s.identity, MU)
        for k, coeff in enumerate(g.coefficients):
            sign = 1 if k % 2 == 0 else -1
            assert coeff.components[0].constant_term == sign


def identity_residuals(h, s, conn, e, e1):
    """Consequences of extended flatness with the identity as an argument.

    The necessary functional equation, one residual per frame field X:
      H(X) = X o H(e) + mu (nabla_X H(e) - X - H(X o nabla_e e)),
    and its scalar consequence
      [e, H(e)] + H(e) o nabla_e e - H(nabla_e e) - e = 0.
    """
    he = h.apply_plain(e, MU)

    def necessary(x):
        xm = MuSeriesVF.constant(x, MU)
        rhs = mu_multiply(s, xm, he) \
            + (mu_nabla(conn, xm, he) - xm
               - h.apply_plain(s.multiply(x, e1), MU)).shift_mu()
        return h.apply_plain(x, MU) - rhs

    consistency = mu_bracket(MuSeriesVF.constant(e, MU), he) \
        + mu_multiply(s, he, MuSeriesVF.constant(e1, MU)) \
        - h.apply_plain(e1, MU) - MuSeriesVF.constant(e, MU)
    return [necessary(s.basis(a)) for a in range(s.dim)], consistency


class TestReconstruction:
    def _setup(self, name):
        inst = load_model(name).instantiate(CAP)
        s = inst.structure
        flat = Connection.zero(s.dim, CAP)
        conn = shift_base(s, flat, inst.lambda0) if inst.lambda0 != 0 else flat
        e = s.identity
        e1 = covariant_derivative(conn, e, e)
        e_series = MuSeriesVF.constant(inst.euler[0], MU)
        return s, conn, e, e1, e_series

    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "shifted-identity"])
    def test_equation_holds(self, name):
        s, conn, e, e1, e_series = self._setup(name)
        res = e_equation_residual(e_series, s, conn, e, e1)
        assert res.vanishes_through(res.proven_to())

    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "shifted-identity"])
    def test_h_maps_identity_to_e(self, name):
        s, conn, e, e1, e_series = self._setup(name)
        h = h_from_e(e_series, s, conn, e, e1)
        he = h.apply_plain(e, MU)
        diff = he - e_series
        assert diff.vanishes_through(diff.proven_to())

    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "shifted-identity"])
    def test_full_flatness(self, name):
        s, conn, e, e1, e_series = self._setup(name)
        h = h_from_e(e_series, s, conn, e, e1)
        report = full_flatness_residual(h, s, conn)
        assert report.full_vanishes()
        on_identity, consistency = identity_residuals(h, s, conn, e, e1)
        for v in on_identity:
            assert v.vanishes_through(v.proven_to())
        assert consistency.vanishes_through(consistency.proven_to())

    def test_non_euler_breaks_flatness(self):
        s, conn, e, e1, _ = self._setup("qc-p1")
        inst = load_model("qc-p1").instantiate(CAP)
        bad = inst.euler[0] + VectorField((x(0) * x(0),
                                           TruncatedSeries.zero(2, CAP)))
        h = h_from_e(MuSeriesVF.constant(bad, MU), s, conn, e, e1)
        report = full_flatness_residual(h, s, conn)
        assert not report.full_vanishes()


class TestMuAlgebra:
    def test_mu_bracket_antisymmetry(self):
        a = MuSeriesVF.constant(VectorField((x(0) * x(1), x(1))), MU)
        b = MuSeriesVF.constant(VectorField((x(1), c(2))), MU).shift_mu()
        s = mu_bracket(a, b) + mu_bracket(b, a)
        assert s.vanishes_through(s.proven_to())

    def test_shift_mu_drops_top_coefficient(self):
        v = MuSeriesVF.constant(VectorField((c(1), c(0))), 2)
        shifted = v.shift_mu()
        assert shifted.coefficients[0].vanishes_through(CAP)
        assert shifted.coefficients[1].components[0].constant_term == 1

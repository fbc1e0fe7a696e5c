import sys

import pytest

from flatcirc import euler, geometry
from flatcirc.cli import main
from flatcirc.euler import (CertificationError, certify_euler,
                            e_equation_residual, euler_residual,
                            flat_compat, full_flatness_residual,
                            geometric_inverse, h_from_e)
from flatcirc.geometry import (VectorField, apply_higgs, base_member,
                               covariant_derivative, judge, lie_bracket)
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries

CAP = 8
MU = 4


def x(axis, n=2, cap=CAP):
    return TruncatedSeries.variable(n, cap, axis)


def qc():
    inst = load_model("qc-p1").instantiate(CAP)
    return inst.structure, inst.euler[0]


def qc_identity():
    return load_model("qc-p1").instantiate(CAP).identity


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


class TestGeometricInverse:
    def test_inverse_of_identity_plus_mu_e1(self):
        s, _ = qc()
        e = qc_identity()
        e1 = VectorField.basis(2, CAP, 1)
        g = geometric_inverse(s, e, e1, MU)
        # (e + mu e1) o g = e in the mu-truncated sense: coefficient k of the
        # product is e o g_k + e1 o g_{k-1}
        for k in range(MU + 1):
            diff = apply_higgs(s, e, g[k]) - e if k == 0 \
                else apply_higgs(s, e, g[k]) + apply_higgs(s, e1, g[k - 1])
            assert diff.vanishes_through(diff.valid_to)

    def test_alternating_signs(self):
        s, _ = qc()
        g = geometric_inverse(s, qc_identity(), qc_identity(), MU)
        for k, coeff in enumerate(g):
            sign = 1 if k % 2 == 0 else -1
            assert coeff.components[0].constant_term == sign


def identity_residuals(h, s, shift, e, e1):
    """Consequences of extended flatness with the identity as an argument.

    The necessary functional equation, one residual per frame field X:
      H(X) = X o H(e) + mu (nabla_X H(e) - X - H(X o nabla_e e)),
    and its scalar consequence
      [e, H(e)] + H(e) o nabla_e e - H(nabla_e e) - e = 0,
    each as its list of coefficients in mu.
    """
    he = [hk.apply(e) for hk in h]

    def necessary(x):
        xe1 = apply_higgs(s, x, e1)
        coeffs = [h[0].apply(x) - apply_higgs(s, x, he[0])]
        for k in range(1, len(h)):
            coeff = h[k].apply(x) - apply_higgs(s, x, he[k]) \
                - covariant_derivative(s, shift, x, he[k - 1]) \
                + h[k - 1].apply(xe1)
            coeffs.append(coeff + x if k == 1 else coeff)
        return coeffs

    consistency = [lie_bracket(e, he[k]) + apply_higgs(s, he[k], e1)
                   - h[k].apply(e1) for k in range(len(h))]
    consistency[0] = consistency[0] - e
    return [necessary(VectorField.basis(s.dim, CAP, a))
            for a in range(s.dim)], consistency


def vanishes(coefficients):
    return all(v.vanishes_through(v.valid_to) for v in coefficients)


class TestReconstruction:
    def _setup(self, name):
        inst = load_model(name).instantiate(CAP)
        s = inst.structure
        shift = base_member(inst.lambda0)
        e = inst.identity
        e1 = covariant_derivative(s, shift, e, e)
        g = geometric_inverse(s, e, e1, MU)
        return s, shift, e, e1, inst.euler[0], g

    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "shifted-identity"])
    def test_equation_holds(self, name):
        s, shift, e, e1, e_field, g = self._setup(name)
        res = e_equation_residual(e_field, s, shift, e1, g)
        assert judge(res).holds

    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "shifted-identity"])
    def test_h_maps_identity_to_e(self, name):
        s, shift, e, e1, e_field, g = self._setup(name)
        h = h_from_e(e_field, s, shift, g)
        assert len(h) == MU + 1
        # H(e) = E: the constant coefficient is E, every other one is zero
        assert vanishes([h[0].apply(e) - e_field]
                        + [hk.apply(e) for hk in h[1:]])

    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "shifted-identity"])
    def test_full_flatness(self, name):
        s, shift, e, e1, e_field, g = self._setup(name)
        h = h_from_e(e_field, s, shift, g)
        report = full_flatness_residual(h, s, shift)
        assert judge(report).holds
        on_identity, consistency = identity_residuals(h, s, shift, e, e1)
        for coefficients in on_identity:
            assert vanishes(coefficients)
        assert vanishes(consistency)

    def test_non_euler_breaks_flatness(self):
        s, shift, e, e1, e_field, g = self._setup("qc-p1")
        bad = e_field + VectorField((x(0) * x(0),
                                     TruncatedSeries.zero(2, CAP)))
        h = h_from_e(bad, s, shift, g)
        report = full_flatness_residual(h, s, shift)
        assert not judge(report).holds


class TestSharedWork:
    """One ``extend`` builds the geometric inverse once, and one ``check``
    computes nabla_e e once for both the derivative mode and the extension."""

    def test_geometric_inverse_once_per_extend(self, monkeypatch, capsys):
        calls = []
        original = euler.geometric_inverse

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(euler, "geometric_inverse", counted)
        assert main(["extend", "qc-p1"]) == 0
        assert len(calls) == 1

    def test_nabla_e_e_once_per_check(self, monkeypatch, capsys):
        calls = []
        original = geometry.covariant_derivative

        def counted(structure, shift, x, y):
            if x is y:  # nabla_e e; every other call differentiates another field
                calls.append(x)
            return original(structure, shift, x, y)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("flatcirc") \
                    and getattr(module, "covariant_derivative", None) is original:
                monkeypatch.setattr(module, "covariant_derivative", counted)
        assert main(["check", "qc-p1"]) == 0
        assert len(calls) == 1

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from flatcirc import checks, euler, geometry
from flatcirc.cli import main
from flatcirc.euler import (CertificationError, certify_euler,
                            e_equation_residual, euler_residual,
                            flat_compat, full_flatness_residual,
                            geometric_inverse, h_from_e)
from flatcirc.geometry import (EndField, HiggsField, VectorField, apply_higgs,
                               base_member, covariant_derivative,
                               iter_tensor, judge, lie_bracket)
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


def per_power_inverse(c, e, e1, mu_cap):
    """g_k formed at every power, with no stationary tail."""
    r_e1 = c.right(e1)
    coeffs = [e]
    for _ in range(mu_cap):
        coeffs.append(-r_e1.apply(coeffs[-1]))
    return tuple(coeffs)


def per_power_h(e_field, c, shift, g):
    """H_k formed at every power."""
    one = EndField.identity(c.dim, c.order)
    r_e = c.right(e_field)
    j_minus_one = EndField.jacobian(e_field) - one
    if shift is not None:
        j_minus_one = j_minus_one + r_e.scale(shift)
    left = [c.left(gk) for gk in g]
    h = [r_e + r_e.compose(left[0] - one)]
    for k in range(1, len(g)):
        h.append(r_e.compose(left[k]) + j_minus_one.compose(left[k - 1]))
    return tuple(h)


def per_power_equation(e_field, c, shift, e1, g):
    """The equation residual formed at every power."""
    e = g[0]
    along = [geometry.nabla(c, shift, e_field).apply(gk) for gk in g]
    l_e, l_e1 = c.left(e), c.left(e1)
    coeffs = [l_e.apply(along[0]) - l_e1.apply(e_field) - e]
    for k in range(1, len(g)):
        coeffs.append(l_e.apply(along[k]) + l_e1.apply(along[k - 1]))
    return tuple(coeffs)


def per_power_flatness(h, c, shift):
    """The flatness residual formed at every power."""
    def row(a):
        c_a = c.slice(a)
        commutators = [h_k.commutator(c_a) for h_k in h]
        out = [commutators[0]]
        for k in range(1, len(h)):
            r = commutators[k] - h[k - 1].derivative(a)
            if shift is not None:
                r = r + commutators[k - 1].scale(shift)
            out.append(r + c_a if k == 1 else r)
        return tuple(out)

    return tuple(row(a) for a in range(c.dim))


def cut_entries(h):
    return tuple(EndField(tuple(tuple(s.cut(s.valid_to) for s in row)
                                for row in h_k.matrix)) for h_k in h)


def assert_storage_equal(got, want):
    """Entry by entry equal in coefficients, cap and ``valid_to``."""
    for (index, lhs), (_, rhs) in zip(iter_tensor(got), iter_tensor(want),
                                      strict=True):
        assert lhs == rhs, index


class TestStationaryTail:
    """Each power of mu is formed once per run of identical operands, and
    the results are storage-equal, through every ``valid_to``, to forming
    every power: the geometric inverse, H, the equation residual, the
    flatness residual and the cut H of ``evaluate_extension``.

    ``first`` is the first power k with g_k = g_{k-1} in storage, None
    where g never becomes stationary."""

    MU_MAX = 8

    @staticmethod
    def case(kind):
        n, cap = 2, 6
        inst = load_model(kind if kind in ("nilpotent", "shifted-identity")
                          else "qc-p1").instantiate(cap)
        c = checks.cut_to_proven(inst.structure)
        e = inst.identity
        e_field = (inst.euler[0] if inst.euler is not None else
                   VectorField((x(0, n, cap), x(1, n, cap) * 2)))
        lambda0 = {"qc-p1": Fraction(0), "shifted-identity": Fraction(1),
                   "shift -1": Fraction(-1), "shift 2/3": Fraction(2, 3),
                   "e1 = 0 at a shift": Fraction(2, 3),
                   "nilpotent": Fraction(0)}[kind]
        shift = base_member(lambda0)
        if kind == "e1 = 0 at a shift":
            e1 = VectorField((TruncatedSeries.zero(n, cap),) * n)
        elif kind == "nilpotent":
            # d_1 o d_1 = 0: g_1 = -d_1, then g_2 = g_3 = ... = 0
            e1 = VectorField.basis(n, cap, 1)
        else:
            e1 = covariant_derivative(c, shift, e, e)
        return c, e, e_field, lambda0, shift, e1

    @pytest.mark.parametrize("kind, first", [
        ("qc-p1", 2), ("e1 = 0 at a shift", 2), ("nilpotent", 3),
        ("shift -1", 2), ("shift 2/3", None), ("shifted-identity", None)])
    def test_equals_every_power_formed(self, kind, first):
        c, e, e_field, lambda0, shift, e1 = self.case(kind)
        g_all = per_power_inverse(c, e, e1, self.MU_MAX)
        h_all = per_power_h(e_field, c, shift, g_all)
        equation_all = per_power_equation(e_field, c, shift, e1, g_all)
        flatness_all = per_power_flatness(h_all, c, shift)
        flatness_cut = per_power_flatness(cut_entries(h_all), c, shift)
        assert next((k for k in range(1, self.MU_MAX + 1)
                     if g_all[k] == g_all[k - 1]), None) == first
        for mu in range(self.MU_MAX + 1):
            g = geometric_inverse(c, e, e1, mu)
            assert_storage_equal(g, g_all[:mu + 1])
            h = h_from_e(e_field, c, shift, g)
            assert_storage_equal(h, h_all[:mu + 1])
            assert_storage_equal(e_equation_residual(e_field, c, shift, e1, g),
                                 equation_all[:mu + 1])
            assert_storage_equal(full_flatness_residual(h, c, shift),
                                 [row[:mu + 1] for row in flatness_all])
            extension = checks.evaluate_extension(c, e, lambda0, e_field, mu,
                                                  e1)
            assert_storage_equal(extension.h, cut_entries(h_all[:mu + 1]))
            assert_storage_equal(extension.equation, equation_all[:mu + 1])
            assert_storage_equal(extension.flatness,
                                 [row[:mu + 1] for row in flatness_cut])
            # the tail repeats one object; with no fixed point none repeats
            formed = first if first is not None and first <= mu else mu + 1
            assert len({id(g_k) for g_k in g}) == formed
            assert len({id(h_k) for h_k in h}) == min(formed + 1, mu + 1)
            assert len({id(h_k) for h_k in extension.h}) == \
                min(formed + 1, mu + 1)


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


def unital_symmetric_tensor(rng, n, cap, valid_to):
    """A symmetric 3-tensor whose entries all have cap ``cap`` and
    ``valid_to`` ``valid_to``, with d_0 as its identity (C_0b^c = delta_bc)
    and sparse random rows C_ab for 1 <= a <= b: not associative."""
    def entry(a, b, c):
        if a == 0:
            return TruncatedSeries.constant(n, cap, int(b == c), valid_to)
        coeffs = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for e in product(range(cap + 1), repeat=n)
                  if sum(e) <= cap and rng.random() < 0.4}
        return TruncatedSeries(n, cap, valid_to,
                               {e: v for e, v in coeffs.items() if v})
    rows = {(a, b, c): entry(a, b, c) for a in range(n)
            for b in range(a, n) for c in range(n)}
    return HiggsField.build(
        n, lambda a, b, c: rows[min(a, b), max(a, b), c])


def random_field(rng, n, cap, degree):
    """A random polynomial vector field of ``degree``, proven to ``cap``."""
    return VectorField(tuple(
        TruncatedSeries(n, cap, cap, {
            e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for e in product(range(degree + 1), repeat=n)
            if sum(e) <= degree})
        for _ in range(n)))


class TestFlatnessPaths:
    """Both ways of forming the extension's flatness residual agree.

    On a symmetric tensor with identity d_0, nabla_0 as the member, E and e
    proven beyond C, ``flatness_from_residuals`` (read off R2, rho and the
    scaling-weight residual) gives the entries of ``full_flatness_residual``
    (the commutators [H_k, C_a]) through each entry's ``valid_to``, with the
    same ``valid_to``, and ``judge`` gives the same verdict and witness.
    The tensors at n = 3 are not associative, rho and the scaling-weight
    residual do not vanish, and the residual itself fails.  E is linear, as
    a scaling field is, or quadratic, where -d_a (D - 1) does not vanish."""

    CASES = [(n, valid_to, weight, mu_order, degree)
             for n in (2, 3) for valid_to in (3, 4)
             for weight in (Fraction(1), Fraction(2), Fraction(-1, 2))
             for mu_order in range(4) for degree in (1, 2)
             if degree == 1 or weight == 1]

    @staticmethod
    def setup(n, valid_to, seed, cap=4, degree=1):
        rng = random.Random(f"flatness-paths:{n}:{valid_to}:{seed}")
        c = unital_symmetric_tensor(rng, n, cap, valid_to)
        e = VectorField.basis(n, cap + 1, 0)
        e_field = random_field(rng, n, cap + rng.randint(1, 2), degree)
        return c, e, e_field

    @pytest.mark.parametrize("n, valid_to, weight, mu_order, degree", CASES)
    def test_residual_path_equals_commutators(self, n, valid_to, weight,
                                              mu_order, degree):
        c, e, e_field = self.setup(n, valid_to, f"{weight}:{mu_order}",
                                   degree=degree)
        e1 = covariant_derivative(c, None, e, e)
        h = h_from_e(e_field, c, None, geometric_inverse(c, e, e1, mu_order))
        want = full_flatness_residual(h, c, None)
        got = euler.flatness_from_residuals(
            c, e_field, weight, euler_residual(c, e_field, weight), mu_order)
        assert len(got[0]) == mu_order + 1
        for (index, lhs), (_, rhs) in zip(iter_tensor(got), iter_tensor(want),
                                          strict=True):
            assert lhs.valid_to == rhs.valid_to, index
            assert (lhs - rhs).vanishes_through(lhs.valid_to), index
        assert judge(got) == judge(want)
        # a unital commutative algebra of dimension 2 is associative, so
        # there K(E) = 0 and only the entries k >= 1 fail
        assert not judge(want).holds or (n, mu_order) == (2, 0)

    @pytest.mark.parametrize("n, valid_to, weight, mu_order, degree",
                             CASES[::5])
    def test_evaluate_extension_takes_the_residual_path(
            self, n, valid_to, weight, mu_order, degree, monkeypatch):
        c, e, e_field = self.setup(n, valid_to, "extension", degree=degree)
        scaling = (weight, euler_residual(c, e_field, weight))
        commutators = checks.evaluate_extension(c, e, Fraction(0), e_field,
                                                mu_order)
        def refused(*args):
            raise AssertionError("the commutators were formed")

        monkeypatch.setattr(euler, "full_flatness_residual", refused)
        residuals = checks.evaluate_extension(c, e, Fraction(0), e_field,
                                              mu_order, scaling=scaling)
        assert residuals.h is None
        assert len(commutators.h) == mu_order + 1
        assert residuals.equation == commutators.equation
        assert judge(residuals.flatness) == judge(commutators.flatness)

    @pytest.mark.parametrize("kind", ["none", "shift", "not symmetric",
                                      "two valid_to", "e proven to v",
                                      "E proven to v"])
    def test_other_inputs_take_the_commutators(self, kind, monkeypatch):
        """Each hypothesis that fails sends the residual to the commutators;
        with none failing, they are not formed."""
        c, e, e_field = self.setup(3, 4, "other")
        lambda0 = Fraction(1) if kind == "shift" else Fraction(0)
        t = c.tensor
        if kind == "not symmetric":
            c = HiggsField.build(3, lambda a, b, f: t[a][b][f] + x(0, 3, 4)
                                 if (a, b, f) == (1, 2, 1) else t[a][b][f])
        elif kind == "two valid_to":
            c = HiggsField.build(3, lambda a, b, f: t[a][b][f].cut(3)
                                 if (a, b) == (2, 2) else t[a][b][f])
        elif kind == "e proven to v":
            e = VectorField.basis(3, 4, 0)
        elif kind == "E proven to v":
            e_field = VectorField(tuple(s.cut(4)
                                        for s in e_field.components))
        calls = []
        full_flatness_residual = euler.full_flatness_residual

        def recording(*args):
            calls.append(args)
            return full_flatness_residual(*args)

        monkeypatch.setattr(euler, "full_flatness_residual", recording)
        checks.evaluate_extension(c, e, lambda0, e_field, 2, scaling=(
            Fraction(1), euler_residual(c, e_field, 1)))
        assert len(calls) == (kind != "none")


def euler_residual_by_entries(c, e_field, weight):
    """The scaling-weight residual with E(C_a) formed for every slice, the
    entries ``euler_residual`` forms once per distinct row."""
    d = EndField.jacobian(e_field)
    residual = []
    for a, d_a_e in enumerate(d.columns()):
        c_a = c.slice(a)
        along = EndField(tuple(tuple(e_field.apply(s) for s in row)
                               for row in c_a.matrix))
        p_e = along + c_a.commutator(d) + c.left(d_a_e)
        residual.append(tuple(p - q.scale(weight) for p, q in
                              zip(p_e.columns(), c_a.columns())))
    return tuple(residual)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_euler_residual_once_per_distinct_row(n, symmetric):
    """Storage-equal to the form over every slice, on a symmetric tensor
    (one E(C_ab) per distinct row) and on one with no symmetric row."""
    rng = random.Random(f"euler-rows:{n}:{symmetric}")
    c = unital_symmetric_tensor(rng, n, 4, 3)
    if not symmetric:
        t = c.tensor
        c = HiggsField.build(n, lambda a, b, f: t[a][b][f] + x(0, n, 4) * (a - b))
        assert all(p == (a, b) for a, row in enumerate(c.pairs)
                   for b, p in enumerate(row))
    e_field = random_field(rng, n, 5, 2)
    for weight in (1, Fraction(-1, 2)):
        assert euler_residual(c, e_field, weight) \
            == euler_residual_by_entries(c, e_field, weight)

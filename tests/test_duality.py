import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from flatcirc import correlators, geometry
from flatcirc.cli import main
from flatcirc.duality import (IntegrabilityError, NotFlatSectionError,
                              NotInvertibleError, circ_inverse, dual_structure, duality_verify,
                              flat_section_solve, primitive_section)
from flatcirc.fmanifold import five_term_residual
from flatcirc.geometry import (HiggsField, VectorField, apply_higgs,
                               covariant_derivative, lie_bracket,
                               pencil_curvature_split,
                               tensor_vanishes_through)
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries, exp_series

CAP = 8


def qc():
    return load_model("qc-p1").instantiate(CAP).structure


def qc_identity():
    return load_model("qc-p1").instantiate(CAP).identity


def basis(axis, n=2):
    return VectorField.basis(n, CAP, axis)


def qc_epsilon():
    # exp(-x1) d1
    x1 = TruncatedSeries.variable(2, CAP, 1)
    return VectorField((TruncatedSeries.zero(2, CAP), exp_series(-x1)))


class TestCircInverse:
    def test_inverse_of_identity(self):
        s, e = qc(), qc_identity()
        inv = circ_inverse(s, e, e)
        assert (inv - e).vanishes_through(s.valid_to)

    def test_inverse_property(self):
        s, e = qc(), qc_identity()
        eps = qc_epsilon()
        inv = circ_inverse(s, e, eps)
        prod = apply_higgs(s, eps, inv)
        diff = prod - e
        assert diff.vanishes_through(min(c.valid_to
                                         for c in diff.components))

    def test_nilpotent_direction_not_invertible(self):
        inst = load_model("nilpotent").instantiate(CAP)
        with pytest.raises(NotInvertibleError):
            circ_inverse(inst.structure, inst.identity, basis(1))


def random_entry(rng, n, constant=0):
    """A series with its own cap in 2..4 and ``valid_to`` in 1..cap."""
    cap = rng.randint(2, 4)
    coeffs = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for e in product(range(cap + 1), repeat=n)
              if 0 < sum(e) <= cap and rng.random() < 0.3}
    coeffs[(0,) * n] = Fraction(constant)
    return TruncatedSeries(n, cap, rng.randint(1, cap),
                           {e: v for e, v in coeffs.items() if v})


def copy_of(s):
    """A new series storage-equal to ``s``."""
    return TruncatedSeries(s.num_vars, s.cap, s.valid_to, dict(s.items()))


def random_twist(n, symmetric, seed):
    """(C, e, eps) at dimension n with C_0 the identity matrix at the
    origin, so that eps = d_0 + higher terms is circ-invertible.  With
    ``symmetric`` the row C_ba is the row C_ab or a storage-equal copy."""
    rng = random.Random(f"dual:{n}:{symmetric}:{seed}")

    def row(a, b):
        # C_0b^c = C_b0^c = delta_bc at the origin
        return tuple(random_entry(rng, n, int(0 in (a, b) and c == a + b))
                     for c in range(n))

    rows = {}
    for a in range(n):
        for b in range(n):
            if symmetric and b < a:
                rows[a, b] = (rows[b, a] if rng.random() < 0.5
                              else tuple(copy_of(s) for s in rows[b, a]))
            else:
                rows[a, b] = row(a, b)
    higgs = HiggsField(tuple(tuple(rows[a, b] for b in range(n))
                             for a in range(n)))

    def field():
        return VectorField(tuple(random_entry(rng, n, int(c == 0))
                                 for c in range(n)))

    return higgs, field(), field()


def per_slice_dual(higgs, e, epsilon):
    """The dual tensor as the n products L C_a, L the matrix of
    X -> eps^{-1} o X, entry [a][b][c] = (L C_a)[c][b]."""
    n = higgs.dim
    left = higgs.left(circ_inverse(higgs, e, epsilon))
    slices = [left.compose(higgs.slice(a)) for a in range(n)]
    return [[[slices[a].matrix[c][b] for c in range(n)] for b in range(n)]
            for a in range(n)]


TWISTS = [(n, symmetric, seed) for n in range(1, 5)
          for symmetric in (True, False) for seed in range(3)]


class TestDualStructure:
    @pytest.mark.parametrize("n, symmetric, seed", TWISTS)
    def test_dual_rows_equal_the_per_slice_products(self, n, symmetric,
                                                    seed):
        """Each dual entry is storage-equal to the entry of L C_a, over
        mixed caps and ``valid_to``."""
        higgs, e, epsilon = random_twist(n, symmetric, seed)
        dual = dual_structure(higgs, e, epsilon).dual.tensor
        want = per_slice_dual(higgs, e, epsilon)
        for a, b, c in product(range(n), repeat=3):
            assert dual[a][b][c] == want[a][b][c], (a, b, c)

    @pytest.mark.parametrize("n, symmetric, seed", TWISTS)
    def test_dual_rows_formed_once_per_row_of_c(self, n, symmetric, seed,
                                                monkeypatch):
        """The dual shares a row wherever C does, and its rows take n
        ``dot`` calls for each of ``representatives``."""
        higgs, e, epsilon = random_twist(n, symmetric, seed)
        assert len(higgs.representatives) == (n * (n + 1) // 2 if symmetric
                                              else n * n)
        calls = []
        dot = geometry.dot

        def counted(xs, ys):
            calls.append(None)
            return dot(xs, ys)

        monkeypatch.setattr(geometry, "dot", counted)
        dual = dual_structure(higgs, e, epsilon).dual.tensor
        formed = len(calls)
        calls.clear()
        higgs.left(circ_inverse(higgs, e, epsilon))
        assert formed - len(calls) == len(higgs.representatives) * n
        pairs = higgs.pairs
        for a, b in product(range(n), repeat=2):
            assert (dual[a][b] is dual[b][a]) == (pairs[a][b] == pairs[b][a])

    def test_dual_is_commutative_and_associative(self):
        s = qc()
        pair = dual_structure(s, qc_identity(), qc_epsilon())
        n = 2
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    diff = pair.dual.tensor[a][b][c] \
                        - pair.dual.tensor[b][a][c]
                    assert diff.vanishes_through(5)
        _, r2 = pencil_curvature_split(pair.dual, None)
        assert tensor_vanishes_through(r2, 5)

    def test_dual_structure_oracle_values(self):
        s = qc()
        pair = dual_structure(s, qc_identity(), qc_epsilon())
        # d0 * d0 = d1 and d1 * d1 = exp(x1) d1
        p00 = apply_higgs(pair.dual, basis(0), basis(0))
        assert (p00 - basis(1)).vanishes_through(5)
        p11 = apply_higgs(pair.dual, basis(1), basis(1))
        x1 = TruncatedSeries.variable(2, CAP, 1)
        expected = VectorField((TruncatedSeries.zero(2, CAP),
                                exp_series(x1)))
        assert (p11 - expected).vanishes_through(5)

    def test_twist_by_non_eventual_identity_breaks_integrability(self):
        # exp(-x1) d1 is not covariantly constant for any nonzero pencil
        # member, so the twisted product, while associative, fails the
        # four-field integrability identity; the residual must say so.
        s = qc()
        pair = dual_structure(s, qc_identity(), qc_epsilon())
        res = five_term_residual(pair.dual)
        assert not tensor_vanishes_through(res, 5)

    def test_twist_by_identity_preserves_integrability(self):
        s, e = qc(), qc_identity()
        pair = dual_structure(s, e, e)
        res = five_term_residual(pair.dual)
        assert tensor_vanishes_through(res, 5)

    def test_twist_is_dual_identity(self):
        s = qc()
        eps = qc_epsilon()
        pair = dual_structure(s, qc_identity(), eps)
        for axis in range(2):
            prod = apply_higgs(pair.dual, eps, basis(axis))
            diff = prod - basis(axis)
            assert diff.vanishes_through(5)

    def test_double_twist_returns_original(self):
        s, e = qc(), qc_identity()
        eps = qc_epsilon()
        pair = dual_structure(s, e, eps)
        # twisting the dual by the old identity e recovers the original
        back = dual_structure(pair.dual, eps, e)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    diff = back.dual.tensor[a][b][c] - s.tensor[a][b][c]
                    assert diff.vanishes_through(5)


class TestPrimitiveSection:
    def test_chart_for_identity_is_linear(self):
        s = qc()
        report = primitive_section(s, qc_identity())
        # B e = x0 d0 + x1 d1 exactly
        assert report.image_map.components[0].coeffs == {(1, 0): Fraction(1)}
        assert report.image_map.components[1].coeffs == {(0, 1): Fraction(1)}
        assert report.primitive

    def test_gradient_equation_residual_zero(self):
        s = qc()
        report = primitive_section(s, qc_identity())
        n = 2
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    diff = report.b_field.matrix[c][b].derivative(a) \
                        - s.tensor[a][b][c]
                    assert diff.vanishes_through(diff.valid_to)
        assert tensor_vanishes_through(report.closedness_residual, 6)

    def test_second_direction_antidiagonal_jacobian(self):
        s = qc()
        report = primitive_section(s, basis(1))
        assert report.jacobian_at_0 == ((Fraction(0), Fraction(1)),
                                        (Fraction(1), Fraction(0)))
        assert report.primitive

    def test_derive_builds_the_b_structure_once(self, monkeypatch, capsys):
        # the closedness residual is formed on read; deriving a family only
        # builds the structure of B for the gradient guard
        calls = []
        original = correlators.structure_from_b

        def counted(b):
            calls.append(b)
            return original(b)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("flatcirc") \
                    and getattr(module, "structure_from_b", None) is original:
                monkeypatch.setattr(module, "structure_from_b", counted)
        assert main(["correlators", "qc-p1"]) == 0
        assert len(calls) == 1

    def test_nilpotent_direction_not_primitive(self):
        s = load_model("nilpotent").instantiate(CAP).structure
        report = primitive_section(s, basis(1))
        assert not report.primitive

    def test_nonconstant_section_rejected(self):
        s = qc()
        bad = VectorField((TruncatedSeries.variable(2, CAP, 0),
                           TruncatedSeries.zero(2, CAP)))
        with pytest.raises(NotFlatSectionError):
            primitive_section(s, bad)


class TestDualityVerify:
    def _one_dim(self):
        inst = load_model("one-dim").instantiate(CAP)
        # base shift 0: the identity flat for nabla_0, the twist for
        # nabla_0 + C
        return inst.structure, inst.identity, Fraction(0), inst.epsilon

    def test_bracket_defect_under_flat_twist(self):
        s, e, lambda0, eps = self._one_dim()
        report = duality_verify(s, e, lambda0, eps)
        # with the twist field itself flat, [eps, e] = eps on the nose
        assert report.bracket_defect_flat_eps.vanishes_through(
            min(c.valid_to for c in report.bracket_defect_flat_eps.components))

    def test_opposite_sign_under_inverse_flat_twist(self):
        s, e, lambda0, _ = self._one_dim()
        # exp(x0) d0: its circ-inverse is the flat one
        x0 = TruncatedSeries.variable(1, CAP, 0)
        eps_tilde = VectorField((exp_series(x0),))
        report = duality_verify(s, e, lambda0, eps_tilde)
        flipped = lie_bracket(eps_tilde, e) + eps_tilde
        assert flipped.vanishes_through(
            min(c.valid_to for c in flipped.components))
        labels = {h.label: h.holds for h in report.hypotheses}
        assert labels["inverse of twist field flat for shifted connection"]
        assert not labels["twist field flat for shifted connection"]

    def test_dual_euler_weight_one(self):
        s, e, lambda0, eps = self._one_dim()
        report = duality_verify(s, e, lambda0, eps)
        for row in report.euler_weight_one:
            for v in row:
                assert v.vanishes_through(
                    min(c.valid_to for c in v.components))

    def test_kernel_stability(self):
        # [e, eps o X] + eps o X = 0 for flat X: the twisted kernel is stable
        s, e, _, eps = self._one_dim()
        for a in range(s.dim):
            eps_x = apply_higgs(s, eps, basis(a, 1))
            v = lie_bracket(e, eps_x) + eps_x
            assert v.vanishes_through(min(c.valid_to for c in v.components))

    def test_bracket_convention_recorded(self):
        s, e, lambda0, eps = self._one_dim()
        report = duality_verify(s, e, lambda0, eps)
        assert report.bracket_convention == "[X,Y]^c = X(Y^c) - Y(X^c)"
        # and the recorded convention is the one actually used
        direct = lie_bracket(eps, e)
        defect = direct - eps
        assert (defect - report.bracket_defect_flat_eps).vanishes_through(5)


class TestFlatSectionSolve:
    def test_solution_is_covariant_constant(self):
        s = qc()
        w = flat_section_solve(s, Fraction(1), (Fraction(1), Fraction(0)))
        for axis in range(2):
            r = covariant_derivative(s, Fraction(1), basis(axis), w)
            assert r.vanishes_through(min(c.valid_to for c in r.components) - 1)

    def test_initial_value(self):
        s = qc()
        w = flat_section_solve(s, Fraction(1), (Fraction(2), Fraction(3)))
        assert w.components[0].constant_term == 2
        assert w.components[1].constant_term == 3

    def test_one_dim_solution_is_exponential(self):
        inst = load_model("one-dim").instantiate(CAP)
        s = inst.structure
        w = flat_section_solve(s, Fraction(-1), (Fraction(1),))
        x0 = TruncatedSeries.variable(1, CAP, 0)
        expected = exp_series(x0)
        diff = w.components[0] - expected
        assert diff.vanishes_through(diff.valid_to)

    def test_pencil_member_not_flat(self):
        s = load_model("broken-assoc").instantiate(CAP).structure
        with pytest.raises(IntegrabilityError) as err:
            flat_section_solve(s, Fraction(1), (Fraction(1), Fraction(0)))
        assert str(err.value) == ("pencil member not flat: component 0, "
                                  "pair (0, 1), monomial (1, 1)")

    # canonical text of the flat section with w(0) = d_0 at order 4, as
    # the layer-by-layer solver that integrated one degree per layer gave it
    SECTIONS = {
        ("broken-assoc", "-1/2"): (
            "0,0:1/1\n1,1:1/2",
            "0,2:1/4\n2,0:1/4",
        ),
        ("broken-assoc", "1"): (
            "0,0:1/1\n1,1:-1/1",
            "0,2:-1/2\n2,0:-1/2",
        ),
        ("broken-assoc", "2"): (
            "0,0:1/1\n1,1:-2/1",
            "0,2:-1/1\n2,0:-1/1",
        ),
        ("nilpotent", "-1/2"): (
            "0,0:1/1\n1,0:1/2\n2,0:1/8\n3,0:1/48",
            "0,1:1/2\n1,1:1/4\n2,1:1/16",
        ),
        ("nilpotent", "1"): (
            "0,0:1/1\n1,0:-1/1\n2,0:1/2\n3,0:-1/6",
            "0,1:-1/1\n1,1:1/1\n2,1:-1/2",
        ),
        ("nilpotent", "2"): (
            "0,0:1/1\n1,0:-2/1\n2,0:2/1\n3,0:-4/3",
            "0,1:-2/1\n1,1:4/1\n2,1:-4/1",
        ),
        ("one-dim", "-1/2"): (
            "0:1/1\n1:1/2\n2:1/8\n3:1/48",
        ),
        ("one-dim", "1"): (
            "0:1/1\n1:-1/1\n2:1/2\n3:-1/6",
        ),
        ("one-dim", "2"): (
            "0:1/1\n1:-2/1\n2:2/1\n3:-4/3",
        ),
        ("qc-p1", "-1/2"): (
            "0,0:1/1\n0,2:1/8\n0,3:1/12\n1,0:1/2\n1,2:1/16\n"
            "2,0:1/8\n3,0:1/48",
            "0,1:1/2\n0,3:1/48\n1,1:1/4\n2,1:1/16",
        ),
        ("qc-p1", "1"): (
            "0,0:1/1\n0,2:1/2\n0,3:1/3\n1,0:-1/1\n1,2:-1/2\n"
            "2,0:1/2\n3,0:-1/6",
            "0,1:-1/1\n0,3:-1/6\n1,1:1/1\n2,1:-1/2",
        ),
        ("qc-p1", "2"): (
            "0,0:1/1\n0,2:2/1\n0,3:4/3\n1,0:-2/1\n1,2:-4/1\n"
            "2,0:2/1\n3,0:-4/3",
            "0,1:-2/1\n0,3:-4/3\n1,1:4/1\n2,1:-4/1",
        ),
        ("shifted-identity", "-1/2"): (
            "0,0:1/1\n0,2:1/8\n0,3:1/12\n1,0:1/2\n1,2:1/16\n"
            "2,0:1/8\n3,0:1/48",
            "0,1:1/2\n0,3:1/48\n1,1:1/4\n2,1:1/16",
        ),
        ("shifted-identity", "1"): (
            "0,0:1/1\n0,2:1/2\n0,3:1/3\n1,0:-1/1\n1,2:-1/2\n"
            "2,0:1/2\n3,0:-1/6",
            "0,1:-1/1\n0,3:-1/6\n1,1:1/1\n2,1:-1/2",
        ),
        ("shifted-identity", "2"): (
            "0,0:1/1\n0,2:2/1\n0,3:4/3\n1,0:-2/1\n1,2:-4/1\n"
            "2,0:2/1\n3,0:-4/3",
            "0,1:-2/1\n0,3:-4/3\n1,1:4/1\n2,1:-4/1",
        ),
    }

    @pytest.mark.parametrize("name, lam", sorted(SECTIONS))
    def test_corpus_sections(self, name, lam):
        s = load_model(name).instantiate(4).structure
        n = s.dim
        w = flat_section_solve(s, Fraction(lam), [1] + [0] * (n - 1))
        assert tuple(c.canonical_text() for c in w.components) \
            == self.SECTIONS[name, lam]
        assert all(c.cap == 4 and c.valid_to == 3 for c in w.components)

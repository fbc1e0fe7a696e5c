import random
from fractions import Fraction
from itertools import product

import pytest

from flatcirc.geometry import (EndField, FlatnessError, HiggsField,
                               VectorField, Verdict, apply_higgs,
                               covariant_derivative, iter_tensor, judge,
                               lie_bracket, nabla, pencil_curvature_split,
                               tensor_vanishes_through, torsion)
from flatcirc.series import DimensionMismatchError, TruncatedSeries

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


def random_end_field(rng, n, cap, empty=0.3):
    """A matrix of sparse series over n variables, each entry with its own
    cap (``cap`` or one less) and ``valid_to``; about ``empty`` of the
    entries have no terms."""
    def entry():
        top = rng.randint(cap - 1, cap)
        coeffs = {} if rng.random() < empty else {
            e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for e in product(range(top + 1), repeat=n)
            if sum(e) <= top and rng.random() < 0.4}
        return TruncatedSeries(n, top, rng.randint(0, top),
                               {e: v for e, v in coeffs.items() if v})
    return EndField(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


def by_products(a, b):
    return a.compose(b) - b.compose(a)


class TestCommutatorPaths:
    """The commutator, one signed ``dot`` per entry, is storage-equal to
    the difference of the two matrix products."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("empty", [0.0, 0.3, 1.0])
    def test_equals_the_difference_of_products(self, n, empty):
        rng = random.Random(f"commutator:{n}:{empty}")
        for _ in range(4):
            a, b = (random_end_field(rng, n, 3, empty) for _ in range(2))
            assert a.commutator(b) == by_products(a, b)

    def test_empty_entries_keep_the_least_cap_and_valid_to(self):
        a = EndField(((TruncatedSeries.zero(2, 5, 2), zero()),
                      (zero(), zero())))
        comm = a.commutator(EndField.identity(2, CAP))
        assert comm == by_products(a, EndField.identity(2, CAP))
        assert {(s.cap, s.valid_to) for row in comm.matrix for s in row} \
            == {(5, 2), (CAP, CAP)}

    @pytest.mark.parametrize("form", [EndField.commutator, by_products])
    def test_mixed_dimensions_raise(self, form):
        a = random_end_field(random.Random(5), 2, 3)
        three_vars = EndField((a.matrix[0], (a.matrix[1][0],
                                             TruncatedSeries.zero(3, 3))))
        for b in (three_vars, EndField.identity(3, 3)):
            with pytest.raises(DimensionMismatchError):
                form(a, b)


class TestHiggsField:
    def test_zero_operand_known_to_low_degree_bounds_the_product(self):
        # a component that is zero only through degree 2 proves the
        # product only through degree 2, whether or not it is skipped
        t = HiggsField.build(2, lambda a, b, c_: c(1))
        v = VectorField((TruncatedSeries.zero(2, CAP, valid_to=2), c(1)))
        w = VectorField((c(1), x(0)))
        assert t.left(v).valid_to == 2
        assert t.right(v).valid_to == 2
        assert apply_higgs(t, v, w).valid_to == 2
        assert apply_higgs(t, w, v).valid_to == 2


class TestConnection:
    def test_flat_connection_has_zero_curvature(self):
        # C_11^0 = x0 is curved at every shift but 0, whose curvature
        # 0 rho + 0 R2 vanishes
        higgs = HiggsField.build(
            2, lambda a, b, c_: x(0) if (a, b, c_) == (1, 1, 0) else zero())
        r1, _ = pencil_curvature_split(higgs, Fraction(0))
        assert not tensor_vanishes_through(r1, CAP - 1)

    def test_covariant_derivative_flat_frame(self):
        higgs = HiggsField.build(2, lambda a, b, c_: c(1))
        v = VectorField((x(0) * x(1), zero()))
        w = covariant_derivative(higgs, None, VectorField.basis(2, CAP, 1), v)
        assert w.components[0].coeffs == {(1, 0): Fraction(1)}

    def test_shift_adds_its_multiple_of_the_structure(self):
        # nabla_{d_1} v = d_1 v + lambda C(d_1, v), with C_ab^c = 1
        higgs = HiggsField.build(2, lambda a, b, c_: c(1))
        v = VectorField((x(0) * x(1), zero()))
        w = covariant_derivative(higgs, Fraction(-2),
                                 VectorField.basis(2, CAP, 1), v)
        assert w.components[0].coeffs == {(1, 0): Fraction(1),
                                          (1, 1): Fraction(-2)}
        assert w.components[1].coeffs == {(1, 1): Fraction(-2)}

    def test_zero_shift_keeps_the_validity_of_the_structure(self):
        # the member 0 adds 0 C, which is proven only as far as C is; the
        # member None adds nothing
        higgs = HiggsField.build(2, lambda a, b, c_: TruncatedSeries.zero(
            2, CAP, valid_to=2))
        v = VectorField((x(0) * x(1), zero()))
        assert nabla(higgs, None, v).valid_to == CAP - 1
        assert nabla(higgs, Fraction(0), v).valid_to == 2

    def test_torsion_detects_asymmetry(self):
        gamma = HiggsField.build(
            2, lambda a, b, c_: x(1) if (a, b, c_) == (0, 1, 0) else zero())
        assert not tensor_vanishes_through(torsion(gamma), CAP)


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
        r1, r2 = pencil_curvature_split(higgs, None)
        assert tensor_vanishes_through(r1, CAP - 1)
        assert tensor_vanishes_through(r2, CAP)

    def test_split_agrees_with_direct_curvature(self):
        # at lambda = 1 the curvature of nabla_0 + A, with Christoffels A,
        # must equal R1 + R2; entry [a][b][c][d] is R(d_a, d_b)d_c, component d
        higgs = self._structure()
        r1, r2 = pencil_curvature_split(higgs, None)
        n = 2
        g = [higgs.slice(a) for a in range(n)]
        for a in range(n):
            for b in range(n):
                at_one = g[b].derivative(a) - g[a].derivative(b) \
                    + g[a].commutator(g[b])
                for cc in range(n):
                    for d in range(n):
                        diff = at_one.matrix[d][cc] - r1[a][b][cc][d] \
                            - r2[a][b][cc][d]
                        assert diff.vanishes_through(diff.valid_to)

    def test_quadratic_part_detects_nonassociativity(self):
        prod = HiggsField.build(
            2, lambda a, b, c_: c(1) if (a == b == 1 and c_ == 1) or
            (a == b == 0 and c_ == 0) else zero())
        _, r2 = pencil_curvature_split(prod, None)
        assert tensor_vanishes_through(r2, CAP)  # diagonal algebra: associative
        # d0 o d0 = d1, d0 o d1 = d0, d1 o d1 = -d1: commutative, slices
        # [[0,1],[1,0]] and [[1,0],[0,-1]] do not commute
        values = {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 1): -1}
        skew = HiggsField.build(
            2, lambda a, b, c_: c(values.get((a, b, c_), 0)))
        _, r2b = pencil_curvature_split(skew, None)
        # this commutative product is not associative, so R2 != 0
        assert not tensor_vanishes_through(r2b, CAP)

    def test_nonflat_base_rejected(self):
        # C_11^0 = x0 alone is not a potential: rho(d_0, d_1) has the entry
        # d_0 C_11^0 = 1, so every member lambda != 0 is curved
        higgs = HiggsField.build(
            2, lambda a, b, c_: x(0) if (a, b, c_) == (1, 1, 0) else zero())
        with pytest.raises(FlatnessError):
            pencil_curvature_split(higgs, Fraction(3, 7))
        pencil_curvature_split(higgs, None)


class TestTensorHelpers:
    def test_first_offending_picks_lowest_degree(self):
        t = ((TruncatedSeries(1, CAP, CAP, {(2,): Fraction(5)}),
              TruncatedSeries(1, CAP, CAP, {(1,): Fraction(3)})),)
        hit = judge(t).offending
        assert hit == ((0, 1), (1,), Fraction(3))

    def test_first_offending_lies_inside_the_proven_degree(self):
        t = ((TruncatedSeries(2, CAP, 2, {(0, 5): Fraction(7),
                                          (1, 0): Fraction(1)}),),)
        hit = judge(t).offending
        assert hit == ((0, 0), (1, 0), Fraction(1))


def reference_judge(tensor) -> Verdict:
    """``judge`` before it pruned: every entry with a term through its own
    ``valid_to`` offers its lowest term, and the least (degree, entry index,
    exponent) wins."""
    proven = None
    best = None
    for index, s in iter_tensor(tensor):
        valid = s.valid_to
        if proven is None or valid < proven:
            proven = valid
        if s.vanishes_through(valid):
            continue
        exponent, value = s.first_nonzero()
        key = (sum(exponent), index, exponent)
        if best is None or key < best[0]:
            best = (key, (index, exponent, value))
    return Verdict(proven, None if best is None else best[1])


class TestJudgeAgainstReference:
    """``judge`` reads only the entries that can still lower the witness;
    its verdicts equal the reference's, which reads every entry."""

    @staticmethod
    def entry(rng, n, low):
        """A series with terms from degree ``low`` up (none when ``low`` is
        above the cap), a ``valid_to`` from -1 to the cap, and sometimes
        terms only above that ``valid_to``."""
        cap = rng.randint(0, 4)
        valid = rng.randint(-1, cap)
        if rng.random() < 0.2:
            low = valid + 1
        coeffs = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for e in product(range(cap + 1), repeat=n)
                  if low <= sum(e) <= cap and rng.random() < 0.3}
        return TruncatedSeries(n, cap, valid,
                               {e: v for e, v in coeffs.items() if v})

    @classmethod
    def node(cls, rng, n, depth, low):
        """A plain tuple, a vector field or an endomorphism field over
        entries, or a tuple of such nodes while ``depth`` lasts."""
        kind = rng.choice(("entry", "vector", "end")
                          + (("tuple",) if depth else ()))
        if kind == "entry":
            return cls.entry(rng, n, low)
        if kind == "vector":
            return VectorField(tuple(cls.entry(rng, n, low)
                                     for _ in range(n)))
        if kind == "end":
            return EndField(tuple(tuple(cls.entry(rng, n, low)
                                        for _ in range(n)) for _ in range(n)))
        return tuple(cls.node(rng, n, depth - 1, low)
                     for _ in range(rng.randint(1, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_tensors(self, n, seed):
        rng = random.Random(f"judge:{n}:{seed}")
        # low degrees first drawn at 0 to 3: many entries tie at their
        # lowest in-range degree, and some have none
        tensor = tuple(self.node(rng, n, rng.randint(0, 2),
                                 rng.choice((0, 1, 2, 3, 5)))
                       for _ in range(rng.randint(1, 3)))
        assert judge(tensor) == reference_judge(tensor)

    def test_the_earliest_entry_wins_a_tie(self):
        late = TruncatedSeries(2, 4, 4, {(1, 0): Fraction(2)})
        # the later entries tie at degree 1 with exponents below (1, 0)
        early = TruncatedSeries(2, 4, 3, {(0, 1): Fraction(-1),
                                          (2, 0): Fraction(7)})
        above = TruncatedSeries(2, 4, 0, {(1, 0): Fraction(5)})
        tensor = (VectorField((above, late)),
                  ((early, TruncatedSeries.zero(2, 4)),), early)
        verdict = judge(tensor)
        assert verdict == reference_judge(tensor)
        assert verdict == Verdict(0, ((0, 1), (1, 0), Fraction(2)))

    def test_a_degree_0_witness_in_the_last_entry(self):
        entries = [TruncatedSeries(3, 3, 3, {(0, 1, 1): Fraction(1)}),
                   TruncatedSeries(3, 3, 1, {(1, 0, 0): Fraction(4)}),
                   TruncatedSeries(3, 3, -1, {(0, 0, 0): Fraction(9)}),
                   TruncatedSeries(3, 3, 2, {(0, 0, 0): Fraction(-3, 2)})]
        tensor = EndField(((entries[0], entries[1]), (entries[2],
                                                       entries[3])))
        verdict = judge(tensor)
        assert verdict == reference_judge(tensor)
        assert verdict == Verdict(-1, ((1, 1), (0, 0, 0), Fraction(-3, 2)))

    def test_empty_entries_and_an_empty_tensor(self):
        z = TruncatedSeries.zero(2, 3, -1)
        for tensor in ((), ((z,),), (VectorField((z, z)), ((z,),))):
            assert judge(tensor) == reference_judge(tensor)
        assert judge(((z,),)) == Verdict(-1, None)

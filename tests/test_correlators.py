import json
from fractions import Fraction

import pytest

from flatcirc.correlators import (CorrelatorFamily, FamilyFormatError,
                                  NotSymmetricError, b_from_correlators,
                                  correlators_from_b,
                                  master_equation_residual,
                                  potential_endomorphism, structure_from_b)
from flatcirc.duality import primitive_section
from flatcirc.geometry import EndField, judge
from flatcirc.models import CORPUS, load_model
from flatcirc.series import TruncatedSeries

CAP = 6


def qc_b():
    instance = load_model("qc-p1").instantiate(CAP)
    s = instance.structure
    return primitive_section(s, instance.identity).b_field, s


class TestJsonRoundtrip:
    def test_roundtrip(self):
        m = ((Fraction(1, 2), Fraction(0)), (Fraction(-3), Fraction(2)))
        fam = CorrelatorFamily(2, 3, {(0, 1): m, (1, 1, 1): m})
        again = CorrelatorFamily.from_json_obj(json.loads(fam.to_json()))
        assert again == fam

    def test_bad_schema_version(self):
        with pytest.raises(FamilyFormatError):
            CorrelatorFamily.from_json_obj(json.loads(
                '{"schemaVersion": 99, "dim": 1, "order": 1, "entries": []}'))

    def test_bad_matrix_shape(self):
        doc = ('{"schemaVersion": 1, "dim": 2, "order": 2, "entries": '
               '[{"multiset": [0], "matrix": [["1"]]}]}')
        with pytest.raises(FamilyFormatError):
            CorrelatorFamily.from_json_obj(json.loads(doc))

    def test_missing_field(self):
        with pytest.raises(FamilyFormatError):
            CorrelatorFamily.from_json_obj(
                json.loads('{"schemaVersion": 1, "dim": 1}'))


class TestRoundtrip:
    def test_exact_roundtrip_on_model(self):
        b, _ = qc_b()
        fam = correlators_from_b(b)
        b2 = b_from_correlators(fam)
        for i in range(2):
            for j in range(2):
                diff = b.matrix[i][j] - b2.matrix[i][j]
                assert diff.vanishes_through(CAP)

    def test_family_roundtrip_from_matrices(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0)))
        fam = CorrelatorFamily(2, 4, {(0,): m, (0, 1, 1): m})
        again = correlators_from_b(b_from_correlators(fam), force=True)
        assert again.matrices == fam.matrices

    def test_multiset_longer_than_order_is_not_dropped(self):
        # ``from_json_obj`` rejects such a family; one built by hand reaches
        # the series constructor, which refuses a term above its cap
        m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        fam = CorrelatorFamily(2, 2, {(0,): m, (0, 1, 1): m})
        with pytest.raises(ValueError, match="of degree at most 2"):
            b_from_correlators(fam)


class TestGradientGuard:
    def test_non_gradient_rejected(self):
        x0 = TruncatedSeries.variable(2, CAP, 0)
        zero = TruncatedSeries.zero(2, CAP)
        # B^0_1 = x0 but B^0_0 has no x1 term: mixed partials disagree.
        b = EndField(((zero, x0), (zero, zero)))
        with pytest.raises(NotSymmetricError):
            correlators_from_b(b)

    def test_force_skips_guard(self):
        x0 = TruncatedSeries.variable(2, CAP, 0)
        zero = TruncatedSeries.zero(2, CAP)
        b = EndField(((zero, x0), (zero, zero)))
        fam = correlators_from_b(b, force=True)
        assert fam.matrices[(0,)][0][1] == 1


class TestProvenOrder:
    def test_order_is_the_lowest_entry_validity(self):
        x0 = TruncatedSeries.variable(2, CAP, 0)
        short = TruncatedSeries(2, CAP, 3, {(1, 0): Fraction(1)})
        zero = TruncatedSeries.zero(2, CAP)
        b = EndField(((x0, short), (zero, zero)))
        assert correlators_from_b(b, force=True).order == 3

    def test_terms_above_the_proven_degree_are_left_out(self):
        x0 = TruncatedSeries.variable(2, CAP, 0)
        # B^0_1 = x0 + x0^4 proven to degree 3: the x0^4 term is not proven
        short = TruncatedSeries(2, CAP, 3, {(1, 0): Fraction(1),
                                            (4, 0): Fraction(1)})
        zero = TruncatedSeries.zero(2, CAP)
        family = correlators_from_b(EndField(((x0, short), (zero, zero))),
                                    force=True)
        assert family.order == 3
        assert set(family.matrices) == {(0,)}


class TestMasterEquation:
    def test_zero_on_compatible_model(self):
        b, _ = qc_b()
        residual = master_equation_residual(b)
        for end in residual.values():
            for row in end.matrix:
                for s in row:
                    assert s.vanishes_through(CAP - 1)

    def test_detects_incompatibility(self):
        x0 = TruncatedSeries.variable(2, CAP, 0)
        x1 = TruncatedSeries.variable(2, CAP, 1)
        zero = TruncatedSeries.zero(2, CAP)
        half = Fraction(1, 2)
        b = EndField(((zero, x1 * x1 * half), (x0 * x0 * half, zero)))
        residual = master_equation_residual(b)
        assert any(
            not s.vanishes_through(CAP - 2)
            for end in residual.values()
            for row in end.matrix for s in row)


def uncut_master_equation(b):
    """[d_a B, d_b B] for a < b from the derivatives as taken, uncut."""
    d = [b.derivative(a) for a in range(len(b.matrix))]
    return {(a, c): d[a].compose(d[c]) - d[c].compose(d[a])
            for a in range(len(d)) for c in range(a + 1, len(d))}


class TestMasterEquationCut:
    """The master equation is formed from each d_a B cut to its proven
    degree; every verdict, and so ``failingPairs``, is the uncut one."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_cut_keeps_every_verdict(self, name):
        derived = correlators_from_b(potential_endomorphism(
            load_model(name).instantiate(8).structure))
        failing = set()
        for order in range(1, 7):
            family = CorrelatorFamily(derived.dim, order, {
                key: m for key, m in derived.matrices.items()
                if len(key) <= order})
            b = b_from_correlators(family)
            cut, uncut = master_equation_residual(b), uncut_master_equation(b)
            assert cut.keys() == uncut.keys()
            for key, end in cut.items():
                assert judge(end) == judge(uncut[key]), (order, key)
                assert {(s.cap, s.valid_to) for row in end.matrix
                        for s in row} == {(order - 1, order - 1)}
            failing |= {key for key, end in cut.items()
                        if not judge(end).holds}
        assert failing == ({(0, 1)} if name == "broken-assoc" else set())

    def test_a_commutator_only_at_the_order_passes_both_ways(self):
        # B = P x0^2/2 + Q x1^2/2 at order 2: [d_0 B, d_1 B] = [P, Q] x0 x1
        # sits at degree 2, above the proven degree 1
        one, nil = Fraction(1), Fraction(0)
        family = CorrelatorFamily(2, 2, {(0, 0): ((nil, one), (nil, nil)),
                                         (1, 1): ((nil, nil), (one, nil))})
        b = b_from_correlators(family)
        uncut = uncut_master_equation(b)[(0, 1)]
        assert uncut.matrix[0][0].coeffs == {(1, 1): one}
        assert judge(uncut).holds
        assert judge(master_equation_residual(b)[(0, 1)]).holds


class TestStructureFromB:
    def test_reproduces_model_structure(self):
        b, s = qc_b()
        higgs = structure_from_b(b)
        for a in range(2):
            for bb in range(2):
                for c in range(2):
                    diff = higgs.tensor[a][bb][c] - s.tensor[a][bb][c]
                    assert diff.vanishes_through(CAP - 1)

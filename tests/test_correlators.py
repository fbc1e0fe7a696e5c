from fractions import Fraction

import pytest

from flatcirc.correlators import (CorrelatorFamily, FamilyFormatError,
                                  NotSymmetricError, b_from_correlators,
                                  correlators_from_b,
                                  master_equation_residual, structure_from_b)
from flatcirc.duality import primitive_section
from flatcirc.geometry import Connection, EndField
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries

CAP = 6


def qc_b():
    instance = load_model("qc-p1").instantiate(CAP)
    s = instance.structure
    base = Connection.zero(2, CAP)
    return primitive_section(s, base, s.identity).b_field, s


class TestFamilyContainer:
    def test_missing_multiset_is_zero(self):
        fam = CorrelatorFamily(2, 3, {})
        assert fam.entry((0, 1), 0, 1) == 0

    def test_unsorted_key_lookup(self):
        m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
        fam = CorrelatorFamily(2, 3, {(0, 1): m})
        assert fam.entry((1, 0), 1, 1) == 2

    def test_order_cap_enforced(self):
        fam = CorrelatorFamily(2, 2, {})
        with pytest.raises(KeyError):
            fam.matrix((0, 0, 1))


class TestJsonRoundtrip:
    def test_roundtrip(self):
        m = ((Fraction(1, 2), Fraction(0)), (Fraction(-3), Fraction(2)))
        fam = CorrelatorFamily(2, 3, {(0, 1): m, (1, 1, 1): m})
        again = CorrelatorFamily.from_json(fam.to_json())
        assert again == fam

    def test_bad_schema_version(self):
        with pytest.raises(FamilyFormatError):
            CorrelatorFamily.from_json(
                '{"schemaVersion": 99, "dim": 1, "order": 1, "entries": []}')

    def test_bad_matrix_shape(self):
        doc = ('{"schemaVersion": 1, "dim": 2, "order": 2, "entries": '
               '[{"multiset": [0], "matrix": [["1"]]}]}')
        with pytest.raises(FamilyFormatError):
            CorrelatorFamily.from_json(doc)

    def test_missing_field(self):
        with pytest.raises(FamilyFormatError):
            CorrelatorFamily.from_json('{"schemaVersion": 1, "dim": 1}')


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
        assert fam.entry((0,), 0, 1) == 1


class TestProvenOrder:
    def test_order_is_the_lowest_entry_validity(self):
        x0 = TruncatedSeries.variable(2, CAP, 0)
        short = TruncatedSeries(2, CAP, 3, {(1, 0): Fraction(1)})
        zero = TruncatedSeries.zero(2, CAP)
        b = EndField(((x0, short), (zero, zero)))
        assert correlators_from_b(b, force=True).order == 3


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


class TestStructureFromB:
    def test_reproduces_model_structure(self):
        b, s = qc_b()
        higgs = structure_from_b(b)
        for a in range(2):
            for bb in range(2):
                for c in range(2):
                    diff = higgs.tensor[a][bb][c] - s.structure.tensor[a][bb][c]
                    assert diff.vanishes_through(CAP - 1)

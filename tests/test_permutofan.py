from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcirc.permutofan import (Cone, FanSizeError, OrderedPartition,
                                 concat_product, cone_of_partition,
                                 embed_product_permutation,
                                 enumerate_partitions, fubini_number,
                                 good_family, indicator, locate_point,
                                 max_fan_size, normalize_lattice, sn_action,
                                 verify_fan)


class TestOrderedPartition:
    def test_text_roundtrip(self):
        tau = OrderedPartition.of([1], [3, 4], [2])
        assert tau.text() == "1|3,4|2"

    def test_blocks_sorted_within(self):
        tau = OrderedPartition.of([4, 3], [1], [2])
        assert tau.blocks[0] == (3, 4)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            OrderedPartition.of([1, 2], [2, 3])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            OrderedPartition.of([1], [3])


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75)])
    def test_counts(self, n, count):
        assert len(enumerate_partitions(n)) == count
        assert fubini_number(n) == count

    def test_no_duplicates(self):
        parts = enumerate_partitions(3)
        assert len({p.text() for p in parts}) == 13


class TestGoodFamily:
    def test_two_part_splits(self):
        tau = OrderedPartition.of([1], [2], [3])
        fam = good_family(tau)
        assert [s.text() for s in fam] == ["1|2,3", "1,2|3"]

    def test_single_block_empty_family(self):
        assert good_family(OrderedPartition.of([1, 2])) == []


class TestLattice:
    def test_normalization(self):
        assert normalize_lattice([2, 3, 1]) == (1, 2, 0)

    def test_indicator(self):
        assert indicator([1, 3], 3) == (0, -1, 0)

    def test_cone_generators(self):
        tau = OrderedPartition.of([2], [1], [3])
        cone = cone_of_partition(tau)
        assert cone.generators == (indicator([2], 3), indicator([1, 2], 3))


class TestLocate:
    def test_strict_values_give_full_flag(self):
        tau = locate_point([Fraction(3), Fraction(1), Fraction(2)], 3)
        assert tau.text() == "1|3|2"

    def test_ties_merge_blocks(self):
        tau = locate_point([Fraction(1), Fraction(1), Fraction(0)], 3)
        assert tau.text() == "1,2|3"

    def test_translation_invariance(self):
        a = locate_point([Fraction(5), Fraction(2), Fraction(3)], 3)
        b = locate_point([Fraction(6), Fraction(3), Fraction(4)], 3)
        assert a == b

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_locate_always_valid(self, values):
        tau = locate_point([Fraction(v) for v in values], 3)
        assert tau.ground_size == 3


class TestVerifyFan:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_checks_pass(self, n):
        report = verify_fan(n)
        assert report.all_pass
        assert report.cone_count == fubini_number(n)
        assert report.ray_count == 2 ** n - 2
        import math
        assert report.max_cone_count == math.factorial(n)

    def test_bound_respected(self):
        with pytest.raises(FanSizeError):
            verify_fan(max_fan_size() + 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FLATCIRC_MAX_N", "3")
        assert max_fan_size() == 3
        with pytest.raises(FanSizeError):
            verify_fan(4)

    def test_default_bound(self, monkeypatch):
        monkeypatch.delenv("FLATCIRC_MAX_N", raising=False)
        assert max_fan_size() == 6


class TestConcatProduct:
    def test_shifts_second_factor(self):
        t1 = OrderedPartition.of([1], [2])
        t2 = OrderedPartition.of([1, 2])
        assert concat_product(t1, t2).text() == "1|2|3,4"

    def test_associativity_small(self):
        for a in enumerate_partitions(2):
            for b in enumerate_partitions(1):
                for c in enumerate_partitions(2):
                    left = concat_product(concat_product(a, b), c)
                    right = concat_product(a, concat_product(b, c))
                    assert left == right


class TestSnAction:
    def test_relabel(self):
        tau = OrderedPartition.of([1], [2, 3])
        out = sn_action([2, 3, 1], tau)
        assert out.text() == "2|1,3"

    def test_identity_action(self):
        tau = OrderedPartition.of([1, 3], [2])
        assert sn_action([1, 2, 3], tau) == tau

    def test_group_action_composition(self):
        tau = OrderedPartition.of([1], [2], [3])
        p = [2, 3, 1]
        q = [3, 1, 2]
        # (q after p)(i) = q[p[i]-1]
        qp = [q[p[i] - 1] for i in range(3)]
        assert sn_action(q, sn_action(p, tau)) == sn_action(qp, tau)

    def test_equivariance_with_concat(self):
        for t1 in enumerate_partitions(2):
            for t2 in enumerate_partitions(2):
                for p1 in permutations(range(1, 3)):
                    for p2 in permutations(range(1, 3)):
                        lhs = concat_product(sn_action(list(p1), t1),
                                             sn_action(list(p2), t2))
                        rhs = sn_action(
                            embed_product_permutation(p1, p2),
                            concat_product(t1, t2))
                        assert lhs == rhs

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcirc import linalg, permutofan
from flatcirc.permutofan import (Cone, FanSizeError, OrderedPartition,
                                 concat_product, cone_of_partition,
                                 embed_product_permutation,
                                 enumerate_partitions, fubini_number,
                                 good_family, indicator, locate_point,
                                 max_fan_size, normalize_lattice, sn_action,
                                 verify_fan)
from flatcirc.permutofan import FanReport, _merge_partition


class TestOrderedPartition:
    def test_text_roundtrip(self):
        tau = OrderedPartition.of([1], [3, 4], [2])
        assert tau.blocks == ((1,), (3, 4), (2,))

    def test_blocks_sorted_within(self):
        tau = OrderedPartition.of([4, 3], [1], [2])
        assert tau.blocks[0] == (3, 4)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            OrderedPartition.of([1, 2], [2, 3])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            OrderedPartition.of([1], [3])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            OrderedPartition.of([1], [], [2])

    def test_rejects_repeated_element(self):
        with pytest.raises(ValueError):
            OrderedPartition.of([1, 1])


@st.composite
def partitions(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(st.sampled_from(enumerate_partitions(n)))


def built_partitions(tau, other, perm, values, cuts):
    """Every partition the module builds from tau without ``of``."""
    n = tau.ground_size
    return ([tau, other, locate_point(values[:n], n), concat_product(tau, other),
             sn_action([v for v in perm if v <= n], tau),
             _merge_partition(tau, sorted(cuts))]
            + good_family(tau))


class TestValidByConstruction:
    """Partitions built without ``of`` are exactly what ``of`` validates."""

    @given(partitions(), partitions(), st.permutations(range(1, 6)),
           st.lists(st.integers(-3, 3), min_size=5, max_size=5),
           st.sets(st.integers(1, 4)))
    @settings(max_examples=200, deadline=None)
    def test_of_accepts_and_reproduces(self, tau, other, perm, values, cuts):
        for p in built_partitions(tau, other, perm, values, cuts):
            assert OrderedPartition.of(*p.blocks) == p


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75)])
    def test_counts(self, n, count):
        assert len(enumerate_partitions(n)) == count
        assert fubini_number(n) == count

    def test_no_duplicates(self):
        parts = enumerate_partitions(3)
        assert len(set(parts)) == 13


class TestGoodFamily:
    def test_two_part_splits(self):
        tau = OrderedPartition.of([1], [2], [3])
        fam = good_family(tau)
        assert [s.blocks for s in fam] == [((1,), (2, 3)), ((1, 2), (3,))]

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
        assert tau.blocks == ((1,), (3,), (2,))

    def test_ties_merge_blocks(self):
        tau = locate_point([Fraction(1), Fraction(1), Fraction(0)], 3)
        assert tau.blocks == ((1, 2), (3,))

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_maximal_cones_match_all_cones(self, n):
        assert verify_fan(n) == verify_fan_all_cones(n)

    @pytest.mark.parametrize("corrupt", [
        lambda gens: gens[::-1],
        lambda gens: (gens[0], gens[0]),
        lambda gens: gens[:1],
    ], ids=["reordered", "replaced", "dropped"])
    def test_corrupt_face_detected(self, monkeypatch, corrupt):
        # a non-maximal cone is only ever reached as a face of maximal ones
        original = permutofan.cone_of_partition
        face = OrderedPartition.of([2, 4], [1], [3])

        def corrupted(tau):
            cone = original(tau)
            if tau == face:
                return Cone(tau, corrupt(cone.generators))
            return cone

        monkeypatch.setattr(permutofan, "cone_of_partition", corrupted)
        assert not verify_fan(4).face_closed
        assert not verify_fan_all_cones(4).face_closed

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
        assert concat_product(t1, t2).blocks == ((1,), (2,), (3, 4))

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
        assert out.blocks == ((2,), (1, 3))

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


def verify_fan_all_cones(n):
    """The reference check over every cone, not only the maximal ones, in
    Fraction arithmetic; ``verify_fan`` must report the same."""
    partitions = enumerate_partitions(n)
    cones = [permutofan.cone_of_partition(tau) for tau in partitions]
    rays = sum(1 for tau in partitions if tau.num_blocks == 2)
    maximal = [c for c in cones if c.label.num_blocks == n]

    unimodular = True
    for cone in maximal:
        matrix = [[Fraction(v) for v in gen[:-1]] for gen in cone.generators]
        if abs(linalg.determinant(matrix)) != 1:
            unimodular = False
            break

    complete = True
    face_closed = True
    known = {cone.label: cone for cone in cones}
    for cone in cones:
        k = len(cone.generators)
        for mask in range(1 << k):
            chosen = [i for i in range(k) if mask >> i & 1]
            coarser = _merge_partition(cone.label, [i + 1 for i in chosen])
            target = known.get(coarser)
            if target is None or set(target.generators) != {
                    cone.generators[i] for i in chosen}:
                face_closed = False
            point = [Fraction(0)] * n
            for rank, i in enumerate(chosen, start=1):
                gen = cone.generators[i]
                for j in range(n):
                    point[j] += Fraction(rank) * gen[j]
            if locate_point(point, n) != coarser:
                complete = False
    return FanReport(n, len(cones), rays, len(maximal), unimodular, complete,
                     face_closed)

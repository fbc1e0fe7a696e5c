import copy
import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from coordinates import product_document, unimodular_pair

from flatcirc.checks import cut_to_proven
from flatcirc.cli import main
from flatcirc.correlators import (b_from_correlators, correlators_from_b,
                                  master_equation_residual,
                                  potential_endomorphism)
from flatcirc.euler import euler_residual, full_flatness_residual
from flatcirc.fmanifold import (d_tensor, find_identity, five_term_residual,
                                l_membership, nabla_e_e_mode, p_tensor,
                                potential_to_structure)
from flatcirc import fmanifold, geometry, linalg, series
from flatcirc.geometry import (EndField, HiggsField, VectorField, apply_higgs,
                               covariant_derivative, judge, lie_bracket,
                               pencil_curvature_split,
                               tensor_vanishes_through, torsion)
from flatcirc.models import ModelDocument, load_model
from flatcirc.series import TruncatedSeries

CAP = 8


def x(axis, n=2, cap=CAP):
    return TruncatedSeries.variable(n, cap, axis)


def basis(axis, n=2):
    return VectorField.basis(n, CAP, axis)


def qc_structure(order=CAP):
    return load_model("qc-p1").instantiate(order).structure


class TestPotential:
    def test_low_degrees_change_no_entry(self):
        # a term of degree < 2 has no second derivative, so the structure
        # of a potential does not depend on its gauge
        cubic = x(0) * x(0) * x(1) / 2 + x(1) * x(1) * x(1) * Fraction(1, 3)
        low = [TruncatedSeries.constant(2, CAP, 5) + x(1) * 3,
               x(0) * Fraction(-2, 7) + x(1)]
        plain = potential_to_structure(VectorField((cubic, x(0) * x(1))))
        gauged = potential_to_structure(VectorField((cubic + low[0],
                                                     x(0) * x(1) + low[1])))
        assert gauged == plain
        assert [s.cap for s in gauged.tensor[0][0]] == [CAP, CAP]
        assert gauged.valid_to == plain.valid_to == CAP - 2

    def test_structure_from_known_potential(self):
        s = qc_structure()
        # d1 o d1 = exp(x1) d0
        prod = apply_higgs(s, basis(1), basis(1))
        assert prod.components[0].coeffs[(0, 0)] == 1
        assert prod.components[0].coeffs[(0, 3)] == Fraction(1, 6)
        assert prod.components[1].coeffs == {}

    def test_identity_found_automatically(self):
        e = load_model("qc-p1").instantiate(CAP).identity
        assert e is not None
        assert e.components[0].constant_term == 1
        assert e.components[1].coeffs == {}


def dense_potential(rng, n, cap):
    """A seeded dense potential: every monomial of degree 2 to the cap with
    a random rational coefficient (some zero), plus an exponential of a
    linear form, with a proven degree below the cap in one component."""
    def component(c):
        linear = sum((x(i, n, cap) * rng.randint(-2, 2) for i in range(n)),
                     TruncatedSeries.zero(n, cap))
        dense = TruncatedSeries(n, cap, cap - (c == n - 1), {
            e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for e in product(range(cap + 1), repeat=n) if 2 <= sum(e) <= cap})
        return dense + series.exp_series(linear) * rng.randint(1, 3)
    return VectorField(tuple(component(c) for c in range(n)))


class TestPotentialToStructure:
    """Each entry is the second derivative of its component, storage-equal
    (values, cap and ``valid_to``), with C_ab and C_ba one object and each
    derivative taken once per row a <= b."""

    CASES = [(n, seed) for n, cap in ((1, 6), (2, 6), (3, 5), (4, 4))
             for seed in range(2)]

    @staticmethod
    def potential(n, seed):
        cap = {1: 6, 2: 6, 3: 5, 4: 4}[n]
        return dense_potential(random.Random(f"potential:{n}:{seed}"), n, cap)

    @pytest.mark.parametrize("n, seed", CASES)
    def test_entries_are_second_derivatives(self, n, seed):
        potential = self.potential(n, seed)
        t = potential_to_structure(potential).tensor
        for a, b, c in product(range(n), repeat=3):
            want = potential.components[c].derivative(a).derivative(b)
            assert t[a][b][c] == want, (a, b, c)
            assert t[a][b][c] is t[b][a][c]

    @pytest.mark.parametrize("n, seed", CASES[::2])
    def test_derivatives_taken_once(self, n, seed, monkeypatch):
        potential = self.potential(n, seed)
        calls = []
        derivative = TruncatedSeries.derivative

        def counted(s, axis):
            calls.append(axis)
            return derivative(s, axis)

        monkeypatch.setattr(TruncatedSeries, "derivative", counted)
        potential_to_structure(potential)
        assert len(calls) == n * n + n * n * (n + 1) // 2


class TestHmResidual:
    def test_vanishes_on_compatible_model(self):
        res = five_term_residual(qc_structure())
        assert tensor_vanishes_through(res, 5)

    def test_nonzero_on_broken_model(self):
        s = load_model("broken-assoc").instantiate(6).structure
        res = five_term_residual(s)
        assert not tensor_vanishes_through(res, 4)


def six_term_entry(structure, a, b, c, d, f):
    """The five-term residual entry written out as its six sums over e.

    The sum has no zero seed: a seed at ``structure.order`` (the cap of
    C_00^0) would cut the entry to that cap when its own operands reach
    higher, as on tensors whose entries have different caps."""
    n = structure.dim
    t = structure.tensor
    sums = [t[a][b][e] * t[c][d][f].derivative(e)
            - t[c][d][e] * t[a][b][f].derivative(e)
            + t[a][b][e].derivative(c) * t[e][d][f]
            + t[a][b][e].derivative(d) * t[e][c][f]
            - t[c][d][e].derivative(b) * t[e][a][f]
            - t[c][d][e].derivative(a) * t[e][b][f] for e in range(n)]
    return sum(sums[1:], sums[0])


def random_tensor(rng, n, cap):
    """A non-symmetric 3-tensor of sparse series, each entry with its own
    cap (``cap`` or one less) and ``valid_to``; some entries are empty."""
    def entry(a, b, c):
        top = rng.randint(cap - 1, cap)
        coeffs = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for e in product(range(top + 1), repeat=n)
                  if sum(e) <= top and rng.random() < 0.4}
        return TruncatedSeries(n, top, rng.randint(1, top),
                               {e: v for e, v in coeffs.items() if v})
    return HiggsField.build(n, entry)


def symmetric_tensor(rng, n, cap):
    """``random_tensor`` with the row C_ba set to the row C_ab for a < b."""
    t = random_tensor(rng, n, cap).tensor
    return HiggsField.build(n, lambda a, b, c: t[min(a, b)][max(a, b)][c])


def partly_symmetric_tensor(rng, n, cap):
    """A symmetric tensor with the row C_10 replaced by other values, and
    the row C_21 (n = 3) by the same values at a lower ``valid_to``."""
    t = symmetric_tensor(rng, n, cap).tensor
    other = random_tensor(rng, n, cap).tensor

    def entry(a, b, c):
        s = t[a][b][c]
        if (a, b) == (1, 0):
            return other[a][b][c]
        if (a, b) == (2, 1):
            return s * TruncatedSeries.constant(n, s.cap, 1, s.valid_to - 1)
        return s
    return HiggsField.build(n, entry)


def exp_potential_structure(rng, n, cap):
    """The structure of a seeded potential with an exponential term."""
    linear = sum((x(i, n, cap) * rng.randint(-2, 2) for i in range(n)),
                 TruncatedSeries.zero(n, cap))
    return potential_to_structure(VectorField(tuple(
        series.exp_series(linear) * rng.randint(1, 3)
        + x(c, n, cap) * x((c + 1) % n, n, cap) * rng.randint(-3, 3)
        for c in range(n))))


def mixed_exp_potential_structure(rng, n, cap):
    """The structure of a seeded potential with one exponential term per
    component, each of its own linear form, plus cubic monomials: unlike
    ``exp_potential_structure`` the top degree of C is not of rank one, so
    [C_x, C_y] has terms above the cap of C."""
    def component():
        linear = sum((x(i, n, cap) * rng.randint(-2, 2) for i in range(n)),
                     TruncatedSeries.zero(n, cap))
        return series.exp_series(linear) * rng.randint(1, 3) + sum(
            (x(i, n, cap) * x(j, n, cap) * x(k, n, cap) * rng.randint(-3, 3)
             for i, j, k in product(range(n), repeat=3) if i <= j <= k),
            TruncatedSeries.zero(n, cap))
    return potential_to_structure(VectorField(tuple(
        component() for _ in range(n))))


SYMMETRIC_TABLE = json.loads((Path(__file__).resolve().parent / "data"
                              / "table-qo3-symmetric.json").read_text(
                                  encoding="utf-8"))["document"]


def map_rows_sources():
    """{id: tensor} of C from a potential, the symmetric table, a partly
    symmetric tensor and a tensor with no symmetric row, at n = 1-4."""
    found = {"table-qo3-symmetric": ModelDocument.from_json_obj(
        SYMMETRIC_TABLE).instantiate(4).structure}
    for n in range(1, 5):
        for name, make in (("potential", exp_potential_structure),
                           ("partly-symmetric", partly_symmetric_tensor),
                           ("random", random_tensor)):
            found[f"{name}-n{n}"] = make(
                random.Random(f"map-rows:{name}:{n}"), n, 4)
    return found


MAP_ROWS_SOURCES = map_rows_sources()


class TestMapRows:
    """``HiggsField.map_rows`` calls f once per representative row and
    tiles its values over ``pairs``."""

    @staticmethod
    def f(row):
        return tuple(s.derivative(0) - s for s in row)

    @pytest.mark.parametrize("key", sorted(MAP_ROWS_SOURCES))
    def test_f_called_once_per_representative(self, key):
        tensor = MAP_ROWS_SOURCES[key]
        calls = []
        tensor.map_rows(lambda row: calls.append(row) or self.f(row))
        t = tensor.tensor
        assert len(calls) == len(tensor.representatives)
        assert all(row is t[a][b] for row, (a, b)
                   in zip(calls, tensor.representatives))

    @pytest.mark.parametrize("key", sorted(MAP_ROWS_SOURCES))
    def test_rows_shared_where_the_source_shares(self, key):
        tensor = MAP_ROWS_SOURCES[key]
        result, pairs = tensor.map_rows(self.f).tensor, tensor.pairs
        for a, b in product(range(tensor.dim), repeat=2):
            assert (result[a][b] is result[b][a]) \
                == (pairs[a][b] == pairs[b][a]), (a, b)

    @pytest.mark.parametrize("key", sorted(MAP_ROWS_SOURCES))
    def test_rows_are_f_of_the_source_rows(self, key):
        tensor = MAP_ROWS_SOURCES[key]
        result, t = tensor.map_rows(self.f).tensor, tensor.tensor
        for a, b in product(range(tensor.dim), repeat=2):
            assert result[a][b] == self.f(t[a][b]), (a, b)


class TestFiveTermContractions:
    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 0)])
    def test_equals_six_term_formula(self, n, seed):
        rng = random.Random(f"five-term:{n}:{seed}")
        structure = random_tensor(rng, n, 3)
        assert not judge(torsion(structure)).holds
        residual = five_term_residual(structure)
        for a, b, c, d, f in product(range(n), repeat=5):
            assert residual[a][b][c][d][f] == \
                six_term_entry(structure, a, b, c, d, f), (a, b, c, d, f)

    @pytest.mark.parametrize("kind", ["symmetric", "potential", "partly"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_path_equals_six_term_formula(self, n, kind):
        """Entries formed once per index orbit equal the six sums, cap and
        ``valid_to`` included, on tensors with some or all rows C_ab equal
        to C_ba.  ``five_term_residual`` reads a potential off R2, so there
        the orbit path is called directly."""
        rng = random.Random(f"five-term-orbits:{n}:{kind}")
        if kind == "potential":
            structures = [make(rng, n, 5) for make in (
                exp_potential_structure, mixed_exp_potential_structure)]
        else:
            make = symmetric_tensor if kind == "symmetric" \
                else partly_symmetric_tensor
            structures = [make(rng, n, 3)]
        for structure in structures:
            t = structure.tensor
            symmetric = [t[a][b] == t[b][a]
                         for a in range(n) for b in range(n)]
            assert all(symmetric) == (kind != "partly") and any(
                t[a][b] != t[b][a] for a in range(n) for b in range(a)) \
                == (kind == "partly")
            on_r2 = fmanifold._potential_form(structure)
            assert on_r2 == (kind == "potential")
            residual = (orbit_residual if on_r2
                        else five_term_residual)(structure)
            for a, b, c, d, f in product(range(n), repeat=5):
                assert residual[a][b][c][d][f] == \
                    six_term_entry(structure, a, b, c, d, f), (a, b, c, d, f)


def orbit_residual(structure):
    """The five-term residual as the orbit path forms it, on any tensor."""
    pair, r = structure.pairs, range(structure.dim)
    x = fmanifold._entries_over_orbits(structure, structure.representatives)
    return tuple(tuple(tuple(tuple(x[pair[a][b], pair[c][d]]
                                   for d in r) for c in r) for b in r)
                 for a in r)



def shared_symmetric_tensor(rng, n, cap, valid_to):
    """A symmetric 3-tensor of sparse series whose entries all have cap
    ``cap`` and ``valid_to`` ``valid_to``; some entries are empty."""
    def entry():
        coeffs = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for e in product(range(cap + 1), repeat=n)
                  if sum(e) <= cap and rng.random() < 0.4}
        return TruncatedSeries(n, cap, valid_to,
                               {e: v for e, v in coeffs.items() if v})
    rows = {(a, b): [entry() for _ in range(n)]
            for a in range(n) for b in range(a, n)}
    return HiggsField.build(n, lambda a, b, c: rows[min(a, b), max(a, b)][c])


class TestFiveTermFromPencil:
    """The five-term residual of a symmetric C from its pencil residuals.

    With r1, r2 the split of the pencil C at the zero connection, and
    rho = r1 (the linear residual d_x C_yz^f - d_y C_xz^f), every entry is
      d_c r2[d][a][b][f] - d_a r2[b][c][d][f]
      + sum_e (C_ab^e rho[e][c][d][f] - C_cd^e rho[e][a][b][f]
               + C_ae^f rho[c][b][d][e] + C_bd^e rho[c][a][e][f]
               + C_ce^f rho[d][a][b][e])
    through its ``valid_to``, and has the same ``valid_to``, when the
    entries of C share one cap and one ``valid_to``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["full", "below-cap", "potential"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_residual_from_pencil_split(self, n, kind, seed):
        rng = random.Random(f"five-term-pencil:{n}:{kind}:{seed}")
        if kind == "potential":
            structure = exp_potential_structure(rng, n, 5)
        else:
            valid_to = 4 if kind == "full" else 2
            structure = shared_symmetric_tensor(rng, n, 4, valid_to)
        t = structure.tensor
        entries = [s for p in t for r in p for s in r]
        assert len({(s.cap, s.valid_to) for s in entries}) == 1
        r1, r2 = pencil_curvature_split(structure, None)
        rho = r1
        assert judge(rho).holds == (kind == "potential")
        assert not judge(r2).holds
        residual = five_term_residual(structure)
        for a, b, c, d, f in product(range(n), repeat=5):
            lhs = residual[a][b][c][d][f]
            rhs = (r2[d][a][b][f].derivative(c)
                   - r2[b][c][d][f].derivative(a))
            for e in range(n):
                rhs = (rhs + t[a][b][e] * rho[e][c][d][f]
                       - t[c][d][e] * rho[e][a][b][f]
                       + t[a][e][f] * rho[c][b][d][e]
                       + t[b][d][e] * rho[c][a][e][f]
                       + t[c][e][f] * rho[d][a][b][e])
            assert rhs.valid_to == lhs.valid_to, (a, b, c, d, f)
            assert (lhs - rhs).vanishes_through(lhs.valid_to), (a, b, c, d, f)


def six_sum_entries(structure):
    """``six_term_entry`` of every index.  The six sums depend on (a, b)
    only through the row C_ab and symmetrically in a, b, so an entry is
    formed once for a and b swapped when the row C_ab equals C_ba, and
    likewise for (c, d)."""
    n = structure.dim
    t = structure.tensor

    def row(a, b):
        return (min(a, b), max(a, b)) if t[a][b] == t[b][a] else (a, b)

    entries, out = {}, {}
    for a, b, c, d, f in product(range(n), repeat=5):
        key = (row(a, b), row(c, d), f)
        if key not in entries:
            entries[key] = six_term_entry(structure, a, b, c, d, f)
        out[a, b, c, d, f] = entries[key]
    return out


class TestFiveTermPaths:
    """Both ways of forming the five-term residual agree with the six sums.

    A tensor built from a potential (symmetric rows, one cap and
    ``valid_to``, rho = 0) takes the derivatives of R2; there the entries
    equal the six sums through their ``valid_to``, with the same cap and
    ``valid_to``, and ``judge`` gives the same verdict and witness.  A
    symmetric tensor with rho != 0 and a partly symmetric one take the
    index orbits, whose entries equal the six sums exactly."""

    @staticmethod
    def assert_agrees(structure, exact):
        residual = five_term_residual(structure)
        expected = six_sum_entries(structure)
        n = structure.dim
        for index in product(range(n), repeat=5):
            a, b, c, d, f = index
            lhs, rhs = residual[a][b][c][d][f], expected[index]
            assert (lhs.cap, lhs.valid_to) == (rhs.cap, rhs.valid_to), index
            assert (lhs - rhs).vanishes_through(lhs.valid_to), index
            assert lhs == rhs or not exact, index
        reference = tuple(tuple(tuple(tuple(tuple(
            expected[a, b, c, d, f] for f in range(n)) for d in range(n))
            for c in range(n)) for b in range(n)) for a in range(n))
        assert judge(residual) == judge(reference)

    # the mixed potentials at n = 4 stop at cap 5: caps 6 and 7 take 6 s
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("make, n, cap", [
        (make, n, cap) for make in (exp_potential_structure,
                                    mixed_exp_potential_structure)
        for n in (2, 3, 4) for cap in range(3, 8)
        if make is exp_potential_structure or n < 4 or cap <= 5])
    def test_potential_reads_r2(self, make, n, cap, cut):
        structure = make(random.Random(f"five-term-paths:{n}:{cap}"), n, cap)
        if cut:
            structure = cut_to_proven(structure)
        assert fmanifold._potential_form(structure)
        self.assert_agrees(structure, exact=False)

    def test_entries_may_differ_above_valid_to(self):
        # d R2 holds nothing at the cap, where the six sums may
        structure = mixed_exp_potential_structure(random.Random(0), 2, 5)
        residual = five_term_residual(structure)
        expected = six_sum_entries(structure)
        assert any(residual[a][b][c][d][f] != expected[a, b, c, d, f]
                   for a, b, c, d, f in product(range(2), repeat=5))

    @pytest.mark.parametrize("kind", ["rho", "partly"])
    def test_other_tensors_take_the_orbits(self, kind):
        rng = random.Random(f"five-term-paths:{kind}")
        structure = shared_symmetric_tensor(rng, 3, 4, 3) if kind == "rho" \
            else partly_symmetric_tensor(rng, 3, 3)
        t = structure.tensor
        assert all(t[a][b] == t[b][a] for a, b in product(range(3), repeat=2)
                   ) == (kind == "rho")
        assert not fmanifold._potential_form(structure)
        self.assert_agrees(structure, exact=True)


class TestOperationCounts:
    """Kernel operation counts of the residuals at n = 3: counts stay
    steady where times are noisy."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Pairs handed to ``dot`` and derivatives taken from here on."""
        counts = {"products": 0, "derivative": 0}
        dot, derivative = series.dot, TruncatedSeries.derivative

        def counted_dot(xs, ys):
            counts["products"] += len(xs)
            return dot(xs, ys)

        def counted_derivative(self, axis):
            counts["derivative"] += 1
            return derivative(self, axis)

        # the residuals' own calls and the products made by ``*``
        for module in (series, geometry, fmanifold):
            monkeypatch.setattr(module, "dot", counted_dot)
        monkeypatch.setattr(TruncatedSeries, "derivative", counted_derivative)
        return counts

    @staticmethod
    def field(rng):
        return VectorField(random_tensor(rng, 3, 2).tensor[0][0])

    def test_five_term_products_and_derivatives(self, counts):
        five_term_residual(random_tensor(random.Random(0), 3, 2))
        assert counts == {"products": 2 * 3 ** 6, "derivative": 3 ** 4}

    def test_five_term_products_on_a_symmetric_tensor(self, counts):
        # m = n(n+1)/2 pairs up to order: per f, U for m^2 pairs of pairs
        # and V for m pairs times n^2 indices, n products each; one
        # derivative per pair, direction and last index
        n, m = 3, 6
        five_term_residual(symmetric_tensor(random.Random(0), n, 2))
        assert counts == {"products": n * m * (m + n * n) * n,
                          "derivative": m * n * n}
        assert counts["products"] == 810

    def test_five_term_on_a_potential_reads_the_split(self, counts):
        # rho = 0: the residual is read off the derivatives of R2, whose
        # m n^3 products the split on the same tensor has formed already
        n, m = 3, 6
        structures = [exp_potential_structure(random.Random(0), n, 4)
                      for _ in range(2)]
        counts.update(products=0, derivative=0)
        pencil_curvature_split(structures[0], None)
        counts["products"] = 0
        five_term_residual(structures[0])
        assert counts["products"] == 0
        # on a fresh tensor, only the products of R2
        five_term_residual(structures[1])
        assert counts["products"] == m * n ** 3 == 162

    def test_split_of_a_symmetric_tensor_products_and_derivatives(self,
                                                                   counts):
        # R2 from the associator table, m n^2 entries of n products each
        # (two matrix products per pair a <= b took 2 m n^3 = 324); rho from
        # the Jacobians of the m distinct rows (two slice derivatives per
        # pair took 2 m n^2 = 108)
        n, m = 3, 6
        pencil_curvature_split(symmetric_tensor(random.Random(0), n, 2), None)
        assert counts == {"products": m * n ** 3, "derivative": m * n * n}

    def test_euler_residual_products_and_derivatives(self, counts):
        # 27 entries differentiated along E and Jacobian(E); E(C_a), the two
        # products of [C_a, D] and L_{d_a E}: 4 * 3^4 pairs (the basis-field
        # form took 486 derivatives and 1,458 pairs)
        rng = random.Random(1)
        structure = random_tensor(rng, 3, 2)
        euler_residual(structure, self.field(rng), 1)
        assert counts == {"products": 4 * 3 ** 4, "derivative": 3 ** 4 + 3 ** 2}

    def test_l_membership_products_and_derivatives(self, counts):
        # Jacobian(eps); C.right(lambda eps), nabla eps applied to e and
        # C.right(nabla_e eps): 2 * 3^3 + 3^2 pairs (the basis-field form
        # took 36 derivatives and 288 pairs)
        rng = random.Random(2)
        structure, e = random_tensor(rng, 3, 2), self.field(rng)
        l_membership(structure, e, Fraction(-5, 3), self.field(rng))
        assert counts == {"products": 2 * 3 ** 3 + 3 ** 2,
                          "derivative": 3 ** 2}

    def test_commutator_is_one_signed_dot_per_entry(self, counts,
                                                    monkeypatch):
        # n^2 entries of 2n pairs each; the two matrix products and their
        # difference took the same pairs in 2n^2 calls
        composed = []
        compose = EndField.compose

        def recorded(self, other):
            composed.append(other)
            return compose(self, other)

        monkeypatch.setattr(EndField, "compose", recorded)
        rng = random.Random(5)
        left, right = (random_tensor(rng, 3, 2).slice(0) for _ in range(2))
        left.commutator(right)
        assert composed == []
        assert counts == {"products": 2 * 3 ** 3, "derivative": 0}

    def test_cuts_form_no_product(self, counts, monkeypatch):
        # the cut of C and H in ``checks`` and of d_a B in the master
        # equation drop terms; none of them multiplies by the constant 1
        products = [0]
        mul = TruncatedSeries.__mul__

        def counted_mul(self, other):
            products[0] += 1
            return mul(self, other)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        structure = random_tensor(random.Random(6), 3, 3)
        assert cut_to_proven(structure) != structure
        assert counts["products"] == products[0] == 0
        b = b_from_correlators(correlators_from_b(potential_endomorphism(
            qc_structure(6))))
        counts.update(products=0, derivative=0)
        products[0] = 0
        master_equation_residual(b)
        # one pair (0, 1) of 2 x 2 matrices: 2n^3 pairs in the commutator
        assert products[0] == 0
        assert counts == {"products": 2 * 2 ** 3, "derivative": 2 * 2 ** 2}

    def test_pencil_split_forms_no_matrix_below_the_diagonal(self, monkeypatch):
        pairs = []
        frame_tensor = geometry._frame_tensor

        def recorded(n, matrix):
            def tracked(a, b):
                pairs.append((a, b))
                return matrix(a, b)
            return frame_tensor(n, tracked)

        monkeypatch.setattr(geometry, "_frame_tensor", recorded)
        n = 3
        pencil_curvature_split(random_tensor(random.Random(1), n, 2), None)
        assert pairs and all(a <= b for a, b in pairs)
        # R1 = rho and R2: each upper pair once
        assert len(pairs) == 2 * n * (n + 1) // 2
        # at a shift, the member's own curvature as well
        pairs.clear()
        n = 2
        pencil_curvature_split(qc_structure(), Fraction(1, 2))
        assert pairs and all(a <= b for a, b in pairs)
        assert len(pairs) == 3 * n * (n + 1) // 2

    @pytest.fixture
    def commutators(self, monkeypatch):
        """(left, right) of every ``EndField.commutator`` from here on."""
        formed = []
        commutator = EndField.commutator

        def recorded(self, other):
            formed.append((self, other))
            return commutator(self, other)

        monkeypatch.setattr(EndField, "commutator", recorded)
        return formed

    @staticmethod
    def extension(rng):
        structure = random_tensor(rng, 3, 2)
        return structure, tuple(random_tensor(rng, 3, 2).slice(0)
                                for _ in range(4))

    def test_flatness_forms_each_commutator_once(self, commutators):
        # [H_k, C_a] for every power k and direction a, reused as the
        # lambda term of the power k + 1
        structure, h = self.extension(random.Random(3))
        full_flatness_residual(h, structure, Fraction(2, 3))
        assert len(commutators) == len(h) * structure.dim

    def test_flatness_at_flat_base_forms_no_connection_term(self,
                                                            commutators):
        # nabla_0 has no Christoffels: every commutator is [H_k, C_a]
        structure, h = self.extension(random.Random(4))
        full_flatness_residual(h, structure, None)
        slices = [structure.slice(a) for a in range(structure.dim)]
        assert sorted((h.index(left), slices.index(right))
                      for left, right in commutators) == \
            sorted(product(range(len(h)), range(structure.dim)))


class TestJudgeReads:
    """Entries whose terms ``judge`` reads on five-term residuals at n = 3:
    past a witness only a lower degree can win, so after a degree-0 witness
    no later entry is read."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Reads of each series (by id) through ``vanishes_through`` and
        ``first_nonzero`` from here on."""
        counts = {}
        for name in ("vanishes_through", "first_nonzero"):
            method = getattr(TruncatedSeries, name)

            def counted(self, *args, method=method):
                counts[id(self)] = counts.get(id(self), 0) + 1
                return method(self, *args)

            monkeypatch.setattr(TruncatedSeries, name, counted)
        return counts

    @staticmethod
    def entries(tensor):
        """The tensor rebuilt with a copy of each entry, so that entries
        that share one series object are counted apart."""
        if isinstance(tensor, tuple):
            return tuple(TestJudgeReads.entries(t) for t in tensor)
        return copy.copy(tensor)

    def test_no_entry_after_a_degree_0_witness_is_read(self, reads):
        tensor = self.entries(five_term_residual(
            random_tensor(random.Random(0), 3, 2)))
        entries = geometry.iter_tensor(tensor)
        reads.clear()
        verdict = judge(tensor)
        index, exponent, _ = verdict.offending
        assert sum(exponent) == 0
        at = [i for i, _ in entries].index(index)
        # the entries of P = Q before it are zero, the witness is entry 3
        assert 0 < at < len(entries) - 1
        assert not any(id(s) in reads for _, s in entries[at + 1:])
        assert all(reads.get(id(s)) == 1 for _, s in entries[:at])

    def test_a_passing_tensor_reads_each_entry_at_most_once(self, reads):
        tensor = self.entries(five_term_residual(qc_structure()))
        reads.clear()
        assert judge(tensor).holds
        entries = geometry.iter_tensor(tensor)
        assert len({id(s) for _, s in entries}) == len(entries)
        assert all(reads.get(id(s), 0) <= 1 for _, s in entries)


class TestExtensionCounts:
    """``dot`` calls of whole commands.  Where nabla_e e = 0 the geometric
    inverse is stationary from g_1 on, and every power of mu above the
    first stationary one repeats a formed object, so a higher
    ``--mu-order`` forms nothing new.  ``shifted-identity`` (nabla_e e = e)
    has no stationary tail and forms every power, as every model did
    before the tail was shared."""

    @pytest.fixture
    def dots(self, monkeypatch):
        """``dot`` calls from here on, through every module's own name."""
        calls = [0]
        dot = series.dot

        def counted(xs, ys):
            calls[0] += 1
            return dot(xs, ys)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("flatcirc") \
                    and getattr(module, "dot", None) is dot:
                monkeypatch.setattr(module, "dot", counted)
        return calls

    @pytest.fixture
    def product_model(self, tmp_path):
        """qc-p1 x qc-p1 in linear coordinates, as the extension-twist
        workload writes its models."""
        a, inv = unimodular_pair(4, [(0, 2, 1), (3, 1, -1)], [1, 0, 3, 2],
                                 [1, -1, 1, 1])
        path = tmp_path / "qc-qc.json"
        path.write_text(json.dumps(product_document(("qc-p1", "qc-p1"), a,
                                                    inv, 4)))
        return str(path)

    @staticmethod
    def counted(dots, command, model, mu_order):
        dots[0] = 0
        with redirect_stdout(io.StringIO()):
            assert main([command, model, "--mu-order", str(mu_order)]) == 0
        return dots[0]

    @pytest.mark.parametrize("command, count", [("extend", 100),
                                                ("check", 98)])
    def test_qc_p1_forms_no_power_past_the_tail(self, dots, command, count):
        # forming every power took extend 162, 218, 386, 1450 and check
        # 116, 132, 180, 484 calls at mu-order 4, 6, 12, 50
        assert [self.counted(dots, command, "qc-p1", mu)
                for mu in (4, 6, 12, 50)] == [count] * 4

    @pytest.mark.parametrize("command, count", [("extend", 430),
                                                ("check", 582)])
    def test_product_model_forms_no_power_past_the_tail(
            self, dots, product_model, command, count):
        # forming every power took extend 706, 962, 1730 and check 618,
        # 650, 746 calls at mu-order 4, 6, 12
        assert [self.counted(dots, command, product_model, mu)
                for mu in (4, 6, 12)] == [count] * 3

    @pytest.mark.parametrize("command, counts", [
        ("extend", [170, 226, 394]), ("check", [208, 264, 432])])
    def test_without_a_tail_every_power_is_formed(self, dots, command,
                                                  counts):
        # 28 dot calls per power of mu
        assert [self.counted(dots, command, "shifted-identity", mu)
                for mu in (4, 6, 12)] == counts


class TestFindIdentity:
    def test_no_identity_when_product_degenerate(self):
        n = 2
        zero = TruncatedSeries.zero(n, CAP)
        tensor = HiggsField.build(n, lambda a, b, c: zero)
        result = find_identity(tensor)
        assert result is None

    def test_identity_with_series_components(self):
        # conjugated product still has an identity, constant in this frame
        s = qc_structure()
        assert find_identity(s) is not None


def per_monomial_solve(matrix, rhs, valid):
    """The series solver written out monomial by monomial: every monomial
    of each degree up to ``valid``, its right-hand side convolved from the
    coefficients already found."""
    num_vars = rhs[0].num_vars
    cap = rhs[0].cap
    unknowns = len(matrix[0])
    m0 = [[entry.constant_term for entry in row] for row in matrix]
    coeffs = [dict() for _ in range(unknowns)]
    for degree in range(valid + 1):
        exponents = sorted(e for e in product(range(degree + 1),
                                              repeat=num_vars)
                           if sum(e) == degree)
        for exponent in exponents:
            residual = []
            for row, target in zip(matrix, rhs):
                acc = target.coefficient(exponent)
                for j in range(unknowns):
                    for e1, v1 in coeffs[j].items():
                        e2 = tuple(x - y for x, y in zip(exponent, e1))
                        if e1 == exponent or any(x < 0 for x in e2):
                            continue
                        acc -= v1 * row[j].coefficient(e2)
                residual.append(acc)
            solution = linalg.solve_overdetermined(m0, residual)
            for j in range(unknowns):
                if solution[j] != 0:
                    coeffs[j][exponent] = solution[j]
    return tuple(TruncatedSeries(num_vars, cap, valid, c) for c in coeffs)


def random_series(rng, n, cap, density):
    return sum((TruncatedSeries.monomial(n, cap, e, Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)))
                for e in product(range(cap + 1), repeat=n)
                if sum(e) <= cap and rng.random() < density),
               TruncatedSeries.zero(n, cap))


def solve_outcome(solver, matrix, rhs, valid):
    try:
        return solver(matrix, rhs, valid)
    except linalg.SingularSystemError as exc:
        return str(exc)


class TestSolveSeriesSystem:
    """The residual solver against the per-monomial solver."""

    @pytest.mark.parametrize("n, unknowns, rows, density", [
        (1, 1, 1, 0.3), (1, 2, 3, 0.9), (2, 2, 2, 0.3), (2, 2, 4, 0.9),
        (3, 1, 2, 0.5), (3, 3, 3, 0.2), (3, 2, 3, 0.7)])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_monomial_solve(self, n, unknowns, rows, density,
                                       seed):
        rng = random.Random(f"solve:{n}:{unknowns}:{rows}:{density}:{seed}")
        cap = 4
        matrix = [[random_series(rng, n, cap, density)
                   for _ in range(unknowns)] for _ in range(rows)]
        for row in matrix:  # a constant term keeps M(0) of full rank, mostly
            row[rng.randrange(unknowns)] += rng.randint(1, 3)
        if seed % 2:  # consistent by construction: rhs = M w
            w = [random_series(rng, n, cap, density) for _ in range(unknowns)]
            rhs = [series.dot(row, w) for row in matrix]
        else:
            rhs = [random_series(rng, n, cap, density) for _ in range(rows)]
        valid = rng.randint(cap - 1, cap)
        got = solve_outcome(fmanifold.solve_series_system, matrix, rhs, valid)
        assert got == solve_outcome(per_monomial_solve, matrix, rhs, valid)

    def test_inconsistent_above_degree_zero(self):
        # w = 1 + x from the first row, w = 1 - x from the second
        one = TruncatedSeries.constant(1, 4, 1)
        matrix = [[one], [one]]
        rhs = [1 + x(0, 1, 4), 1 - x(0, 1, 4)]
        assert solve_outcome(fmanifold.solve_series_system, matrix, rhs, 3) \
            == solve_outcome(per_monomial_solve, matrix, rhs, 3) \
            == "no exact solution"

    def test_degree_zero_is_always_solved(self):
        # M(0) = 0: a solver that skipped degree 0 would return w = 0
        with pytest.raises(linalg.SingularSystemError):
            fmanifold.solve_series_system([[x(0, 1, 4)]],
                                          [TruncatedSeries.zero(1, 4)], 3)


class TestMembership:
    def setup_method(self):
        inst = load_model("shifted-identity").instantiate(CAP)
        self.s = inst.structure
        self.e = inst.identity
        self.shift = inst.lambda0

    def test_identity_is_member(self):
        rep = l_membership(self.s, self.e, self.shift, self.e)
        assert judge(rep).holds

    def test_flat_fields_are_members(self):
        for axis in range(2):
            rep = l_membership(self.s, self.e, self.shift, basis(axis))
            assert judge(rep).holds

    def test_nabla_e_e_chain_members(self):
        e = self.e
        w = covariant_derivative(self.s, self.shift, e, e)
        assert judge(l_membership(self.s, e, self.shift, w)).holds
        w2 = covariant_derivative(self.s, self.shift, e, w)
        assert judge(l_membership(self.s, e, self.shift, w2)).holds

    def test_derivation_residual_zero(self):
        # ad e is a derivation of the product over the frame
        s = self.s
        for y in range(2):
            for z in range(2):
                v = p_tensor(s, self.e, basis(y), basis(z))
                assert v.vanishes_through(v.valid_to)

    def test_consequence_residuals_zero_for_member(self):
        # a member eps satisfies the ad-formula
        #   [eps, Y] = nabla_eps Y - Y o nabla_e eps
        # and P_eps(Y, Z) = D(eps, Y, Z) + (Y o Z) o nabla_e eps
        s, shift = self.s, self.shift
        eps = self.e
        assert judge(l_membership(s, self.e, shift, eps)).holds
        nabla_e_eps = covariant_derivative(s, shift, self.e, eps)
        for b in range(2):
            v = lie_bracket(eps, basis(b)) \
                - covariant_derivative(s, shift, eps, basis(b)) \
                + apply_higgs(s, basis(b), nabla_e_eps)
            assert v.vanishes_through(v.valid_to)
        for y in range(2):
            for z in range(2):
                v = p_tensor(s, eps, basis(y), basis(z)) \
                    - d_tensor(s, shift, eps, basis(y), basis(z)) \
                    - apply_higgs(s, apply_higgs(s, basis(y), basis(z)),
                                  nabla_e_eps)
                assert v.vanishes_through(v.valid_to - 1)

    def test_non_member_detected(self):
        bad = VectorField((x(0) * x(0), x(1)))
        rep = l_membership(self.s, self.e, self.shift, bad)
        assert not judge(rep).holds


class TestNablaEEMode:
    def test_flat_mode(self):
        inst = load_model("qc-p1").instantiate(CAP)
        e = inst.identity
        mode = nabla_e_e_mode(e, covariant_derivative(inst.structure, None,
                                                      e, e))
        assert mode.kind == "flat"

    def test_eigen_mode_on_shifted_base(self):
        inst = load_model("shifted-identity").instantiate(CAP)
        e = inst.identity
        mode = nabla_e_e_mode(e, covariant_derivative(
            inst.structure, inst.lambda0, e, e))
        assert mode.kind == "eigen"
        assert mode.eigenvalue == 1

    def test_other_mode(self):
        # C_00^1 = x1 alone is not a potential (d_1 C_00^1 != d_0 C_10^1),
        # and at e = d_0 the member lambda gives nabla_e e = lambda x1 d_1
        n = 2
        rng = random.Random("other-mode")
        shift = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 9))
        tensor = HiggsField.build(
            n, lambda a, b, c: x(1) if (a, b, c) == (0, 0, 1)
            else TruncatedSeries.zero(n, CAP))
        e = VectorField.basis(n, CAP, 0)
        mode = nabla_e_e_mode(e, covariant_derivative(tensor, shift, e, e))
        assert mode.kind == "other"

    def test_other_mode_when_not_a_multiple_of_e(self):
        # w^0 matches e^0 = 1 with eigenvalue candidate 2, but w - 2e = x1 d_1
        e = load_model("qc-p1").instantiate(CAP).identity
        w = VectorField((TruncatedSeries.constant(2, CAP, 2), x(1)))
        assert nabla_e_e_mode(e, w) == fmanifold.NablaEEMode("other")

    def test_eigenvalue_read_within_proven_degree(self):
        # w^0 = 5 x0^4 lies above w's proven degree 3, so the eigenvalue is
        # read off w^1 = 2 e^1, and w - 2e = (3 x0^4, 0) vanishes through 3
        n, cap = 2, 4
        quartic = TruncatedSeries(n, cap, cap, {(4, 0): Fraction(1)})
        e = VectorField((quartic, TruncatedSeries.constant(n, cap, 1)))
        w = VectorField((TruncatedSeries(n, cap, 3, {(4, 0): Fraction(5)}),
                         TruncatedSeries.constant(n, cap, 2, 3)))
        assert nabla_e_e_mode(e, w) == fmanifold.NablaEEMode("eigen",
                                                             Fraction(2))


class TestShiftBase:
    def test_shift_preserves_pencil_flatness(self):
        s = qc_structure()
        r1, r2 = pencil_curvature_split(s, Fraction(1))
        assert tensor_vanishes_through(r1, 5)
        assert tensor_vanishes_through(r2, 6)

    def test_zero_shift_is_identity_operation(self):
        # the member 0 adds a zero term: the coefficients of nabla_0
        inst = load_model("qc-p1").instantiate(CAP)
        s, e = inst.structure, inst.identity
        v = VectorField((x(0) * x(1), x(1) * x(1)))
        for got, want in zip(
                covariant_derivative(s, Fraction(0), e, v).components,
                covariant_derivative(s, None, e, v).components):
            assert got.coeffs == want.coeffs

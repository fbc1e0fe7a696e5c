from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcirc.series import (DimensionMismatchError, NonUnitError,
                             NotClosedError, TruncatedSeries, exp_series,
                             primitive_of_closed_family)


def S(num_vars=2, cap=6):
    return TruncatedSeries.zero(num_vars, cap)


def var(axis, num_vars=2, cap=6):
    return TruncatedSeries.variable(num_vars, cap, axis)


def const(v, num_vars=2, cap=6):
    return TruncatedSeries.constant(num_vars, cap, v)


# -- small, deterministic strategies over exact rationals ---------------------

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=7)


@st.composite
def series(draw, num_vars=2, cap=4):
    coeffs = {}
    n_terms = draw(st.integers(0, 6))
    for _ in range(n_terms):
        exponent = tuple(draw(st.integers(0, 2)) for _ in range(num_vars))
        if sum(exponent) > cap:
            continue
        value = draw(rationals)
        if value:
            coeffs[exponent] = value
    return TruncatedSeries(num_vars, cap, cap, coeffs)


class TestConstruction:
    def test_zero_has_no_coeffs(self):
        assert S().coeffs == {}

    def test_monomial_roundtrip(self):
        m = TruncatedSeries.monomial(2, 6, (1, 2), Fraction(3, 4))
        assert m.coeffs == {(1, 2): Fraction(3, 4)}

    def test_above_cap_dropped(self):
        m = TruncatedSeries.monomial(2, 2, (3, 0), 1)
        assert m.coeffs == {}

    def test_wrong_exponent_length(self):
        with pytest.raises(DimensionMismatchError):
            TruncatedSeries.monomial(2, 6, (1, 2, 3), 1)

    def test_valid_to_cannot_exceed_cap(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 3, 4, {})


class TestArithmetic:
    def test_product_truncates_at_cap(self):
        x = var(0, 1, 3)
        p = x * x * x * x
        assert p.coeffs == {}

    def test_known_product(self):
        x, y = var(0), var(1)
        p = (x + y) * (x - y)
        assert p.coeffs == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            var(0, 2) + var(0, 3, 6)

    @given(series(), series(), series())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        la = (a * (b + c)).coeffs
        ra = (a * b + a * c).coeffs
        assert la == ra

    @given(series())
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, a):
        assert (a - a).coeffs == {}


class TestDerivativeAndTruncation:
    def test_derivative_drops_validity(self):
        x = var(0)
        assert x.derivative(0).valid_to == 5

    def test_derivative_of_degree_zero_proves_nothing(self):
        s = TruncatedSeries.constant(1, 4, 3, valid_to=0)
        assert s.derivative(0).valid_to == -1

    def test_derivative_values(self):
        s = TruncatedSeries.monomial(2, 6, (3, 1), Fraction(1, 2))
        d = s.derivative(0)
        assert d.coeffs == {(2, 1): Fraction(3, 2)}

    def test_vanishes_through(self):
        s = TruncatedSeries.monomial(2, 6, (0, 3), 1)
        assert s.vanishes_through(2)
        assert not s.vanishes_through(3)

    def test_first_nonzero_lex(self):
        s = TruncatedSeries(2, 6, 6, {(1, 2): Fraction(1), (0, 3): Fraction(2)})
        assert s.first_nonzero() == ((0, 3), Fraction(2))

    def test_first_nonzero_lowest_degree_first(self):
        # lexicographic order alone would name x1^5, beyond the proven degree
        s = TruncatedSeries(2, 6, 2, {(0, 5): Fraction(7), (1, 0): Fraction(1)})
        assert s.first_nonzero() == ((1, 0), Fraction(1))


class TestInversion:
    def test_invert_unit(self):
        one = const(1)
        s = one - var(0)
        inv = s.invert_unit()
        # geometric series 1 + x + x^2 + ...
        assert inv.coeffs[(0, 0)] == 1
        assert inv.coeffs[(3, 0)] == 1
        assert (s * inv - one).coeffs == {}

    def test_nonunit_rejected(self):
        with pytest.raises(NonUnitError):
            var(0).invert_unit()

    @given(series())
    @settings(max_examples=30, deadline=None)
    def test_inverse_is_two_sided(self, a):
        u = a + const(1, 2, 4)
        if u.constant_term == 0:
            return
        inv = u.invert_unit()
        prod = u * inv
        assert (prod - const(1, 2, 4)).vanishes_through(prod.valid_to)


class TestExp:
    def test_exp_of_variable(self):
        e = exp_series(var(1))
        assert e.coeffs[(0, 0)] == 1
        assert e.coeffs[(0, 3)] == Fraction(1, 6)
        assert e.coeffs[(0, 6)] == Fraction(1, 720)

    def test_exp_needs_zero_constant(self):
        with pytest.raises(NonUnitError):
            exp_series(const(1))

    def test_exp_homomorphism(self):
        x, y = var(0), var(1)
        lhs = exp_series(x + y)
        rhs = exp_series(x) * exp_series(y)
        assert (lhs - rhs).vanishes_through(6)


class TestPrimitive:
    def test_gradient_recovers_potential(self):
        # d/dx and d/dy of x^2 y
        fx = TruncatedSeries(2, 6, 6, {(1, 1): Fraction(2)})
        fy = TruncatedSeries(2, 6, 6, {(2, 0): Fraction(1)})
        p = primitive_of_closed_family([fx, fy])
        assert p.coeffs == {(2, 1): Fraction(1)}

    def test_primitive_gains_a_degree(self):
        fx = TruncatedSeries(2, 6, 3, {(1, 1): Fraction(2)})
        fy = TruncatedSeries(2, 6, 3, {(2, 0): Fraction(1)})
        assert primitive_of_closed_family([fx, fy]).valid_to == 4

    def test_not_closed_rejected(self):
        fx = TruncatedSeries(2, 6, 6, {(0, 1): Fraction(1)})
        fy = TruncatedSeries.zero(2, 6)
        with pytest.raises(NotClosedError):
            primitive_of_closed_family([fx, fy])

    def test_not_closed_names_lowest_degree(self):
        # pair (0, 1) fails at degree 2 (3 x1^2), the later pair (1, 2) at
        # degree 0 (d_2 f_1 - d_1 f_2 = -1); the lowest degree is named
        f0 = TruncatedSeries(3, 6, 6, {(0, 3, 0): Fraction(1)})
        f1 = TruncatedSeries.zero(3, 6)
        f2 = TruncatedSeries(3, 6, 6, {(0, 1, 0): Fraction(1)})
        with pytest.raises(NotClosedError) as caught:
            primitive_of_closed_family([f0, f1, f2])
        assert caught.value.pair == (1, 2)
        assert caught.value.exponent == (0, 0, 0)

    @given(series(num_vars=2, cap=5))
    @settings(max_examples=30, deadline=None)
    def test_primitive_of_gradient(self, p):
        grad = [p.derivative(0), p.derivative(1)]
        back = primitive_of_closed_family(grad)
        normalized = TruncatedSeries(
            2, p.cap, p.valid_to,
            {e: v for e, v in p.coeffs.items() if sum(e) >= 1})
        assert (back - normalized).vanishes_through(back.valid_to)


class TestTextFormat:
    def test_canonical_text_sorted(self):
        s = TruncatedSeries(2, 6, 6, {(1, 0): Fraction(1, 2),
                                      (0, 2): Fraction(-3)})
        assert s.canonical_text() == "0,2:-3/1\n1,0:1/2"

from fractions import Fraction

import pytest

from flatcirc.expr import ExprError, parse_series
from flatcirc.series import TruncatedSeries, exp_series

CAP = 8
VARS = ["x0", "x1"]


def parse(text):
    return parse_series(text, VARS, CAP)


class TestGrammar:
    def test_constant(self):
        assert parse("3/4").constant_term == Fraction(3, 4)

    def test_precedence(self):
        s = parse("1 + 2*x0^2")
        assert s.coefficient((2, 0)) == 2
        assert s.constant_term == 1

    def test_unary_minus(self):
        s = parse("-x0 - -x1")
        assert s.coefficient((1, 0)) == -1
        assert s.coefficient((0, 1)) == 1

    def test_parentheses(self):
        s = parse("(x0 + x1)^2")
        assert s.coefficient((1, 1)) == 2

    def test_division_by_constant(self):
        assert parse("x0^2/2").coefficient((2, 0)) == Fraction(1, 2)

    def test_division_by_unit_series(self):
        s = parse("1/(1 - x0)")
        assert s.coefficient((5, 0)) == 1

    def test_exp(self):
        x1 = TruncatedSeries.variable(2, CAP, 1)
        diff = parse("exp(x1)") - exp_series(x1)
        assert diff.vanishes_through(CAP)

    def test_exp_of_negative(self):
        assert parse("exp(-x1)").coefficient((0, 3)) == Fraction(-1, 6)

    def test_model_potential(self):
        s = parse("x0^2/2 + exp(x1)")
        assert s.coefficient((2, 0)) == Fraction(1, 2)
        assert s.coefficient((0, 2)) == Fraction(1, 2)


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ExprError):
            parse("y0 + 1")

    def test_trailing_operator(self):
        with pytest.raises(ExprError) as err:
            parse("x0 + ")
        assert err.value.offset == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ExprError):
            parse("(x0 + x1")

    def test_unexpected_closing_paren(self):
        with pytest.raises(ExprError, match=r"unexpected '\)' \(at offset 1\)"
                           ) as err:
            parse_series("x)", ["x"], 3)
        assert err.value.offset == 1

    def test_bad_character(self):
        with pytest.raises(ExprError) as err:
            parse("x0 @ x1")
        assert err.value.offset == 3

    def test_fractional_power(self):
        with pytest.raises(ExprError):
            parse("x0^x1")

    def test_exp_needs_zero_constant_term(self):
        with pytest.raises(ExprError):
            parse("exp(1 + x0)")

    def test_division_by_non_unit(self):
        with pytest.raises(ExprError):
            parse("1/x0")

    def test_empty_input(self):
        with pytest.raises(ExprError):
            parse("")


class TestPower:
    @pytest.mark.parametrize("text", ["x^-1", "x^y"])
    def test_exponent_must_be_a_nonnegative_integer(self, text):
        with pytest.raises(ExprError, match=r"^exponent must be a nonnegative "
                           r"integer \(at offset 2\)$"):
            parse_series(text, ["x", "y"], 4)

    def test_power_does_not_chain(self):
        with pytest.raises(ExprError,
                           match=r"^unexpected '\^' \(at offset 3\)$"):
            parse_series("x^2^3", ["x"], 4)

    def test_zeroth_power_is_one_to_the_cap(self):
        s = parse_series("(1+x)^0", ["x"], 4)
        assert s == TruncatedSeries.constant(1, 4, 1)
        assert s.valid_to == s.cap == 4

from fractions import Fraction

import pytest

from flatcirc import expr, series
from flatcirc.expr import MAX_POWER_BITS, ExprError, parse_series
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

    def test_negative_cap_is_refused(self):
        # a programming error, not bad input: no exit 2
        with pytest.raises(ValueError, match="cap must be nonnegative") as info:
            parse_series("x0", VARS, -1)
        assert not isinstance(info.value, ExprError)


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

    @pytest.mark.parametrize("text, offset", [
        ("7^10000000*x^3", 1),
        ("2^99999999999999*x", 1),
        (f"2^{MAX_POWER_BITS}", 1),
        (f"x + (1/2)^{MAX_POWER_BITS}", 9),
        ("(7^100)^1000*x", 7),
    ])
    def test_number_power_past_the_bound_is_refused(self, text, offset):
        with pytest.raises(ExprError) as info:
            parse_series(text, ["x"], 4)
        assert str(info.value) == (f"a number to this power reaches "
                                   f"2^{MAX_POWER_BITS} (at offset {offset})")
        assert text[info.value.offset] == "^"

    @pytest.mark.parametrize("text, value", [
        (f"2^{MAX_POWER_BITS - 1}", 2 ** (MAX_POWER_BITS - 1)),
        (f"(1/2)^{MAX_POWER_BITS - 1}", Fraction(1, 2 ** (MAX_POWER_BITS - 1))),
        ("0^99999999999999999999", 0),
        ("1^99999999999999999999", 1),
        ("(-1)^99999999999999999999", -1),
        ("(2-3)^99999999999999999998", 1),
    ], ids=["2", "1/2", "0", "1", "-1", "2-3"])
    def test_number_power_below_the_bound(self, text, value):
        assert parse_series(text + "*x", ["x"], 2) \
            == TruncatedSeries(1, 2, 2, {(1,): value})

    @pytest.mark.parametrize("text", ["1", "-1", "x", "2*x-1", "1+2^60*x"])
    def test_series_power_with_constant_term_0_or_1_is_not_bounded(self, text):
        n = 99999999999999
        assert parse_series(f"({text})^{n}", ["x"], 2) \
            == parse_series(text, ["x"], 2).pow_int(n)

    def test_series_power_is_not_bounded_by_the_exponent(self):
        # (1 + x)^N at cap 2 is 1 + N x + N(N - 1)/2 x^2
        n = 99999999999999
        assert parse_series(f"(1+x)^{n}", ["x"], 2) == TruncatedSeries(
            1, 2, 2, {(0,): 1, (1,): n, (2,): Fraction(n * (n - 1), 2)})

    @pytest.mark.parametrize("text, offset", [
        ("(7+x)^1000000", 5),
        ("(2+x)^99999999999999", 5),
        (f"(2+x)^{MAX_POWER_BITS}", 5),
        (f"x*(1/2+x)^{MAX_POWER_BITS}", 9),
        (f"(2^{MAX_POWER_BITS - 1}*(1+x))^2", 15),
        ("(7^100+x)^1000", 9),
    ])
    def test_series_power_past_the_bound_is_refused(self, text, offset):
        # decided on the constant term, whatever the cap
        for cap in (0, 3):
            with pytest.raises(ExprError) as info:
                parse_series(text, ["x"], cap)
            assert str(info.value) == (f"a constant term to this power reaches "
                                       f"2^{MAX_POWER_BITS} (at offset {offset})")
            assert text[info.value.offset] == "^"

    def test_power_of_a_term_past_the_cap_is_zero_at_once(self):
        # degree times exponent passes the cap before any coefficient is
        # formed: 2^99999999999999 would not fit in memory
        assert parse_series("(2*x)^99999999999999", ["x"], 2) \
            == TruncatedSeries.zero(1, 2)

    def test_power_of_a_term_keeps_its_coefficient(self):
        # the bound is on the constant term, and a term of degree 1 has none
        big = 2 ** (MAX_POWER_BITS - 1)
        assert parse_series(f"(2^{MAX_POWER_BITS - 1}*x)^3", ["x"], 3) \
            == TruncatedSeries(1, 3, 3, {(3,): big ** 3})
        assert parse_series(f"(2^{MAX_POWER_BITS - 1}*x)^3", ["x"], 2) \
            == TruncatedSeries.zero(1, 2)

    @pytest.mark.parametrize("base, exponent, constant", [
        ("2+x", MAX_POWER_BITS - 1, 2 ** (MAX_POWER_BITS - 1)),
        ("1/2+x", MAX_POWER_BITS - 1, Fraction(1, 2 ** (MAX_POWER_BITS - 1))),
        ("-2-x", 3, -8),
        (f"2^{MAX_POWER_BITS // 2 - 1}+x", 2, 2 ** (MAX_POWER_BITS - 2)),
    ], ids=["2", "1/2", "-2", "square"])
    def test_series_power_below_the_bound(self, base, exponent, constant):
        s = parse_series(f"({base})^{exponent}", ["x"], 1)
        assert s == parse_series(base, ["x"], 1).pow_int(exponent)
        assert s.constant_term == constant


class TestLiterals:
    """Literals that meet each other before any series stay numbers; the
    result is the series, in the same storage, that constant series give:
    the values below, at the cap, proven through it."""

    @pytest.mark.parametrize("cap", [0, 3, 4])
    @pytest.mark.parametrize("text, coeffs", [
        ("2^3/4*x", {1: 2}),
        ("(1/2)^2*x", {1: Fraction(1, 4)}),
        ("1/(2-3)", {0: -1}),
        ("0^0", {0: 1}),
        ("-(-2)*x", {1: 2}),
        ("2 - x", {0: 2, 1: -1}),
        ("2/(1+x)", {0: 2, 1: -2, 2: 2, 3: -2, 4: 2}),
        ("exp(0)", {0: 1}),
        ("exp(2-2)", {0: 1}),
    ])
    def test_value(self, text, coeffs, cap):
        want = TruncatedSeries(1, cap, cap, {(k,): v for k, v in coeffs.items()
                                             if k <= cap})
        assert parse_series(text, ["x"], cap) == want

    @pytest.mark.parametrize("text, message", [
        ("x/0", "division by a series vanishing at the origin (at offset 1)"),
        ("x/(1-1)",
         "division by a series vanishing at the origin (at offset 1)"),
        ("1/x", "division by a series vanishing at the origin (at offset 1)"),
        ("exp(1)", "exp argument must vanish at the origin (at offset 0)"),
        ("exp(3-2)", "exp argument must vanish at the origin (at offset 0)"),
    ])
    def test_error(self, text, message):
        with pytest.raises(ExprError) as info:
            parse_series(text, ["x"], 4)
        assert str(info.value) == message
        assert info.value.offset == int(message[-2])

    def test_polynomial_text_forms_no_series_work(self, monkeypatch):
        # a polynomial stays a map of exact coefficients to the end of the
        # parse, where it becomes one series
        calls = []

        def counted(name, f):
            return lambda *args: calls.append(name) or f(*args)

        monkeypatch.setattr(series, "dot", counted("dot", series.dot))
        monkeypatch.setattr(TruncatedSeries, "invert_unit", counted(
            "invert_unit", TruncatedSeries.invert_unit))
        monkeypatch.setattr(TruncatedSeries, "variable", staticmethod(
            counted("variable", TruncatedSeries.variable)))
        monkeypatch.setattr(expr, "exp_series",
                            counted("exp_series", expr.exp_series))
        text = "x0*x1 + x0^2 - 3*x1*x0 + 7 - x1^3/2 + (2*x0)^3*x1^4*(1/3)^2"
        assert parse(text) == TruncatedSeries(2, CAP, CAP, {
            (1, 1): -2, (2, 0): 1, (0, 0): 7, (0, 3): Fraction(-1, 2),
            (3, 4): Fraction(8, 9)})
        assert calls == []
        parse("x0*x1/(1 + x0) + (x0 + x1)^2*exp(x1)")  # the guard counts
        assert sorted(set(calls)) == ["dot", "exp_series", "invert_unit"]

    def test_literals_form_no_product_or_inverse(self, monkeypatch):
        calls = {"dot": 0, "invert_unit": 0}
        dot, invert_unit = series.dot, TruncatedSeries.invert_unit

        def counted_dot(xs, ys):
            calls["dot"] += 1
            return dot(xs, ys)

        def counted_invert_unit(s):
            calls["invert_unit"] += 1
            return invert_unit(s)

        monkeypatch.setattr(series, "dot", counted_dot)
        monkeypatch.setattr(TruncatedSeries, "invert_unit",
                            counted_invert_unit)
        assert parse("3*x0") == TruncatedSeries(2, CAP, CAP, {(1, 0): 3})
        parse("x0/2 - 5/3*x1 + (2*3 - 1)^2/10")
        assert calls == {"dot": 0, "invert_unit": 0}
        parse("x0*x1/(1 + x0)")  # the guard sees the products it counts
        assert calls["dot"] > 1 and calls["invert_unit"] == 1

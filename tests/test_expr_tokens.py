"""The tokenizer's edge cases: whitespace between and around tokens, a
character that starts no token, a token the grammar does not expect where
it stands, and empty input.  Each case gives the parse result or the full
error message with its offset."""

import pytest

from flatcirc.expr import ExprError, parse_series
from flatcirc.series import TruncatedSeries, exp_series


X = TruncatedSeries.variable(1, 4, 0)


@pytest.mark.parametrize("source, expected", [
    ("x +\t$", "unexpected character '$' (at offset 4)"),
    (" x\n*\n2 ", 2 * X),
    ("2x", "unexpected 'x' (at offset 1)"),
    ("", "expected a value (at offset 0)"),
    ("   ", "expected a value (at offset 3)"),
    ("x^ y", "exponent must be a nonnegative integer (at offset 3)"),
    ("\u00e9", "unexpected character '\u00e9' (at offset 0)"),
    ("exp (x)", exp_series(X)),
])
def test_tokenizer_edge_cases(source, expected):
    if isinstance(expected, str):
        with pytest.raises(ExprError) as info:
            parse_series(source, ["x"], 4)
        assert str(info.value) == expected
    else:
        assert parse_series(source, ["x"], 4) == expected

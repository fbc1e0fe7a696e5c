"""A small arithmetic expression language for entering series exactly.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)?
    atom    := INT | IDENT | 'exp' '(' expr ')' | '(' expr ')'

Integer literals are arbitrary-precision; division is exact series division
(the divisor must have a nonzero constant term) so rationals are written as
quotients like ``1/2``.  ``exp`` requires its argument to vanish at the
origin.  Parentheses, those of ``exp`` included, nest at most
``MAX_NESTING`` deep, and a number raised to a literal power may have at
most ``MAX_POWER_BITS`` bits in its numerator and in its denominator.
Errors carry the byte offset into the source text.

A literal is evaluated to an exact number (``int`` or ``Fraction``), and
an operator on two numbers gives a number, so ``(1/2)^2`` forms no series.
A number meets a series only through the series' scalar operators: ``3*x``
scales x, ``x + 1`` adds the constant at x's cap, and a number over a
series scales the series' inverse.  A number left at the end, or handed to
``exp``, becomes the constant series at the cap.  Every series of a parse
has the cap as its cap and ``valid_to``, and at a cap >= 0 series
arithmetic on constants is the arithmetic of their numbers, so the result
is the series, in the same storage, that forming each literal as a
constant series gives.  Each variable's series is built once per parse.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .series import InputError, NonUnitError, Scalar, TruncatedSeries, exp_series


class ExprError(InputError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# Each level of ``(`` or ``exp(`` takes a few interpreter frames; past this
# depth the parser reports the input instead of exhausting the stack.
MAX_NESTING = 100

# A number to a literal power is formed only below 2^MAX_POWER_BITS in
# numerator and denominator: far above the coefficients a model writes
# (2^20000 is one), and formed in milliseconds, where 7^10000000 takes
# seconds.  A series power (``pow_int``) is bounded by the cap instead.
MAX_POWER_BITS = 1 << 16

NAME_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<ident>" + NAME_PATTERN
                       + r")|(?P<op>[()+\-*/^])|(?P<bad>\S)")

# (kind, text, offset), kind one of "int", "ident", "op", "end"
Token = Tuple[str, str, int]
# a number until it meets a series
Value = Union[Scalar, TruncatedSeries]


def is_name(text: str) -> bool:
    """True if ``text`` is one identifier token other than ``exp``."""
    return text != "exp" and re.fullmatch(NAME_PATTERN, text) is not None


def _tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(source):  # whitespace falls between
        if match.lastgroup == "bad":
            raise ExprError(f"unexpected character {match.group()!r}",
                            match.start())
        tokens.append((match.lastgroup, match.group(), match.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str], cap: int) -> None:
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0
        self.cap = cap
        self.num_vars = len(variables)
        self.axes: Dict[str, int] = {name: i
                                     for i, name in enumerate(variables)}
        self.variables: Dict[int, TruncatedSeries] = {}  # built on first use

    def op(self) -> str:
        """The text of the next token if it is an operator, else ''."""
        kind, text, _ = self.tokens[self.index]
        return text if kind == "op" else ""

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, text: str) -> None:
        if self.op() != text:
            raise ExprError(f"expected {text!r}", self.tokens[self.index][2])
        self.index += 1

    def series(self, value: Value) -> TruncatedSeries:
        """``value``, a number as the constant series at the cap."""
        if isinstance(value, TruncatedSeries):
            return value
        return TruncatedSeries.constant(self.num_vars, self.cap, value)

    def parse(self) -> TruncatedSeries:
        value = self.expr()
        kind, text, offset = self.tokens[self.index]
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", offset)
        return self.series(value)

    def expr(self) -> Value:
        value = self.term()
        while self.op() in ("+", "-"):
            op = self.advance()[1]
            right = self.term()
            value = value + right if op == "+" else value - right
        return value

    def term(self) -> Value:
        value = self.unary()
        while self.op() in ("*", "/"):
            _, op, offset = self.advance()
            right = self.unary()
            value = (value * right if op == "*"
                     else value * self.inverse(right, offset))
        return value

    @staticmethod
    def inverse(value: Value, offset: int) -> Value:
        """1/value, for the ``/`` at ``offset``: the inverse series of a
        series, the reciprocal of a number."""
        try:
            return (value.invert_unit() if isinstance(value, TruncatedSeries)
                    else 1 / Fraction(value))
        except (NonUnitError, ZeroDivisionError):
            raise ExprError("division by a series vanishing at the origin",
                            offset) from None

    def unary(self) -> Value:
        # a loop, not a recursion, so that no chain of signs is too long;
        # negating twice leaves the storage as it was
        negate = False
        while self.op() == "-":
            self.index += 1
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> Value:
        base = self.atom()
        if self.op() == "^":
            caret = self.advance()[2]
            kind, text, offset = self.advance()
            if kind != "int":
                raise ExprError("exponent must be a nonnegative integer",
                                offset)
            exponent = int(text)
            if isinstance(base, TruncatedSeries):
                return base.pow_int(exponent)
            # A numerator or denominator of bit length b makes a power of
            # more than (b - 1) exponent bits, which refuses most powers past
            # the bound before they are formed; the rest have fewer than
            # 2 MAX_POWER_BITS bits and are formed and measured.  0 and +-1
            # pass at any exponent.
            size = max(abs(base.numerator), base.denominator).bit_length()
            if (size - 1) * exponent < MAX_POWER_BITS:
                value = base ** exponent
                if max(abs(value.numerator),
                       value.denominator).bit_length() <= MAX_POWER_BITS:
                    return value
            raise ExprError("a number to this power reaches "
                            f"2^{MAX_POWER_BITS}", caret)
        return base

    def nested(self, offset: int) -> Value:
        """The ``expr`` inside the parentheses opened at ``offset``."""
        if self.depth == MAX_NESTING:
            raise ExprError(f"parentheses nested deeper than {MAX_NESTING}",
                            offset)
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.expect_op(")")
        return value

    def atom(self) -> Value:
        kind, text, offset = self.advance()
        if kind == "int":
            return int(text)
        if kind == "ident":
            if text == "exp":
                self.expect_op("(")
                inner = self.series(self.nested(offset))
                if inner.constant_term != 0:
                    raise ExprError("exp argument must vanish at the origin",
                                    offset)
                return exp_series(inner)
            axis = self.axes.get(text)
            if axis is None:
                raise ExprError(f"unknown name {text!r}", offset)
            x = self.variables.get(axis)
            if x is None:
                x = self.variables[axis] = TruncatedSeries.variable(
                    self.num_vars, self.cap, axis)
            return x
        if kind == "op" and text == "(":
            return self.nested(offset)
        raise ExprError("expected a value", offset)


def parse_series(source: str, variables: Sequence[str],
                 cap: int) -> TruncatedSeries:
    """Parse an expression over the named variables into a truncated series."""
    return _Parser(source, variables, cap).parse()

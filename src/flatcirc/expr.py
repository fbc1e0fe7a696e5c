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
``MAX_NESTING`` deep, and a number raised to a literal power, or the
constant term of a polynomial or a series so raised, may have at most
``MAX_POWER_BITS`` bits in its numerator and in its denominator.
Errors carry the byte offset into the source text.

A literal is evaluated to an exact number (``int`` or ``Fraction``) and a
variable to its monomial, a polynomial: a map from packed exponent to a
nonzero exact coefficient, every term of degree <= the cap.  Numbers and
polynomials stay what they are through sums, differences, negation,
scaling by a number, a product where one side is a single term (the terms
past the cap dropped) and a power of a single term (zero, before its
coefficient is formed, when degree times exponent passes the cap), so
``(1/2)^2`` and ``x0^2*x1/2`` form no series.  A polynomial becomes one
series, its numerators over their lcm, where it meets a series, ``exp``,
a division, a power of several terms, a product of two polynomials of
several terms each, or the end of the parse.  A number meets a series
only through the series' scalar operators: ``3*exp(x)`` scales the
exponential, ``exp(x) + 1`` adds the constant at the cap, and a number
over a series scales the series' inverse; a number left at the end, or
handed to ``exp``, becomes the constant series at the cap.  The cap is at
least 0, every series of a parse has the cap as its cap and ``valid_to``,
and cutting at the cap commutes with sums and products, so the result is
the series, in the same storage, that forming every literal and variable
as a series gives.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .series import (InputError, NonUnitError, Scalar, TruncatedSeries, _series,
                     exp_series)


class ExprError(InputError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


# Each level of ``(`` or ``exp(`` takes a few interpreter frames; past this
# depth the parser reports the input instead of exhausting the stack.
MAX_NESTING = 100

# A number to a literal power is formed only below 2^MAX_POWER_BITS in
# numerator and denominator: far above the coefficients a model writes
# (2^20000 is one), and formed in milliseconds, where 7^10000000 takes
# seconds.  A series to a literal power is formed only where its constant
# term's power is: (7+x0)^1000000 would take seconds at any cap.
MAX_POWER_BITS = 1 << 16

NAME_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<ident>" + NAME_PATTERN
                       + r")|(?P<op>[()+\-*/^])|(?P<bad>\S)")

# (kind, text, offset), kind one of "int", "ident", "op", "end"
Token = Tuple[str, str, int]


class _Poly(dict):
    """A polynomial: packed exponent (digits in base cap + 1, as a series
    keys them) to a nonzero exact coefficient, every term of degree <= the
    cap."""

    __slots__ = ()


# a number or a polynomial until it meets a series
Value = Union[Scalar, _Poly, TruncatedSeries]


def _poly(value: Union[Scalar, _Poly]) -> _Poly:
    """A number as the polynomial of its constant term."""
    if isinstance(value, _Poly):
        return value
    return _Poly({0: value} if value else {})


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
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0
        self.cap = cap
        self.num_vars = n = len(variables)
        # each variable's monomial key; at cap 0 it has no term
        self.axes: Dict[str, Optional[int]] = {
            name: (cap + 1) ** (n - 1 - i) if cap else None
            for i, name in enumerate(variables)}

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

    def degree(self, key: int) -> int:
        """The degree of a packed exponent of degree <= the cap: base
        cap + 1 is 1 mod cap, so a key is its degree mod cap."""
        return (key % self.cap or self.cap) if key else 0

    def series(self, value: Value) -> TruncatedSeries:
        """``value`` as a series at the cap, proven through it: a number or
        a polynomial by its numerators over their lcm."""
        if isinstance(value, TruncatedSeries):
            return value
        value = _poly(value)
        den = lcm(*(c.denominator for c in value.values()))
        return _series(self.num_vars, self.cap, self.cap,
                       {k: c.numerator * (den // c.denominator)
                        for k, c in value.items()}, den)

    def parse(self) -> TruncatedSeries:
        value = self.expr()
        kind, text, offset = self.tokens[self.index]
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", offset)
        return self.series(value)

    def expr(self) -> Value:
        value = self.term()
        while self.op() in ("+", "-"):
            sign = 1 if self.advance()[1] == "+" else -1
            value = self.plus(value, self.term(), sign)
        return value

    def plus(self, left: Value, right: Value, sign: int) -> Value:
        """left + sign * right."""
        if isinstance(left, TruncatedSeries) \
                or isinstance(right, TruncatedSeries):
            left, right = self.series(left), self.series(right)
        elif isinstance(left, _Poly) or isinstance(right, _Poly):
            total = _Poly(_poly(left))
            for k, c in _poly(right).items():
                c = total.get(k, 0) + sign * c
                if c:
                    total[k] = c
                else:
                    del total[k]
            return total
        return left + right if sign > 0 else left - right

    def term(self) -> Value:
        value = self.power()
        while self.op() in ("*", "/"):
            _, op, offset = self.advance()
            right = self.power()
            value = self.times(value, right if op == "*"
                               else self.inverse(right, offset))
        return value

    def times(self, left: Value, right: Value) -> Value:
        """left * right.  A polynomial meets a series as a series, and so
        do two polynomials of several terms each; a product where one side
        is a single term, a number included, is formed on the map."""
        if not isinstance(left, _Poly) and not isinstance(right, _Poly):
            return left * right  # numbers, or a number scaling a series
        if isinstance(left, TruncatedSeries) \
                or isinstance(right, TruncatedSeries):
            return self.series(left) * self.series(right)
        left, right = _poly(left), _poly(right)
        if len(left) > 1 < len(right):
            return self.series(left) * self.series(right)
        if len(left) > 1:
            left, right = right, left
        cap, degree = self.cap, self.degree
        # the one term k1 shifts the other's keys injectively
        return _Poly((k1 + k2, c1 * c2) for k1, c1 in left.items()
                     for room in (cap - degree(k1),)
                     for k2, c2 in right.items() if degree(k2) <= room)

    def inverse(self, value: Value, offset: int) -> Value:
        """1/value, for the ``/`` at ``offset``: the inverse series of a
        series or a polynomial, the reciprocal of a number."""
        try:
            if isinstance(value, (TruncatedSeries, _Poly)):
                return self.series(value).invert_unit()
            return 1 / Fraction(value)
        except (NonUnitError, ZeroDivisionError):
            raise ExprError("division by a series vanishing at the origin",
                            offset) from None

    def power(self) -> Value:
        """``unary`` and ``power`` in one frame: signs, an atom and its
        ``^``.  The signs are a loop, not a recursion, so that no chain of
        them is too long; negating twice leaves the storage as it was."""
        negate = False
        while self.op() == "-":
            self.index += 1
            negate = not negate
        value = self.atom()
        if self.op() == "^":
            caret = self.advance()[2]
            kind, text, offset = self.advance()
            if kind != "int":
                raise ExprError("exponent must be a nonnegative integer",
                                offset)
            value = self.raised(value, int(text), caret)
        if negate:
            return (_Poly({k: -c for k, c in value.items()})
                    if isinstance(value, _Poly) else -value)
        return value

    def raised(self, base: Value, exponent: int, caret: int) -> Value:
        """base^exponent, for the ``^`` at ``caret``."""
        # A number, or the constant term of a series or a polynomial, of
        # bit length b makes a power of more than (b - 1) exponent bits,
        # which refuses most powers past the bound before they are formed;
        # the rest have fewer than 2 MAX_POWER_BITS bits and are formed and
        # measured.  0 and +-1 pass at any exponent.
        poly = isinstance(base, _Poly)
        series = poly or isinstance(base, TruncatedSeries)
        number = (base.get(0, 0) if poly else base.constant_term if series
                  else base)
        size = max(abs(number.numerator), number.denominator).bit_length()
        if (size - 1) * exponent < MAX_POWER_BITS:
            value = number ** exponent
            if max(abs(value.numerator),
                   value.denominator).bit_length() <= MAX_POWER_BITS:
                if not series:
                    return value
                if not poly or len(base) > 1:
                    return self.series(base).pow_int(exponent)
                if not exponent:
                    return _Poly({0: 1})
                # one term or none: a power past the cap is zero, formed
                # before its coefficient is
                return _Poly((k * exponent, c ** exponent)
                             for k, c in base.items()
                             if self.degree(k) * exponent <= self.cap)
        raise ExprError(f"a {'constant term' if series else 'number'} "
                        f"to this power reaches 2^{MAX_POWER_BITS}", caret)

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
            if text not in self.axes:
                raise ExprError(f"unknown name {text!r}", offset)
            key = self.axes[text]
            return _Poly() if key is None else _Poly({key: 1})
        if kind == "op" and text == "(":
            return self.nested(offset)
        raise ExprError("expected a value", offset)


def parse_series(source: str, variables: Sequence[str],
                 cap: int) -> TruncatedSeries:
    """Parse an expression over the named variables into a truncated series
    at ``cap`` >= 0."""
    return _Parser(source, variables, cap).parse()

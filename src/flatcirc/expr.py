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
``MAX_NESTING`` deep.  Errors carry the byte offset into the source text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .series import InputError, NonUnitError, TruncatedSeries, exp_series


class ExprError(InputError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# Each level of ``(`` or ``exp(`` takes a few interpreter frames; past this
# depth the parser reports the input instead of exhausting the stack.
MAX_NESTING = 100

NAME_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<ident>" + NAME_PATTERN
                       + r")|(?P<op>[()+\-*/^])|(?P<bad>\S)")


def is_name(text: str) -> bool:
    """True if ``text`` is one identifier token other than ``exp``."""
    return text != "exp" and re.fullmatch(NAME_PATTERN, text) is not None


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "ident", "op", "end"
    text: str
    offset: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    for match in _TOKEN_RE.finditer(source):  # whitespace falls between
        if match.lastgroup == "bad":
            raise ExprError(f"unexpected character {match.group()!r}",
                            match.start())
        tokens.append(_Token(match.lastgroup, match.group(), match.start()))
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str], cap: int) -> None:
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0
        self.cap = cap
        self.num_vars = len(variables)
        self.variables: Dict[str, int] = {name: i
                                          for i, name in enumerate(variables)}

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ExprError(f"expected {text!r}", token.offset)
        self.advance()

    def parse(self) -> TruncatedSeries:
        value = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ExprError(f"unexpected {token.text!r}", token.offset)
        return value

    def expr(self) -> TruncatedSeries:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.term()
            value = value + right if op == "+" else value - right
        return value

    def term(self) -> TruncatedSeries:
        value = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            token = self.advance()
            right = self.unary()
            if token.text == "*":
                value = value * right
            else:
                try:
                    value = value / right
                except NonUnitError:
                    raise ExprError("division by a series vanishing at the "
                                    "origin", token.offset) from None
        return value

    def unary(self) -> TruncatedSeries:
        # a loop, not a recursion, so that no chain of signs is too long;
        # negating twice leaves the storage as it was
        negate = False
        token = self.peek()
        while token.kind == "op" and token.text == "-":
            self.advance()
            negate = not negate
            token = self.peek()
        value = self.power()
        return -value if negate else value

    def power(self) -> TruncatedSeries:
        base = self.atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            exponent = self.peek()
            if exponent.kind != "int":
                raise ExprError("exponent must be a nonnegative integer",
                                exponent.offset)
            self.advance()
            return base.pow_int(int(exponent.text))
        return base

    def nested(self, token: _Token) -> TruncatedSeries:
        """The ``expr`` inside the parentheses opened at ``token``."""
        if self.depth == MAX_NESTING:
            raise ExprError(f"parentheses nested deeper than {MAX_NESTING}",
                            token.offset)
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.expect_op(")")
        return value

    def atom(self) -> TruncatedSeries:
        token = self.advance()
        if token.kind == "int":
            return TruncatedSeries.constant(self.num_vars, self.cap,
                                            int(token.text))
        if token.kind == "ident":
            if token.text == "exp":
                self.expect_op("(")
                inner = self.nested(token)
                if inner.constant_term != 0:
                    raise ExprError("exp argument must vanish at the origin",
                                    token.offset)
                return exp_series(inner)
            axis = self.variables.get(token.text)
            if axis is None:
                raise ExprError(f"unknown name {token.text!r}", token.offset)
            return TruncatedSeries.variable(self.num_vars, self.cap, axis)
        if token.kind == "op" and token.text == "(":
            return self.nested(token)
        raise ExprError("expected a value", token.offset)


def parse_series(source: str, variables: Sequence[str],
                 cap: int) -> TruncatedSeries:
    """Parse an expression over the named variables into a truncated series."""
    return _Parser(source, variables, cap).parse()

"""A grammar fuzzer for the expression parser, with sympy as its oracle.

The strategy draws strings from the grammar of ``flatcirc.expr``: integers
(long ones included), quotients, variables, ``+ - * /``, ``^`` with small
exponents, bare ``^`` on constants with exponents up to 30 digits,
``exp``, parentheses, deep nesting and long chains of unary minus signs,
and strings of the grammar with one token inserted (a bare ``^`` among
them), which need not parse.  Two properties are checked:

* any string, as the potential of a model document, makes ``flatcirc
  check`` exit 0, 1 or 2 with no traceback;
* any string that parses equals sympy's expansion of it cut at the cap,
  term by term, and is proven through the cap (``valid_to`` is the cap).

Both are tier-1 tests, bounded at 15 s together: 100 and 80 examples take
1.5-3.2 s on a 2-core shared Xeon with Python 3.11.7.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcirc.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main
from flatcirc.expr import MAX_NESTING, MAX_POWER_BITS, ExprError, parse_series

sympy = pytest.importorskip("sympy")

VARIABLES = ["x0", "x1"]
CAP = 3

INTEGERS = st.one_of(st.integers(0, 12), st.integers(10 ** 20, 10 ** 40))
LEAVES = st.one_of(
    st.sampled_from(VARIABLES),
    INTEGERS.map(str),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map("{0[0]}/{0[1]}".format),
    st.tuples(INTEGERS, st.integers(0, 3)).map("{0[0]}^{0[1]}".format))


# The base of a power holds no power: nested powers of long literals grow
# as 3^depth digits, which tests the big integers and not the parser.
POWER_BASES = st.one_of(
    LEAVES, st.tuples(LEAVES, st.sampled_from(["+", "-"]), LEAVES).map(" ".join))


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner)
        .map(" ".join),
        inner.map("({})".format),
        st.tuples(POWER_BASES, st.integers(0, 3)).map("({0[0]})^{0[1]}".format),
        st.tuples(st.sampled_from(VARIABLES), inner).map(
            "exp({0[0]}*({0[1]}))".format),
        st.tuples(st.integers(1, 3), inner).map(
            lambda t: "-" * t[0] + t[1]))


EXPRESSIONS = st.recursive(LEAVES, _compound, max_leaves=10)

# Nesting around the parser's bound, and chains of signs far longer than
# any recursion limit.
DEEP = st.tuples(st.integers(MAX_NESTING - 3, MAX_NESTING + 3),
                 EXPRESSIONS).map(lambda t: "(" * t[0] + t[1] + ")" * t[0])
SIGNED = st.tuples(st.integers(500, 3000), EXPRESSIONS).map(
    lambda t: "-" * t[0] + "(" + t[1] + ")")
# exp of an argument that need not vanish at the origin
EXP = EXPRESSIONS.map("exp({})".format)
# A constant to a power past the parser's bound, which it refuses before
# forming the power, unless the base is 0 or 1.
LONG_POWERS = st.tuples(INTEGERS, st.integers(MAX_POWER_BITS, 10 ** 30),
                        EXPRESSIONS).map("{0[0]}^{0[1]}*({0[2]})".format)
GRAMMAR = st.one_of(EXPRESSIONS, DEEP, SIGNED, EXP, LONG_POWERS)


@st.composite
def mutated(draw):
    """A grammar string with one token inserted at a drawn offset.  A bare
    ``^`` inside a long literal makes the rest of it an exponent, which
    the parser's power bound refuses unless the base is 0 or 1."""
    text = draw(EXPRESSIONS)
    at = draw(st.integers(0, len(text)))
    token = draw(st.sampled_from(["(", ")", "*", "/", "-", "^", "^-1", "^x0",
                                  "^(2)", "x9", "exp", "1.5", "@", ""]))
    return text[:at] + token + text[at:]


def expansion(text):
    """sympy's expansion of ``text`` through total degree ``CAP``, as
    {exponent: Fraction}: each variable x is scaled by t and the series in
    t is cut after t^CAP."""
    xs = sympy.symbols(VARIABLES)
    t = sympy.Symbol("t")
    expr = sympy.sympify(text.replace("^", "**"),
                         locals={**dict(zip(VARIABLES, xs)), "exp": sympy.exp})
    scaled = expr.subs({x: t * x for x in xs}, simultaneous=True)
    cut = sympy.series(scaled, t, 0, CAP + 1).removeO().subs(t, 1)
    poly = sympy.Poly(sympy.expand(cut), *xs)
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}


@settings(max_examples=100, deadline=None)
@given(st.one_of(GRAMMAR, mutated()))
def test_any_expression_exits_with_a_message(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps({
        "schemaVersion": 1, "name": "fuzz", "dim": 2, "variables": VARIABLES,
        "potential": [text, "x0*x1^2"], "defaultOrder": CAP + 1}))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_INPUT)
    assert "Traceback" not in err.getvalue()
    assert (code == EXIT_BAD_INPUT) == bool(err.getvalue())


@settings(max_examples=80, deadline=None)
@given(EXPRESSIONS)
def test_parsed_series_is_the_cut_expansion(text):
    try:
        got = parse_series(text, VARIABLES, CAP)
    except ExprError:
        return  # a divisor or an exp argument that is not allowed
    assert (got.cap, got.valid_to) == (CAP, CAP)
    assert dict(got.items()) == expansion(text)

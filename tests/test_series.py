import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcirc import series as series_module
from flatcirc.expr import parse_series
from flatcirc.series import (DimensionMismatchError, NonUnitError,
                             NotClosedError, TruncatedSeries, dot, exp_series,
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

    @pytest.mark.parametrize("constant", [0, Fraction(-3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_pow_int_equals_repeated_product(self, seed, constant):
        rng = random.Random(seed)
        coeffs = {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for i, j in product(range(4), repeat=2)
                  if 0 < i + j <= 5}
        coeffs[(0, 0)] = constant
        base = TruncatedSeries(2, 5, 4, coeffs)
        for exponent in range(21):
            expected = TruncatedSeries.constant(
                2, 5, 1, valid_to=base.valid_to if exponent else base.cap)
            for _ in range(exponent):
                expected = expected * base
            assert base.pow_int(exponent) == expected

    def test_pow_int_of_a_huge_exponent_is_immediate(self):
        assert parse_series("x^1000000000", ["x"], 8) == S(1, 8)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cut_equals_the_product_by_one(self, n):
        # every cap from -1 to the own cap, over dense series with terms
        # at each degree, sparse ones and empty ones, at several valid_to
        rng = random.Random(f"cut:{n}")
        for cap in range(-1, 6):
            for valid_to in sorted({cap, max(cap - 2, -1), -1}):
                for keep in (1.0, 0.3, 0.0):
                    s = TruncatedSeries(n, cap, valid_to, {
                        e: Fraction(rng.randint(1, 9), rng.randint(1, 6))
                        for e in product(range(cap + 1), repeat=n)
                        if sum(e) <= cap and rng.random() < keep})
                    for v in range(-1, cap + 1):
                        assert s.cut(v) == s * const(1, n, v), (s, v)
                    assert s.cut(cap) is s and s.cut(cap + 1) is s

    def test_cut_divides_out_a_factor_left_by_the_dropped_terms(self):
        # x/2 + x^2/3 over 6 keeps 3x over 6 at cap 1, which is x/2
        s = TruncatedSeries(1, 2, 2, {(1,): Fraction(1, 2),
                                      (2,): Fraction(1, 3)})
        assert s.cut(1) == s * const(1, 1, 1) == \
            TruncatedSeries(1, 1, 1, {(1,): Fraction(1, 2)})
        assert (s._den, s.cut(1)._den) == (6, 2)


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


# -- the Fraction-dict kernel the integer storage replaced --------------------
#
# ``+``, ``dot`` and ``derivative`` as they were formed when every series held
# a dict from exponent to ``Fraction``, kept as the reference the integer
# kernel must equal exactly (the way ``per_monomial_solve`` is kept for the
# series solver).  They read ``coeffs`` and build through the constructor.

def dict_add(x, y):
    cap = min(x.cap, y.cap)
    coeffs = dict(x.coeffs)
    for exponent, c in y.coeffs.items():
        s = coeffs.get(exponent)
        if s is None:
            coeffs[exponent] = c
            continue
        s += c
        if s:
            coeffs[exponent] = s
        else:
            del coeffs[exponent]
    if cap < max(x.cap, y.cap):
        coeffs = {e: c for e, c in coeffs.items() if sum(e) <= cap}
    return TruncatedSeries(x.num_vars, cap, min(x.valid_to, y.valid_to), coeffs)


def dict_neg(x):
    return TruncatedSeries(x.num_vars, x.cap, x.valid_to,
                           {e: -c for e, c in x.coeffs.items()})


def dict_integer_terms(coeffs, cap, base):
    den = lcm(*(c.denominator for c in coeffs.values()))
    terms = []
    for exponent, c in coeffs.items():
        degree = sum(exponent)
        if degree > cap:
            continue
        key = 0
        for v in exponent:
            key = key * base + v
        terms.append((degree, key, c.numerator * (den // c.denominator)))
    terms.sort()
    return terms, den


def dict_dot(xs, ys):
    num_vars = xs[0].num_vars
    cap = min(s.cap for s in (*xs, *ys))
    valid_to = min(s.valid_to for s in (*xs, *ys))
    base = cap + 1
    pairs = [(dict_integer_terms(x.coeffs, cap, base),
              dict_integer_terms(y.coeffs, cap, base))
             for x, y in zip(xs, ys) if x.coeffs and y.coeffs]
    den = lcm(*(dx * dy for (_, dx), (_, dy) in pairs))
    sums = {}
    for (left, dx), (right, dy) in pairs:
        scale = den // (dx * dy)
        for d1, k1, n1 in left:
            room = cap - d1
            n1 *= scale
            for d2, k2, n2 in right:
                if d2 > room:
                    break
                k = k1 + k2
                sums[k] = sums.get(k, 0) + n1 * n2
    places = [base ** i for i in reversed(range(num_vars))]
    return TruncatedSeries(num_vars, cap, valid_to, {
        tuple([k // p % base for p in places]): Fraction(num, den)
        for k, num in sums.items() if num})


def dict_derivative(x, axis):
    coeffs = {exponent[:axis] + (k - 1,) + exponent[axis + 1:]: c * k
              for exponent, c in x.coeffs.items()
              for k in (exponent[axis],) if k}
    return TruncatedSeries(x.num_vars, x.cap, x.valid_to - 1, coeffs)


def random_operand(rng, n, cap=None, empty=False):
    """Mixed cap and ``valid_to``; denominators drawn from divisors of 12, so
    sums and products often cancel to integers and to zero."""
    cap = rng.randint(0, 5) if cap is None else cap
    coeffs = {}
    for e in product(range(cap + 1), repeat=n):
        if sum(e) <= cap and not empty and rng.random() < 0.5:
            coeffs[e] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 12)))
    return TruncatedSeries(n, cap, rng.randint(-1, cap), coeffs)


def cancelling_partner(rng, x, cap=None):
    """A series whose sum with ``x`` is an integer or zero on about half of
    ``x``'s terms."""
    y = random_operand(rng, x.num_vars, cap)
    coeffs = dict(y.coeffs)
    for e, c in x.coeffs.items():
        if sum(e) <= y.cap and rng.random() < 0.5:
            coeffs[e] = rng.randint(-1, 1) - c
    return TruncatedSeries(x.num_vars, y.cap, y.valid_to,
                           {e: c for e, c in coeffs.items() if c})


def same(got, expected):
    return got == expected and got.canonical_text() == expected.canonical_text()


CASES = [(n, seed) for n in (1, 2, 3, 4) for seed in range(12)]


class TestEqualsFractionDictKernel:
    @pytest.mark.parametrize("n, seed", CASES)
    def test_add_and_subtract(self, n, seed):
        rng = random.Random(f"add:{n}:{seed}")
        x = random_operand(rng, n, empty=seed % 6 == 0)
        y = cancelling_partner(rng, x, cap=None if seed % 2 else x.cap)
        assert same(x + y, dict_add(x, y))
        assert same(y + x, dict_add(y, x))
        assert same(x - y, dict_add(x, dict_neg(y)))
        assert same(-x, dict_neg(x))

    @pytest.mark.parametrize("n, seed", CASES)
    def test_dot(self, n, seed):
        rng = random.Random(f"dot:{n}:{seed}")
        pairs = 1 + seed % 4
        xs = [random_operand(rng, n, empty=seed % 5 == 0 and i == 0)
              for i in range(pairs)]
        ys = [cancelling_partner(rng, x) for x in xs]
        if pairs > 1:  # a pair that cancels the first one's product
            xs.append(-xs[0])
            ys.append(ys[0])
        assert same(dot(xs, ys), dict_dot(xs, ys))
        assert same(xs[0] * ys[0], dict_dot(xs[:1], ys[:1]))

    @pytest.mark.parametrize("n, seed", CASES)
    def test_derivative(self, n, seed):
        rng = random.Random(f"derivative:{n}:{seed}")
        x = random_operand(rng, n, empty=seed % 6 == 0)
        for axis in range(n):
            assert same(x.derivative(axis), dict_derivative(x, axis))


class TestStorage:
    @pytest.mark.parametrize("coeffs", [
        {(1,): Fraction(1)},          # too short
        {(1, 0, 0): Fraction(1)},     # too long
        {(2, 2): Fraction(1)},        # above the cap
        {(-1, 1): Fraction(1)},       # negative entry
    ])
    def test_malformed_exponent_rejected(self, coeffs):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 3, 3, coeffs)

    def test_coefficients_are_normalised(self):
        assert TruncatedSeries(1, 3, 3, {(1,): Fraction(2, 4)}) \
            == TruncatedSeries.monomial(1, 3, (1,), Fraction(1, 2))
        assert TruncatedSeries(1, 3, 3, {(1,): Fraction(0), (0,): 0}) \
            == TruncatedSeries.zero(1, 3)
        half = TruncatedSeries.constant(1, 3, Fraction(1, 2))
        assert half + half == TruncatedSeries.constant(1, 3, 1)

    @given(series(), series())
    @settings(max_examples=40, deadline=None)
    def test_add_then_subtract_is_identity(self, a, b):
        assert (a + b) - b == a

    def test_immutable(self):
        s = var(0)
        with pytest.raises(AttributeError):
            s.cap = 3
        with pytest.raises(AttributeError):
            s.valid_to = 0
        with pytest.raises(AttributeError):
            del s.cap
        assert s == var(0)

    def test_copies_and_pickles(self):
        s = TruncatedSeries(2, 3, 2, {(1, 0): Fraction(1, 2), (0, 2): Fraction(3)})
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and twin.canonical_text() == s.canonical_text()

    def test_coeffs_is_read_only(self):
        s = var(0)
        with pytest.raises(TypeError):
            s.coeffs[(1, 0)] = Fraction(2)
        assert s.coeffs == {(1, 0): Fraction(1)}

    def test_coefficient_outside_the_cap_is_zero(self):
        s = TruncatedSeries(2, 2, 2, {(0, 2): Fraction(5)})
        # (0, 2) packs in base 3 like (1, -1); neither aliases it
        assert s.coefficient((0, 2)) == 5
        assert s.coefficient((1, -1)) == 0
        assert s.coefficient((0, 3)) == 0
        assert s.coefficient((0, 0, 2)) == 0


def dense(rng, n, cap):
    return TruncatedSeries(n, cap, cap, {
        e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        for e in product(range(cap + 1), repeat=n) if sum(e) <= cap})


class TestKernelCounts:
    """The kernel works on integers: a ``Fraction`` is built only where a
    coefficient leaves the storage, and an operand's sorted term list is
    built once however many products read it."""

    @pytest.fixture
    def fractions_built(self, monkeypatch):
        built = [0]
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        return built

    def test_kernel_builds_no_fraction(self, fractions_built):
        rng = random.Random(0)
        x, y, z = (dense(rng, 3, 6) for _ in range(3))
        third = Fraction(1, 3)
        unit = x + 1
        fractions_built[0] = 0
        dot((x, y), (y, z))
        x * y
        x + y
        x - y
        -x
        x.derivative(1)
        x * 3
        x * third
        x / 3
        unit.invert_unit()
        exp_series(x.from_degree(1))
        primitive_of_closed_family([z.derivative(a) for a in range(3)])
        x.vanishes_through(2)
        assert x == x * 1
        assert fractions_built[0] == 0
        assert x.coeffs  # the boundary does build them
        assert fractions_built[0] == len(x.coeffs)

    def test_term_list_built_once(self, monkeypatch):
        rng = random.Random(1)
        x, y = dense(rng, 3, 6), dense(rng, 3, 6)
        unpacked = [0]
        unpack = series_module._unpack

        def counted(*args):
            unpacked[0] += 1
            return unpack(*args)

        monkeypatch.setattr(series_module, "_unpack", counted)
        dot((x, y), (y, x))
        built = x._terms, y._terms
        for _ in range(4):
            dot((x, y), (y, x))
        # the degree is read off the key, and each list is built once
        assert unpacked[0] == 0
        assert built[0] is not None and built[1] is not None
        assert x._terms is built[0] and y._terms is built[1]

    def test_degree_read_off_the_key(self):
        rng = random.Random(2)
        for n in range(1, 6):
            for cap in range(13):
                base = cap + 1
                exponents = {(0,) * n, (0,) * (n - 1) + (cap,)}
                for _ in range(20):
                    degree = rng.randint(0, cap)
                    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
                    exponents.add(tuple(
                        b - a for a, b in zip([0] + cuts, cuts + [degree])))
                s = TruncatedSeries(n, cap, cap, {
                    e: rng.randint(1, 9) for e in exponents})
                terms = s._terms_at(cap)
                assert [(d, k) for d, k, _ in terms] == sorted(
                    (sum(series_module._unpack(k, n, base)), k)
                    for k in s._num)
                assert {series_module._unpack(k, n, base): d
                        for d, k, _ in terms} == {e: sum(e) for e in exponents}
        for cap in (-1, -3):  # below cap 0 only the constant is stored
            s = TruncatedSeries.constant(2, cap, 5)
            assert s._terms_at(cap) == [(0, 0, 5)]

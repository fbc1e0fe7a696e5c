"""Cross-check of the series product, the curvature, the pencil split and
the five-term residual against sympy.

The product of two truncated series, and the sum of products ``dot`` over
several pairs, must be sympy's expansion of the polynomial cut at the
smallest cap, carrying the smallest cap and the smallest ``valid_to`` over
all operands, empty ones included.  So must the sum and the difference, on
operands whose coefficients cancel to integers and to zero, which the
integer storage has to renormalise.

The curvature oracle is the index formula of the curvature of a connection in a flat
frame,

  R_{ab,c}^d = d_a G_{bc}^d - d_b G_{ac}^d
               + sum_e (G_{bc}^e G_{ae}^d - G_{ac}^e G_{be}^d),

evaluated by sympy on polynomials for the pencil G = (lambda0 + lambda) C
through the member lambda0 != 0.  Its lambda^1 and lambda^2 coefficients
must agree with ``pencil_curvature_split`` through the degree each entry is
proven to.  There C = G0 / lambda0 for the flat, non-abelian G0 = g^{-1} dg
of a polynomial gauge g of determinant one, so the member lambda0 is flat
while C is not a potential.  For a random C, which is not, the split must
reject the member lambda0 at the first entry where the curvature of
lambda0 C is nonzero.

The five-term residual of a random potential must agree with the six sums
of its definition formed by sympy's derivatives and products of
polynomials, through the degree each entry is proven to.  With every C_ab^f
a generic sympy function of x, the six sums must equal the five-term form
built from the pencil residuals (``pencil_form``) when C is symmetric in
(a, b), and differ from it when it is not.

The extension's flatness at the member None, for the identity d_0 and a
scaling field E, formed from the commutators [H_k, C_a], must equal its
form read off R2, rho and the scaling-weight residual
(``euler.flatness_from_residuals``), with every C_ab^f and E^c a generic
sympy function of x, when C is symmetric in (a, b), and differ from it
when it is not.

The associator table W(a, q)^f = sum_e C_ae^f C_q^e, formed row by
row by ``dots`` on its packed path, and the R2 read off it must be sympy's
products cut at the cap, on a symmetric tensor and on one with no
symmetric row.

Division by a negative scalar and by a unit with a negative constant term
must agree with sympy's series of the quotient.

exp of a polynomial with terms of degrees 1 to 3, formed by the graded
recurrence of ``exp_series``, must be sympy's expansion cut at the cap.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from flatcirc.expr import parse_series
from flatcirc.fmanifold import five_term_residual, potential_to_structure
from flatcirc.geometry import (FlatnessError, HiggsField, VectorField,
                               iter_tensor, judge, pencil_curvature_split)
from flatcirc import series
from flatcirc.series import TruncatedSeries, dot, exp_series

sympy = pytest.importorskip("sympy")

N = 2
CAP = 4
X = sympy.symbols("x0 x1")
LAM = sympy.Symbol("lam")


def random_poly(rng, max_degree):
    return sum((sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3))
                * X[0] ** i * X[1] ** j
                for i, j in product(range(max_degree + 1), repeat=2)
                if i + j <= max_degree), sympy.Integer(0))


def to_series(poly):
    coeffs = {}
    for (i, j), c in sympy.Poly(sympy.expand(poly), *X).terms():
        if c != 0 and i + j <= CAP:
            coeffs[(i, j)] = Fraction(int(c.p), int(c.q))
    return TruncatedSeries(N, CAP, CAP, coeffs)


def to_poly(s):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * X[0] ** e[0] * X[1] ** e[1] for e, c in s.coeffs.items()),
               sympy.Integer(0))


def through(poly, degree):
    """The terms of ``poly`` of total degree at most ``degree``."""
    if poly == 0:
        return sympy.Integer(0)
    return sum((c * X[0] ** i * X[1] ** j
                for (i, j), c in sympy.Poly(poly, *X).terms()
                if i + j <= degree), sympy.Integer(0))


def index_curvature(g):
    """R_{ab,c}^d of the symbolic Christoffel table g[a][b][c]."""
    r = range(N)
    return [[[[sympy.expand(
        sympy.diff(g[b][c][d], X[a]) - sympy.diff(g[a][c][d], X[b])
        + sum(g[b][c][e] * g[a][e][d] - g[a][c][e] * g[b][e][d] for e in r))
        for d in r] for c in r] for b in r] for a in r]


def assert_agrees(tensor, symbolic):
    for index, s in iter_tensor(tensor):
        a, b, c, d = index
        expected = through(symbolic[a][b][c][d], s.valid_to)
        assert sympy.expand(through(to_poly(s), s.valid_to) - expected) == 0, \
            index


def random_table(rng, max_degree):
    return [[[random_poly(rng, max_degree) for _ in range(N)]
             for _ in range(N)] for _ in range(N)]


def random_shift(rng):
    return sympy.Rational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def gauge_flat(rng):
    """Christoffels G_a = g^{-1} d_a g of g = [[1, q], [p, 1 + pq]] for
    random polynomials p and q: flat, and G_a, G_b need not commute."""
    p, q = random_poly(rng, 2), random_poly(rng, 2)
    g = sympy.Matrix([[1, q], [p, 1 + p * q]])
    inverse = sympy.Matrix([[1 + p * q, -q], [-p, 1]])
    slices = [sympy.expand(inverse * g.diff(X[a])) for a in range(N)]
    # the slice entry [c][b] is G_ab^c
    return [[[slices[a][c, b] for c in range(N)] for b in range(N)]
            for a in range(N)]


def as_field(table):
    return HiggsField.build(N, lambda a, b, c: to_series(table[a][b][c]))


def scaled(table, factor):
    return [[[factor * p for p in row] for row in plane] for plane in table]


@pytest.mark.parametrize("seed", range(3))
def test_pencil_split_matches_index_formula(seed):
    rng = random.Random(seed)
    shift = random_shift(rng)
    higgs = scaled(gauge_flat(rng), 1 / shift)
    symbolic = index_curvature(scaled(higgs, shift + LAM))
    r1, r2 = pencil_curvature_split(as_field(higgs),
                                    Fraction(int(shift.p), int(shift.q)))
    # R1 = rho + 2 lambda0 R2 = lambda0 R2 is not zero: C is not a potential
    assert not judge(r1).holds
    for power, tensor in ((1, r1), (2, r2)):
        coefficient = [[[[sympy.expand(entry).coeff(LAM, power)
                          for entry in row] for row in plane]
                        for plane in planes] for planes in symbolic]
        assert_agrees(tensor, coefficient)


@pytest.mark.parametrize("seed", range(3))
def test_curvature_matches_index_formula(seed):
    # the member's curvature is proven through CAP - 1, where rho is
    rng = random.Random(100 + seed)
    table = random_table(rng, 2)
    shift = random_shift(rng)
    symbolic = index_curvature(scaled(table, shift))
    first = min((sum(e), (a, b, c, d), e)
                for a, b, c, d in product(range(N), repeat=4)
                if symbolic[a][b][c][d] != 0
                for e, v in sympy.Poly(symbolic[a][b][c][d], *X).terms()
                if v != 0 and sum(e) <= CAP - 1)
    with pytest.raises(FlatnessError) as err:
        pencil_curvature_split(as_field(table),
                               Fraction(int(shift.p), int(shift.q)))
    assert str(err.value) == f"base connection is not flat at {first[1]}"


Y = sympy.symbols("y0 y1 y2")


def random_series(rng, n, empty=False):
    """A sparse random series: mixed cap and valid_to, signed coefficients
    with denominators up to 7."""
    cap = rng.randint(0, 6)
    coeffs = {}
    for e in product(range(cap + 1), repeat=n):
        if sum(e) <= cap and not empty and rng.random() < 0.6:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if c:
                coeffs[e] = c
    return TruncatedSeries(n, cap, rng.randint(0, cap), coeffs)


def as_polynomial(s):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(y ** k for y, k in zip(Y, e)))
                for e, c in s.coeffs.items()), sympy.Integer(0))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("seed", range(20))
def test_product_matches_truncated_expansion(n, seed):
    """Seeds 0-4 take the product ``left * right``; seeds 5k to 5k + 4 take
    ``dot`` over k + 1 pairs.  Seed 0 mod 5 empties the first left operand
    and seed 1 mod 5 the last right one; from seed 5 on the empty operand
    is proven only to degree 0."""
    rng = random.Random(f"product:{n}:{seed}")
    pairs = 1 + seed // 5

    def operand(empty):
        s = random_series(rng, n, empty)
        return TruncatedSeries(n, s.cap, 0, {}) if empty and pairs > 1 else s

    xs = [operand(seed % 5 == 0 and i == 0) for i in range(pairs)]
    ys = [operand(seed % 5 == 1 and i == pairs - 1) for i in range(pairs)]
    operands = xs + ys
    cap = min(s.cap for s in operands)
    expansion = sympy.Poly(sympy.expand(sum(
        (as_polynomial(x) * as_polynomial(y) for x, y in zip(xs, ys)),
        sympy.Integer(0))), *Y[:n])
    expected = {e: Fraction(int(c.p), int(c.q))
                for e, c in expansion.terms() if c != 0 and sum(e) <= cap}
    results = [dot(xs, ys)]
    if pairs == 1:
        results.append(xs[0] * ys[0])
    for result in results:
        assert result.coeffs == expected
        assert result.cap == cap
        assert result.valid_to == min(s.valid_to for s in operands)


def random_potential(rng, n, cap):
    """A vector potential of random polynomials of degree 2 to ``cap``."""
    return [sympy.Poly(sum((sympy.Rational(rng.randint(-5, 5), rng.randint(1, 4))
                            * sympy.Mul(*(y ** k for y, k in zip(Y, e)))
                            for e in product(range(cap + 1), repeat=n)
                            if 2 <= sum(e) <= cap and rng.random() < 0.5),
                           sympy.Integer(0)), *Y[:n], domain="QQ")
            for _ in range(n)]


def six_sums(t, xs, zero):
    """The five-term entries [a][b][c][d][f] of the tensor t[a][b][f] = C_ab^f
    over the coordinates ``xs``, written out as the six sums over e of
    ``five_term_residual``'s docstring."""
    r = range(len(xs))
    dt = [[[[t[a][b][f].diff(xs[e]) for f in r] for b in r] for a in r]
          for e in r]
    return {(a, b, c, d, f): sum(
        (t[a][b][e] * dt[e][c][d][f] - t[c][d][e] * dt[e][a][b][f]
         + dt[c][a][b][e] * t[e][d][f] + dt[d][a][b][e] * t[e][c][f]
         - dt[b][c][d][e] * t[e][a][f] - dt[a][c][d][e] * t[e][b][f]
         for e in r), zero)
        for a, b, c, d, f in product(r, repeat=5)}


@pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 0)])
def test_five_term_matches_six_sums(n, seed):
    """``five_term_residual`` of a random potential against sympy's six sums,
    coefficient by coefficient through each entry's ``valid_to``."""
    cap = 5
    rng = random.Random(f"five-term-oracle:{n}:{seed}")
    potential = random_potential(rng, n, cap)
    components = tuple(TruncatedSeries(n, cap, cap, {
        e: Fraction(int(c.p), int(c.q)) for e, c in p.terms() if c != 0})
        for p in potential)
    structure = potential_to_structure(VectorField(components))
    r = range(n)
    symbolic = six_sums(
        [[[potential[f].diff(Y[a]).diff(Y[b]) for f in r] for b in r]
         for a in r], Y[:n], sympy.Poly(0, *Y[:n], domain="QQ"))
    nonzero = 0
    for index, s in iter_tensor(five_term_residual(structure)):
        assert s.valid_to == cap - 3
        expected = {e: Fraction(int(c.p), int(c.q))
                    for e, c in symbolic[index].terms()
                    if c != 0 and sum(e) <= s.valid_to}
        got = {e: c for e, c in s.coeffs.items() if sum(e) <= s.valid_to}
        assert got == expected, index
        nonzero += bool(got)
    assert nonzero  # the potential is not integrable: the oracle compares terms


def pencil_form(t, xs):
    """The five-term entries from the pencil's residuals at the flat base:
    the quadratic r2[x][y][z][f] = [C_x, C_y]^f_z and the linear
    rho[x][y][z][f] = d_x C_yz^f - d_y C_xz^f, as
      d_c r2[d][a][b][f] - d_a r2[b][c][d][f]
      + sum_e (C_ab^e rho[e][c][d][f] - C_cd^e rho[e][a][b][f]
               + C_ae^f rho[c][b][d][e] + C_bd^e rho[c][a][e][f]
               + C_ce^f rho[d][a][b][e])."""
    r = range(len(xs))
    r2 = [[[[sum(t[x][e][f] * t[y][z][e] - t[y][e][f] * t[x][z][e]
                 for e in r) for f in r] for z in r] for y in r] for x in r]
    rho = [[[[t[y][z][f].diff(xs[x]) - t[x][z][f].diff(xs[y]) for f in r]
             for z in r] for y in r] for x in r]
    return {(a, b, c, d, f): r2[d][a][b][f].diff(xs[c])
            - r2[b][c][d][f].diff(xs[a])
            + sum(t[a][b][e] * rho[e][c][d][f] - t[c][d][e] * rho[e][a][b][f]
                  + t[a][e][f] * rho[c][b][d][e] + t[b][d][e] * rho[c][a][e][f]
                  + t[c][e][f] * rho[d][a][b][e] for e in r)
            for a, b, c, d, f in product(r, repeat=5)}


@pytest.mark.parametrize("symmetric", [True, False])
def test_five_term_from_pencil_residuals(symmetric):
    """With each C_ab^f a generic function of x, the six sums equal the
    pencil form entry by entry exactly when C is symmetric in (a, b): the
    identity holds for every symmetric C, not only for one built from a
    potential, and needs the symmetry."""
    n = 2
    xs = Y[:n]
    r = range(n)
    pair = [[sorted((a, b)) if symmetric else (a, b) for b in r] for a in r]
    t = [[[sympy.Function("C%d%d_%d" % (*pair[a][b], f))(*xs) for f in r]
          for b in r] for a in r]
    sums = six_sums(t, xs, sympy.Integer(0))
    rhs = pencil_form(t, xs)
    differences = {index: sympy.expand(sums[index] - rhs[index])
                   for index in sums}
    assert any(sympy.expand(s) != 0 for s in sums.values())
    if symmetric:
        assert all(v == 0 for v in differences.values())
    else:
        assert any(v != 0 for v in differences.values())


def flatness_by_definition(t, field, xs, mu_order):
    """The entries [a][k] of the extension's flatness at the member None
    for the identity e = d_0, formed from the closed form of ``euler``:
    g_k = 0 for k >= 1, since nabla_e e = 0 for a constant e, so H_0 =
    R_E L_e, H_1 = (D - 1) L_e, H_k = 0 for k >= 2, and the entry is
    [H_k, C_a] - d_a H_{k-1} + delta_{k1} C_a."""
    n = len(xs)
    r = range(n)
    slices = [sympy.Matrix(n, n, lambda c, b: t[a][b][c]) for a in r]
    l_e = slices[0]
    r_e = sympy.Matrix(n, n, lambda c, a: sum(t[a][b][c] * field[b]
                                              for b in r))
    d = sympy.Matrix(n, n, lambda c, a: field[c].diff(xs[a]))
    h = [r_e * l_e, (d - sympy.eye(n)) * l_e] + [sympy.zeros(n)] * mu_order
    return [[h[k] * slices[a] - slices[a] * h[k]
             - (h[k - 1].diff(xs[a]) if k else sympy.zeros(n))
             + (slices[a] if k == 1 else sympy.zeros(n))
             for k in range(mu_order + 1)] for a in r]


def flatness_from_residuals(t, field, weight, xs, mu_order):
    """The same entries from the docstring of
    ``euler.flatness_from_residuals``: K(E)_a, sum_x E^x rho(x, a) - w C_a
    - P_a + C_a, -d_a (D - 1), and zero, with P_a the scaling-weight
    residual E(C_a) + [C_a, D] + L_{d_a E} - w C_a."""
    n = len(xs)
    r = range(n)
    slices = [sympy.Matrix(n, n, lambda c, b: t[a][b][c]) for a in r]
    d = sympy.Matrix(n, n, lambda c, a: field[c].diff(xs[a]))

    def left(v):
        return sum((v[x] * slices[x] for x in r), sympy.zeros(n))

    out = []
    for a in r:
        c_a = slices[a]
        p_a = (sum((field[x] * c_a.diff(xs[x]) for x in r), sympy.zeros(n))
               + c_a * d - d * c_a + left([f.diff(xs[a]) for f in field])
               - weight * c_a)
        rho = [c_a.diff(xs[x]) - slices[x].diff(xs[a]) for x in r]
        entries = [
            sum((field[b] * (slices[b] * c_a - c_a * slices[b]) for b in r),
                sympy.zeros(n)),
            sum((field[x] * rho[x] for x in r), sympy.zeros(n))
            - weight * c_a - p_a + c_a,
            -(d - sympy.eye(n)).diff(xs[a])]
        out.append((entries + [sympy.zeros(n)] * mu_order)[:mu_order + 1])
    return out


@pytest.mark.parametrize("symmetric", [True, False])
def test_flatness_from_residuals_on_generic_functions(symmetric):
    """With each C_ab^f (1 <= a) and each E^c a generic function of x, the
    row C_0 the identity matrix and w a symbol, the extension's flatness
    equals its form read off R2, rho and the scaling-weight residual entry
    by entry exactly when C is symmetric in (a, b): the identity holds for
    every symmetric C with identity d_0 and every E, not only for a linear
    E or a potential, and needs the symmetry (R_E = L_E)."""
    n, mu_order = 3, 3
    xs = Y[:n]
    r = range(n)
    weight = sympy.Symbol("w")

    def entry(a, b, f):
        if a == 0 or (symmetric and b == 0):
            return sympy.Integer(int(b == f if a == 0 else a == f))
        i, j = sorted((a, b)) if symmetric else (a, b)
        return sympy.Function("C%d%d_%d" % (i, j, f))(*xs)

    t = [[[entry(a, b, f) for f in r] for b in r] for a in r]
    field = [sympy.Function("E%d" % c)(*xs) for c in r]
    lhs = flatness_by_definition(t, field, xs, mu_order)
    rhs = flatness_from_residuals(t, field, weight, xs, mu_order)
    differences = [sympy.expand(x - y) for a in r for k in range(mu_order + 1)
                   for x, y in zip(lhs[a][k], rhs[a][k])]
    assert any(sympy.expand(x) != 0 for a in r for k in range(mu_order + 1)
               for x in lhs[a][k])
    if symmetric:
        assert all(v == 0 for v in differences)
    else:
        assert any(v != 0 for v in differences)


Z = sympy.symbols("z0:4")


def polynomial_in_z(s):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(z ** k for z, k in zip(Z, e)))
                for e, c in s.items()), sympy.Integer(0))


def truncated_terms(poly, n, cap):
    if poly == 0:
        return {}
    return {e: Fraction(int(c.p), int(c.q))
            for e, c in sympy.Poly(poly, *Z[:n]).terms()
            if c != 0 and sum(e) <= cap}


def cancelling_series(rng, n, like=None):
    """Denominators from the divisors of 12; with ``like`` given, about half
    of its terms are met by a coefficient that sums with them to an integer
    or to zero, so the storage has to renormalise."""
    cap = rng.randint(0, 5)
    coeffs = {}
    for e in product(range(cap + 1), repeat=n):
        if sum(e) <= cap and rng.random() < 0.5:
            coeffs[e] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 12)))
    if like is not None:
        for e, c in like.items():
            if sum(e) <= cap and rng.random() < 0.5:
                coeffs[e] = rng.randint(-1, 1) - c
    return TruncatedSeries(n, cap, rng.randint(0, cap),
                           {e: c for e, c in coeffs.items() if c})


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("seed", range(8))
def test_sum_difference_and_dot_match_expansion(n, seed):
    """``+``, ``-`` and ``dot`` over mixed caps against sympy's polynomials
    cut at the smallest cap; operands cancel to integers and to zero."""
    rng = random.Random(f"linear:{n}:{seed}")
    x = cancelling_series(rng, n)
    y = cancelling_series(rng, n, like=x)
    if seed % 4 == 3:  # an empty operand still folds its cap and valid_to
        x = TruncatedSeries(n, x.cap, x.valid_to, {})
    cap = min(x.cap, y.cap)
    valid_to = min(x.valid_to, y.valid_to)
    px, py = polynomial_in_z(x), polynomial_in_z(y)
    for got, poly in ((x + y, px + py), (x - y, px - py),
                      (dot((x, y), (y, x)), 2 * px * py),
                      (dot((x, -x), (y, y)), sympy.Integer(0))):
        assert dict(got.items()) == truncated_terms(sympy.expand(poly), n, cap)
        assert (got.cap, got.valid_to) == (cap, valid_to)


@pytest.mark.parametrize("symmetric", [True, False])
def test_associator_table_and_r2_match_expansion(symmetric, monkeypatch):
    """The associator table W(a, q)^f = sum_e C_ae^f C_q^e, formed by one
    ``dots`` call per representative row q as ``HiggsField.r2`` forms it,
    and R2(d_a, d_b)^f_d = W(a, (b, d))^f - W(b, (a, d))^f, against
    sympy's products of polynomials cut at the cap.  The entries are dense
    at n = 3, and every row takes the packed path."""
    n, cap = 3, 3
    rng = random.Random(f"associator:{symmetric}")
    polys = {(a, b, f): sympy.Poly(sum(
        (sympy.Rational(rng.randint(-9, 9), rng.randint(1, 5))
         * sympy.Mul(*(z ** k for z, k in zip(Z, e)))
         for e in product(range(3), repeat=n) if sum(e) <= 2),
        sympy.Integer(0)), *Z[:n], domain="QQ")
        for a, b, f in product(range(n), repeat=3)}
    if symmetric:
        polys = {(a, b, f): polys[min(a, b), max(a, b), f]
                 for a, b, f in polys}
    c = HiggsField.build(n, lambda a, b, f: TruncatedSeries(
        n, cap, cap, truncated_terms(polys[a, b, f], n, cap)))
    loops = []
    packed = series._packed
    monkeypatch.setattr(series, "_packed",
                        lambda *args: loops.append(1) or packed(*args))
    rows = [tuple(c.tensor[a][e][f] for e in range(n))
            for a in range(n) for f in range(n)]
    for q in c.representatives:
        table = series.dots(rows, c.tensor[q[0]][q[1]])
        for (a, f), w in zip(product(range(n), repeat=2), table):
            expected = sum(polys[a, e, f] * polys[q + (e,)] for e in range(n))
            assert dict(w.items()) == truncated_terms(expected, n, cap)
    assert len(loops) == len(c.representatives)
    for (a, b), m in c.r2.items():
        for f, d in product(range(n), repeat=2):
            expected = sum(polys[a, e, f] * polys[b, d, e]
                           - polys[b, e, f] * polys[a, d, e] for e in range(n))
            assert dict(m.matrix[f][d].items()) == \
                truncated_terms(expected, n, cap), (a, b, f, d)
    assert len(loops) == 2 * len(c.representatives)


@pytest.mark.parametrize("text", ["x/(-2)", "1/(x-1)", "(1 - 3*x)/(-2 + x^2)"])
def test_negative_divisor_matches_series(text):
    """A scalar divisor and a unit with a negative constant term: the
    storage moves the sign of the denominator into the numerators."""
    cap = 6
    x = sympy.Symbol("x")
    expected = sympy.series(sympy.sympify(text.replace("^", "**")), x, 0,
                            cap + 1).removeO()
    got = parse_series(text, ["x"], cap)
    assert dict(got.items()) == {
        (k,): Fraction(int(c.p), int(c.q))
        for (k,), c in sympy.Poly(expected, x).terms() if c != 0}
    # a negative denominator left in the storage would break exact ``==``
    assert got == TruncatedSeries(1, cap, cap, dict(got.items()))


@pytest.mark.parametrize("n", [2, 3])
def test_exp_of_a_nonlinear_polynomial(n):
    """Each variable is scaled by t and sympy's ``rs_exp`` expands exp in t
    through t^cap, so its terms, t set to 1, are exp of the polynomial
    through total degree cap."""
    from sympy.polys.ring_series import rs_exp
    from sympy.polys.rings import ring

    cap = 7
    rng = random.Random(f"exp:{n}")
    r, t, *xs = ring(["t"] + [f"x{i}" for i in range(n)], sympy.QQ)
    coeffs = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 6))
              for e in product(range(4), repeat=n) if 0 < sum(e) <= 3}
    poly = sum((sympy.QQ(c.numerator, c.denominator) * t ** sum(e)
                * sympy.prod(x ** k for x, k in zip(xs, e))
                for e, c in coeffs.items()), r(0))
    expected = {e[1:]: Fraction(int(c.numerator), int(c.denominator))
                for e, c in rs_exp(poly, t, cap + 1).terms() if c}
    got = exp_series(TruncatedSeries(n, cap, cap, coeffs))
    assert dict(got.items()) == expected

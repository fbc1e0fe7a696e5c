"""Cross-check of the mu-extension against sympy, with mu a symbol.

The oracle reads the structure tensor C, the identity e and the scaling
field E of a model as polynomials, forms the Christoffels Gamma = lambda C
of the pencil member lambda (zero for the frame's flat member None), and
builds the extended connection from its definition, not from the closed
form of ``euler``:

* g(mu) is the circ-inverse of e + mu e1, e1 = nabla_e e, found as the
  fixed point of g = e - mu (e1 o g) (the identity's L_e is exactly 1 on
  these models);
* H(mu) is the matrix of X -> K(g o X), with K(Y) = Y o E + mu (nabla_Y E - Y);
* the flatness of the extended connection at X = d_a is the matrix
  [H, C_a] - mu (d_a H + [Gamma_a, H] - C_a), with mu a sympy symbol.

Each power mu^k, k <= mu_order, of H and of the flatness must agree with
``h_from_e`` (fed by ``geometric_inverse``) and ``full_flatness_residual``
through the degree each entry is proven to.  The models are qc-p1 and
one-dim on a shifted base, and a seeded two-dimensional structure that is
not a potential (d_0 C_11^0 != d_1 C_01^0), with a random linear scaling
field and a random nonzero shift, on which the flatness does not vanish.
"""

import random
from fractions import Fraction

import pytest

from flatcirc.euler import full_flatness_residual, geometric_inverse, h_from_e
from flatcirc.fmanifold import potential_to_structure
from flatcirc.geometry import (HiggsField, VectorField, base_member,
                               covariant_derivative, iter_tensor)
from flatcirc.models import load_model
from flatcirc.series import TruncatedSeries

sympy = pytest.importorskip("sympy")

MU_ORDER = 3


def ring(n):
    """Polynomials over QQ in x0, ..., x{n-1} and mu (the last generator)."""
    r, *gens = sympy.ring([f"x{i}" for i in range(n)] + ["mu"], sympy.QQ)
    return r, gens[:-1], gens[-1]


def as_poly(r, s):
    return r.from_dict({e + (0,): sympy.QQ(c.numerator, c.denominator)
                        for e, c in s.items()})


def cut(p, degree, mu_degree=MU_ORDER):
    """The terms of x-degree <= ``degree`` and mu-degree <= ``mu_degree``."""
    return p.ring.from_dict({e: c for e, c in p.items()
                             if sum(e[:-1]) <= degree and e[-1] <= mu_degree})


def matmul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), x[0][0].ring.zero)
             for j in range(len(y[0]))] for i in range(len(x))]


def combine(*terms):
    """The entrywise sum of coefficient * matrix over ``terms``."""
    first = terms[0][1]
    return [[sum((f * m[i][j] for f, m in terms), first[0][0].ring.zero)
             for j in range(len(first[0]))] for i in range(len(first))]


def oracle(structure, e_identity, shift, e_field):
    """The mu-powers of H and of the flatness residual as dicts
    {(k, c, b): poly} and {(a, k, c, b): poly}, indexed like ``h_from_e``
    and ``full_flatness_residual``; the polys have no mu."""
    n, cap = structure.dim, structure.order
    r, xs, mu = ring(n)
    c_mat = [[[as_poly(r, structure.tensor[a][b][c])
               for b in range(n)] for c in range(n)] for a in range(n)]
    lam = 0 if shift is None else sympy.QQ(shift.numerator, shift.denominator)
    g_mat = [[[lam * p for p in row] for row in c_a] for c_a in c_mat]
    e = [[as_poly(r, s)] for s in e_identity.components]
    big_e = [[as_poly(r, s)] for s in e_field.components]
    one = [[r(int(i == j)) for j in range(n)] for i in range(n)]

    def trunc(m):
        return [[cut(p, cap) for p in row] for row in m]

    def left(v):
        return combine(*((v[a][0], c_mat[a]) for a in range(n)))

    def nabla(v):  # column a is nabla_{d_a} v
        cols = [combine((1, [[v[i][0].diff(xs[a])] for i in range(n)]),
                        (1, matmul(g_mat[a], v))) for a in range(n)]
        return [[cols[a][i][0] for a in range(n)] for i in range(n)]

    e1 = trunc(matmul(nabla(e), e))
    g = e
    for _ in range(MU_ORDER + 1):
        g = trunc(combine((1, e), (-mu, matmul(left(e1), g))))
    right_e = [[matmul(c_mat[a], big_e)[i][0] for a in range(n)]
               for i in range(n)]
    k_map = combine((1, right_e), (mu, nabla(big_e)), (-mu, one))
    h = trunc(matmul(k_map, left(g)))
    flat = [trunc(combine(
        (1, matmul(h, c_mat[a])), (-1, matmul(c_mat[a], h)),
        (-mu, [[p.diff(xs[a]) for p in row] for row in h]),
        (-mu, matmul(g_mat[a], h)), (mu, matmul(h, g_mat[a])),
        (mu, c_mat[a]))) for a in range(n)]

    def power(p, k):
        return r.from_dict({e[:-1] + (0,): c for e, c in p.items()
                            if e[-1] == k})

    want_h = {(k, c, b): power(h[c][b], k)
              for k in range(MU_ORDER + 1) for c in range(n) for b in range(n)}
    want_flat = {(a,) + key: power(flat[a][key[1]][key[2]], key[0])
                 for a in range(n) for key in want_h}
    return r, want_h, want_flat


def assert_agrees(r, tensor, symbolic):
    """Compare every series of ``tensor`` with the poly at the same index
    through its ``valid_to``; return how many were nonzero there."""
    nonzero = 0
    for index, s in iter_tensor(tensor):
        got = cut(as_poly(r, s), s.valid_to)
        assert got == cut(symbolic[index], s.valid_to), index
        nonzero += bool(got)
    return nonzero


def seeded_model(seed, order):
    """C of P = (x0^2/2 + f(x1), x0 x1 + h(x1)) with a multiple of x0
    added to C_11^0, so that C is not a potential; d_0 is exactly the
    identity."""
    rng = random.Random(f"extension-oracle:{seed}")
    n = 2

    def poly(degrees):
        return {(0, d): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for d in degrees}

    p0 = {**poly(range(3, order + 1)), (2, 0): Fraction(1, 2)}
    p1 = {**poly(range(3, order + 1)), (1, 1): Fraction(1)}
    potential = VectorField(tuple(
        TruncatedSeries(n, order, order, p) for p in (p0, p1)))
    t = potential_to_structure(potential).tensor
    bump = TruncatedSeries(n, order, order - 2, {
        (1, 0): Fraction(rng.choice((-3, -2, -1, 1, 2, 3))),
        (1, 1): Fraction(rng.randint(-3, 3))})
    structure = HiggsField.build(
        n, lambda a, b, c: t[a][b][c] + bump if (a, b, c) == (1, 1, 0)
        else t[a][b][c])
    e_field = VectorField(tuple(TruncatedSeries(n, order, order, {
        (1, 0): Fraction(rng.randint(-3, 3)), (0, 1): Fraction(rng.randint(-3, 3)),
        (0, 0): Fraction(rng.randint(-3, 3))}) for _ in range(n)))
    shift = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                     rng.randint(1, 3))
    return structure, VectorField.basis(n, order, 0), shift, e_field


def corpus_case(name, order, shift):
    instance = load_model(name).instantiate(order)
    structure = instance.structure
    return (structure, instance.identity, base_member(Fraction(shift)),
            instance.euler[0])


@pytest.mark.parametrize("case", ["qc-p1", "one-dim", "seeded-0", "seeded-1"])
def test_extension_matches_symbolic_mu(case):
    if case.startswith("seeded"):
        structure, e, shift, e_field = seeded_model(int(case[-1]), 5)
    else:
        structure, e, shift, e_field = corpus_case(case, 5, 1)
    e1 = covariant_derivative(structure, shift, e, e)
    h = h_from_e(e_field, structure, shift,
                 geometric_inverse(structure, e, e1, MU_ORDER))
    flatness = full_flatness_residual(h, structure, shift)
    r, want_h, want_flat = oracle(structure, e, shift, e_field)
    assert len(h) == MU_ORDER + 1
    assert min(m.valid_to for m in h) >= 2
    assert min(m.valid_to for row in flatness for m in row) >= 1
    assert assert_agrees(r, h, want_h)
    nonzero = assert_agrees(r, flatness, want_flat)
    if case.startswith("seeded"):
        assert nonzero  # the flatness does not vanish: values are compared

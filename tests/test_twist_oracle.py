"""Cross-check of the twisted product X * Y = eps^-1 o X o Y against sympy.

The oracle finds eps^-1, the circ-inverse of the twist field, as the
solution w of eps o w = e: w = adj(L_eps) e / det(L_eps), with 1/det(L_eps)
expanded by sympy's series inversion (``rs_series_inversion``) in a grading
variable t, x -> t x, through the cap.  ``dual_structure``'s inverse and its
twisted tensor T_ab^c = (eps^-1 o d_a o d_b)^c must agree with the oracle
through each entry's proven degree.  The twisted tensor must also satisfy,
through the degree it and eps are proven to,

* identity: eps * X = X;
* associativity: (X * Y) * Z = X * (Y * Z);
* bridging: (eps o eps) * (X * Y) = X o Y, for eps o eps is the
  *-inverse of the old identity.

The models are one-dim and the product of two one-dim factors in the flat
coordinates y with x = A y.
"""

import pytest

from coordinates import product_document, unimodular_pair
from flatcirc.duality import dual_structure
from flatcirc.models import ModelDocument, load_model

sympy = pytest.importorskip("sympy")
ring_series = pytest.importorskip("sympy.polys.ring_series")

ORDER = 6


def graded(r, s):
    """The series as a polynomial in t, x0, ...: x^e carries t^|e|."""
    return r.from_dict({(sum(e),) + e: sympy.QQ(c.numerator, c.denominator)
                        for e, c in s.items()})


def cut(p, degree):
    return p.ring.from_dict({m: c for m, c in p.items() if m[0] <= degree})


def minor(m, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(((-1) ** j * m[0][j] * det(minor(m, 0, j))
                for j in range(len(m))), m[0][0].ring.zero)


def adjugate(m):
    n = len(m)
    if n == 1:
        return [[m[0][0].ring.one]]
    return [[(-1) ** (i + j) * det(minor(m, j, i)) for j in range(n)]
            for i in range(n)]


def product_of(t, x, y):
    """(x o y)^c = sum_ab x^a y^b C_ab^c for the tensor ``t`` [a][b][c]."""
    n = len(t)
    return [sum((x[a] * y[b] * t[a][b][c] for a in range(n) for b in range(n)),
                t[0][0][0].ring.zero) for c in range(n)]


def twist_case(name):
    if name == "one-dim":
        return load_model("one-dim").instantiate(ORDER)
    a, inv = unimodular_pair(2, [(0, 1, 1), (1, 0, -2)], [1, 0], [1, -1])
    obj = product_document(("one-dim", "one-dim"), a, inv, ORDER)
    return ModelDocument.from_json_obj(obj).instantiate(ORDER)


@pytest.mark.parametrize("name", ["one-dim", "one-dim-squared"])
def test_twist_matches_series_inversion(name):
    instance = twist_case(name)
    structure, epsilon = instance.structure, instance.epsilon
    n, cap = structure.dim, structure.order
    r, grade, *_ = sympy.ring(["t"] + [f"x{i}" for i in range(n)], sympy.QQ)
    c_tensor = [[[graded(r, s) for s in row] for row in plane]
                for plane in structure.tensor]
    eps = [graded(r, s) for s in epsilon.components]
    e = [graded(r, s) for s in instance.identity.components]

    # eps^-1 = adj(L_eps) e / det(L_eps), L_eps[c][b] = sum_a eps^a C_ab^c
    l_eps = [[sum((eps[a] * c_tensor[a][b][c] for a in range(n)), r.zero)
              for b in range(n)] for c in range(n)]
    inv_det = ring_series.rs_series_inversion(cut(det(l_eps), cap), grade,
                                              cap + 1)
    adj = adjugate(l_eps)
    inverse = [cut(inv_det * sum((adj[c][b] * e[b] for b in range(n)), r.zero),
                   cap) for c in range(n)]

    pair = dual_structure(structure, instance.identity, epsilon)
    for c, s in enumerate(pair.inverse_used.components):
        assert cut(graded(r, s), s.valid_to) == cut(inverse[c], s.valid_to), c
    dual = pair.dual.tensor
    twisted = [[[graded(r, s) for s in row] for row in plane] for plane in dual]
    for a in range(n):
        for b in range(n):
            want = product_of(c_tensor, inverse, c_tensor[a][b])
            for c in range(n):
                s = dual[a][b][c]
                assert cut(twisted[a][b][c], s.valid_to) == \
                    cut(want[c], s.valid_to), (a, b, c)

    proven = min(pair.dual.valid_to, epsilon.valid_to)
    assert proven >= ORDER - 3

    def vanishes(p):
        return not cut(p, proven)

    basis = [[r.one if i == j else r.zero for i in range(n)] for j in range(n)]
    twice = product_of(c_tensor, eps, eps)
    for a in range(n):
        star = product_of(twisted, eps, basis[a])
        assert all(vanishes(star[c] - basis[a][c]) for c in range(n))
        for b in range(n):
            ab = twisted[a][b]
            bridged = product_of(twisted, twice, ab)
            assert all(vanishes(bridged[c] - c_tensor[a][b][c])
                       for c in range(n))
            for d in range(n):
                left = product_of(twisted, ab, basis[d])
                right = product_of(twisted, basis[a], twisted[b][d])
                assert all(vanishes(left[c] - right[c]) for c in range(n))

"""The frame-algebra residuals against their field-level formulas.

Each residual is formed from slices, ``nabla`` and the columns of a matrix;
the references below form the same quantity from basis fields with the
field-level definitions (``p_tensor``, ``apply_higgs``,
``VectorField.apply``), term by term as the residual is
defined, with the Christoffel tensor lambda C of the pencil member.  The
tensors are random and not symmetric, so C is not a potential, and every
shift lambda is a random nonzero rational.  With one ``valid_to``
per tensor or field the two agree entry by entry under
``TruncatedSeries.__eq__``, in the same index layout.  With a ``valid_to``
per entry the coefficients agree, and each entry is proven at least as far
as the reference and at most as far as the operands it reads, a derivative
counting one degree less.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from flatcirc.duality import duality_verify
from flatcirc.euler import (e_equation_residual, euler_residual,
                            geometric_inverse)
from flatcirc.fmanifold import (find_identity, identity_residual,
                                l_membership, p_tensor)
from flatcirc.geometry import (EndField, HiggsField, VectorField, apply_higgs,
                               covariant_derivative, iter_tensor, judge, nabla,
                               torsion)
from flatcirc.series import TruncatedSeries

CAP = 3
MU = 2


def random_series(rng, n, valid, constant=None):
    coeffs = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for e in product(range(CAP + 1), repeat=n)
              if 0 < sum(e) <= CAP and rng.random() < 0.4}
    if constant is not None:
        coeffs[(0,) * n] = Fraction(constant)
    return TruncatedSeries(n, CAP, valid,
                           {e: v for e, v in coeffs.items() if v})


class Operands:
    """Random operands at dimension n: with ``uniform`` every tensor and
    field has one ``valid_to``, else every entry has its own."""

    def __init__(self, n, uniform, seed):
        self.n = n
        self.uniform = uniform
        self.rng = random.Random(f"frame:{n}:{uniform}:{seed}")

    def _valid(self):
        if self.uniform:
            valid = self.rng.randint(1, CAP)
            return lambda: valid
        return lambda: self.rng.randint(1, CAP)

    def tensor(self, constant=lambda a, b, c: None):
        valid = self._valid()
        return HiggsField.build(self.n, lambda a, b, c: random_series(
            self.rng, self.n, valid(), constant(a, b, c)))

    def shift(self):
        return Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 5),
                        self.rng.randint(1, 3))

    def field(self, constant=lambda a: None):
        valid = self._valid()
        return VectorField(tuple(random_series(self.rng, self.n, valid(),
                                               constant(a))
                                 for a in range(self.n)))

    def structure(self):
        s = self.tensor(lambda a, b, c: self.rng.randint(-2, 2))
        assert not judge(torsion(s)).holds
        return s


# -- field-level references -------------------------------------------------


def christoffel(structure, shift):
    """The Christoffel tensor lambda C of the pencil member ``shift``."""
    t = structure.tensor
    return HiggsField.build(structure.dim,
                            lambda a, b, c: t[a][b][c] * shift)


def field_covariant_derivative(conn, x, y):
    """(nabla_X Y)^c = X(Y^c) + (X o_Gamma Y)^c, as a sum of field products."""
    correction = apply_higgs(conn, x, y)
    return VectorField(tuple(x.apply(y.components[c]) + correction.components[c]
                             for c in range(x.dim)))


def frame(s, a):
    """The frame field d_a at the order of the structure ``s``."""
    return VectorField.basis(s.dim, s.order, a)


def field_flatness(s, conn, v):
    return tuple(field_covariant_derivative(conn, frame(s, a), v)
                 for a in range(s.dim))


def field_euler_residual(s, e_field, weight):
    t = s.tensor
    return tuple(tuple(p_tensor(s, e_field, frame(s, a), frame(s, b))
                       - VectorField(t[a][b]).scale(weight)
                       for b in range(s.dim)) for a in range(s.dim))


def field_l_membership(s, e, conn, eps):
    w = field_covariant_derivative(conn, e, eps)
    return tuple(field_covariant_derivative(conn, frame(s, a), eps)
                 - apply_higgs(s, frame(s, a), w) for a in range(s.dim))


def field_geometric_inverse(s, e, e1, mu_cap):
    coeffs = [e]
    for _ in range(mu_cap):
        coeffs.append(-apply_higgs(s, coeffs[-1], e1))
    return tuple(coeffs)


def field_e_equation(e_field, s, conn, e1, g):
    e = g[0]
    along = [field_covariant_derivative(conn, gk, e_field) for gk in g]
    coeffs = [apply_higgs(s, e, along[0]) - apply_higgs(s, e1, e_field) - e]
    for k in range(1, len(g)):
        coeffs.append(apply_higgs(s, e, along[k])
                      + apply_higgs(s, e1, along[k - 1]))
    return tuple(coeffs)


def field_identity_confirmation(s, e):
    return tuple(apply_higgs(s, e, frame(s, b)) - frame(s, b)
                 for b in range(s.dim))


# -- comparison -------------------------------------------------------------


def least(*parts):
    """The lowest ``valid_to`` over series, fields, matrices and ints."""
    out = []
    for part in parts:
        if isinstance(part, int):
            out.append(part)
        elif isinstance(part, HiggsField):
            out.append(part.valid_to)
        else:
            out.extend(s.valid_to for _, s in iter_tensor(part))
    return min(out)


def assert_matches(frame, field, bound):
    """Same layout and coefficients; ``valid_to`` between the field-level
    one and ``bound(index)``; equal series when the operands are uniform."""
    frame, field = list(iter_tensor(frame)), list(iter_tensor(field))
    assert [index for index, _ in frame] == [index for index, _ in field]
    for (index, mine), (_, theirs) in zip(frame, field):
        assert mine.coeffs == theirs.coeffs, index
        assert mine.cap == theirs.cap, index
        assert theirs.valid_to <= mine.valid_to <= bound(index), index


CASES = [(n, uniform, seed) for n in (2, 3) for uniform in (True, False)
         for seed in (0, 1)]


@pytest.mark.parametrize("n, uniform, seed", CASES)
class TestFrameEqualsFieldLevel:
    def test_covariant_derivative(self, n, uniform, seed):
        ops = Operands(n, uniform, seed)
        higgs, shift, x, y = ops.tensor(), ops.shift(), ops.field(), ops.field()
        gamma = higgs.tensor
        got = covariant_derivative(higgs, shift, x, y)
        want = field_covariant_derivative(christoffel(higgs, shift), x, y)
        assert got == want
        assert_matches(got, want, lambda i: least(
            x, y, y.components[i[0]].valid_to - 1,
            [gamma[a][b][i[0]] for a in range(n) for b in range(n)]))

    def test_flatness_hypotheses(self, n, uniform, seed):
        ops = Operands(n, uniform, seed)
        s, e = ops.structure(), ops.field()
        lambda0, c = ops.shift(), s
        base, conn = christoffel(c, lambda0), christoffel(c, lambda0 + 1)
        # a constant term, so that eps is circ-invertible for most seeds
        eps = ops.field(lambda a: ops.rng.randint(1, 3))
        got = nabla(c, lambda0 + 1, eps).columns()
        want = field_flatness(s, conn, eps)
        assert_matches(got, want, lambda i: least(
            eps, eps.components[i[1]].valid_to - 1,
            [c.tensor[i[0]][b][i[1]] for b in range(n)]))
        if uniform:
            assert got == want
        report = duality_verify(s, e, lambda0, eps)
        flat = {"identity flat for base connection": (base, e),
                "twist field flat for shifted connection": (conn, eps)}
        if report.pair is not None:
            flat["inverse of twist field flat for shifted connection"] = \
                (conn, report.pair.inverse_used)
        items = {h.label: h for h in report.hypotheses if h.label in flat}
        assert items.keys() == flat.keys()
        for label, (connection, v) in flat.items():
            verdict = judge(field_flatness(s, connection, v))
            assert (items[label].holds, items[label].proven_to) == \
                (verdict.holds, verdict.proven_to), label

    def test_euler_residual(self, n, uniform, seed):
        ops = Operands(n, uniform, seed)
        s, e_field = ops.structure(), ops.field()
        t = s.tensor
        got = euler_residual(s, e_field, Fraction(3, 2))
        want = field_euler_residual(s, e_field, Fraction(3, 2))

        def bound(index):
            a, b, c = index
            return least(e_field.valid_to - 1, t[a][b][c].valid_to - 1,
                         [t[a][f][c] for f in range(n)], t[a][b],
                         [t[f][b][c] for f in range(n)])

        assert_matches(got, want, bound)
        if uniform:
            assert got == want

    def test_l_membership(self, n, uniform, seed):
        ops = Operands(n, uniform, seed)
        s, e = ops.structure(), ops.field()
        shift, eps = ops.shift(), ops.field()
        t = s.tensor
        got = l_membership(s, e, shift, eps)
        want = field_l_membership(s, e, christoffel(s, shift), eps)
        assert_matches(got, want, lambda i: least(
            eps.valid_to - 1, s, e,
            [t[i[0]][b][i[1]] for b in range(n)]))
        if uniform:
            assert got == want

    def test_geometric_inverse(self, n, uniform, seed):
        ops = Operands(n, uniform, seed)
        s, e, e1 = ops.structure(), ops.field(), ops.field()
        t = s.tensor
        got = geometric_inverse(s, e, e1, MU)
        want = field_geometric_inverse(s, e, e1, MU)
        assert got == want

        def bound(index):
            k, c = index
            if k == 0:
                return e.components[c].valid_to
            return least(e1, got[k - 1],
                         [t[a][b][c] for a in range(n) for b in range(n)])

        assert_matches(got, want, bound)

    def test_e_equation_residual(self, n, uniform, seed):
        ops = Operands(n, uniform, seed)
        s, shift = ops.structure(), ops.shift()
        e, e1, e_field = ops.field(), ops.field(), ops.field()
        t = s.tensor
        g = field_geometric_inverse(s, e, e1, MU)
        got = e_equation_residual(e_field, s, shift, e1, g)
        want = field_e_equation(e_field, s, christoffel(s, shift), e1, g)
        assert got == want
        assert_matches(got, want, lambda i: least(
            e, e1, e_field.valid_to - 1, s, g[i[0]],
            g[max(i[0] - 1, 0)],
            [t[a][b][i[1]] for a in range(n) for b in range(n)]))

    def test_identity_confirmation(self, n, uniform, seed):
        # A structure with a non-constant left identity e: slices a >= 1 are
        # random with C_a0(0) = d_a, so the degree-0 system has full rank,
        # and C_0 = (1 - sum_{a>=1} e^a C_a) / e^0.
        ops = Operands(n, uniform, seed)
        e = ops.field(lambda a: 1 if a == 0 else None)
        rest = ops.tensor(lambda a, b, c: int(a == c) if b == 0 else None)
        r = rest.tensor
        one = EndField.identity(n, CAP).matrix
        inverse = e.components[0].invert_unit()

        def entry(a, b, c):
            if a > 0:
                return r[a][b][c]
            return (one[b][c] - sum((e.components[f] * r[f][b][c]
                                     for f in range(1, n)),
                                    TruncatedSeries.zero(n, CAP))) * inverse

        s = HiggsField.build(n, entry)
        assert not judge(torsion(s)).holds
        found = find_identity(s)
        assert found is not None
        residual = identity_residual(s, found)
        assert judge(residual).holds
        got = residual.columns()
        want = field_identity_confirmation(s, found)
        assert_matches(got, want, lambda i: least(
            found, [s.tensor[a][i[0]][i[1]] for a in range(n)]))
        if uniform:
            assert got == want

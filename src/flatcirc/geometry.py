"""Vector fields, endomorphism fields and 3-tensor fields.

Everything is expressed in a fixed flat frame d_0, ..., d_{n-1}: a vector
field is its component series, and a structure tensor C is a 3-tensor
field.  The frame's flat connection nabla_0 has all Christoffels zero, so
every connection used here is a member nabla_0 + lambda C of the pencil and
is named by its shift (``Shift``).  All values are immutable and all
operations are pure.

Frame residuals are matrix algebra on the slices C_a of a 3-tensor field,
the matrices of X -> C(d_a, X) with entry [c][b] = C_ab^c.  The curvature of
the member lambda is lambda rho + lambda^2 R2, exactly in lambda, with

  rho(d_a, d_b) = d_a C_b - d_b C_a        R2(d_a, d_b) = [C_a, C_b]

and its pencil through lambda has the linear residual R1 = rho + 2 lambda R2
and the quadratic residual R2.  ``HiggsField`` owns rho and R2: it forms
each once per tensor, over the pairs a <= b, and every residual that needs
them reads them there.  R2 is read off the associator table
W(a, p)^f = sum_e C_ae^f C_p^e over the distinct rows C_p: for the row
C_p = C_bd its entry is the sum of products that forms the entry [f][d]
of C_a C_b, so R2 is the same series as from the commutators.  A symmetric
tensor has n(n+1)/2 distinct rows, and there W takes half the
commutators' products.  The n^2 entries of W that share one row C_p are
one ``series.dots`` call.

The covariant derivative of a vector field v is the matrix of
X -> nabla_X v, nabla v = Jacobian(v) + lambda R_v with R_v the matrix of
X -> X o v, whose column a is nabla_{d_a} v.  A residual over the frame is
read off as the columns of a matrix (``EndField.columns``); no residual
multiplies basis fields.

Every residual is decided by ``judge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, Union

from .series import (DimensionMismatchError, Exponent, Scalar, TruncatedSeries,
                     dot, dots)

SeriesMatrix = Tuple[Tuple[TruncatedSeries, ...], ...]
SeriesTensor3 = Tuple[Tuple[Tuple[TruncatedSeries, ...], ...], ...]
Pair = Tuple[int, int]


def _check_same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} vs {b}")


@dataclass(frozen=True)
class VectorField:
    """Components of a vector field in the flat frame."""

    components: Tuple[TruncatedSeries, ...]

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def valid_to(self) -> int:
        return min(c.valid_to for c in self.components)

    @classmethod
    def basis(cls, dim: int, cap: int, axis: int) -> "VectorField":
        comps = [TruncatedSeries.zero(dim, cap) for _ in range(dim)]
        comps[axis] = TruncatedSeries.constant(dim, cap, 1)
        return cls(tuple(comps))

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_dim(self.dim, other.dim)
        return VectorField(tuple(a + b for a, b in
                                 zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_dim(self.dim, other.dim)
        return VectorField(tuple(a - b for a, b in
                                 zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(tuple(-a for a in self.components))

    def scale(self, factor: Union[Scalar, TruncatedSeries]) -> "VectorField":
        return VectorField(tuple(c * factor for c in self.components))

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        """Act on a scalar series as a derivation: X(f) = sum_a X^a d_a f."""
        return dot(self.components,
                   [f.derivative(a) for a in range(self.dim)])

    def vanishes_through(self, degree: int) -> bool:
        return all(c.vanishes_through(degree) for c in self.components)

    def is_constant(self) -> bool:
        """True if every component is constant through its validity."""
        return all(c.from_degree(1).vanishes_through(c.valid_to)
                   for c in self.components)


@dataclass(frozen=True)
class EndField:
    """Endomorphism field B with action (B f)^a = sum_c B^a_c f^c."""

    matrix: SeriesMatrix

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def valid_to(self) -> int:
        return min(s.valid_to for row in self.matrix for s in row)

    @classmethod
    def identity(cls, dim: int, cap: int) -> "EndField":
        one = TruncatedSeries.constant(dim, cap, 1)
        z = TruncatedSeries.zero(dim, cap)
        return cls(tuple(tuple(one if a == c else z for c in range(dim))
                         for a in range(dim)))

    @classmethod
    def jacobian(cls, v: VectorField) -> "EndField":
        """The matrix of X -> X(v), entry [c][a] = d_a v^c."""
        return cls(tuple(tuple(comp.derivative(a) for a in range(v.dim))
                         for comp in v.components))

    def apply(self, v: VectorField) -> VectorField:
        _check_same_dim(self.dim, v.dim)
        return VectorField(tuple(dot(row, v.components) for row in self.matrix))

    def columns(self) -> Tuple[VectorField, ...]:
        """The images of d_0, ..., d_{n-1}: column a is B(d_a)."""
        return tuple(VectorField(column) for column in zip(*self.matrix))

    def compose(self, other: "EndField") -> "EndField":
        """Matrix product self @ other."""
        _check_same_dim(self.dim, other.dim)
        columns = tuple(zip(*other.matrix))
        return EndField(tuple(tuple(dot(row, column) for column in columns)
                              for row in self.matrix))

    def commutator(self, other: "EndField") -> "EndField":
        """self @ other - other @ self, entry [f][d] one sum of products
        over 2n pairs: sum_e self_fe other_ed + sum_e (-other_fe) self_ed.
        Storage-equal to the difference of the two products: the same
        products are summed, over the same operands' caps and ``valid_to``.
        The n entries of column d share its 2n right operands, so each
        column is one ``dots`` call over the n rows."""
        _check_same_dim(self.dim, other.dim)
        rows = [a + b for a, b in zip(self.matrix, (-other).matrix)]
        columns = [a + b for a, b in zip(zip(*other.matrix), zip(*self.matrix))]
        return EndField(tuple(zip(*(dots(rows, column) for column in columns))))

    def __add__(self, other: "EndField") -> "EndField":
        _check_same_dim(self.dim, other.dim)
        return EndField(tuple(tuple(a + b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.matrix, other.matrix)))

    def __sub__(self, other: "EndField") -> "EndField":
        _check_same_dim(self.dim, other.dim)
        return EndField(tuple(tuple(a - b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.matrix, other.matrix)))

    def __neg__(self) -> "EndField":
        return EndField(tuple(tuple(-a for a in row) for row in self.matrix))

    def derivative(self, axis: int) -> "EndField":
        return EndField(tuple(tuple(a.derivative(axis) for a in row)
                              for row in self.matrix))

    def scale(self, factor: Scalar) -> "EndField":
        return EndField(tuple(tuple(a * factor for a in row)
                              for row in self.matrix))


@dataclass(frozen=True)
class HiggsField:
    """A 3-tensor field T_{ab}^c in the flat frame, indexed [a][b][c].

    The one type for structure tensors, d_a o d_b = sum_c T_{ab}^c d_c.  No
    symmetry is imposed at construction; symmetry in (a, b) is a property to
    be checked, not an invariant.
    """

    tensor: SeriesTensor3

    @property
    def dim(self) -> int:
        return len(self.tensor)

    @property
    def valid_to(self) -> int:
        return min(s.valid_to for p in self.tensor for r in p for s in r)

    @property
    def order(self) -> int:
        """The cap of T, read from T_00^0: the instance order on an
        instantiated structure, its proven degree on the cut one that each
        command but ``correlators`` forms once (``checks.cut_to_proven``)."""
        return self.tensor[0][0][0].cap

    @classmethod
    def build(cls, dim: int,
              entry: Callable[[int, int, int], TruncatedSeries]) -> "HiggsField":
        return cls(tuple(tuple(tuple(entry(a, b, c) for c in range(dim))
                               for b in range(dim)) for a in range(dim)))

    def slice(self, a: int) -> EndField:
        """The matrix of X -> T(d_a, X): entry [c][b] = T_ab^c."""
        n = self.dim
        return EndField(tuple(tuple(self.tensor[a][b][c] for b in range(n))
                              for c in range(n)))

    def left(self, v: VectorField) -> EndField:
        """The matrix of X -> T(v, X): entry [c][b] = sum_a v^a T_ab^c."""
        n = self.dim
        return EndField(tuple(tuple(
            dot(v.components, [self.tensor[a][b][c] for a in range(n)])
            for b in range(n)) for c in range(n)))

    def right(self, v: VectorField) -> EndField:
        """The matrix of X -> T(X, v): entry [c][a] = sum_b T_ab^c v^b."""
        n = self.dim
        return EndField(tuple(tuple(
            dot([self.tensor[a][b][c] for b in range(n)], v.components)
            for a in range(n)) for c in range(n)))

    @cached_property
    def pairs(self) -> Tuple[Tuple[Pair, ...], ...]:
        """The representative of each row: ``pairs[a][b]`` is
        (min(a, b), max(a, b)) when the row T_ab equals T_ba as series
        (values, cap and ``valid_to``), else (a, b)."""
        t, r = self.tensor, range(self.dim)
        return tuple(tuple((min(a, b), max(a, b)) if t[a][b] == t[b][a]
                           else (a, b) for b in r) for a in r)

    @cached_property
    def symmetric_at_one_cap(self) -> bool:
        """Whether every row is symmetric (``pairs``) and every entry has
        one cap and one ``valid_to``: where R2 and rho may stand for the
        products of T they contract (``fmanifold.five_term_residual``,
        ``euler.flatness_from_residuals``)."""
        return (all(a <= b for row in self.pairs for a, b in row)
                and len({(s.cap, s.valid_to) for p in self.tensor for r in p
                         for s in r}) == 1)

    @cached_property
    def representatives(self) -> Tuple[Pair, ...]:
        """The distinct pairs of ``pairs``, sorted: one per distinct row."""
        return tuple(sorted({p for row in self.pairs for p in row}))

    def map_rows(self, f: Callable[[Tuple[TruncatedSeries, ...]],
                                   Tuple[TruncatedSeries, ...]]) -> "HiggsField":
        """The field whose row T_ab is f(T_p), p = ``pairs[a][b]``.  f is
        called once per representative, so the result shares a row
        wherever this field does."""
        t = self.tensor
        rows = {(a, b): f(t[a][b]) for a, b in self.representatives}
        return HiggsField(tuple(tuple(rows[p] for p in row)
                                for row in self.pairs))

    @cached_property
    def jacobians(self) -> Dict[Pair, EndField]:
        """The Jacobian of each representative row, entry [c][k] = d_k T_ab^c:
        the first derivatives of T, each taken once."""
        return {(a, b): EndField.jacobian(VectorField(self.tensor[a][b]))
                for a, b in self.representatives}

    @cached_property
    def rho(self) -> Dict[Pair, EndField]:
        """rho(d_a, d_b) = d_a T_b - d_b T_a for a <= b, entry
        [c][x] = d_a T_bx^c - d_b T_ax^c, read off the row Jacobians."""
        n, p, j = self.dim, self.pairs, self.jacobians
        return {(a, b): EndField(tuple(tuple(
            j[p[b][x]].matrix[c][a] - j[p[a][x]].matrix[c][b]
            for x in range(n)) for c in range(n)))
            for a in range(n) for b in range(a, n)}

    @cached_property
    def r2(self) -> Dict[Pair, EndField]:
        """R2(d_a, d_b) = [T_a, T_b] for a <= b.

        The products come from the associator table
        W(a, p)^f = sum_e T_ae^f T_p^e over the representative rows p: the
        entry [f][d] of T_a T_b is W(a, pairs[b][d]), storage-equal to the
        ``dot`` that forms it in ``compose``, and that of [T_a, T_b] is
        W(a, pairs[b][d]) - W(b, pairs[a][d]).  That takes n^3 products per
        representative row: m n^3, m = n(n+1)/2, on a symmetric tensor and
        n^5 on one with no symmetric row, where the commutators of the pairs
        a <= b take 2 m n^3.  The n^2 entries over (a, f) of one row p share
        its right operands T_p^e, so they are one ``dots`` call, packed into
        one term-pair loop where the operands are large enough.  W is
        dropped once R2 is formed.
        """
        n = self.dim
        t, r, p = self.tensor, range(n), self.pairs
        rows = [row for a in r for row in self.slice(a).matrix]
        w = {}
        for q in self.representatives:
            table = dots(rows, t[q[0]][q[1]])
            for a in r:
                w[a, q] = table[a * n:(a + 1) * n]
        return {(a, b): EndField(tuple(tuple(
            w[a, p[b][d]][f] - w[b, p[a][d]][f] for d in r) for f in r))
            for a in r for b in range(a, n)}


# A member nabla_0 + lambda C of the pencil, named by its shift: None is the
# frame's flat nabla_0, which adds no Christoffel term; a Fraction lambda adds
# its lambda C term, even at lambda = 0, and with it the cap and ``valid_to``
# of C.
Shift = Optional[Fraction]


def base_member(lambda0: Fraction) -> Shift:
    """The member a base shift names: nabla_0 at 0, else nabla_0 + lambda0 C."""
    return None if lambda0 == 0 else lambda0


# -- operations -----------------------------------------------------------


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^c = X(Y^c) - Y(X^c); validity drops by one degree."""
    _check_same_dim(x.dim, y.dim)
    return VectorField(tuple(x.apply(y.components[c]) - y.apply(x.components[c])
                             for c in range(x.dim)))


def apply_higgs(higgs: HiggsField, x: VectorField, y: VectorField) -> VectorField:
    """The multiplication (X o Y)^c = sum_{a,b} X^a Y^b A_{ab}^c, formed as
    sum_b (L_X)^c_b Y^b with the matrix L_X = ``higgs.left(x)``."""
    _check_same_dim(higgs.dim, x.dim)
    return higgs.left(x).apply(y)


def nabla(higgs: HiggsField, shift: Shift, v: VectorField) -> EndField:
    """The matrix of X -> nabla_X v for the member ``shift`` of the pencil
    through ``higgs``: entry [c][a] = d_a v^c + lambda sum_b C_ab^c v^b."""
    jacobian = EndField.jacobian(v)
    if shift is None:
        return jacobian
    return jacobian + higgs.right(v.scale(shift))


def covariant_derivative(higgs: HiggsField, shift: Shift, x: VectorField,
                         y: VectorField) -> VectorField:
    """(nabla_X Y)^c = X(Y^c) + lambda sum_{a,b} X^a Y^b C_{ab}^c."""
    return nabla(higgs, shift, y).apply(x)


def torsion(tensor: HiggsField) -> SeriesTensor3:
    """T_{ab}^c - T_{ba}^c."""
    return HiggsField.build(tensor.dim, lambda a, b, c: tensor.tensor[a][b][c]
                            - tensor.tensor[b][a][c]).tensor


def _frame_tensor(n: int,
                  matrix: Callable[[int, int], EndField]) -> "SeriesTensor4":
    """Index the matrices M_ab = matrix(a, b) as [a][b][c][d] = M_ab[d][c].

    ``matrix`` must be antisymmetric, M_ba = -M_ab, in values and in
    ``valid_to``, as every curvature of the module docstring is: it is
    formed only for a <= b and M_ba is read off as -M_ab.
    """
    upper = {(a, b): matrix(a, b) for a in range(n) for b in range(a, n)}
    planes = [[upper[a, b].matrix if a <= b else (-upper[b, a]).matrix
               for b in range(n)] for a in range(n)]
    return tuple(tuple(tuple(tuple(m[d][c] for d in range(n))
                             for c in range(n)) for m in row)
                 for row in planes)


SeriesTensor4 = Tuple[Tuple[SeriesTensor3, ...], ...]


class FlatnessError(ValueError):
    """Raised when a base connection required to be flat is not."""


def pencil_curvature_split(higgs: HiggsField,
                           shift: Shift) -> Tuple[SeriesTensor4, SeriesTensor4]:
    """The residuals R1 = rho + 2 lambda R2 and R2 of the pencil through the
    member ``shift``, whose own curvature lambda rho + lambda^2 R2 must vanish
    to checked degree.

    rho and R2 are read from ``higgs``, which forms them once per tensor
    (``HiggsField.rho`` and ``HiggsField.r2``), and indexed as the frame
    curvature R(d_a, d_b)d_c, [a][b][c][d] (the entry [d][c] of the
    matrix).  Every tensor is exact in lambda; the member None adds no term,
    so R1 is rho itself and nothing is to be flat.
    """
    n, rho, r2 = higgs.dim, higgs.rho, higgs.r2
    quadratic = _frame_tensor(n, lambda a, b: r2[a, b])
    if shift is None:
        return _frame_tensor(n, lambda a, b: rho[a, b]), quadratic
    flat = judge(_frame_tensor(n, lambda a, b: rho[a, b].scale(shift)
                               + r2[a, b].scale(shift * shift)))
    if not flat.holds:
        raise FlatnessError(
            f"base connection is not flat at {flat.offending[0]}")
    return _frame_tensor(n, lambda a, b: rho[a, b]
                         + r2[a, b].scale(2 * shift)), quadratic


# -- tensor helpers -------------------------------------------------------


def iter_tensor(tensor) -> List[Tuple[Tuple[int, ...], TruncatedSeries]]:
    """The (index, series) entries of a nested tuple tensor of series, depth
    first, as one flat list.

    Vector fields and endomorphism fields nest as their component tuple and
    their matrix.
    """
    entries: List[Tuple[Tuple[int, ...], TruncatedSeries]] = []
    _collect(tensor, (), entries)
    return entries


def _collect(tensor, index: Tuple[int, ...], entries: list) -> None:
    if isinstance(tensor, TruncatedSeries):
        entries.append((index, tensor))
        return
    if isinstance(tensor, VectorField):
        tensor = tensor.components
    elif isinstance(tensor, EndField):
        tensor = tensor.matrix
    for i, sub in enumerate(tensor):
        _collect(sub, index + (i,), entries)


def tensor_vanishes_through(tensor, degree: int) -> bool:
    return all(s.vanishes_through(degree) for _, s in iter_tensor(tensor))


@dataclass(frozen=True)
class Verdict:
    """Whether a residual vanishes, and through which degree that is proven.

    ``offending`` is None when the residual holds, else the witness
    (tensor index, monomial exponent, coefficient).
    """

    proven_to: int
    offending: Optional[Tuple[Tuple[int, ...], Exponent, Fraction]]

    @property
    def holds(self) -> bool:
        return self.offending is None


def judge(tensor) -> Verdict:
    """The one verdict on a residual tensor.

    The residual is proven to the lowest ``valid_to`` over its entries.  It
    fails when some entry has a nonzero coefficient at a degree up to that
    entry's own ``valid_to``; the witness is the lowest such coefficient,
    ordered by (degree, entry index, exponent).

    Only the entries that can still change that witness are read.
    ``iter_tensor`` lists the entries depth first with increasing
    subscripts, so their indices strictly increase: no index is a prefix of
    another, since a node is either a series or a container.  An entry's
    least key is its ``first_nonzero``, whose (degree, exponent) is the
    lowest in the entry, and it counts when that degree is at most the
    entry's ``valid_to``.  A later entry, with its greater index, beats the
    witness at degree d only with a degree below d, so it is asked only
    whether it vanishes through min(valid_to, d - 1); when it does not, its
    ``first_nonzero`` is the new witness.  After a witness at degree 0 that
    bound is negative, no later entry's terms are read, and only the least
    ``valid_to`` is still folded.
    """
    proven = best = top = None
    for index, s in iter_tensor(tensor):
        through = s.valid_to
        if proven is None or through < proven:
            proven = through
        if top is not None and top < through:
            through = top
        if through < 0 or s.vanishes_through(through):
            continue
        exponent, value = s.first_nonzero()
        best = (index, exponent, value)
        top = sum(exponent) - 1
    return Verdict(proven, best)

"""Vector fields, endomorphism fields and 3-tensor fields.

Everything is expressed in a fixed flat frame d_0, ..., d_{n-1}: a vector
field is its component series; a structure tensor and a connection are both
3-tensor fields, the connection given by its Christoffel tensor (the flat
base frame has all Christoffels zero).  All values are immutable and all
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple, Union

from .series import DimensionMismatchError, Scalar, TruncatedSeries

SeriesMatrix = Tuple[Tuple[TruncatedSeries, ...], ...]
SeriesTensor3 = Tuple[Tuple[Tuple[TruncatedSeries, ...], ...], ...]


def _check_same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} vs {b}")


@dataclass(frozen=True, eq=False)
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
    def zero(cls, dim: int, cap: int) -> "VectorField":
        return cls(tuple(TruncatedSeries.zero(dim, cap) for _ in range(dim)))

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
        result = TruncatedSeries.zero(f.num_vars, f.cap)
        for a, comp in enumerate(self.components):
            result = result + comp * f.derivative(a)
        return result

    def vanishes_through(self, degree: int) -> bool:
        return all(c.vanishes_through(degree) for c in self.components)

    def is_constant(self) -> bool:
        """True if every component is constant through its validity."""
        return all(all(sum(e) == 0 or sum(e) > c.valid_to for e in c.coeffs)
                   for c in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components


@dataclass(frozen=True, eq=False)
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

    def apply(self, v: VectorField) -> VectorField:
        _check_same_dim(self.dim, v.dim)
        comps = []
        for a in range(self.dim):
            acc = TruncatedSeries.zero(v.components[0].num_vars,
                                       v.components[0].cap)
            for c in range(self.dim):
                acc = acc + self.matrix[a][c] * v.components[c]
            comps.append(acc)
        return VectorField(tuple(comps))

    def compose(self, other: "EndField") -> "EndField":
        """Matrix product self @ other."""
        _check_same_dim(self.dim, other.dim)
        n = self.dim
        rows = []
        for a in range(n):
            row = []
            for c in range(n):
                acc = self.matrix[a][0] * other.matrix[0][c]
                for e in range(1, n):
                    acc = acc + self.matrix[a][e] * other.matrix[e][c]
                row.append(acc)
            rows.append(tuple(row))
        return EndField(tuple(rows))

    def commutator(self, other: "EndField") -> "EndField":
        return self.compose(other) - other.compose(self)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndField):
            return NotImplemented
        return self.matrix == other.matrix


@dataclass(frozen=True, eq=False)
class HiggsField:
    """A 3-tensor field T_{ab}^c in the flat frame, indexed [a][b][c].

    The one type for structure tensors (d_a o d_b = sum_c T_{ab}^c d_c) and
    for connections, which are stored as their Christoffel tensor; the flat
    connection of the frame is the zero tensor.  No symmetry is imposed at
    construction; symmetry in (a, b) is a property to be checked, not an
    invariant.
    """

    tensor: SeriesTensor3

    @property
    def dim(self) -> int:
        return len(self.tensor)

    @property
    def valid_to(self) -> int:
        return min(s.valid_to for p in self.tensor for r in p for s in r)

    @classmethod
    def zero(cls, dim: int, cap: int) -> "HiggsField":
        z = TruncatedSeries.zero(dim, cap)
        return cls(tuple(tuple(tuple(z for _ in range(dim))
                               for _ in range(dim)) for _ in range(dim)))

    @classmethod
    def build(cls, dim: int,
              entry: Callable[[int, int, int], TruncatedSeries]) -> "HiggsField":
        return cls(tuple(tuple(tuple(entry(a, b, c) for c in range(dim))
                               for b in range(dim)) for a in range(dim)))

    def is_symmetric(self, degree: Optional[int] = None) -> bool:
        n = self.dim
        check = self.valid_to if degree is None else degree
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    if not self.tensor[a][b][c].eq_up_to(self.tensor[b][a][c], check):
                        return False
        return True

    def shifted(self, other: "HiggsField", factor: Scalar) -> "HiggsField":
        """The pencil member self + factor * other."""
        n = self.dim
        return HiggsField(tuple(
            tuple(tuple(self.tensor[a][b][c] + other.tensor[a][b][c] * factor
                        for c in range(n)) for b in range(n)) for a in range(n)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HiggsField):
            return NotImplemented
        return self.tensor == other.tensor


# A connection is its Christoffel tensor Gamma_{ab}^c in the flat frame.
Connection = HiggsField


# -- operations -----------------------------------------------------------


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^c = X(Y^c) - Y(X^c); validity drops by one degree."""
    _check_same_dim(x.dim, y.dim)
    return VectorField(tuple(x.apply(y.components[c]) - y.apply(x.components[c])
                             for c in range(x.dim)))


def apply_higgs(higgs: HiggsField, x: VectorField, y: VectorField) -> VectorField:
    """The multiplication (X o Y)^c = sum_{a,b} X^a Y^b A_{ab}^c."""
    _check_same_dim(higgs.dim, x.dim)
    _check_same_dim(higgs.dim, y.dim)
    n = higgs.dim
    comps = []
    for c in range(n):
        acc = TruncatedSeries.zero(x.components[0].num_vars, x.components[0].cap)
        for a in range(n):
            xa = x.components[a]
            if not xa.coeffs:
                continue
            for b in range(n):
                yb = y.components[b]
                if not yb.coeffs:
                    continue
                acc = acc + xa * yb * higgs.tensor[a][b][c]
        comps.append(acc)
    return VectorField(tuple(comps))


def covariant_derivative(conn: Connection, x: VectorField,
                         y: VectorField) -> VectorField:
    """(nabla_X Y)^c = X(Y^c) + sum_{a,b} X^a Y^b Gamma_{ab}^c."""
    _check_same_dim(conn.dim, x.dim)
    _check_same_dim(conn.dim, y.dim)
    correction = apply_higgs(conn, x, y)
    return VectorField(tuple(x.apply(y.components[c]) + correction.components[c]
                             for c in range(x.dim)))


def torsion(conn: Connection) -> SeriesTensor3:
    """T_{ab}^c = Gamma_{ab}^c - Gamma_{ba}^c."""
    n = conn.dim
    return tuple(tuple(tuple(conn.tensor[a][b][c] - conn.tensor[b][a][c]
                             for c in range(n)) for b in range(n))
                 for a in range(n))


def curvature(conn: Connection) -> "SeriesTensor4":
    """Frame curvature R(d_a, d_b)d_c, indexed [a][b][c][d].

    R_{ab,c}^d = d_a Gamma_{bc}^d - d_b Gamma_{ac}^d
                 + sum_e (Gamma_{bc}^e Gamma_{ae}^d - Gamma_{ac}^e Gamma_{be}^d).
    """
    n = conn.dim
    g = conn.tensor
    out = []
    for a in range(n):
        plane = []
        for b in range(n):
            rows = []
            for c in range(n):
                row = []
                for d in range(n):
                    term = g[b][c][d].derivative(a) - g[a][c][d].derivative(b)
                    for e in range(n):
                        term = term + g[b][c][e] * g[a][e][d] \
                            - g[a][c][e] * g[b][e][d]
                    row.append(term)
                rows.append(tuple(row))
            plane.append(tuple(rows))
        out.append(tuple(plane))
    return tuple(out)


SeriesTensor4 = Tuple[Tuple[SeriesTensor3, ...], ...]


class FlatnessError(ValueError):
    """Raised when a base connection required to be flat is not."""


def pencil_curvature_split(higgs: HiggsField,
                           base: Connection) -> Tuple[SeriesTensor4, SeriesTensor4]:
    """Split the curvature of nabla_lambda = base + lambda A as lambda R1 + lambda^2 R2.

    The split is exact in lambda (no lambda truncation).  R2_{ab} is the
    commutator of the endomorphism slices [A_a, A_b]; R1 collects the mixed
    base/Higgs terms, which over the flat frame reduce to
    d_a A_{bc}^e - d_b A_{ac}^e.  The base must be flat to checked degree.
    """
    _check_same_dim(higgs.dim, base.dim)
    n = higgs.dim
    base_curv = curvature(base)
    for index, s in iter_tensor(base_curv):
        if not s.vanishes_through(s.valid_to):
            raise FlatnessError(f"base connection is not flat at {index}")
    g = base.tensor
    t = higgs.tensor
    r1 = []
    r2 = []
    for a in range(n):
        p1 = []
        p2 = []
        for b in range(n):
            rows1 = []
            rows2 = []
            for c in range(n):
                row1 = []
                row2 = []
                for d in range(n):
                    lin = t[b][c][d].derivative(a) - t[a][c][d].derivative(b)
                    quad = TruncatedSeries.zero(lin.num_vars, lin.cap)
                    for e in range(n):
                        lin = lin + g[b][c][e] * t[a][e][d] + t[b][c][e] * g[a][e][d] \
                            - g[a][c][e] * t[b][e][d] - t[a][c][e] * g[b][e][d]
                        quad = quad + t[b][c][e] * t[a][e][d] - t[a][c][e] * t[b][e][d]
                    row1.append(lin)
                    row2.append(quad)
                rows1.append(tuple(row1))
                rows2.append(tuple(row2))
            p1.append(tuple(rows1))
            p2.append(tuple(rows2))
        r1.append(tuple(p1))
        r2.append(tuple(p2))
    return tuple(r1), tuple(r2)


# -- tensor helpers -------------------------------------------------------


def iter_tensor(tensor) -> Iterator[Tuple[Tuple[int, ...], TruncatedSeries]]:
    """Depth-first iteration over a nested tuple tensor of series."""
    if isinstance(tensor, TruncatedSeries):
        yield (), tensor
        return
    for i, sub in enumerate(tensor):
        for index, s in iter_tensor(sub):
            yield (i,) + index, s


def tensor_vanishes_through(tensor, degree: int) -> bool:
    return all(s.vanishes_through(degree) for _, s in iter_tensor(tensor))


def tensor_valid_to(tensor) -> int:
    return min(s.valid_to for _, s in iter_tensor(tensor))


def tensor_first_offending(tensor) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...], Fraction]]:
    """First nonzero entry: (tensor index, monomial exponent, coefficient)."""
    best = None
    for index, s in iter_tensor(tensor):
        hit = s.first_nonzero()
        if hit is None:
            continue
        key = (sum(hit[0]), index, hit[0])
        if best is None or key < best[0]:
            best = (key, (index, hit[0], hit[1]))
    return None if best is None else best[1]

"""Correlator families and their operator-valued generating matrices.

A correlator family assigns to each multiset of variable indices a square
matrix of rationals.  Packing them into a matrix of series divides each value
by the factorials of the exponent multiplicities, so mixed partials of the
series recover the raw matrix entries.  The compatibility ("master") equation
is the pairwise commuting of the partial-derivative matrices.  A structure
tensor is read off as C_{ab}^c = d_a B^c_b (``structure_from_b``), and
integrated back to the B with B(0) = 0 (``potential_endomorphism``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Tuple

from .series import InputError, TruncatedSeries, primitive_of_closed_family
from .geometry import EndField, HiggsField, judge, torsion
from .models import json_integer, json_rational, json_text

FAMILY_SCHEMA_VERSION = 1

Multiset = Tuple[int, ...]


class FamilyFormatError(InputError):
    pass


class NotSymmetricError(ValueError):
    """Raised when a matrix of series does not define a correlator family."""

    def __init__(self, a: int, b: int, c: int) -> None:
        super().__init__(
            f"d_{a} B^{c}_{b} != d_{b} B^{c}_{a}: not a gradient family")
        self.indices = (a, b, c)


def _exponent_of_multiset(m: Multiset, dim: int) -> Tuple[int, ...]:
    exponent = [0] * dim
    for i in m:
        exponent[i] += 1
    return tuple(exponent)


def _multiset_of_exponent(exponent: Tuple[int, ...]) -> Multiset:
    out: List[int] = []
    for i, e in enumerate(exponent):
        out.extend([i] * e)
    return tuple(out)


def _weight(exponent: Tuple[int, ...]) -> Fraction:
    w = 1
    for e in exponent:
        w *= factorial(e)
    return Fraction(1, w)


@dataclass(frozen=True)
class CorrelatorFamily:
    """Matrices indexed by sorted multisets of variable indices."""

    dim: int
    order: int
    matrices: Dict[Multiset, Tuple[Tuple[Fraction, ...], ...]]

    def to_json_obj(self) -> dict:
        entries = []
        for key in sorted(self.matrices):
            rows = [[str(v) for v in row] for row in self.matrices[key]]
            entries.append({"multiset": list(key), "matrix": rows})
        return {
            "schemaVersion": FAMILY_SCHEMA_VERSION,
            "dim": self.dim,
            "order": self.order,
            "entries": entries,
        }

    def to_json(self) -> str:
        return json_text(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CorrelatorFamily":
        try:
            version = json_integer(obj["schemaVersion"], "schemaVersion")
            if version != FAMILY_SCHEMA_VERSION:
                raise FamilyFormatError(
                    f"unsupported schemaVersion {version}")
            dim = json_integer(obj["dim"], "dim")
            order = json_integer(obj["order"], "order")
            if dim < 1:
                raise FamilyFormatError("dim must be at least 1")
            if order < 1:
                raise FamilyFormatError(
                    f"at order {order} the master equation is proven only "
                    f"to degree {order - 1}; order must be at least 1")
            matrices: Dict[Multiset, Tuple[Tuple[Fraction, ...], ...]] = {}
            for entry in obj["entries"]:
                key = tuple(sorted(json_integer(i, "multiset index")
                                   for i in entry["multiset"]))
                if key in matrices:
                    raise FamilyFormatError(f"multiset {list(key)} is repeated")
                if any(not 0 <= i < dim for i in key):
                    raise FamilyFormatError(
                        f"multiset {list(key)} has an index outside "
                        f"0..{dim - 1}")
                if len(key) > order:
                    raise FamilyFormatError(
                        f"multiset {list(key)} is longer than order {order}")
                rows = entry["matrix"]
                if len(rows) != dim or any(len(r) != dim for r in rows):
                    raise FamilyFormatError(
                        f"matrix for {key} is not {dim}x{dim}")
                matrices[key] = tuple(
                    tuple(json_rational(v, "matrix entry") for v in row)
                    for row in rows)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, FamilyFormatError):
                raise
            raise FamilyFormatError(f"malformed family document: {exc}") from exc
        return cls(dim, order, matrices)


def b_from_correlators(family: CorrelatorFamily) -> EndField:
    """Pack a correlator family into its generating matrix of series.

    The coefficient of x^E in B^i_j is the (i, j) entry of the matrix at the
    multiset of E, divided by the product of factorials of the entries of E.
    """
    dim = family.dim
    order = family.order
    coeffs: List[List[Dict[Tuple[int, ...], Fraction]]] = [
        [{} for _ in range(dim)] for _ in range(dim)]
    for key, rows in family.matrices.items():
        exponent = _exponent_of_multiset(key, dim)
        weight = _weight(exponent)
        for i in range(dim):
            for j in range(dim):
                value = rows[i][j] * weight
                if value:
                    coeffs[i][j][exponent] = value
    matrix = tuple(
        tuple(TruncatedSeries(dim, order, order, coeffs[i][j])
              for j in range(dim))
        for i in range(dim))
    return EndField(matrix)


def correlators_from_b(b: EndField, force: bool = False) -> CorrelatorFamily:
    """Recover the family from a generating matrix.

    Unless ``force`` is set, the matrix must be a gradient family: the mixed
    first partials d_a B^c_b and d_b B^c_a must agree to the proven degree,
    so the derived structure tensor is symmetric.
    """
    dim = len(b.matrix)
    order = b.valid_to
    if not force:
        verdict = judge(torsion(structure_from_b(b)))
        if not verdict.holds:
            raise NotSymmetricError(*verdict.offending[0])
    out: Dict[Multiset, List[List[Fraction]]] = {}
    for i in range(dim):
        for j in range(dim):
            for exponent, value in b.matrix[i][j].items():
                if sum(exponent) > order:
                    continue
                key = _multiset_of_exponent(exponent)
                if key not in out:
                    out[key] = [[Fraction(0)] * dim for _ in range(dim)]
                out[key][i][j] = value / _weight(exponent)
    frozen = {key: tuple(tuple(row) for row in rows)
              for key, rows in out.items()}
    return CorrelatorFamily(dim, order, frozen)


def master_equation_residual(b: EndField) -> Dict[Tuple[int, int], EndField]:
    """Commutators [d_a B, d_b B] for a < b; all zero iff B is compatible.

    Each entry of d_a B is cut to its ``valid_to`` first: a coefficient of
    a commutator up to its ``valid_to`` reads its operands only up to
    theirs, and the cut keeps every ``valid_to``, so ``judge`` reaches the
    same verdict and the degrees nothing reads are not formed.
    """
    dim = len(b.matrix)
    d = [EndField(tuple(tuple(s.cut(s.valid_to) for s in row)
                        for row in b.derivative(a).matrix))
         for a in range(dim)]
    return {(a, c): d[a].commutator(d[c])
            for a in range(dim) for c in range(a + 1, dim)}


def structure_from_b(b: EndField) -> HiggsField:
    """The tensor C_{ab}^c = d_a B^c_b."""
    return HiggsField.build(
        len(b.matrix), lambda a, bb, c: b.matrix[c][bb].derivative(a))


def potential_endomorphism(higgs: HiggsField) -> EndField:
    """The B with d_a B^c_b = C_{ab}^c and gauge B(0) = 0.

    Raises ``NotClosedError`` at the first (c, b), c outer, whose family
    (C_{ab}^c)_a is not closed.
    """
    n, t = higgs.dim, higgs.tensor
    b_rows = []
    for c in range(n):
        row = []
        for b in range(n):
            family = [t[a][b][c] for a in range(n)]
            row.append(primitive_of_closed_family(family))
        b_rows.append(tuple(row))
    return EndField(tuple(b_rows))

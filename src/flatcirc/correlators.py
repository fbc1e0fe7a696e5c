"""Correlator families and their operator-valued generating matrices.

A correlator family assigns to each multiset of variable indices a square
matrix of rationals.  Packing them into a matrix of series divides each value
by the factorials of the exponent multiplicities, so mixed partials of the
series recover the raw matrix entries.  The compatibility ("master") equation
is the pairwise commuting of the partial-derivative matrices, and a structure
tensor is read off as C_{ab}^c = d_a B^c_b.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Tuple

from .series import TruncatedSeries, as_fraction
from .geometry import EndField, HiggsField

FAMILY_SCHEMA_VERSION = 1

Multiset = Tuple[int, ...]


class FamilyFormatError(ValueError):
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

    def matrix(self, m: Multiset) -> Tuple[Tuple[Fraction, ...], ...]:
        key = tuple(sorted(m))
        if len(key) > self.order:
            raise KeyError(f"multiset size {len(key)} exceeds order {self.order}")
        got = self.matrices.get(key)
        if got is None:
            zero = tuple(tuple(Fraction(0) for _ in range(self.dim))
                         for _ in range(self.dim))
            return zero
        return got

    def entry(self, m: Multiset, i: int, j: int) -> Fraction:
        return self.matrix(m)[i][j]

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
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CorrelatorFamily":
        try:
            version = obj["schemaVersion"]
            if version != FAMILY_SCHEMA_VERSION:
                raise FamilyFormatError(
                    f"unsupported schemaVersion {version}")
            dim = int(obj["dim"])
            order = int(obj["order"])
            matrices: Dict[Multiset, Tuple[Tuple[Fraction, ...], ...]] = {}
            for entry in obj["entries"]:
                key = tuple(sorted(int(i) for i in entry["multiset"]))
                if any(not 0 <= i < dim for i in key):
                    raise FamilyFormatError(
                        f"multiset {list(key)} has an index outside "
                        f"0..{dim - 1}")
                rows = entry["matrix"]
                if len(rows) != dim or any(len(r) != dim for r in rows):
                    raise FamilyFormatError(
                        f"matrix for {key} is not {dim}x{dim}")
                matrices[key] = tuple(
                    tuple(as_fraction(Fraction(v)) for v in row) for row in rows)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, FamilyFormatError):
                raise
            raise FamilyFormatError(f"malformed family document: {exc}") from exc
        return cls(dim, order, matrices)

    @classmethod
    def from_json(cls, text: str) -> "CorrelatorFamily":
        return cls.from_json_obj(json.loads(text))


def b_from_correlators(family: CorrelatorFamily,
                       cap: Optional[int] = None) -> EndField:
    """Pack a correlator family into its generating matrix of series.

    The coefficient of x^E in B^i_j is the (i, j) entry of the matrix at the
    multiset of E, divided by the product of factorials of the entries of E.
    """
    dim = family.dim
    limit = family.order if cap is None else min(cap, family.order)
    coeffs: List[List[Dict[Tuple[int, ...], Fraction]]] = [
        [{} for _ in range(dim)] for _ in range(dim)]
    for key, rows in family.matrices.items():
        if len(key) > limit:
            continue
        exponent = _exponent_of_multiset(key, dim)
        weight = _weight(exponent)
        for i in range(dim):
            for j in range(dim):
                value = rows[i][j] * weight
                if value:
                    coeffs[i][j][exponent] = value
    matrix = tuple(
        tuple(TruncatedSeries(dim, limit, limit, coeffs[i][j])
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
        for a in range(dim):
            for bb in range(a + 1, dim):
                for c in range(dim):
                    lhs = b.matrix[c][bb].derivative(a)
                    rhs = b.matrix[c][a].derivative(bb)
                    if not (lhs - rhs).vanishes_through(
                            min(lhs.valid_to, rhs.valid_to)):
                        raise NotSymmetricError(a, bb, c)
    out: Dict[Multiset, List[List[Fraction]]] = {}
    for i in range(dim):
        for j in range(dim):
            for exponent, value in b.matrix[i][j].coeffs.items():
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
    """Commutators [d_a B, d_b B] for a < b; all zero iff B is compatible."""
    dim = len(b.matrix)
    out: Dict[Tuple[int, int], EndField] = {}
    for a in range(dim):
        for c in range(a + 1, dim):
            out[(a, c)] = b.derivative(a).commutator(b.derivative(c))
    return out


def structure_from_b(b: EndField) -> HiggsField:
    """The tensor C_{ab}^c = d_a B^c_b."""
    dim = len(b.matrix)
    return HiggsField(tuple(
        tuple(
            tuple(b.matrix[c][bb].derivative(a) for c in range(dim))
            for bb in range(dim))
        for a in range(dim)))

"""Euler fields and the extended-connection machinery.

The formal parameter mu is the reciprocal pencil coordinate; mu-series carry
their own truncation order, independent of the x-degree cap.  The operator H
that completes the pencil to a connection over the extended base is
reconstructed from its value on the identity by a closed form replacing the
naive infinite iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .fmanifold import FStructure, MissingIdentityError, p_tensor
from .geometry import (Connection, EndField, VectorField, covariant_derivative,
                       lie_bracket)
from .series import Scalar, as_fraction


class CertificationError(ValueError):
    """An Euler-field certification (residual or compatibility) failed."""


@dataclass(frozen=True, eq=False)
class MuSeriesVF:
    """Polynomial in mu with vector-field coefficients, truncated at mu_cap."""

    coefficients: Tuple[VectorField, ...]  # index = power of mu

    @property
    def mu_cap(self) -> int:
        return len(self.coefficients) - 1

    @property
    def dim(self) -> int:
        return self.coefficients[0].dim

    @classmethod
    def constant(cls, field: VectorField, mu_cap: int) -> "MuSeriesVF":
        zero = VectorField.zero(field.dim, field.components[0].cap)
        return cls((field,) + (zero,) * mu_cap)

    def __add__(self, other: "MuSeriesVF") -> "MuSeriesVF":
        self._check(other)
        return MuSeriesVF(tuple(a + b for a, b in
                                zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "MuSeriesVF") -> "MuSeriesVF":
        self._check(other)
        return MuSeriesVF(tuple(a - b for a, b in
                                zip(self.coefficients, other.coefficients)))

    def __neg__(self) -> "MuSeriesVF":
        return MuSeriesVF(tuple(-a for a in self.coefficients))

    def _check(self, other: "MuSeriesVF") -> None:
        if self.mu_cap != other.mu_cap:
            raise ValueError("mu truncation orders differ")

    def shift_mu(self, powers: int = 1) -> "MuSeriesVF":
        """Multiply by mu^powers, truncating at mu_cap."""
        zero = VectorField.zero(self.dim, self.coefficients[0].components[0].cap)
        coeffs = (zero,) * powers + self.coefficients[:self.mu_cap + 1 - powers]
        return MuSeriesVF(coeffs)

    def vanishes_through(self, degree: int) -> bool:
        return all(c.vanishes_through(degree) for c in self.coefficients)

    def proven_to(self) -> int:
        return min(c.valid_to for c in self.coefficients)


@dataclass(frozen=True, eq=False)
class MuSeriesEnd:
    """Polynomial in mu with endomorphism-field coefficients."""

    coefficients: Tuple[EndField, ...]

    @property
    def mu_cap(self) -> int:
        return len(self.coefficients) - 1

    def apply(self, v: MuSeriesVF) -> MuSeriesVF:
        cap = v.mu_cap
        out: List[VectorField] = []
        for k in range(cap + 1):
            acc: Optional[VectorField] = None
            for i in range(min(k, self.mu_cap) + 1):
                term = self.coefficients[i].apply(v.coefficients[k - i])
                acc = term if acc is None else acc + term
            assert acc is not None
            out.append(acc)
        return MuSeriesVF(tuple(out))

    def apply_plain(self, v: VectorField, mu_cap: int) -> MuSeriesVF:
        return self.apply(MuSeriesVF.constant(v, mu_cap))

    def __sub__(self, other: "MuSeriesEnd") -> "MuSeriesEnd":
        return MuSeriesEnd(tuple(a - b for a, b in
                                 zip(self.coefficients, other.coefficients)))


def mu_multiply(structure: FStructure, x: MuSeriesVF, y: MuSeriesVF) -> MuSeriesVF:
    """Bilinear extension of the multiplication to mu-series."""
    cap = x.mu_cap
    out = []
    for k in range(cap + 1):
        acc = VectorField.zero(x.dim, structure.order)
        for i in range(k + 1):
            acc = acc + structure.multiply(x.coefficients[i], y.coefficients[k - i])
        out.append(acc)
    return MuSeriesVF(tuple(out))


def mu_bracket(x: MuSeriesVF, y: MuSeriesVF) -> MuSeriesVF:
    cap = x.mu_cap
    out = []
    for k in range(cap + 1):
        acc = VectorField.zero(x.dim, x.coefficients[0].components[0].cap)
        for i in range(k + 1):
            acc = acc + lie_bracket(x.coefficients[i], y.coefficients[k - i])
        out.append(acc)
    return MuSeriesVF(tuple(out))


def mu_nabla(conn: Connection, x: MuSeriesVF, y: MuSeriesVF) -> MuSeriesVF:
    """Covariant derivative extended bilinearly over mu."""
    cap = x.mu_cap
    out = []
    for k in range(cap + 1):
        acc = VectorField.zero(x.dim, x.coefficients[0].components[0].cap)
        for i in range(k + 1):
            acc = acc + covariant_derivative(conn, x.coefficients[i],
                                             y.coefficients[k - i])
        out.append(acc)
    return MuSeriesVF(tuple(out))


@dataclass(frozen=True)
class EulerField:
    """A certified Euler field: residual and compatibility already checked."""

    field: VectorField
    weight: Fraction


def euler_residual(structure: FStructure, e_field: VectorField,
                   weight: Scalar) -> Tuple[Tuple[VectorField, ...], ...]:
    """Residual of P_E(X, Y) = weight * X o Y over the frame."""
    n = structure.dim
    w = as_fraction(weight)
    t = structure.structure.tensor
    return tuple(tuple(
        p_tensor(structure, e_field, structure.basis(a), structure.basis(b))
        - VectorField(t[a][b]).scale(w)
        for b in range(n)) for a in range(n))


def flat_compat(e_field: VectorField) -> bool:
    """Compatibility with the flat structure: [E, flat] stays flat.

    In the flat frame this says every component of E is polynomial of total
    degree at most 1 (all first partials constant).
    """
    for comp in e_field.components:
        for exponent, coeff in comp.coeffs.items():
            degree = sum(exponent)
            if 2 <= degree <= comp.valid_to and coeff != 0:
                return False
    return True


def certify_euler(structure: FStructure, e_field: VectorField,
                  weight: Scalar) -> EulerField:
    residual = euler_residual(structure, e_field, weight)
    for row in residual:
        for entry in row:
            if not entry.vanishes_through(entry.valid_to):
                raise CertificationError(
                    f"Euler residual nonzero at weight {weight}")
    if not flat_compat(e_field):
        raise CertificationError("Euler field does not preserve flat fields")
    return EulerField(e_field, as_fraction(weight))


def euler_family(euler: EulerField, e: VectorField, s: Scalar,
                 structure: FStructure) -> EulerField:
    """The line E + s*e of Euler fields of unchanged weight (flat identity e)."""
    shifted = euler.field + e.scale(as_fraction(s))
    return certify_euler(structure, shifted, euler.weight)


def geometric_inverse(structure: FStructure, e: VectorField, e1: VectorField,
                      mu_cap: int) -> MuSeriesVF:
    """(e + mu e1)^{-1} = sum_i (-1)^i e1^{oi} mu^i, with e1^{o0} = e."""
    if structure.identity is None:
        raise MissingIdentityError("geometric inverse needs an identity")
    coeffs: List[VectorField] = [e]
    power = e
    sign = 1
    for _ in range(mu_cap):
        power = structure.multiply(power, e1)
        sign = -sign
        coeffs.append(power if sign > 0 else -power)
    return MuSeriesVF(tuple(coeffs))


def h_from_e(e_series: MuSeriesVF, structure: FStructure, conn: Connection,
             e: VectorField, e1: VectorField) -> MuSeriesEnd:
    """Reconstruct H from its value on the identity.

    H(X) = X o E + mu (nabla_{g o X} E - g o X) + ((g o X) - X) o E
    with g the geometric inverse of e + mu e1.  The closed form replaces the
    infinite back-substitution of the defining functional equation and agrees
    with it up to the mu truncation.
    """
    if structure.identity is None:
        raise MissingIdentityError("H reconstruction needs an identity")
    n = structure.dim
    mu_cap = e_series.mu_cap
    g = geometric_inverse(structure, e, e1, mu_cap)

    def h_column(x: VectorField) -> MuSeriesVF:
        xm = MuSeriesVF.constant(x, mu_cap)
        gx = mu_multiply(structure, g, xm)
        first = mu_multiply(structure, xm, e_series)
        second = (mu_nabla(conn, gx, e_series) - gx).shift_mu()
        third = mu_multiply(structure, gx - xm, e_series)
        return first + second + third

    columns = [h_column(structure.basis(c)) for c in range(n)]
    matrices = []
    for k in range(mu_cap + 1):
        matrices.append(EndField(tuple(
            tuple(columns[c].coefficients[k].components[a] for c in range(n))
            for a in range(n))))
    return MuSeriesEnd(tuple(matrices))


def e_equation_residual(e_series: MuSeriesVF, structure: FStructure,
                        conn: Connection, e: VectorField,
                        e1: VectorField) -> MuSeriesVF:
    """Residual of (e + mu e1) o nabla_{(e + mu e1)^{-1}} E - e1 o E = e."""
    if structure.identity is None:
        raise MissingIdentityError("equation residual needs an identity")
    mu_cap = e_series.mu_cap
    g = geometric_inverse(structure, e, e1, mu_cap)
    e_plus = MuSeriesVF.constant(e, mu_cap) \
        + MuSeriesVF.constant(e1, mu_cap).shift_mu()
    lhs = mu_multiply(structure, e_plus, mu_nabla(conn, g, e_series)) \
        - mu_multiply(structure, MuSeriesVF.constant(e1, mu_cap), e_series)
    return lhs - MuSeriesVF.constant(e, mu_cap)


@dataclass(frozen=True)
class FlatnessReport:
    """Frame residual of the reformulated extended-connection flatness."""

    full: Tuple[Tuple[MuSeriesVF, ...], ...]

    def full_vanishes(self) -> bool:
        return all(r.vanishes_through(r.proven_to())
                   for row in self.full for r in row)

    def proven_to(self) -> int:
        return min(r.proven_to() for row in self.full for r in row)


def full_flatness_residual(h: MuSeriesEnd, structure: FStructure,
                           conn: Connection) -> FlatnessReport:
    """Check H(X o Y) = X o H(Y) + mu (nabla_X H(Y) - X o Y - H(nabla_X Y))."""
    n = structure.dim
    mu_cap = h.mu_cap
    t = structure.structure.tensor

    def residual(a: int, b: int) -> MuSeriesVF:
        x = structure.basis(a)
        y = structure.basis(b)
        xy = VectorField(t[a][b])
        xm = MuSeriesVF.constant(x, mu_cap)
        hy = h.apply_plain(y, mu_cap)
        lhs = h.apply_plain(xy, mu_cap)
        rhs = mu_multiply(structure, xm, hy) \
            + (mu_nabla(conn, xm, hy) - MuSeriesVF.constant(xy, mu_cap)
               - h.apply_plain(covariant_derivative(conn, x, y), mu_cap)).shift_mu()
        return lhs - rhs

    return FlatnessReport(tuple(tuple(residual(a, b) for b in range(n))
                                for a in range(n)))

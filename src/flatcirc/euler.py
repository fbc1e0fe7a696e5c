"""Euler fields and the mu-extension as coefficient recurrences.

The formal parameter mu is the reciprocal pencil coordinate.  Polynomials in
mu carry their own truncation order, independent of the x-degree cap, and
are stored as tuples of coefficients indexed by the power of mu.  The
operator H that completes the pencil to a connection over the extended base
is reconstructed from its value on the identity by a closed form replacing
the naive infinite iteration.  Every mu-product in it has a factor constant
or linear in mu, so each coefficient is a short recurrence over plain
fields.  With E the scaling field (constant in mu), e the identity,
e1 = nabla_e e and g_k = (-1)^k e o e1^{ok} the coefficients of the geometric
inverse (e + mu e1)^{-1}:

  H_0(X) = X o E + (g_0 o X - X) o E
  H_k(X) = (g_k o X) o E + nabla_{g_{k-1} o X} E - g_{k-1} o X      (k >= 1)
  equation residual_k = e o nabla_{g_k} E + e1 o nabla_{g_{k-1}} E
                        - delta_{k0} (e1 o E + e)
  flatness residual_k(a, b) = H_k(C_ab) - d_a o H_k(d_b)
                              - nabla_{d_a} H_{k-1}(d_b)
                              + H_{k-1}(nabla_{d_a} d_b) + delta_{k1} C_ab

A term whose index is below 0 is absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .fmanifold import FStructure, MissingIdentityError, p_tensor
from .geometry import Connection, EndField, VectorField, covariant_derivative
from .series import Scalar, as_fraction


class CertificationError(ValueError):
    """An Euler-field certification (residual or compatibility) failed."""


@dataclass(frozen=True, eq=False)
class MuSeriesVF:
    """A residual polynomial in mu with vector-field coefficients."""

    coefficients: Tuple[VectorField, ...]  # index = power of mu

    def vanishes_through(self, degree: int) -> bool:
        return all(c.vanishes_through(degree) for c in self.coefficients)

    def proven_to(self) -> int:
        return min(c.valid_to for c in self.coefficients)


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
                      mu_cap: int) -> Tuple[VectorField, ...]:
    """Coefficients g_k = (-1)^k e o e1^{ok} of (e + mu e1)^{-1}, k <= mu_cap."""
    if structure.identity is None:
        raise MissingIdentityError("geometric inverse needs an identity")
    coeffs: List[VectorField] = [e]
    power = e
    sign = 1
    for _ in range(mu_cap):
        power = structure.multiply(power, e1)
        sign = -sign
        coeffs.append(power if sign > 0 else -power)
    return tuple(coeffs)


def h_from_e(e_field: VectorField, structure: FStructure, conn: Connection,
             g: Tuple[VectorField, ...]) -> Tuple[EndField, ...]:
    """H from its value on the identity: the matrices H_k, k <= len(g) - 1.

    The closed form agrees with the infinite back-substitution of the
    defining functional equation up to the mu truncation.
    """
    n = structure.dim

    def h_column(x: VectorField) -> List[VectorField]:
        gx = [structure.multiply(gk, x) for gk in g]
        column = [structure.multiply(x, e_field)
                  + structure.multiply(gx[0] - x, e_field)]
        for k in range(1, len(g)):
            column.append(structure.multiply(gx[k], e_field)
                          + covariant_derivative(conn, gx[k - 1], e_field)
                          - gx[k - 1])
        return column

    columns = [h_column(structure.basis(c)) for c in range(n)]
    return tuple(EndField(tuple(
        tuple(columns[c][k].components[a] for c in range(n))
        for a in range(n))) for k in range(len(g)))


def e_equation_residual(e_field: VectorField, structure: FStructure,
                        conn: Connection, e1: VectorField,
                        g: Tuple[VectorField, ...]) -> MuSeriesVF:
    """Residual of (e + mu e1) o nabla_g E - e1 o E = e, where e = g_0."""
    e = g[0]
    nabla = [covariant_derivative(conn, gk, e_field) for gk in g]
    coeffs = [structure.multiply(e, nabla[0])
              - structure.multiply(e1, e_field) - e]
    for k in range(1, len(g)):
        coeffs.append(structure.multiply(e, nabla[k])
                      + structure.multiply(e1, nabla[k - 1]))
    return MuSeriesVF(tuple(coeffs))


@dataclass(frozen=True)
class FlatnessReport:
    """Frame residual of the reformulated extended-connection flatness."""

    full: Tuple[Tuple[MuSeriesVF, ...], ...]

    def full_vanishes(self) -> bool:
        return all(r.vanishes_through(r.proven_to())
                   for row in self.full for r in row)

    def proven_to(self) -> int:
        return min(r.proven_to() for row in self.full for r in row)


def full_flatness_residual(h: Tuple[EndField, ...], structure: FStructure,
                           conn: Connection) -> FlatnessReport:
    """Check H(X o Y) = X o H(Y) + mu (nabla_X H(Y) - X o Y - H(nabla_X Y))."""
    n = structure.dim
    t = structure.structure.tensor

    def residual(a: int, b: int) -> MuSeriesVF:
        x = structure.basis(a)
        y = structure.basis(b)
        xy = VectorField(t[a][b])
        nabla_xy = covariant_derivative(conn, x, y)
        hy = [hk.apply(y) for hk in h]
        coeffs = [h[0].apply(xy) - structure.multiply(x, hy[0])]
        for k in range(1, len(h)):
            coeff = h[k].apply(xy) - structure.multiply(x, hy[k]) \
                - covariant_derivative(conn, x, hy[k - 1]) \
                + h[k - 1].apply(nabla_xy)
            coeffs.append(coeff + xy if k == 1 else coeff)
        return MuSeriesVF(tuple(coeffs))

    return FlatnessReport(tuple(tuple(residual(a, b) for b in range(n))
                                for a in range(n)))

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
inverse (e + mu e1)^{-1}, everything is matrix algebra on frame tensors:
C_a is the slice of the structure tensor (``HiggsField.slice``), L_v and R_v
the matrices of X -> v o X and X -> X o v, and the connection the pencil
member nabla_0 + lambda C, so that J = Jacobian(E) + lambda R_E is the matrix
of X -> nabla_X E (``geometry.nabla``).  Then

  H_0 = R_E + R_E (L_{g_0} - 1)
  H_k = R_E L_{g_k} + (J - 1) L_{g_{k-1}}                          (k >= 1)
  equation residual_k = e o nabla_{g_k} E + e1 o nabla_{g_{k-1}} E
                        - delta_{k0} (e1 o E + e)
  flatness residual_k at d_a = [H_k, C_a] - d_a H_{k-1}
                               + lambda [H_{k-1}, C_a] + delta_{k1} C_a

A term whose index is below 0 is absent, and so is every lambda term of the
member None, the frame's flat nabla_0.  The scaling-weight residual is
frame algebra too: P_E is the Lie derivative of the product along E
(Hertling-Manin, "Weak Frobenius manifolds", IMRN 1999) and [E, d_a] = -d_a E,
so P_E(d_a, d_b) is the column b of E(C_a) + [C_a, D] + L_{d_a E}, where
D = Jacobian(E) and E(C_a) differentiates each entry of C_a along E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .geometry import EndField, HiggsField, Shift, VectorField, judge, nabla
from .series import Scalar, as_fraction


class CertificationError(ValueError):
    """An Euler-field certification (residual or compatibility) failed."""


@dataclass(frozen=True)
class EulerField:
    """A certified Euler field: residual and compatibility already checked."""

    field: VectorField
    weight: Fraction


def euler_residual(c: HiggsField, e_field: VectorField,
                   weight: Scalar) -> Tuple[Tuple[VectorField, ...], ...]:
    """Residual of P_E(X, Y) = weight * X o Y over the frame, indexed [a][b]:
    the columns of E(C_a) + [C_a, D] + L_{d_a E} - weight C_a."""
    d = EndField.jacobian(e_field)
    residual = []
    for a, d_a_e in enumerate(d.columns()):
        c_a = c.slice(a)
        along = EndField(tuple(tuple(e_field.apply(s) for s in row)
                               for row in c_a.matrix))
        p_e = along + c_a.commutator(d) + c.left(d_a_e)
        residual.append(tuple(p - q.scale(weight) for p, q in
                              zip(p_e.columns(), c_a.columns())))
    return tuple(residual)


def flat_compat_residual(e_field: VectorField) -> VectorField:
    """The terms of degree >= 2 of E, which vanish exactly when E is
    compatible with the flat structure: [E, flat] stays flat.

    In the flat frame this says every component of E is polynomial of total
    degree at most 1 (all first partials constant).
    """
    return VectorField(tuple(c.from_degree(2) for c in e_field.components))


def flat_compat(e_field: VectorField) -> bool:
    """True when ``flat_compat_residual`` vanishes."""
    return judge(flat_compat_residual(e_field)).holds


def certify_euler(c: HiggsField, e_field: VectorField,
                  weight: Scalar) -> EulerField:
    if not judge(euler_residual(c, e_field, weight)).holds:
        raise CertificationError(f"Euler residual nonzero at weight {weight}")
    if not flat_compat(e_field):
        raise CertificationError("Euler field does not preserve flat fields")
    return EulerField(e_field, as_fraction(weight))


def geometric_inverse(c: HiggsField, e: VectorField, e1: VectorField,
                      mu_cap: int) -> Tuple[VectorField, ...]:
    """Coefficients g_k = (-1)^k e o e1^{ok} of (e + mu e1)^{-1}, k <= mu_cap."""
    r_e1 = c.right(e1)
    coeffs = [e]
    for _ in range(mu_cap):
        coeffs.append(-r_e1.apply(coeffs[-1]))
    return tuple(coeffs)


def h_from_e(e_field: VectorField, c: HiggsField, shift: Shift,
             g: Tuple[VectorField, ...]) -> Tuple[EndField, ...]:
    """H from its value on the identity: the matrices H_k, k <= len(g) - 1.

    The closed form agrees with the infinite back-substitution of the
    defining functional equation up to the mu truncation.
    """
    one = EndField.identity(c.dim, c.order)
    r_e = c.right(e_field)
    j_minus_one = EndField.jacobian(e_field) - one
    if shift is not None:
        j_minus_one = j_minus_one + r_e.scale(shift)
    left = [c.left(gk) for gk in g]
    # H_0 = R_E L_{g_0}, formed through the nearly empty L_{g_0} - 1: fewer
    # term pairs than R_E L_{g_0}, with the same series
    h = [r_e + r_e.compose(left[0] - one)]
    for k in range(1, len(g)):
        h.append(r_e.compose(left[k]) + j_minus_one.compose(left[k - 1]))
    return tuple(h)


def e_equation_residual(e_field: VectorField, c: HiggsField,
                        shift: Shift, e1: VectorField,
                        g: Tuple[VectorField, ...]) -> Tuple[VectorField, ...]:
    """Residual of (e + mu e1) o nabla_g E - e1 o E = e, where e = g_0.

    One vector field per power of mu.
    """
    e = g[0]
    nabla_e_field = nabla(c, shift, e_field)
    along = [nabla_e_field.apply(gk) for gk in g]
    l_e = c.left(e)
    l_e1 = c.left(e1)
    coeffs = [l_e.apply(along[0]) - l_e1.apply(e_field) - e]
    for k in range(1, len(g)):
        coeffs.append(l_e.apply(along[k]) + l_e1.apply(along[k - 1]))
    return tuple(coeffs)


def full_flatness_residual(h: Tuple[EndField, ...], c: HiggsField,
                           shift: Shift) -> Tuple[Tuple[EndField, ...], ...]:
    """Check H(X o Y) = X o H(Y) + mu (nabla_X H(Y) - X o Y - H(nabla_X Y)).

    Indexed [a][k]: the coefficient of mu^k at X = d_a, as the matrix
    whose column b is the residual at Y = d_b.  The commutator [H_k, C_a] is
    formed once and serves as the lambda term of the power k + 1 as well.
    Each entry up to its ``valid_to`` reads H and C only up to theirs, so
    ``checks.evaluate_extension`` hands over both cut to their proven
    degrees: the same entries through ``valid_to``, at a lower cap.
    """
    def row(a: int) -> Tuple[EndField, ...]:
        c_a = c.slice(a)
        commutators = [h_k.commutator(c_a) for h_k in h]
        out = [commutators[0]]
        for k in range(1, len(h)):
            r = commutators[k] - h[k - 1].derivative(a)
            if shift is not None:
                r = r + commutators[k - 1].scale(shift)
            out.append(r + c_a if k == 1 else r)
        return tuple(out)

    return tuple(row(a) for a in range(c.dim))

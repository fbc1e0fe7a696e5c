"""Duality without metrics: products twisted by virtual identities.

Includes the order-by-order circ-inverse, primitive sections of the tangent
bundle viewed as an external bundle, the twisted multiplication
X * Y = eps^{-1} o X o Y, and the verification report for the Euler-field
property of the old identity.  The two competing flatness hypotheses on the
twist field (flat eps versus flat eps^{-1}) are both computed and labeled;
neither is silently preferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .fmanifold import (FStructure, MissingIdentityError, SingularSystemError,
                        shift_base, solve_series_system)
from .geometry import (Connection, EndField, HiggsField, VectorField,
                       covariant_derivative, lie_bracket)
from .series import (Exponent, Scalar, TruncatedSeries, as_fraction,
                     primitive_of_closed_family, total_degree)


class NotInvertibleError(ValueError):
    """circ-multiplication by the field is singular at the origin."""

    def __init__(self) -> None:
        super().__init__("system matrix singular at the origin")


class NotFlatSectionError(ValueError):
    pass


class IntegrabilityError(ValueError):
    pass


def circ_inverse(structure: FStructure, v: VectorField) -> VectorField:
    """The unique w with v o w = e, solved order by order."""
    if structure.identity is None:
        raise MissingIdentityError("circ-inverse needs an identity")
    n = structure.dim
    t = structure.structure.tensor
    # (v o w)^c = M^c_b w^b with M^c_b = sum_a v^a C_{ab}^c
    matrix = [[sum((v.components[a] * t[a][b][c] for a in range(n)),
                   TruncatedSeries.zero(n, structure.order))
               for b in range(n)] for c in range(n)]
    valid = min(min(s.valid_to for row in matrix for s in row),
                structure.identity.valid_to)
    try:
        return VectorField(solve_series_system(
            matrix, structure.identity.components, valid))
    except SingularSystemError:
        raise NotInvertibleError() from None


@dataclass(frozen=True)
class PrimitiveSectionReport:
    b_field: EndField           # gauge B(0) = 0, with nabla_0 B = A
    image_map: VectorField      # the vector field B u
    jacobian_at_0: Tuple[Tuple[Fraction, ...], ...]
    primitive: bool
    closedness_residual: Tuple  # d omega^c components, indexed [c][a][b]


def primitive_section(structure: FStructure, base: Connection,
                      u: VectorField) -> PrimitiveSectionReport:
    """Potential endomorphism B and the candidate chart Bu for a flat section.

    B integrates the structure tensor (d_a B^c_b = C_{ab}^c, gauge B(0) = 0);
    u must be flat for the base connection.  Primitivity is the invertibility
    of the Jacobian of Bu at the origin, which coincides with invertibility of
    circ-multiplication by u there.
    """
    n = structure.dim
    if not u.is_constant():
        raise NotFlatSectionError("u must have constant components")
    t = structure.structure.tensor
    b_rows = []
    for c in range(n):
        row = []
        for b in range(n):
            family = [t[a][b][c] for a in range(n)]
            row.append(primitive_of_closed_family(family))
        b_rows.append(tuple(row))
    b_field = EndField(tuple(b_rows))
    image = b_field.apply(u)
    jacobian = tuple(tuple(image.components[c].derivative(a).constant_term
                           for a in range(n)) for c in range(n))
    primitive = linalg.determinant(jacobian) != 0
    closedness = tuple(tuple(tuple(
        b_field.matrix[c][b].derivative(a) - b_field.matrix[c][a].derivative(b)
        for b in range(n)) for a in range(n)) for c in range(n))
    return PrimitiveSectionReport(b_field, image, jacobian, primitive, closedness)


@dataclass(frozen=True)
class DualityPair:
    original: FStructure
    twist: VectorField
    inverse_used: VectorField
    dual: FStructure


def dual_structure(structure: FStructure, epsilon: VectorField) -> DualityPair:
    """The twisted multiplication X * Y = eps^{-1} o X o Y with identity eps."""
    n = structure.dim
    eps_inv = circ_inverse(structure, epsilon)
    t = structure.structure.tensor
    tensor = HiggsField.build(n, lambda a, b, c: structure.multiply(
        eps_inv, VectorField(t[a][b])).components[c])
    dual = FStructure(tensor, identity=epsilon)
    return DualityPair(structure, epsilon, eps_inv, dual)


@dataclass(frozen=True)
class HypothesisItem:
    label: str
    holds: bool
    proven_to: int


@dataclass(frozen=True)
class DualityVerifyReport:
    """Residuals of the Euler-property of the old identity under the twist.

    ``bracket_defect_flat_eps`` is [eps, e] - eps (the shape expected when the
    twist field itself is flat for the shifted connection);
    ``bracket_defect_flat_inverse`` is [eps, e] + eps (the shape observed when
    instead its circ-inverse is flat).  The bracket convention is
    [X, Y]^c = X(Y^c) - Y(X^c) throughout.  ``pair`` is the twisted
    structure, or None when the twist field is not circ-invertible.
    """

    hypotheses: Tuple[HypothesisItem, ...]
    bracket_defect_flat_eps: VectorField
    bracket_defect_flat_inverse: VectorField
    euler_weight_one: Tuple[Tuple[VectorField, ...], ...]
    pair: Optional[DualityPair]
    bracket_convention: str = "[X,Y]^c = X(Y^c) - Y(X^c)"


def duality_verify(structure: FStructure, base: Connection, conn: Connection,
                   epsilon: VectorField) -> DualityVerifyReport:
    """Verify the weight-one Euler property of e for the twisted structure.

    ``base`` is the connection for which the identity is flat; ``conn`` is the
    shifted pencil member whose difference from ``base`` is the structure
    tensor itself.  Hypothesis failures are reported item by item, never
    raised.
    """
    if structure.identity is None:
        raise MissingIdentityError("duality verification needs an identity")
    n = structure.dim
    e = structure.identity
    check = structure.valid_to

    hypotheses = []
    nabla0_e = tuple(covariant_derivative(base, structure.basis(a), e)
                     for a in range(n))
    hypotheses.append(HypothesisItem(
        "identity flat for base connection",
        all(v.vanishes_through(v.valid_to) for v in nabla0_e),
        min(v.valid_to for v in nabla0_e)))
    nabla_eps = tuple(covariant_derivative(conn, structure.basis(a), epsilon)
                      for a in range(n))
    flat_eps = all(v.vanishes_through(v.valid_to) for v in nabla_eps)
    hypotheses.append(HypothesisItem(
        "twist field flat for shifted connection", flat_eps,
        min(v.valid_to for v in nabla_eps)))
    try:
        pair: Optional[DualityPair] = dual_structure(structure, epsilon)
    except NotInvertibleError:
        pair = None
    hypotheses.append(HypothesisItem("twist field circ-invertible at origin",
                                     pair is not None, check))
    distinct = any(not (conn.tensor[a][b][c] - base.tensor[a][b][c])
                   .vanishes_through(check)
                   for a in range(n) for b in range(n) for c in range(n))
    hypotheses.append(HypothesisItem("shifted connection differs from base",
                                     distinct, check))
    if pair is not None:
        nabla_inv = tuple(
            covariant_derivative(conn, structure.basis(a), pair.inverse_used)
            for a in range(n))
        hypotheses.append(HypothesisItem(
            "inverse of twist field flat for shifted connection",
            all(v.vanishes_through(v.valid_to) for v in nabla_inv),
            min(v.valid_to for v in nabla_inv)))

    bracket = lie_bracket(epsilon, e)
    if pair is not None:
        dual = pair.dual
        t = dual.structure.tensor
        euler = tuple(tuple(
            lie_bracket(e, VectorField(t[a][b]))
            - dual.multiply(lie_bracket(e, dual.basis(a)), dual.basis(b))
            - dual.multiply(dual.basis(a), lie_bracket(e, dual.basis(b)))
            - VectorField(t[a][b])
            for b in range(n)) for a in range(n))
    else:
        zero = VectorField.zero(n, structure.order)
        euler = tuple(tuple(zero for _ in range(n)) for _ in range(n))

    return DualityVerifyReport(tuple(hypotheses), bracket - epsilon,
                               bracket + epsilon, euler, pair)


def flat_section_solve(structure: FStructure, base: Connection, lambda0: Scalar,
                       v0: Sequence[Scalar]) -> VectorField:
    """Unique w with w(0) = v0 and (base + lambda0 A) w = 0, degree by degree.

    Each homogeneous layer is obtained by formally integrating the previous
    one; the closedness required by the integration is exactly the flatness of
    the pencil member, so a violation surfaces as an integrability error.
    """
    n = structure.dim
    cap = structure.order
    lam = as_fraction(lambda0)
    conn = shift_base(structure, base, lam)
    valid = min(structure.valid_to + 1, cap)
    w_coeffs: List[Dict[Exponent, Fraction]] = [
        {} if as_fraction(v) == 0 else {(0,) * n: as_fraction(v)}
        for v in v0]
    from .series import NotClosedError
    for degree in range(valid):
        w = VectorField(tuple(TruncatedSeries(n, cap, cap, dict(c))
                              for c in w_coeffs))
        # the degree-k layer of the defining equation integrates to layer k+1
        for c in range(n):
            family = []
            for a in range(n):
                acc = TruncatedSeries.zero(n, cap)
                for b in range(n):
                    acc = acc + w.components[b] * conn.tensor[a][b][c]
                layer = {e: v for e, v in (-acc).coeffs.items()
                         if total_degree(e) == degree}
                family.append(TruncatedSeries(n, cap, cap, layer))
            try:
                g = primitive_of_closed_family(family)
            except NotClosedError as err:
                raise IntegrabilityError(
                    f"pencil member not flat: component {c}, pair {err.pair}, "
                    f"monomial {err.exponent}") from err
            for e, v in g.coeffs.items():
                s = w_coeffs[c].get(e, Fraction(0)) + v
                if s == 0:
                    w_coeffs[c].pop(e, None)
                else:
                    w_coeffs[c][e] = s
    return VectorField(tuple(TruncatedSeries(n, cap, valid, dict(c))
                             for c in w_coeffs))

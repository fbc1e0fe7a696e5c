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
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .fmanifold import solve_series_system
from .correlators import potential_endomorphism, structure_from_b
from .euler import euler_residual
from .geometry import (EndField, HiggsField, Shift, VectorField, base_member,
                       judge, lie_bracket, nabla, torsion)
from .series import (NotClosedError, Scalar, TruncatedSeries,
                     primitive_of_closed_family)


class NotInvertibleError(ValueError):
    """circ-multiplication by the field is singular at the origin."""


class NotFlatSectionError(ValueError):
    pass


class IntegrabilityError(ValueError):
    pass


def circ_inverse(higgs: HiggsField, e: VectorField,
                 v: VectorField) -> VectorField:
    """The unique w with v o w = e, solved order by order."""
    # (v o w)^c = sum_b (L_v)^c_b w^b
    left = higgs.left(v)
    valid = min(left.valid_to, e.valid_to)
    try:
        return VectorField(solve_series_system(left.matrix, e.components,
                                               valid))
    except linalg.SingularSystemError:
        raise NotInvertibleError("system matrix singular at the origin") \
            from None


@dataclass(frozen=True)
class PrimitiveSectionReport:
    b_field: EndField           # gauge B(0) = 0, with nabla_0 B = A
    image_map: VectorField      # the vector field B u
    jacobian_at_0: Tuple[Tuple[Fraction, ...], ...]
    primitive: bool

    @property
    def closedness_residual(self) -> Tuple:
        """d_a B^c_b - d_b B^c_a, the torsion of d_a B^c_b, indexed [a][b][c]."""
        return torsion(structure_from_b(self.b_field))


def primitive_section(higgs: HiggsField,
                      u: VectorField) -> PrimitiveSectionReport:
    """Potential endomorphism B and the candidate chart Bu for a flat section.

    B integrates the structure tensor (``potential_endomorphism``); u must be
    flat for the frame, that is, have constant components.  Primitivity is
    the invertibility of the Jacobian of Bu at the origin, which coincides
    with invertibility of circ-multiplication by u there.
    """
    n = higgs.dim
    if not u.is_constant():
        raise NotFlatSectionError("u must have constant components")
    b_field = potential_endomorphism(higgs)
    image = b_field.apply(u)
    jacobian = tuple(tuple(image.components[c].derivative(a).constant_term
                           for a in range(n)) for c in range(n))
    primitive = linalg.determinant(jacobian) != 0
    return PrimitiveSectionReport(b_field, image, jacobian, primitive)


@dataclass(frozen=True)
class DualityPair:
    inverse_used: VectorField
    dual: HiggsField


def dual_structure(higgs: HiggsField, e: VectorField,
                   epsilon: VectorField) -> DualityPair:
    """The twisted multiplication X * Y = eps^{-1} o X o Y, for the identity
    ``e`` of o; the identity of * is eps.  Each row eps^{-1} o C_ab is formed
    once per distinct row of C, so the dual shares a row wherever C does
    (``HiggsField.map_rows``)."""
    eps_inv = circ_inverse(higgs, e, epsilon)
    left = higgs.left(eps_inv)
    return DualityPair(eps_inv, higgs.map_rows(
        lambda row: left.apply(VectorField(row)).components))


@dataclass(frozen=True)
class HypothesisItem:
    label: str
    holds: bool
    proven_to: int


@dataclass(frozen=True)
class DualityVerifyReport:
    """The hypotheses of the twist by eps, the identity e, eps, and the
    twisted pair, which is None when eps is not circ-invertible.

    The residuals of the Euler property of e are formed on read.
    ``bracket_defect_flat_eps`` is [eps, e] - eps, which vanishes when eps is
    flat for the shifted connection; when its circ-inverse is flat instead,
    [eps, e] + eps vanishes.  ``euler_weight_one`` is the weight-one scaling
    residual of e for the twisted product, indexed [a][b]; it needs the pair.
    """

    hypotheses: Tuple[HypothesisItem, ...]
    identity: VectorField
    epsilon: VectorField
    pair: Optional[DualityPair]

    bracket_convention = "[X,Y]^c = X(Y^c) - Y(X^c)"
    # Exactly one of these two hypotheses can hold, so the twist-hypotheses
    # rule requires their disjunction rather than both.
    TWIST_ALTERNATIVES = ("twist field flat for shifted connection",
                          "inverse of twist field flat for shifted connection")

    @property
    def bracket_defect_flat_eps(self) -> VectorField:
        return lie_bracket(self.epsilon, self.identity) - self.epsilon

    @property
    def euler_weight_one(self) -> Tuple[Tuple[VectorField, ...], ...]:
        return euler_residual(self.pair.dual, self.identity, 1)

    def hypothesis_failures(self) -> List[str]:
        """What the twist-hypotheses rule finds wrong; empty when it holds."""
        failed = [h.label for h in self.hypotheses
                  if not h.holds and h.label not in self.TWIST_ALTERNATIVES]
        if not any(h.holds for h in self.hypotheses
                   if h.label in self.TWIST_ALTERNATIVES):
            failed.append("neither the twist field nor its inverse is flat "
                          "for the shifted connection")
        return failed


def duality_verify(higgs: HiggsField, e: VectorField, lambda0: Fraction,
                   epsilon: VectorField) -> DualityVerifyReport:
    """Verify the weight-one Euler property of the identity e for the
    twisted structure.

    The identity is to be flat for the base member of the pencil that the
    shift ``lambda0`` names (``geometry.base_member``), and the twist for the
    member lambda0 + 1, whose difference from the base is the structure
    tensor itself.  Hypothesis failures are reported item by item, never
    raised.
    """
    shifted = lambda0 + 1

    def flat(label: str, shift: Shift, field: VectorField) -> HypothesisItem:
        verdict = judge(nabla(higgs, shift, field).columns())
        return HypothesisItem(label, verdict.holds, verdict.proven_to)

    hypotheses = [flat("identity flat for base connection",
                       base_member(lambda0), e),
                  flat("twist field flat for shifted connection", shifted,
                       epsilon)]
    try:
        pair: Optional[DualityPair] = dual_structure(higgs, e, epsilon)
    except NotInvertibleError:
        pair = None
    hypotheses.append(HypothesisItem("twist field circ-invertible at origin",
                                     pair is not None, higgs.valid_to))
    difference = judge(higgs.tensor)
    hypotheses.append(HypothesisItem("shifted connection differs from base",
                                     not difference.holds,
                                     difference.proven_to))
    if pair is not None:
        hypotheses.append(flat(
            "inverse of twist field flat for shifted connection", shifted,
            pair.inverse_used))
    return DualityVerifyReport(tuple(hypotheses), e, epsilon, pair)


def flat_section_solve(higgs: HiggsField, lambda0: Scalar,
                       v0: Sequence[Scalar]) -> VectorField:
    """Unique w with w(0) = v0 and (nabla_0 + lambda0 C) w = 0, degree by
    degree.

    The equation is d_a w^c = -lambda0 (R_w)^c_a, so each pass sets w to v0
    plus the primitive of -lambda0 R_w.  Starting from v0 proven to degree
    0, pass k proves one degree more and tests closedness through degree
    k - 1; the lower degrees do not change between passes.  Closedness is
    the flatness of the pencil member, so a violation surfaces as an
    integrability error at its lowest degree.
    """
    n = higgs.dim
    cap = higgs.order
    valid = min(higgs.valid_to + 1, cap)
    w = [TruncatedSeries.constant(n, cap, v, valid_to=0) for v in v0]
    for _ in range(valid):
        r_w = higgs.right(VectorField(tuple(w)).scale(lambda0)).matrix
        for c in range(n):
            try:
                g = primitive_of_closed_family([-r for r in r_w[c]])
            except NotClosedError as err:
                raise IntegrabilityError(
                    f"pencil member not flat: component {c}, pair {err.pair}, "
                    f"monomial {err.exponent}") from err
            w[c] = TruncatedSeries.constant(n, cap, v0[c]) + g
    return VectorField(tuple(c - c.from_degree(valid + 1) for c in w))

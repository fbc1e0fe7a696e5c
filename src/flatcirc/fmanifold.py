"""F-manifold structures: potentials, structure tensors and their residuals.

The central object is :class:`FStructure`, the structure tensor C_{ab}^c with
an optional identity field.  Everything a structure is supposed to satisfy is
exposed as a residual: a tensor of truncated series that vanishes to a stated
degree exactly when the identity in question holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .geometry import (Connection, HiggsField, SeriesTensor4, VectorField,
                       apply_higgs, covariant_derivative, lie_bracket)
from .series import (Exponent, Scalar, TruncatedSeries, as_fraction,
                     primitive_of_closed_family, total_degree)


class InsufficientOrderError(ValueError):
    pass


class NotPotentialError(ValueError):
    """The structure admits no vector potential at the checked degree."""

    def __init__(self, message: str, component: Optional[Tuple[int, ...]] = None):
        self.component = component
        super().__init__(message)


class MissingIdentityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class VectorPotential:
    """Gauge-normalized vector potential: no constant or linear monomials."""

    potential: VectorField

    def __post_init__(self) -> None:
        normalized = tuple(
            TruncatedSeries(c.num_vars, c.cap, c.valid_to,
                            {e: v for e, v in c.coeffs.items() if total_degree(e) >= 2})
            for c in self.potential.components)
        object.__setattr__(self, "potential", VectorField(normalized))


@dataclass(frozen=True, eq=False)
class FStructure:
    """Structure tensor with optional identity field."""

    structure: HiggsField
    identity: Optional[VectorField] = None

    @property
    def dim(self) -> int:
        return self.structure.dim

    @property
    def order(self) -> int:
        return self.structure.tensor[0][0][0].cap

    @property
    def valid_to(self) -> int:
        return self.structure.valid_to

    def multiply(self, x: VectorField, y: VectorField) -> VectorField:
        return apply_higgs(self.structure, x, y)

    def basis(self, axis: int) -> VectorField:
        return VectorField.basis(self.dim, self.order, axis)


def potential_to_structure(potential: VectorPotential,
                           identity_hint: Optional[VectorField] = None) -> FStructure:
    """Structure tensor C_{ab}^c = d_a d_b C^c from a vector potential."""
    vf = potential.potential
    n = vf.dim
    if min(c.valid_to for c in vf.components) < 2:
        raise InsufficientOrderError("potential must be valid to degree >= 2")
    tensor = HiggsField.build(
        n, lambda a, b, c: vf.components[c].derivative(a).derivative(b))
    structure = FStructure(tensor, identity=identity_hint)
    if identity_hint is None:
        found = find_identity(structure).field
        if found is not None:
            structure = FStructure(tensor, identity=found)
    return structure


def structure_to_potential(structure: FStructure) -> VectorPotential:
    """Recover a gauge-normalized potential by double formal integration.

    Requires the structure to be symmetric and closed (R1 = 0) to the checked
    degree; otherwise raises NotPotentialError naming the offending component.
    """
    n = structure.dim
    tensor = structure.structure
    if not tensor.is_symmetric():
        raise NotPotentialError("structure tensor is not symmetric in (a, b)")
    from .series import NotClosedError
    b_matrix: List[List[TruncatedSeries]] = []
    for c in range(n):
        row = []
        for e in range(n):
            family = [tensor.tensor[a][c][e] for a in range(n)]
            try:
                row.append(primitive_of_closed_family(family))
            except NotClosedError as err:
                raise NotPotentialError(
                    f"R1 != 0: component (c={c}, e={e}) is not closed at "
                    f"monomial {err.exponent}", component=(c, e)) from err
        b_matrix.append(row)
    components = []
    for e in range(n):
        family = [b_matrix[c][e] for c in range(n)]
        try:
            components.append(primitive_of_closed_family(family))
        except NotClosedError as err:
            raise NotPotentialError(
                f"second integration fails for component {e} at monomial "
                f"{err.exponent}", component=(e,)) from err
    return VectorPotential(VectorField(tuple(components)))


def five_term_residual(structure: FStructure) -> "Tensor5":
    """Frame residual of the five-term integrability identity, indexed (a,b,c,d,f).

    The five surviving frame terms (even case, all signs +1):
      sum_e C_ab^e d_e C_cd^f - C_cd^e d_e C_ab^f
      + d_c C_ab^e C_ed^f + d_d C_ab^e C_ec^f
      - d_b C_cd^e C_ea^f - d_a C_cd^e C_eb^f
    """
    n = structure.dim
    t = structure.structure.tensor

    def entry(a: int, b: int, c: int, d: int, f: int) -> TruncatedSeries:
        acc = TruncatedSeries.zero(n, structure.order)
        for e in range(n):
            acc = acc + t[a][b][e] * t[c][d][f].derivative(e) \
                - t[c][d][e] * t[a][b][f].derivative(e) \
                + t[a][b][e].derivative(c) * t[e][d][f] \
                + t[a][b][e].derivative(d) * t[e][c][f] \
                - t[c][d][e].derivative(b) * t[e][a][f] \
                - t[c][d][e].derivative(a) * t[e][b][f]
        return acc

    return tuple(tuple(tuple(tuple(tuple(entry(a, b, c, d, f)
                                         for f in range(n)) for d in range(n))
                             for c in range(n)) for b in range(n))
                 for a in range(n))


Tensor5 = Tuple[Tuple[SeriesTensor4, ...], ...]


def p_tensor(structure: FStructure, x: VectorField, z: VectorField,
             w: VectorField) -> VectorField:
    """P_X(Z, W) = [X, Z o W] - [X, Z] o W - Z o [X, W]."""
    return lie_bracket(x, structure.multiply(z, w)) \
        - structure.multiply(lie_bracket(x, z), w) \
        - structure.multiply(z, lie_bracket(x, w))


def d_tensor(structure: FStructure, conn: Connection, x: VectorField,
             y: VectorField, z: VectorField) -> VectorField:
    """D(X, Y, Z) = nabla_X(Y o Z) - nabla_X(Y) o Z - Y o nabla_X(Z)."""
    return covariant_derivative(conn, x, structure.multiply(y, z)) \
        - structure.multiply(covariant_derivative(conn, x, y), z) \
        - structure.multiply(y, covariant_derivative(conn, x, z))


class SingularSystemError(ValueError):
    """A series system has no unique solution at some degree."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"no unique solution at degree {degree}")


def solve_series_system(matrix: Sequence[Sequence[TruncatedSeries]],
                        rhs: Sequence[TruncatedSeries],
                        valid: int) -> Tuple[TruncatedSeries, ...]:
    """Solve sum_j M_ij w_j = r_i for series w_j, degree by degree to ``valid``.

    Each monomial separates into a constant linear system with the matrix
    M(0), which may have more rows than columns; the lower-degree
    coefficients already found feed its right-hand side.  Raises
    SingularSystemError at the first degree whose system is inconsistent or
    rank deficient.
    """
    num_vars = rhs[0].num_vars
    cap = rhs[0].cap
    unknowns = len(matrix[0])
    m0 = [[entry.constant_term for entry in row] for row in matrix]
    coeffs: List[Dict[Exponent, Fraction]] = [dict() for _ in range(unknowns)]
    for degree in range(valid + 1):
        for exponent in _exponents_of_degree(num_vars, degree):
            residual = []
            for row, target in zip(matrix, rhs):
                acc = target.coefficient(exponent)
                for j in range(unknowns):
                    for e1, v1 in coeffs[j].items():
                        e2 = tuple(x - y for x, y in zip(exponent, e1))
                        if e1 == exponent or any(x < 0 for x in e2):
                            continue
                        acc -= v1 * row[j].coefficient(e2)
                residual.append(acc)
            try:
                solution = linalg.solve_overdetermined(m0, residual)
            except (linalg.InconsistentSystem, linalg.UnderdeterminedSystem):
                raise SingularSystemError(degree) from None
            for j in range(unknowns):
                if solution[j] != 0:
                    coeffs[j][exponent] = solution[j]
    return tuple(TruncatedSeries(num_vars, cap, valid, c) for c in coeffs)


def _exponents_of_degree(num_vars: int, degree: int) -> List[Exponent]:
    if num_vars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in _exponents_of_degree(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return sorted(out)


@dataclass(frozen=True)
class IdentityResult:
    field: Optional[VectorField]
    failed_degree: Optional[int] = None


def find_identity(structure: FStructure) -> IdentityResult:
    """Solve e o d_b = d_b degree by degree, or report absence.

    The equation sum_a e^a C_{ab}^c = delta_b^c separates per monomial into a
    constant overdetermined linear system; a singular or inconsistent system
    yields absence with the first bad degree.
    """
    n = structure.dim
    valid = structure.valid_to
    t = structure.structure.tensor
    one = TruncatedSeries.constant(n, structure.order, 1)
    zero = TruncatedSeries.zero(n, structure.order)
    try:
        components = solve_series_system(
            [[t[a][b][c] for a in range(n)] for b in range(n) for c in range(n)],
            [one if b == c else zero for b in range(n) for c in range(n)],
            valid)
    except SingularSystemError as err:
        return IdentityResult(None, failed_degree=err.degree)
    field = VectorField(components)
    # confirm: a consistent per-degree solve can still fail globally
    for b in range(n):
        residual = structure.multiply(field, structure.basis(b)) - structure.basis(b)
        if not residual.vanishes_through(valid):
            return IdentityResult(None, failed_degree=valid)
    return IdentityResult(field)


@dataclass(frozen=True)
class MembershipReport:
    """Residual of the multiplication-compatibility condition for epsilon.

    ``defining`` is the residual of nabla_Y eps = Y o nabla_e eps over the
    frame; membership is its vanishing.
    """

    member: bool
    defining: Tuple[VectorField, ...]
    proven_to: int


def l_membership(structure: FStructure, conn: Connection,
                 epsilon: VectorField) -> MembershipReport:
    if structure.identity is None:
        raise MissingIdentityError("membership test requires an identity field")
    nabla_e_eps = covariant_derivative(conn, structure.identity, epsilon)
    defining = tuple(
        covariant_derivative(conn, structure.basis(a), epsilon)
        - structure.multiply(structure.basis(a), nabla_e_eps)
        for a in range(structure.dim))
    member = all(v.vanishes_through(v.valid_to) for v in defining)
    return MembershipReport(member, defining,
                            min(v.valid_to for v in defining))


@dataclass(frozen=True)
class NablaEEMode:
    kind: str  # "flat" | "eigen" | "other"
    eigenvalue: Optional[Fraction] = None


def nabla_e_e_mode(structure: FStructure, conn: Connection) -> NablaEEMode:
    """Classify nabla_e e as 0, as c*e for a rational c, or as other."""
    if structure.identity is None:
        raise MissingIdentityError("classification requires an identity field")
    e = structure.identity
    w = covariant_derivative(conn, e, e)
    check = w.valid_to
    if w.vanishes_through(check):
        return NablaEEMode("flat", Fraction(0))
    # candidate eigenvalue from the first nonzero matching coefficients
    candidate: Optional[Fraction] = None
    for comp_w, comp_e in zip(w.components, e.components):
        hit = comp_w.first_nonzero()
        if hit is None:
            continue
        denom = comp_e.coefficient(hit[0])
        if denom == 0:
            return NablaEEMode("other")
        candidate = hit[1] / denom
        break
    if candidate is None:
        return NablaEEMode("other")
    if (w - e.scale(candidate)).vanishes_through(check):
        return NablaEEMode("eigen", candidate)
    return NablaEEMode("other")


def shift_base(structure: FStructure, conn: Connection,
               lambda0: Scalar) -> Connection:
    """Move the base point of the pencil: Gamma + lambda0 * C."""
    return conn.shifted(structure.structure, as_fraction(lambda0))

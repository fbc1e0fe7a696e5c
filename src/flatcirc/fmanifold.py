"""F-manifold structures: potentials, structure tensors and their residuals.

A structure is its structure tensor C_{ab}^c, one ``HiggsField``; the
identity field, declared or solved for (``find_identity``), is passed on its
own to the functions that read it.  Everything a structure is supposed to
satisfy is exposed as a residual: a tensor of truncated series that vanishes
to a stated degree exactly when the identity in question holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import linalg
from .geometry import (EndField, HiggsField, SeriesTensor4, Shift,
                       VectorField, apply_higgs, covariant_derivative,
                       iter_tensor, lie_bracket, nabla)
from .series import TruncatedSeries, dot


def potential_to_structure(potential: VectorField) -> HiggsField:
    """Structure tensor C_{ab}^c = d_a d_b C^c from a vector potential.

    A term of degree < 2 of the potential has no second derivative, so the
    gauge of the potential changes no entry of C.

    Each first derivative d_a C^c is taken once, and each second one once
    per pair a <= b, as d_b d_a C^c: the rows C_ab and C_ba are one tuple
    of series.  Lowering one exponent and then another gives the same term
    in either order, so d_b d_a = d_a d_b holds exactly on the stored
    polynomial, at the same cap and ``valid_to``."""
    n, r = potential.dim, range(potential.dim)
    first = [[s.derivative(a) for s in potential.components] for a in r]
    rows = {(a, b): tuple(s.derivative(b) for s in first[a])
            for a in r for b in range(a, n)}
    return HiggsField(tuple(tuple(rows[min(a, b), max(a, b)] for b in r)
                            for a in r))


def five_term_residual(higgs: HiggsField) -> "Tensor5":
    """Frame residual of the five-term integrability identity, indexed (a,b,c,d,f).

    With C_P = d_a o d_b the frame field of the pair P = (a,b), J_P its
    Jacobian and Q = (c,d), the entry of (P,Q) is the field
      X(P,Q) - X(Q,P),  X(P,Q) = J_Q(C_P) + (d_c C_P) o d_d + (d_d C_P) o d_c,
    where d_k C_P is column k of J_P, and the products (d_k C_P) o d_j are
    the columns of ``higgs.left(d_k C_P)``.  Component f of the entry is
    the five surviving frame terms (even case, all signs +1) as six sums:
      sum_e C_ab^e d_e C_cd^f - C_cd^e d_e C_ab^f
      + d_c C_ab^e C_ed^f + d_d C_ab^e C_ec^f
      - d_b C_cd^e C_ea^f - d_a C_cd^e C_eb^f

    The entries are formed over index orbits.  The pair (a,b) is replaced
    by (min, max) when the row C_ab equals C_ba as series (values, cap and
    ``valid_to``), and kept otherwise (``HiggsField.pairs``).  The entry is
    unchanged: X(P,Q) depends on P only through the row C_P, and on Q
    through the row C_Q and symmetrically in (c,d).  The entry of (Q,P) is
    minus the entry of (P,Q).  Each entry is formed in one of two ways.

    From the pencil's R2, when every row is symmetric, every entry of C has
    one cap k and one ``valid_to`` v, and rho = d_a C_b - d_b C_a
    (``HiggsField.rho``) is the zero series.  Then the entry is
      d_c r2[d][a][b][f] - d_a r2[b][c][d][f],
    with r2[x][y][z][f] the entry [f][z] of R2(d_x, d_y) = [C_x, C_y]
    (``HiggsField.r2``), and costs no product once R2 is formed (R2 itself
    costs m n^3, m = n(n+1)/2, on a tensor that has not formed it).  Proof:
    write D_xyz^f = d_x C_yz^f.  A symmetric row makes D symmetric in
    (y, z), and rho = 0 makes it symmetric in (x, y), so D is symmetric in
    all three lower indices.  By the product rule, d_c r2[d][a][b][f] is
      sum_e D_cde^f C_ab^e + C_de^f D_cab^e - D_cae^f C_db^e - C_ae^f D_cdb^e
    and d_a r2[b][c][d][f] is
      sum_e D_abe^f C_cd^e + C_be^f D_acd^e - D_ace^f C_bd^e - C_ce^f D_abd^e.
    In the difference, D_cae^f C_db^e cancels D_ace^f C_bd^e, and the six
    terms left are the six sums above.  The derivatives of R2 are taken
    only for x < y: R2(d_y, d_x) is read as -R2(d_x, d_y), and R2(d_x, d_x)
    as the empty series with rho's cap k and ``valid_to`` v - 1.

    Exactness.  At a degree j < k, a coefficient of a product reads its
    operands at degrees <= j and one of a derivative reads its operand at
    degree j + 1 <= k; the cut at k drops neither, so at every degree below
    k both forms equal the same expression in the stored polynomials C,
    where the product rule holds and rho is zero exactly.  Both forms have
    cap k and ``valid_to`` v - 1 <= k - 1 in every entry, so they agree
    through every ``valid_to``.  They may differ at degree k, where d R2
    holds nothing and the six sums may: ``judge`` reads no coefficient
    above an entry's ``valid_to`` and gives the same verdict and witness,
    but ``==`` on the whole tensor need not hold.

    Otherwise (a table, a row that is not symmetric, entries with different
    caps or ``valid_to``, or rho != 0), X is formed once per pair of
    representatives, and the entries of (P,Q) and (Q,P) replace X(P,Q) and
    X(Q,P) as soon as both rows are formed.  Each entry is the sum of the
    same 6n series products as the six sums written out, so it is exact
    for any tensor: coefficients, cap and ``valid_to`` are those of the
    term-by-term sum.  A tensor with no symmetric row off the diagonal
    keeps every pair and costs 2n^6 products; a symmetric one costs
    n^2 m (m + n^2).

    Either way ``judge`` reads the same values through every ``valid_to``
    and finds the same witness, the lex-minimum of its orbit.
    """
    r = range(higgs.dim)
    pair, reps = higgs.pairs, higgs.representatives
    x = _entries_from_r2(higgs, reps) if _potential_form(higgs) \
        else _entries_over_orbits(higgs, reps)
    return tuple(tuple(tuple(tuple(x[pair[a][b], pair[c][d]]
                                   for d in r) for c in r) for b in r)
                 for a in r)


def _potential_form(higgs: HiggsField) -> bool:
    """Whether the five-term residual may be read off R2: every row is
    symmetric, every entry has one cap and ``valid_to``, and rho is zero."""
    return higgs.symmetric_at_one_cap and all(
        s.first_nonzero() is None for m in higgs.rho.values()
        for _, s in iter_tensor(m))


def _entries_from_r2(higgs: HiggsField, reps):
    """The entries d_c r2[d][a][b][f] - d_a r2[b][c][d][f] per pair of
    representatives (a,b) <= (c,d), and their negatives for (c,d), (a,b)."""
    n = higgs.dim
    r = range(n)
    r2 = higgs.r2
    derivatives = {(w, x, y): r2[x, y].derivative(w).matrix
                   for w in r for x in r for y in range(x + 1, n)}
    empty = higgs.rho[0, 0].matrix[0][0]

    def term(w, x, y, z, f):
        """(sign, s) with d_w r2[x][y][z][f] = sign * s."""
        if x == y:
            return 1, empty
        if x < y:
            return 1, derivatives[w, x, y][f][z]
        return -1, derivatives[w, y, x][f][z]

    def entry(a, b, c, d, f):
        s1, u = term(c, d, a, b, f)
        s2, v = term(a, b, c, d, f)
        if s1 == s2:
            return u - v if s1 > 0 else v - u
        return u + v if s1 > 0 else -(u + v)

    x = {}
    for i, p in enumerate(reps):
        for q in reps[i:]:
            x[p, q] = tuple(entry(*p, *q, f) for f in r)
            x[q, p] = x[p, q] if p == q else tuple(-s for s in x[p, q])
    return x


def _entries_over_orbits(higgs: HiggsField, reps):
    """The entries X(P,Q) - X(Q,P) per pair of representatives."""
    t = higgs.tensor
    field = {(a, b): VectorField(t[a][b]) for a, b in reps}
    jacobian = higgs.jacobians
    x = {}
    for i, p in enumerate(reps):
        # products[k][j] = (d_k C_P) o d_j
        products = [higgs.left(column).columns()
                    for column in jacobian[p].columns()]
        for c, d in reps:
            x[p, (c, d)] = jacobian[c, d].apply(field[p]) \
                + products[c][d] + products[d][c]
        for q in reps[:i + 1]:
            x[p, q], x[q, p] = x[p, q] - x[q, p], x[q, p] - x[p, q]
    return {key: v.components for key, v in x.items()}


Tensor5 = Tuple[Tuple[SeriesTensor4, ...], ...]


def p_tensor(c: HiggsField, x: VectorField, z: VectorField,
             w: VectorField) -> VectorField:
    """P_X(Z, W) = [X, Z o W] - [X, Z] o W - Z o [X, W]."""
    return lie_bracket(x, apply_higgs(c, z, w)) \
        - apply_higgs(c, lie_bracket(x, z), w) \
        - apply_higgs(c, z, lie_bracket(x, w))


def d_tensor(c: HiggsField, shift: Shift, x: VectorField, y: VectorField,
             z: VectorField) -> VectorField:
    """D(X, Y, Z) = nabla_X(Y o Z) - nabla_X(Y) o Z - Y o nabla_X(Z), with
    nabla the pencil member ``shift``."""
    return covariant_derivative(c, shift, x, apply_higgs(c, y, z)) \
        - apply_higgs(c, covariant_derivative(c, shift, x, y), z) \
        - apply_higgs(c, y, covariant_derivative(c, shift, x, z))


def solve_series_system(matrix: Sequence[Sequence[TruncatedSeries]],
                        rhs: Sequence[TruncatedSeries],
                        valid: int) -> Tuple[TruncatedSeries, ...]:
    """Solve sum_j M_ij w_j = r_i for series w_j, degree by degree to ``valid``.

    The residual r - M w vanishes below the degree d being solved.  Its
    coefficients at degree d are the right-hand sides of constant systems
    with the matrix M(0), which may have more rows than columns; their
    solutions form the correction delta, and w += delta, r -= M delta.
    Raises ``linalg.SingularSystemError`` at the first monomial whose system
    is inconsistent or rank deficient.  Only the monomials the residual
    holds are solved, and the constant one always, which is exact: degree 0
    raises when M(0) is rank deficient, and otherwise an absent monomial has
    only the zero solution.  Solved in sorted order, an inconsistent system
    raises at the same monomial as a solve over every monomial would.
    """
    num_vars = rhs[0].num_vars
    cap = rhs[0].cap
    unknowns = len(matrix[0])
    m0 = [[entry.constant_term for entry in row] for row in matrix]
    residual = list(rhs)
    w = [TruncatedSeries.zero(num_vars, cap, valid) for _ in range(unknowns)]
    for degree in range(valid + 1):
        exponents = [(0,) * num_vars] if degree == 0 else sorted(
            {e for r in residual for e, _ in r.items() if sum(e) == degree})
        delta = [TruncatedSeries.zero(num_vars, cap) for _ in range(unknowns)]
        for exponent in exponents:
            solution = linalg.solve_overdetermined(
                m0, [r.coefficient(exponent) for r in residual])
            delta = [d + TruncatedSeries.monomial(num_vars, cap, exponent, x)
                     for d, x in zip(delta, solution)]
        w = [wj + dj for wj, dj in zip(w, delta)]
        residual = [r - dot(row, delta) for r, row in zip(residual, matrix)]
    return tuple(w)


def identity_residual(c: HiggsField, e: VectorField) -> EndField:
    """L_e - 1, the matrix of X -> e o X - X; it vanishes when e is the
    identity of the product."""
    return c.left(e) - EndField.identity(c.dim, c.order)


def find_identity(higgs: HiggsField) -> Optional[VectorField]:
    """Solve e o d_b = d_b degree by degree; None when there is no identity.

    The equation sum_a e^a C_{ab}^c = delta_b^c separates per monomial into a
    constant overdetermined linear system; a singular or inconsistent system
    at some degree means there is no identity.  A solution needs no further
    check: the residual that ``solve_series_system`` ends with is
    delta_b^c - sum_a e^a C_{ab}^c, that is -(L_e - 1) entry by entry, and
    every degree through the ``valid_to`` of C is solved, so
    ``identity_residual`` vanishes through that degree.
    """
    n, t = higgs.dim, higgs.tensor
    one = TruncatedSeries.constant(n, higgs.order, 1)
    zero = TruncatedSeries.zero(n, higgs.order)
    try:
        return VectorField(solve_series_system(
            [[t[a][b][c] for a in range(n)] for b in range(n) for c in range(n)],
            [one if b == c else zero for b in range(n) for c in range(n)],
            higgs.valid_to))
    except linalg.SingularSystemError:
        return None


def l_membership(c: HiggsField, e: VectorField, shift: Shift,
                 epsilon: VectorField) -> Tuple[VectorField, ...]:
    """Residual of nabla_Y eps = Y o nabla_e eps over the frame, for the
    identity ``e`` and the pencil member ``shift``: the columns of
    nabla eps - R_w with w = nabla_e eps.  ``epsilon`` satisfies the
    multiplication-compatibility condition when the residual vanishes.
    """
    nabla_eps = nabla(c, shift, epsilon)
    return (nabla_eps - c.right(nabla_eps.apply(e))).columns()


@dataclass(frozen=True)
class NablaEEMode:
    kind: str  # "flat" | "eigen" | "other"
    eigenvalue: Optional[Fraction] = None


def nabla_e_e_mode(e: VectorField, w: VectorField) -> NablaEEMode:
    """Classify w = nabla_e e as 0, as c*e for a rational c, or as other."""
    check = w.valid_to
    if w.vanishes_through(check):
        return NablaEEMode("flat", Fraction(0))
    # candidate eigenvalue from the first term of the first component of w
    # that does not vanish through its degree; w does not, so one exists
    for comp_w, comp_e in zip(w.components, e.components):
        if not comp_w.vanishes_through(check):
            break
    hit = comp_w.first_nonzero()
    denom = comp_e.coefficient(hit[0])
    if denom == 0:
        return NablaEEMode("other")
    candidate = hit[1] / denom
    if (w - e.scale(candidate)).vanishes_through(check):
        return NablaEEMode("eigen", candidate)
    return NablaEEMode("other")


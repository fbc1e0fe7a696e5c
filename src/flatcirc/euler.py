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

  H_0 = R_E L_{g_0}
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
D = Jacobian(E) and E(C_a) differentiates each entry of C_a along E.  Where
C is symmetric, L_e = 1, nabla_e e = 0 and the member is None, the flatness
residual is a contraction of R2, rho and the scaling-weight residual
(``flatness_from_residuals``), with no product of H and C.

The geometric inverse stops at its first fixed point: once
g_{k+1} = -g_k o e1 equals g_k in storage, every later g is that object
(from k = 1 where nabla_e e = 0, since then g_1 = g_2 = ... = 0).  Every
step above reads only the storage of its operands, so a step whose operands
are the very objects of the step before gives the same value: each L_{g_k},
H_k, nabla_{g_k} E, [H_k, C_a], d_a H_{k-1} and coefficient of the
residuals is formed once per run of identical operands (``map_runs``), and
the tail repeats one object.  Past the first stationary power, a higher
mu-order forms nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple, TypeVar

from .geometry import EndField, HiggsField, Shift, VectorField, judge, nabla
from .series import Scalar, TruncatedSeries, as_fraction, dot


T = TypeVar("T")


def map_runs(f: Callable[..., T], *seqs: Sequence) -> List[T]:
    """``[f(*args) for args in zip(*seqs)]``, with f called once per run of
    steps whose arguments are the same objects (``is``) as at the step
    before; the rest of the run repeats the run's first value.  Exact for
    every f here, which reads only the storage of its arguments."""
    out: List[T] = []
    last: tuple = ()
    for args in zip(*seqs):
        if not out or any(a is not b for a, b in zip(args, last)):
            value, last = f(*args), args
        out.append(value)
    return out


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
    the columns of E(C_a) + [C_a, D] + L_{d_a E} - weight C_a.

    The entries E(C_ab^f) = sum_x E^x d_x C_ab^f are formed once per
    distinct row (``HiggsField.map_rows``): a symmetric C reads the row C_ab
    for both slices a and b."""
    d = EndField.jacobian(e_field)
    along = c.map_rows(lambda row: tuple(e_field.apply(s) for s in row))
    residual = []
    for a, d_a_e in enumerate(d.columns()):
        c_a = c.slice(a)
        p_e = along.slice(a) + c_a.commutator(d) + c.left(d_a_e)
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
    """Coefficients g_k = (-1)^k e o e1^{ok} of (e + mu e1)^{-1}, k <= mu_cap.

    Each g_k is g_{k-1} mapped by g -> -R_{e1} g.  That map reads only the
    storage of g, so it maps a fixed point to itself: once a step gives
    the series of the step before (``==``), which is the case from k = 2
    on where e1 = nabla_e e has no term, the tail is stationary, and that
    one object stands for every later power."""
    r_e1 = c.right(e1)
    coeffs = [e]
    while len(coeffs) <= mu_cap:
        step = -r_e1.apply(coeffs[-1])
        if step == coeffs[-1]:
            return tuple(coeffs + [coeffs[-1]] * (mu_cap + 1 - len(coeffs)))
        coeffs.append(step)
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
    left = map_runs(c.left, g)
    h = [r_e.compose(left[0])]
    h += map_runs(lambda l_k, l_before: r_e.compose(l_k)
                  + j_minus_one.compose(l_before), left[1:], left[:-1])
    return tuple(h)


def e_equation_residual(e_field: VectorField, c: HiggsField,
                        shift: Shift, e1: VectorField,
                        g: Tuple[VectorField, ...]) -> Tuple[VectorField, ...]:
    """Residual of (e + mu e1) o nabla_g E - e1 o E = e, where e = g_0.

    One vector field per power of mu.
    """
    e = g[0]
    nabla_e_field = nabla(c, shift, e_field)
    along = map_runs(nabla_e_field.apply, g)
    l_e = c.left(e)
    l_e1 = c.left(e1)
    coeffs = [l_e.apply(along[0]) - l_e1.apply(e_field) - e]
    coeffs += map_runs(lambda a_k, a_before: l_e.apply(a_k)
                       + l_e1.apply(a_before), along[1:], along[:-1])
    return tuple(coeffs)


def full_flatness_residual(h: Tuple[EndField, ...], c: HiggsField,
                           shift: Shift) -> Tuple[Tuple[EndField, ...], ...]:
    """Check H(X o Y) = X o H(Y) + mu (nabla_X H(Y) - X o Y - H(nabla_X Y)).

    Indexed [a][k]: the coefficient of mu^k at X = d_a, as the matrix
    whose column b is the residual at Y = d_b.  The commutator [H_k, C_a] is
    formed once and serves as the lambda term of the power k + 1 as well;
    over a stationary tail of H every entry repeats one object.  Each entry
    up to its ``valid_to`` reads H and C only up to theirs, so ``check``
    and ``extend`` hand over both cut to their proven degrees: the same
    entries through ``valid_to``, at a lower cap.
    """
    def entry(commutator: EndField, d_a_h: EndField,
              before: EndField) -> EndField:
        r = commutator - d_a_h
        return r if shift is None else r + before.scale(shift)

    def row(a: int) -> Tuple[EndField, ...]:
        c_a = c.slice(a)
        commutators = map_runs(lambda h_k: h_k.commutator(c_a), h)
        derivatives = map_runs(lambda h_k: h_k.derivative(a), h[:-1])
        out = [commutators[0]] + map_runs(entry, commutators[1:], derivatives,
                                          commutators[:-1])
        if len(out) > 1:
            out[1] = out[1] + c_a
        return tuple(out)

    return tuple(row(a) for a in range(c.dim))


def flatness_from_residuals(c: HiggsField, e_field: VectorField,
                            weight: Scalar,
                            residual: Tuple[Tuple[VectorField, ...], ...],
                            mu_order: int
                            ) -> Tuple[Tuple[EndField, ...], ...]:
    """``full_flatness_residual`` read off R2, rho and the scaling-weight
    residual, with no product of H and C.

    ``residual`` is ``euler_residual(c, e_field, weight)``, so the matrix
    P_a with column b ``residual[a][b]`` is E(C_a) + [C_a, D] + L_{d_a E}
    - w C_a, with D = Jacobian(E) and w = ``weight``.  Write
    K(E)_a = sum_b E^b [C_b, C_a], which is R2 contracted with E
    (``HiggsField.r2``), and rho(x, a) = d_x C_a - d_a C_x
    (``HiggsField.rho``).  The entries, indexed [a][k] for k <= mu_order,
    are
      flatness_0(a) = K(E)_a
      flatness_1(a) = sum_x E^x rho(x, a) - w C_a - P_a + C_a
      flatness_2(a) = -d_a (D - 1)
      flatness_k(a) = 0, the empty series at ``valid_to`` v - 1   (k >= 3)
    where every entry of C has the one ``valid_to`` v and 1 is the identity
    matrix at cap v.  The caller ensures the hypotheses under which these
    equal the entries of ``full_flatness_residual`` through each entry's
    ``valid_to``, with the same ``valid_to``:
      (a) the member is None, the frame's flat nabla_0;
      (b) e1 = nabla_e e has no term;
      (c) every row of C is symmetric, and every entry has one cap and the
          one ``valid_to`` v (``HiggsField.symmetric_at_one_cap``);
      (d) I_e = L_e - 1 vanishes through its ``valid_to`` (identity-exists
          holds);
      (e) e and E are proven beyond C: their ``valid_to`` exceeds v.

    Proof.  By (b), g_k = (-1)^k e o e1^{ok} has no term for k >= 1.  In
    ``h_from_e`` with the member None, H_0 = R_E + R_E I_e,
    H_1 = R_E L_{g_1} + (D - 1) L_e and H_k = R_E L_{g_k}
    + (D - 1) L_{g_{k-1}} for k >= 2.  Through its ``valid_to`` a product
    reads its factors only through theirs, so by (d) and L_e = 1 + I_e:
    H_0 = R_E, H_1 = D - 1 and H_k = 0 for k >= 2.  By (c) R_E = L_E, and
    L_v = sum_b v^b C_b is linear in v.  Then, with [H_k, C_a] -
    d_a H_{k-1} + delta_{k1} C_a the entry of ``full_flatness_residual``:
      k = 0: [L_E, C_a] = sum_b E^b [C_b, C_a] = K(E)_a.
      k = 1: [D - 1, C_a] - d_a L_E + C_a.  By the product rule
             d_a L_E = L_{d_a E} + sum_x E^x d_a C_x, and the definition of
             P_a gives [D, C_a] = sum_x E^x d_x C_a + L_{d_a E} - w C_a - P_a.
             The difference is sum_x E^x (d_x C_a - d_a C_x) - w C_a - P_a
             + C_a.
      k = 2: [0, C_a] - d_a (D - 1).
      k >= 3: [0, C_a] - d_a 0 = 0.
    Every step is an identity of the stored polynomials at each degree the
    entry proves: a coefficient at degree j reads its operands through
    degree j, or j + 1 under a derivative, and those are within their
    ``valid_to``.
    The ``valid_to``: a product, sum or derivative takes the least
    ``valid_to`` of its operands, a derivative one less.  In
    ``full_flatness_residual`` the entries fold C (v), E and e (both above
    v by (e)) and their first derivatives into H_0 and H_1; so the entry
    at k = 0 has v, and every entry at k >= 1 has v - 1, since it holds
    d_a H_{k-1}, and H_{k-1} folds C.  Here K(E)_a is the least of E and R2
    (v); flatness_1 of rho (v - 1), C_a (v) and P_a (v - 1, since P_a
    holds E(C_a) and L_{d_a E}); flatness_2 is a derivative of D - 1, whose
    entries are at least v since 1 is at v and D is above v - 1 by (e);
    flatness_k is v - 1 by construction.  Equal values and ``valid_to``
    give ``judge`` the same verdict and witness.  The pairs of R2 and rho
    are stored for x <= y; [C_b, C_a] = -R2(d_a, d_b) and
    rho(x, a) = -rho(d_a, d_x) for x > a, so E^x enters with its sign.
    """
    n, v = c.dim, c.valid_to
    r = range(n)
    r2, rho = c.r2, c.rho
    minus_e = [-s for s in e_field.components]
    d_minus_one = EndField.jacobian(e_field) - EndField.identity(n, v)
    zero = TruncatedSeries.zero(n, v, v - 1)
    empty = EndField(tuple(tuple(zero for _ in r) for _ in r))

    def contract(a: int, table) -> EndField:
        """sum_x E^x M(x, a) for an antisymmetric M stored as
        ``table[p, q]``, p <= q."""
        signed = [e_field.components[x] if x <= a else minus_e[x] for x in r]
        pairs = [(min(a, x), max(a, x)) for x in r]
        return EndField(tuple(tuple(
            dot(signed, [table[p].matrix[f][d] for p in pairs]) for d in r)
            for f in r))

    def row(a: int) -> Tuple[EndField, ...]:
        out = [contract(a, r2)]
        if mu_order >= 1:
            p_a = EndField(tuple(zip(*(col.components for col in residual[a]))))
            out.append(contract(a, rho) + c.slice(a).scale(1 - weight) - p_a)
        if mu_order >= 2:
            out.append(-d_minus_one.derivative(a))
        return tuple(out + [empty] * (mu_order - 2))

    return tuple(row(a) for a in r)

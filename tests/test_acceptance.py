"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  All residual checks are exact (rational arithmetic);
runtime bounds are asserted where a criterion carries one."""

import json
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from flatcirc.cli import EXIT_CHECK_FAILED, EXIT_OK, main as cli_main
from flatcirc.correlators import (b_from_correlators, correlators_from_b,
                                  master_equation_residual, structure_from_b)
from flatcirc.duality import (circ_inverse, dual_structure, duality_verify,
                              flat_section_solve, primitive_section)
from flatcirc.euler import (CertificationError, MuSeriesVF, certify_euler,
                            e_equation_residual, flat_compat,
                            full_flatness_residual, h_from_e)
from flatcirc.fmanifold import (VectorPotential, d_tensor, five_term_residual,
                                l_membership, p_tensor,
                                potential_to_structure, shift_base)
from flatcirc.geometry import (Connection, VectorField, covariant_derivative,
                               lie_bracket, pencil_curvature_split,
                               tensor_vanishes_through, torsion)
from flatcirc.models import load_model
from flatcirc.permutofan import (concat_product, embed_product_permutation,
                                 enumerate_partitions, sn_action, verify_fan)
from flatcirc.series import TruncatedSeries, exp_series


def qc_instance(order=8):
    return load_model("qc-p1").instantiate(order)


def test_criterion_01_reference_model_residuals(criterion):
    start = time.monotonic()
    s = qc_instance(8).structure
    flat = Connection.zero(2, 8)
    pencil = flat.shifted(s.structure, 1)
    torsion_ok = tensor_vanishes_through(torsion(pencil), 6)
    r1, r2 = pencil_curvature_split(s.structure, flat)
    curvature_ok = (tensor_vanishes_through(r1, 6)
                    and tensor_vanishes_through(r2, 6))
    five_term_ok = tensor_vanishes_through(five_term_residual(s), 5)
    elapsed = time.monotonic() - start
    criterion.record(
        1, "reference model: torsion, pencil curvature, integrability "
           f"residuals vanish ({elapsed:.2f}s)",
        torsion_ok and curvature_ok and five_term_ok and elapsed < 5.0)


def _random_potential(rng, n, cap):
    """Dense random polynomial potential of degree <= 4, quartics included."""
    exps = [e for e in _exponents_up_to(n, 4) if sum(e) >= 2]
    comps = []
    for _ in range(n):
        coeffs = {e: Fraction(rng.randint(-3, 3)) for e in exps}
        comps.append(TruncatedSeries(n, cap, cap,
                                     {e: v for e, v in coeffs.items() if v}))
    return VectorPotential(VectorField(tuple(comps)))


def _compatible_potential(rng, n, cap):
    """A structured potential known to give an integrable product."""
    x0 = TruncatedSeries.variable(n, cap, 0)
    x1 = TruncatedSeries.variable(n, cap, 1)
    half = Fraction(1, 2)
    f = sum((TruncatedSeries.monomial(n, cap, _unit(n, 1, k),
                                      Fraction(rng.randint(-3, 3)))
             for k in range(2, 5)),
            TruncatedSeries.zero(n, cap))
    comps = [x0 * x0 * half + f, x0 * x1]
    for j in range(2, n):
        xj = TruncatedSeries.variable(n, cap, j)
        comps.append(xj * xj * half
                     + TruncatedSeries.monomial(
                         n, cap, _unit(n, j, 4), Fraction(rng.randint(-3, 3))))
    return VectorPotential(VectorField(tuple(comps)))


def _unit(n, axis, power):
    e = [0] * n
    e[axis] = power
    return tuple(e)


def _exponents_up_to(n, degree):
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(degree + 1)]
    return [e for e in out if sum(e) <= degree]


def test_criterion_02_integrability_iff_pencil_flat(criterion):
    start = time.monotonic()
    rng = random.Random(20260826)
    all_ok = True
    cases = 0
    for n in (2, 3):
        for k in range(10):
            cap = 6
            maker = _compatible_potential if k % 2 else _random_potential
            potential = maker(rng, n, cap)
            s = potential_to_structure(potential)
            flat = Connection.zero(n, cap)
            r1, r2 = pencil_curvature_split(s.structure, flat)
            depth = 3
            pencil_flat = (tensor_vanishes_through(r1, depth)
                           and tensor_vanishes_through(r2, depth))
            five_term_zero = tensor_vanishes_through(five_term_residual(s), depth)
            all_ok = all_ok and (pencil_flat == five_term_zero)
            cases += 1
    elapsed = time.monotonic() - start
    criterion.record(
        2, f"{cases} random potentials: integrability residual vanishes "
           f"iff both pencil curvatures vanish ({elapsed:.2f}s)",
        all_ok and cases == 20 and elapsed < 60.0)


def test_criterion_03_d_tensor_total_symmetry(criterion):
    s = qc_instance(6).structure
    conn = Connection.zero(2, 6)
    rng = random.Random(3)
    ok = True
    for _ in range(10):
        fields = []
        for _ in range(3):
            comps = []
            for _ in range(2):
                coeffs = {e: Fraction(rng.randint(-2, 2))
                          for e in _exponents_up_to(2, 2)}
                comps.append(TruncatedSeries(
                    2, 6, 6, {e: v for e, v in coeffs.items() if v}))
            fields.append(VectorField(tuple(comps)))
        base = d_tensor(s, conn, *fields)
        for perm in permutations(fields):
            diff = d_tensor(s, conn, *perm) - base
            ok = ok and diff.vanishes_through(diff.valid_to)
    criterion.record(
        3, "compatibility tensor totally symmetric on 10 random field "
           "triples", ok)


def test_criterion_04_membership_chain(criterion):
    inst = load_model("shifted-identity").instantiate(8)
    s = inst.structure
    flat = Connection.zero(2, 8)
    conn = shift_base(s, flat, inst.lambda0)
    e = s.identity
    candidates = [e]
    for axis in range(2):
        candidates.append(
            flat_section_solve(s, flat, inst.lambda0,
                               [1 if a == axis else 0 for a in range(2)]))
    w = covariant_derivative(conn, e, e)
    candidates.append(w)
    candidates.append(covariant_derivative(conn, e, w))
    ok = all(l_membership(s, conn, v).member for v in candidates)
    # ad e is a derivation of the product: P_e(d_y, d_z) = 0 over the frame
    derivation = [p_tensor(s, e, s.basis(y), s.basis(z))
                  for y in range(2) for z in range(2)]
    derivation_ok = all(v.vanishes_through(v.valid_to) for v in derivation)
    criterion.record(
        4, "shifted-identity model: identity, flat fields, and covariant "
           "derivative chain are all members with zero derivation residual",
        ok and derivation_ok)


def test_criterion_05_scaling_certification(criterion):
    start = time.monotonic()
    inst = qc_instance(8)
    s = inst.structure
    flat = Connection.zero(2, 8)
    e_field, weight = inst.euler
    certified = True
    try:
        certify_euler(s, e_field, weight)
    except CertificationError:
        certified = False
    compat = flat_compat(e_field)
    e = s.identity
    e1 = covariant_derivative(flat, e, e)
    e_series = MuSeriesVF.constant(e_field, 4)
    h = h_from_e(e_series, s, flat, e, e1)
    report = full_flatness_residual(h, s, flat)
    flatness_ok = report.full_vanishes() and report.proven_to() >= 5
    x0 = TruncatedSeries.variable(2, 8, 0)
    x0sq = x0 * x0
    perturbed = VectorField((e_field.components[0] + x0sq,
                             e_field.components[1]))
    with pytest.raises(CertificationError):
        certify_euler(s, perturbed, weight)
    elapsed = time.monotonic() - start
    criterion.record(
        5, "scaling field certified weight-1 compatible, extension flat to "
           f"x-degree {report.proven_to()}, perturbation rejected "
           f"({elapsed:.2f}s)",
        certified and compat and flatness_ok and elapsed < 10.0)


def test_criterion_06_reconstruction_from_identity_value(criterion):
    ok = True
    for name in ("one-dim", "qc-p1"):
        inst = load_model(name).instantiate(8)
        s = inst.structure
        n = s.dim
        flat = Connection.zero(n, 8)
        e = s.identity
        e1 = covariant_derivative(flat, e, e)
        e_series = MuSeriesVF.constant(inst.euler[0], 4)
        equation = e_equation_residual(e_series, s, flat, e, e1)
        ok = ok and equation.vanishes_through(equation.proven_to())
        h = h_from_e(e_series, s, flat, e, e1)
        report = full_flatness_residual(h, s, flat)
        ok = ok and report.full_vanishes()
        on_e = h.apply_plain(e, 4) - e_series
        ok = ok and on_e.vanishes_through(on_e.proven_to())
    criterion.record(
        6, "one-dim and reference models: reconstructed extension is flat "
           "and restores the scaling field on the identity", ok)


def test_criterion_07_twist_behavior(criterion):
    inst = qc_instance(8)
    s = inst.structure
    n = 2
    x1 = TruncatedSeries.variable(n, 8, 1)
    eps = VectorField((TruncatedSeries.zero(n, 8), exp_series(-x1)))
    pair = dual_structure(s, eps)
    dual = pair.dual
    ok = True
    # commutativity and associativity of the twisted product
    for a in range(n):
        for b in range(n):
            for c in range(n):
                diff = (dual.structure.tensor[a][b][c]
                        - dual.structure.tensor[b][a][c])
                ok = ok and diff.vanishes_through(5)
    _, r2 = pencil_curvature_split(dual.structure, Connection.zero(n, 8))
    ok = ok and tensor_vanishes_through(r2, 5)
    # twist field is the identity of the twisted product
    for axis in range(n):
        diff = dual.multiply(eps, s.basis(axis)) - s.basis(axis)
        ok = ok and diff.vanishes_through(5)
    # the inverse of the old identity bridges back to the original product
    e_star_inv = circ_inverse(dual, s.identity)
    for a in range(n):
        for b in range(n):
            bridged = dual.multiply(
                e_star_inv, dual.multiply(s.basis(a), s.basis(b)))
            diff = bridged - s.multiply(s.basis(a), s.basis(b))
            ok = ok and diff.vanishes_through(5)
    # documented divergence: this twist field is not covariantly constant
    # for any member of the pencil, and the twisted product fails the
    # five-term integrability identity even though it is associative
    ok = ok and not tensor_vanishes_through(five_term_residual(dual), 5)
    # one-dimensional model: both bracket conventions for the twist field
    one = load_model("one-dim").instantiate(8)
    s1 = one.structure
    flat1 = Connection.zero(1, 8)
    verify = duality_verify(s1, flat1, shift_base(s1, flat1, 1), one.epsilon)
    ok = ok and all(v.vanishes_through(v.valid_to)
                    for v in verify.bracket_defect_flat_eps.components)
    ok = ok and all(v.vanishes_through(v.valid_to)
                    for row in verify.euler_weight_one for v in row)
    # variant whose inverse (not the field itself) is flat: bracket flips sign
    x0 = TruncatedSeries.variable(1, 8, 0)
    eps_tilde = VectorField((exp_series(x0),))
    flipped = lie_bracket(eps_tilde, s1.identity) + eps_tilde
    ok = ok and flipped.vanishes_through(flipped.valid_to)
    criterion.record(
        7, "twist products: identity/bridging/associativity verified, "
           "integrability loss and bracket sign conventions as documented",
        ok)


def test_criterion_08_primitive_sections(criterion):
    inst = qc_instance(8)
    s = inst.structure
    flat = Connection.zero(2, 8)
    section = primitive_section(s, flat, s.identity)
    expected = VectorField((TruncatedSeries.variable(2, 8, 0),
                            TruncatedSeries.variable(2, 8, 1)))
    diff = section.image_map - expected
    image_ok = diff.vanishes_through(8)
    closed_ok = all(v.vanishes_through(v.valid_to)
                    for plane in section.closedness_residual
                    for row in plane for v in row)
    ok = image_ok and closed_ok and section.primitive
    nil = load_model("nilpotent").instantiate(8)
    nil_section = primitive_section(nil.structure, flat,
                                    nil.structure.basis(1))
    ok = ok and not nil_section.primitive
    criterion.record(
        8, "potential chart of the identity is the coordinate map and is "
           "primitive; nilpotent direction is not primitive", ok)


def test_criterion_09_fan_verification(criterion):
    start = time.monotonic()
    import math
    ok = True
    for n, cones in ((1, 1), (2, 3), (3, 13), (4, 75)):
        report = verify_fan(n)
        ok = (ok and report.all_pass and report.cone_count == cones
              and report.ray_count == 2 ** n - 2
              and report.max_cone_count == math.factorial(n))
    # concatenation associativity, exhaustively over small total sizes
    for sizes in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2),
                  (1, 2, 3), (3, 2, 1), (1, 1, 4), (4, 1, 1), (2, 2, 1)):
        for a in enumerate_partitions(sizes[0]):
            for b in enumerate_partitions(sizes[1]):
                for c in enumerate_partitions(sizes[2]):
                    ok = ok and (concat_product(concat_product(a, b), c)
                                 == concat_product(a, concat_product(b, c)))
    # equivariance of concatenation under the product of symmetric groups
    for m, n2 in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1),
                  (2, 3), (3, 2), (1, 4), (4, 1), (3, 3), (2, 4),
                  (4, 2), (1, 5), (5, 1)):
        for t1 in enumerate_partitions(m):
            for t2 in enumerate_partitions(n2):
                for p1 in permutations(range(1, m + 1)):
                    for p2 in permutations(range(1, n2 + 1)):
                        lhs = concat_product(sn_action(list(p1), t1),
                                             sn_action(list(p2), t2))
                        rhs = sn_action(embed_product_permutation(p1, p2),
                                        concat_product(t1, t2))
                        ok = ok and lhs == rhs
    elapsed = time.monotonic() - start
    criterion.record(
        9, "fan counts, unimodularity and completeness for sizes 1-4; "
           "concatenation associative and equivariant exhaustively "
           f"({elapsed:.2f}s)",
        ok and elapsed < 30.0)


def test_criterion_10_correlator_roundtrip(criterion):
    start = time.monotonic()
    inst = qc_instance(6)
    s = inst.structure
    flat = Connection.zero(2, 6)
    b = primitive_section(s, flat, s.identity).b_field
    family = correlators_from_b(b)
    b2 = b_from_correlators(family)
    ok = all((b.matrix[i][j] - b2.matrix[i][j]).vanishes_through(6)
             for i in range(2) for j in range(2))
    for end in master_equation_residual(b).values():
        ok = ok and all(v.vanishes_through(5)
                        for row in end.matrix for v in row)
    rebuilt = structure_from_b(b)
    ok = ok and all(
        (rebuilt.tensor[a][bb][c] - s.structure.tensor[a][bb][c])
        .vanishes_through(5)
        for a in range(2) for bb in range(2) for c in range(2))
    elapsed = time.monotonic() - start
    criterion.record(
        10, "correlator family roundtrips exactly, satisfies the master "
            f"equation, and rebuilds the structure tensor ({elapsed:.2f}s)",
        ok and elapsed < 10.0)


def test_criterion_11_cli_contract(criterion, capfd, tmp_path):
    ok = True
    for name in ("one-dim", "qc-p1", "nilpotent", "shifted-identity"):
        code = cli_main(["check", name, "--order", "6"])
        capfd.readouterr()
        ok = ok and code == EXIT_OK
    code = cli_main(["check", "broken-assoc", "--order", "6",
                     "--format", "json"])
    out = capfd.readouterr().out
    ok = ok and code == EXIT_CHECK_FAILED
    obj = json.loads(out)
    failing = [r for r in obj["checks"] if r["status"] == "fail"]
    ok = ok and any(r.get("firstOffending", {}).get("monomial")
                    for r in failing)
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        cli_main(["check", "qc-p1", "--order", "6", "--format", "json",
                  "--report", str(path)])
        capfd.readouterr()
    ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    criterion.record(
        11, "command line: corpus models pass, broken model fails naming "
            "the offending monomial, reports are byte-identical", ok)

"""Check-suite orchestration with deterministic, serializable reports.

Every check produces a record with a stable identifier, a status, the degree
to which the claim is proven, and (on failure) the first offending tensor
entry and monomial.  Failing checks never abort the suite; structural
impossibilities (a check that cannot even be stated for the model) are
reported as skips with a reason.

This module is also the one evaluation path that the ``extend`` command
shares with the suite: the mu-extension is formed here and nowhere else,
from C that each command cuts once to its proven degree (``cut_to_proven``).
The structure is its tensor C (``geometry.HiggsField``), and its identity
e, when the instance has one, is passed on its own to the residuals that
read it; whether there is an identity is decided here and in ``cli`` only.
Every connection is a member of the pencil through C, named by its shift
(``geometry.Shift``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import duality as duality_mod
from . import euler as euler_mod
from .fmanifold import (five_term_residual, identity_residual, l_membership,
                        nabla_e_e_mode)
from .geometry import (EndField, FlatnessError, HiggsField, Shift,
                       VectorField, base_member, covariant_derivative, judge,
                       pencil_curvature_split, torsion)
from .models import ModelInstance, json_text

REPORT_SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
INFO = "info"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    proven_to: Optional[int] = None
    detail: str = ""
    offending: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], Fraction]] = None

    def to_json_obj(self) -> dict:
        obj: dict = {"id": self.check_id, "status": self.status}
        if self.proven_to is not None:
            obj["provenTo"] = self.proven_to
        if self.detail:
            obj["detail"] = self.detail
        if self.offending is not None:
            index, exponent, value = self.offending
            obj["firstOffending"] = {
                "entry": list(index),
                "monomial": list(exponent),
                "value": str(value),
            }
        return obj


@dataclass(frozen=True)
class SuiteReport:
    model: str
    order: int
    mu_order: int
    lambda0: Fraction
    results: Tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def to_json_obj(self) -> dict:
        return {
            "schemaVersion": REPORT_SCHEMA_VERSION,
            "model": self.model,
            "order": self.order,
            "muOrder": self.mu_order,
            "lambda0": str(self.lambda0),
            "allPass": self.all_pass,
            "checks": [r.to_json_obj() for r in self.results],
        }

    def to_json(self) -> str:
        return json_text(self.to_json_obj())

    def to_text(self) -> str:
        lines = [f"model {self.model} order {self.order} mu-order "
                 f"{self.mu_order} lambda0 {self.lambda0}"]
        for r in self.results:
            line = f"  [{r.status:>4}] {r.check_id}"
            if r.proven_to is not None:
                line += f" (to degree {r.proven_to})"
            if r.detail:
                line += f": {r.detail}"
            if r.offending is not None:
                index, exponent, value = r.offending
                line += (f"; first offending entry {list(index)} monomial "
                         f"{list(exponent)} value {value}")
            lines.append(line)
        lines.append("result: " + ("PASS" if self.all_pass else "FAIL"))
        return "\n".join(lines) + "\n"


def _tensor_check(check_id: str, tensor, detail: str = "") -> CheckResult:
    verdict = judge(tensor)
    return CheckResult(check_id, PASS if verdict.holds else FAIL,
                       verdict.proven_to, detail, verdict.offending)


@dataclass(frozen=True)
class Extension:
    """The mu-extension built from a scaling field E and the identity e.

    ``equation`` is the residual of the reconstruction equation (one vector
    field per power of mu), ``h`` the operator H reconstructed from E (one
    matrix per power of mu, each entry cut to its proven degree), and
    ``flatness`` the residual of the extended connection's flatness, indexed
    [a][k] as in ``euler.full_flatness_residual``.  ``h`` is None where
    ``flatness`` is read off the suite's residuals (``evaluate_extension``):
    there nothing reads H, and it is not formed.
    """

    equation: Tuple[VectorField, ...]
    h: Optional[Tuple[EndField, ...]]
    flatness: Tuple[Tuple[EndField, ...], ...]


# A scaling weight and the scaling-weight residual at it, indexed [a][b]
Scaling = Tuple[Fraction, Tuple[Tuple[VectorField, ...], ...]]


def evaluate_extension(structure: HiggsField, e: VectorField,
                       lambda0: Fraction, e_field: VectorField, mu_order: int,
                       e1: Optional[VectorField] = None,
                       scaling: Optional[Scaling] = None) -> Extension:
    """Build and verify the mu-extension of the structure with identity
    ``e`` for the base shift ``lambda0``.

    Hand it C cut to its proven degree (``cut_to_proven``).  From that one
    C are formed ``e1`` = nabla_e e for the base member, when not given,
    ``equation`` and ``h``, each H_k entry cut to its own ``valid_to``:
    that H is what ``flatness`` is formed from and what ``extend`` prints.
    Any C gives the same verdict: a coefficient of a series up to its
    ``valid_to`` reads its operands only up to theirs, and products, sums
    and derivatives take the least ``valid_to`` of their operands, so a cut
    changes no ``valid_to`` and no coefficient through it, hence no verdict,
    proven degree or witness of ``judge``.  A coefficient above it comes
    from the truncation and changes with the order: none is printed.

    ``scaling`` is the scaling weight w and ``euler.euler_residual`` of
    ``structure`` at w, which ``run_check_suite`` has formed and hands over
    when the identity residual L_e - 1 holds.  Then, where the other
    hypotheses of ``euler.flatness_from_residuals`` hold as well
    (``_reads_residuals``), ``flatness`` is read off R2, rho and that
    residual, and neither H nor any [H_k, C_a] is formed: the same entries
    through their ``valid_to``, with the same ``valid_to``, so the same
    verdict.
    """
    working = base_member(lambda0)
    if e1 is None:
        e1 = covariant_derivative(structure, working, e, e)
    g = euler_mod.geometric_inverse(structure, e, e1, mu_order)
    equation = euler_mod.e_equation_residual(e_field, structure, working,
                                             e1, g)
    if scaling is not None and _reads_residuals(structure, working, e, e1,
                                                e_field):
        return Extension(equation, None, euler_mod.flatness_from_residuals(
            structure, e_field, *scaling, mu_order))
    h = tuple(euler_mod.map_runs(
        lambda h_k: EndField(tuple(tuple(s.cut(s.valid_to) for s in row)
                                   for row in h_k.matrix)),
        euler_mod.h_from_e(e_field, structure, working, g)))
    return Extension(equation, h, euler_mod.full_flatness_residual(
        h, structure, working))


def _reads_residuals(structure: HiggsField, working: Shift, e: VectorField,
                     e1: VectorField, e_field: VectorField) -> bool:
    """Whether hypotheses (a), (b), (c) and (e) of
    ``euler.flatness_from_residuals`` hold; (d) is the caller's."""
    v = structure.valid_to
    return (working is None and structure.symmetric_at_one_cap
            and all(s.first_nonzero() is None for s in e1.components)
            and min(e.valid_to, e_field.valid_to) > v)


def _skips(check_ids: Tuple[str, ...], detail: str) -> List[CheckResult]:
    return [CheckResult(check_id, SKIP, detail=detail)
            for check_id in check_ids]


def cut_to_proven(structure: HiggsField) -> HiggsField:
    """C with each entry cut to its own ``valid_to``: the terms above it
    are dropped and the values up to it kept.  Each distinct row is cut
    once, so the cut C shares a row wherever C does
    (``HiggsField.map_rows``)."""
    return structure.map_rows(lambda row: tuple(s.cut(s.valid_to)
                                                for s in row))


def run_check_suite(instance: ModelInstance, mu_order: int,
                    lambda0: Optional[Fraction]) -> SuiteReport:
    """Run all applicable residual checks on a model instance.

    ``lambda0``, when not None, overrides the model's own base-shift
    parameter.  Every residual is formed from C cut to its proven degree
    (``cut_to_proven``).  A coefficient of a series up to its ``valid_to``
    reads its operands only up to theirs, and ``judge`` reads nothing above
    an entry's ``valid_to``, so the cut changes no verdict and saves the
    products of the degrees nothing reads.  The report names the instance
    order.
    """
    structure = cut_to_proven(instance.structure)
    e = instance.identity
    shift = instance.lambda0 if lambda0 is None else lambda0
    results: List[CheckResult] = []

    working = base_member(shift)
    e1 = None  # nabla_e e, shared by checks 5 and 7
    scaling = None  # the weight and its residual, read by check 7

    # 1. symmetry of the structure tensor
    results.append(_tensor_check("structure-symmetric", torsion(structure)))

    # 2-3. exact curvature split of the pencil through the working base
    try:
        r1, r2 = pencil_curvature_split(structure, working)
        results.append(_tensor_check("pencil-linear-flatness", r1))
        results.append(_tensor_check("pencil-quadratic-flatness", r2))
    except FlatnessError as exc:
        results += _skips(("pencil-linear-flatness",
                           "pencil-quadratic-flatness"), str(exc))

    # 4. five-term integrability residual
    results.append(_tensor_check("five-term-integrability",
                                 five_term_residual(structure)))

    # 5. identity field
    if e is None:
        results.append(CheckResult("identity-exists", FAIL,
                                   detail="no identity field found"))
    else:
        identity = _tensor_check("identity-exists",
                                 identity_residual(structure, e))
        results.append(identity)
        e1 = covariant_derivative(structure, working, e, e)
        mode = nabla_e_e_mode(e, e1)
        detail = mode.kind if mode.eigenvalue in (None, 0) \
            else f"{mode.kind} ({mode.eigenvalue})"
        results.append(CheckResult("identity-derivative-mode", INFO,
                                   detail=detail))

    # 6. scaling field: residual of the weight property, frame compatibility
    if instance.euler is None:
        results += _skips(("scaling-weight", "scaling-frame-compat"),
                          "model declares no scaling field")
    else:
        e_field, weight = instance.euler
        residual = euler_mod.euler_residual(structure, e_field, weight)
        results.append(_tensor_check("scaling-weight", residual,
                                     detail=f"weight {weight}"))
        if e is not None and identity.status == PASS:
            scaling = (weight, residual)
        compat = judge(euler_mod.flat_compat_residual(e_field))
        results.append(CheckResult(
            "scaling-frame-compat", PASS if compat.holds else FAIL,
            compat.proven_to,
            detail="components polynomial of degree at most one"
            if compat.holds else "a component has a degree >= 2 term",
            offending=compat.offending))

    # 7. mu-extension: reconstruction equation and extended flatness
    if instance.euler is None or e is None:
        results += _skips(("extension-equation", "extension-flatness"),
                          "needs both an identity and a scaling field")
    else:
        extension = evaluate_extension(structure, e, shift,
                                       instance.euler[0], mu_order, e1,
                                       scaling)
        results.append(_tensor_check("extension-equation",
                                     extension.equation))
        results.append(_tensor_check("extension-flatness",
                                     extension.flatness))

    # 8. twist field checks
    twist_ids = ("twist-membership", "twist-hypotheses",
                 "twist-identity-scaling")
    if instance.epsilon is None:
        results += _skips(twist_ids, "model declares no twist field")
    elif e is None:
        results += _skips(twist_ids, "twist checks need an identity")
    else:
        results.append(_tensor_check(
            "twist-membership",
            l_membership(structure, e, working, instance.epsilon),
            detail="nabla_Y eps = Y o nabla_e eps over the frame"))
        report = duality_mod.duality_verify(structure, e, shift,
                                            instance.epsilon)
        failed = report.hypothesis_failures()
        results.append(CheckResult(
            "twist-hypotheses", PASS if not failed else FAIL,
            min(h.proven_to for h in report.hypotheses),
            detail="; ".join(failed) if failed else
            "required hypotheses hold"))
        if report.pair is None:
            results += _skips(("twist-identity-scaling",),
                              "no twisted product: the twist field is not "
                              "circ-invertible at the origin")
        else:
            results.append(_tensor_check(
                "twist-identity-scaling",
                (report.bracket_defect_flat_eps, report.euler_weight_one),
                detail="[twist, identity] = twist and the identity scales "
                       "the twisted product with weight one"))

    return SuiteReport(instance.document.name, instance.order, mu_order,
                       shift, tuple(results))

"""Check-suite orchestration with deterministic, serializable reports.

Every check produces a record with a stable identifier, a status, the degree
to which the claim is proven, and (on failure) the first offending tensor
entry and monomial.  Failing checks never abort the suite; structural
impossibilities (a check that cannot even be stated for the model) are
reported as skips with a reason.

This module is also the one evaluation path that the ``extend`` and
``dualize`` commands share with the suite: the working connection for a
base shift, the mu-extension and the twist-hypotheses rule are defined here
and nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import duality as duality_mod
from . import euler as euler_mod
from .fmanifold import (FStructure, five_term_residual, l_membership,
                        nabla_e_e_mode, shift_base)
from .geometry import (Connection, FlatnessError, VectorField,
                       covariant_derivative, pencil_curvature_split,
                       tensor_first_offending, tensor_valid_to,
                       tensor_vanishes_through)
from .models import ModelInstance

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
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

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
    proven = tensor_valid_to(tensor)
    if tensor_vanishes_through(tensor, proven):
        return CheckResult(check_id, PASS, proven, detail)
    return CheckResult(check_id, FAIL, proven, detail,
                       tensor_first_offending(tensor))


def working_connection(structure: FStructure, shift: Fraction) -> Connection:
    """The flat connection of the frame moved along the pencil by ``shift``."""
    flat = Connection.zero(structure.dim, structure.order)
    return shift_base(structure, flat, shift) if shift != 0 else flat


@dataclass(frozen=True)
class Extension:
    """The mu-extension built from a scaling field E and the identity e.

    ``equation`` is the residual of the reconstruction equation, ``h`` the
    operator H reconstructed from E, and ``flatness`` the residual of the
    extended connection's flatness.
    """

    equation: euler_mod.MuSeriesVF
    h: euler_mod.MuSeriesEnd
    flatness: euler_mod.FlatnessReport

    @property
    def equation_holds(self) -> bool:
        return self.equation.vanishes_through(self.equation.proven_to())


def evaluate_extension(structure: FStructure, working: Connection,
                       e_field: VectorField, mu_order: int) -> Extension:
    """Build and verify the mu-extension; needs the structure's identity."""
    e = structure.identity
    e1 = covariant_derivative(working, e, e)
    e_series = euler_mod.MuSeriesVF.constant(e_field, mu_order)
    equation = euler_mod.e_equation_residual(e_series, structure, working,
                                             e, e1)
    h = euler_mod.h_from_e(e_series, structure, working, e, e1)
    return Extension(equation, h,
                     euler_mod.full_flatness_residual(h, structure, working))


def evaluate_twist(structure: FStructure, working: Connection,
                   epsilon: VectorField) -> duality_mod.DualityVerifyReport:
    """Twist by ``epsilon``, with the pencil member one unit past ``working``."""
    return duality_mod.duality_verify(
        structure, working, shift_base(structure, working, 1), epsilon)


# Exactly one of these two hypotheses can hold, so the rule requires their
# disjunction rather than both.
_TWIST_ALTERNATIVES = ("twist field flat for shifted connection",
                      "inverse of twist field flat for shifted connection")


def twist_hypothesis_failures(
        report: duality_mod.DualityVerifyReport) -> List[str]:
    """What the twist-hypotheses rule finds wrong; empty when it holds."""
    failed = [h.label for h in report.hypotheses
              if not h.holds and h.label not in _TWIST_ALTERNATIVES]
    if not any(h.holds for h in report.hypotheses
               if h.label in _TWIST_ALTERNATIVES):
        failed.append("neither the twist field nor its inverse is flat "
                      "for the shifted connection")
    return failed


def run_check_suite(instance: ModelInstance, mu_order: int = 4,
                    lambda0: Optional[Fraction] = None) -> SuiteReport:
    """Run all applicable residual checks on a model instance.

    ``lambda0`` overrides the model's own base-shift parameter.
    """
    structure = instance.structure
    n = structure.dim
    cap = structure.order
    shift = instance.lambda0 if lambda0 is None else lambda0
    results: List[CheckResult] = []

    working = working_connection(structure, shift)

    # 1. symmetry of the structure tensor
    sym = tuple(tuple(tuple(
        structure.structure.tensor[a][b][c] - structure.structure.tensor[b][a][c]
        for c in range(n)) for b in range(n)) for a in range(n))
    results.append(_tensor_check("structure-symmetric", sym))

    # 2-3. exact curvature split of the pencil through the working base
    try:
        r1, r2 = pencil_curvature_split(structure.structure, working)
        results.append(_tensor_check("pencil-linear-flatness", r1))
        results.append(_tensor_check("pencil-quadratic-flatness", r2))
    except FlatnessError as exc:
        for check_id in ("pencil-linear-flatness", "pencil-quadratic-flatness"):
            results.append(CheckResult(check_id, SKIP, detail=str(exc)))

    # 4. five-term integrability residual
    results.append(_tensor_check("five-term-integrability",
                                 five_term_residual(structure)))

    # 5. identity field
    if structure.identity is None:
        results.append(CheckResult("identity-exists", FAIL,
                                   detail="no identity field found"))
    else:
        results.append(CheckResult("identity-exists", PASS,
                                   structure.valid_to))
        mode = nabla_e_e_mode(structure, working)
        detail = mode.kind if mode.eigenvalue in (None, 0) \
            else f"{mode.kind} ({mode.eigenvalue})"
        results.append(CheckResult("identity-derivative-mode", INFO,
                                   detail=detail))

    # 6. scaling field: residual of the weight property, frame compatibility
    if instance.euler is None:
        results.append(CheckResult("scaling-weight", SKIP,
                                   detail="model declares no scaling field"))
        results.append(CheckResult("scaling-frame-compat", SKIP,
                                   detail="model declares no scaling field"))
    else:
        e_field, weight = instance.euler
        residual = euler_mod.euler_residual(structure, e_field, weight)
        results.append(_tensor_check(
            "scaling-weight",
            tuple(tuple(tuple(c for c in v.components) for v in row)
                  for row in residual),
            detail=f"weight {weight}"))
        ok = euler_mod.flat_compat(e_field)
        results.append(CheckResult(
            "scaling-frame-compat", PASS if ok else FAIL,
            min(c.valid_to for c in e_field.components),
            detail="components polynomial of degree at most one" if ok
            else "a component has a degree >= 2 term"))

    # 7. mu-extension: reconstruction equation and extended flatness
    if instance.euler is None or structure.identity is None:
        results.append(CheckResult(
            "extension-equation", SKIP,
            detail="needs both an identity and a scaling field"))
        results.append(CheckResult(
            "extension-flatness", SKIP,
            detail="needs both an identity and a scaling field"))
    else:
        extension = evaluate_extension(structure, working, instance.euler[0],
                                       mu_order)
        results.append(CheckResult(
            "extension-equation", PASS if extension.equation_holds else FAIL,
            extension.equation.proven_to()))
        results.append(CheckResult(
            "extension-flatness",
            PASS if extension.flatness.full_vanishes() else FAIL,
            extension.flatness.proven_to()))

    # 8. twist field checks
    twist_ids = ("twist-membership", "twist-hypotheses",
                 "twist-identity-scaling")
    if instance.epsilon is None:
        for check_id in twist_ids:
            results.append(CheckResult(
                check_id, SKIP, detail="model declares no twist field"))
    elif structure.identity is None:
        for check_id in twist_ids:
            results.append(CheckResult(
                check_id, SKIP, detail="twist checks need an identity"))
    else:
        membership = l_membership(structure, working, instance.epsilon)
        results.append(CheckResult(
            "twist-membership", PASS if membership.member else FAIL,
            membership.proven_to,
            detail="nabla_Y eps = Y o nabla_e eps over the frame"))
        report = evaluate_twist(structure, working, instance.epsilon)
        failed = twist_hypothesis_failures(report)
        results.append(CheckResult(
            "twist-hypotheses", PASS if not failed else FAIL,
            min(h.proven_to for h in report.hypotheses),
            detail="; ".join(failed) if failed else
            "required hypotheses hold"))
        defect = report.bracket_defect_flat_eps
        check_to = min(c.valid_to for c in defect.components)
        euler_rows = report.euler_weight_one
        euler_ok = all(v.vanishes_through(min(c.valid_to for c in v.components))
                       for row in euler_rows for v in row)
        bracket_ok = defect.vanishes_through(check_to)
        results.append(CheckResult(
            "twist-identity-scaling",
            PASS if (euler_ok and bracket_ok) else FAIL, check_to,
            detail="[twist, identity] = twist and the identity scales the "
                   "twisted product with weight one"))

    return SuiteReport(instance.document.name, cap, mu_order, shift,
                       tuple(results))

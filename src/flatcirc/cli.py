"""Command-line interface.

Subcommands: ``check`` (run the residual suite on a model), ``dualize``
(twist a model by its twist field and print the dual structure), ``extend``
(build the mu-extension and report its residuals), ``fan`` (verify the
permutohedral fan), ``correlators`` (derive a correlator family from a model
or verify a family file).

Exit codes: 0 on success with all checks passing, 1 when a check fails,
2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from . import correlators as correlators_mod
from . import duality as duality_mod
from .checks import (evaluate_extension, evaluate_twist, run_check_suite,
                     twist_hypothesis_failures, working_connection)
from .expr import ExprError
from .geometry import Connection
from .models import (CORPUS, ModelDocument, ModelFormatError, load_model,
                     load_model_file)
from .permutofan import FanSizeError, verify_fan
from .series import DimensionMismatchError, NonUnitError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


class CliError(Exception):
    pass


def _load_document(source: str) -> ModelDocument:
    if source in CORPUS:
        return load_model(source)
    try:
        return load_model_file(source)
    except OSError as exc:
        raise CliError(f"cannot read model {source!r}: {exc}") from exc


def _emit(text: str, report_path: Optional[str]) -> None:
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write report {report_path!r}: {exc}") \
                from exc
    sys.stdout.write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    document = _load_document(args.model)
    instance = document.instantiate(args.order)
    override = Fraction(args.lambda0) if args.lambda0 is not None else None
    report = run_check_suite(instance, mu_order=args.mu_order,
                             lambda0=override)
    text = report.to_json() if args.format == "json" else report.to_text()
    _emit(text, args.report)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_dualize(args: argparse.Namespace) -> int:
    document = _load_document(args.model)
    instance = document.instantiate(args.order)
    if instance.epsilon is None:
        raise CliError(f"model {document.name!r} declares no twist field")
    structure = instance.structure
    if structure.identity is None:
        raise CliError(f"model {document.name!r} has no identity field")
    n = structure.dim
    verify = evaluate_twist(structure,
                            working_connection(structure, instance.lambda0),
                            instance.epsilon)
    if verify.pair is None:
        raise duality_mod.NotInvertibleError()
    dual = verify.pair.dual.structure.tensor
    ok = not twist_hypothesis_failures(verify)
    if args.format == "json":
        obj = {
            "schemaVersion": 1,
            "model": document.name,
            "order": structure.order,
            "hypotheses": [
                {"label": h.label, "holds": h.holds, "provenTo": h.proven_to}
                for h in verify.hypotheses],
            "bracketConvention": verify.bracket_convention,
            "dualStructure": [
                [[dual[a][b][c].canonical_text()
                  for c in range(n)] for b in range(n)] for a in range(n)],
            "inverseTwist": [c.canonical_text()
                             for c in verify.pair.inverse_used.components],
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"model {document.name} order {structure.order}"]
        for h in verify.hypotheses:
            mark = "ok " if h.holds else "BAD"
            lines.append(f"  [{mark}] {h.label} (to degree {h.proven_to})")
        lines.append("dual structure tensor (entry a b c, then series lines):")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lines.append(f"  entry {a} {b} {c}:")
                    for row in dual[a][b][c].canonical_text().splitlines():
                        lines.append("    " + row)
        text = "\n".join(lines) + "\n"
    _emit(text, args.report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_extend(args: argparse.Namespace) -> int:
    document = _load_document(args.model)
    instance = document.instantiate(args.order)
    structure = instance.structure
    if instance.euler is None:
        raise CliError(f"model {document.name!r} declares no scaling field")
    if structure.identity is None:
        raise CliError(f"model {document.name!r} has no identity field")
    n = structure.dim
    extension = evaluate_extension(
        structure, working_connection(structure, instance.lambda0),
        instance.euler[0], args.mu_order)
    equation_ok = extension.equation_holds
    flatness = extension.flatness
    ok = equation_ok and flatness.full_vanishes()
    if args.format == "json":
        obj = {
            "schemaVersion": 1,
            "model": document.name,
            "order": structure.order,
            "muOrder": args.mu_order,
            "equationHolds": equation_ok,
            "flatnessHolds": flatness.full_vanishes(),
            "provenTo": flatness.proven_to(),
            "hMatrices": [
                [[extension.h.coefficients[k].matrix[a][c].canonical_text()
                  for c in range(n)] for a in range(n)]
                for k in range(args.mu_order + 1)],
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"model {document.name} order {structure.order} "
                 f"mu-order {args.mu_order}",
                 f"  [{'pass' if equation_ok else 'fail'}] "
                 "reconstruction equation",
                 f"  [{'pass' if flatness.full_vanishes() else 'fail'}] "
                 f"extended flatness (to degree {flatness.proven_to()})"]
        text = "\n".join(lines) + "\n"
    _emit(text, args.report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_fan(args: argparse.Namespace) -> int:
    report = verify_fan(args.n)
    if args.format == "json":
        obj = {
            "schemaVersion": 1,
            "n": report.n,
            "coneCount": report.cone_count,
            "rayCount": report.ray_count,
            "maxConeCount": report.max_cone_count,
            "unimodular": report.unimodular,
            "complete": report.complete,
            "faceClosed": report.face_closed,
            "allPass": report.all_pass,
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        text = (f"fan on {report.n} elements: {report.cone_count} cones, "
                f"{report.ray_count} rays, {report.max_cone_count} maximal\n"
                f"  unimodular: {report.unimodular}\n"
                f"  complete:   {report.complete}\n"
                f"  face-closed: {report.face_closed}\n"
                f"result: {'PASS' if report.all_pass else 'FAIL'}\n")
    _emit(text, args.report)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_correlators(args: argparse.Namespace) -> int:
    obj = None
    if args.source not in CORPUS:
        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                obj = json.loads(handle.read())
        except OSError as exc:
            raise CliError(f"cannot read {args.source!r}: {exc}") from exc
    if obj is not None and "entries" in obj:
        family = correlators_mod.CorrelatorFamily.from_json_obj(obj)
        b = correlators_mod.b_from_correlators(family)
        residuals = correlators_mod.master_equation_residual(b)
        offending = sorted(
            key for key, end in residuals.items()
            if any(not s.vanishes_through(s.valid_to)
                   for row in end.matrix for s in row))
        ok = not offending
        if args.format == "json":
            out = {
                "schemaVersion": 1,
                "dim": family.dim,
                "order": family.order,
                "masterEquationHolds": ok,
                "failingPairs": [list(k) for k in offending],
            }
            text = json.dumps(out, indent=2, sort_keys=True) + "\n"
        else:
            text = (f"family dim {family.dim} order {family.order}\n"
                    f"  master equation: {'pass' if ok else 'fail'}"
                    + (f" (pairs {offending})" if offending else "") + "\n")
        _emit(text, args.report)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    # otherwise: a model document; derive the family from its structure
    document = _load_document(args.source)
    instance = document.instantiate(args.order)
    structure = instance.structure
    flat = Connection.zero(structure.dim, structure.order)
    section = duality_mod.primitive_section(
        structure, flat, structure.identity
        if structure.identity is not None and structure.identity.is_constant()
        else structure.basis(0))
    family = correlators_mod.correlators_from_b(section.b_field,
                                               force=args.force)
    text = family.to_json()
    _emit(text, args.report)
    return EXIT_OK


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatcirc",
        description="Exact-arithmetic checks for products on formal "
                    "neighborhoods with a flat frame.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, mu: bool = False) -> None:
        p.add_argument("--order", type=int, default=None,
                       help="truncation order (default: model's)")
        if mu:
            p.add_argument("--mu-order", type=_non_negative, default=4,
                           help="truncation order in the deformation "
                                "parameter (default 4)")
        p.add_argument("--report", default=None,
                       help="also write the output to this file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_check = sub.add_parser("check", help="run the residual check suite")
    p_check.add_argument("model", help="corpus model name or JSON file path")
    common(p_check, mu=True)
    p_check.add_argument("--lambda0", default=None,
                         help="override the model's base-shift parameter")
    p_check.set_defaults(func=_cmd_check)

    p_dual = sub.add_parser("dualize", help="twist by the model's twist field")
    p_dual.add_argument("model")
    common(p_dual)
    p_dual.set_defaults(func=_cmd_dualize)

    p_ext = sub.add_parser("extend", help="build and verify the mu-extension")
    p_ext.add_argument("model")
    common(p_ext, mu=True)
    p_ext.set_defaults(func=_cmd_extend)

    p_fan = sub.add_parser("fan", help="verify the permutohedral fan")
    p_fan.add_argument("n", type=int)
    common(p_fan)
    p_fan.set_defaults(func=_cmd_fan)

    p_cor = sub.add_parser(
        "correlators",
        help="derive a correlator family from a model, or verify a family "
             "file")
    p_cor.add_argument("source", help="model name/path or family JSON path")
    common(p_cor)
    p_cor.add_argument("--force", action="store_true",
                       help="skip the gradient-family symmetry check")
    p_cor.set_defaults(func=_cmd_correlators)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ModelFormatError, ExprError, DimensionMismatchError,
            NonUnitError, FanSizeError,
            correlators_mod.FamilyFormatError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

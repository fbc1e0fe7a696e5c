"""Command-line interface.

Subcommands: ``check`` (run the residual suite on a model), ``dualize``
(twist a model by its twist field and print the dual structure), ``extend``
(build the mu-extension and report its residuals), ``fan`` (verify the
permutohedral fan), ``correlators`` (derive a correlator family from a model
or verify a family file).

Exit codes: 0 on success with all checks passing, 1 when a check fails,
2 on malformed input (an ``InputError``) or usage errors; any other
exception is a defect and ends the command with its traceback.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from . import __version__
from . import correlators as correlators_mod
from .checks import cut_to_proven, evaluate_extension, run_check_suite
from .duality import duality_verify
from .geometry import judge
from .models import (CORPUS, ModelDocument, json_text, load_model,
                     load_model_file, read_json)
from .permutofan import verify_fan
from .series import InputError, NotClosedError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _load_document(source: str) -> ModelDocument:
    return load_model(source) if source in CORPUS else load_model_file(source)


def _emit(text: str, report_path: Optional[str]) -> None:
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report {report_path!r}: {exc}") \
                from exc
    sys.stdout.write(text)


def _cmd_check(args: argparse.Namespace) -> Tuple[str, bool]:
    instance = _load_document(args.model).instantiate(args.order)
    report = run_check_suite(instance, args.mu_order, args.lambda0)
    text = report.to_json() if args.format == "json" else report.to_text()
    return text, report.all_pass


def _cmd_dualize(args: argparse.Namespace) -> Tuple[str, bool]:
    instance = _load_document(args.model).instantiate(args.order)
    name = instance.document.name
    if instance.epsilon is None:
        raise InputError(f"model {name!r} declares no twist field")
    if instance.identity is None:
        raise InputError(f"model {name!r} has no identity field")
    n = instance.structure.dim
    verify = duality_verify(cut_to_proven(instance.structure),
                            instance.identity, instance.lambda0,
                            instance.epsilon)
    if verify.pair is None:
        raise InputError("system matrix singular at the origin")
    dual = verify.pair.dual.tensor
    ok = not verify.hypothesis_failures()
    if args.format == "json":
        obj = {
            "schemaVersion": 1,
            "model": name,
            "order": instance.order,
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
        return json_text(obj), ok
    lines = [f"model {name} order {instance.order}"]
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
    return "\n".join(lines) + "\n", ok


def _cmd_extend(args: argparse.Namespace) -> Tuple[str, bool]:
    instance = _load_document(args.model).instantiate(args.order)
    name = instance.document.name
    if instance.euler is None:
        raise InputError(f"model {name!r} declares no scaling field")
    if instance.identity is None:
        raise InputError(f"model {name!r} has no identity field")
    n = instance.structure.dim
    extension = evaluate_extension(cut_to_proven(instance.structure),
                                   instance.identity, instance.lambda0,
                                   instance.euler[0], args.mu_order)
    equation_ok = judge(extension.equation).holds
    flatness = judge(extension.flatness)
    ok = equation_ok and flatness.holds
    if args.format == "json":
        obj = {
            "schemaVersion": 1,
            "model": name,
            "order": instance.order,
            "muOrder": args.mu_order,
            "equationHolds": equation_ok,
            "flatnessHolds": flatness.holds,
            "provenTo": flatness.proven_to,
            "hMatrices": [
                [[extension.h[k].matrix[a][c].canonical_text()
                  for c in range(n)] for a in range(n)]
                for k in range(args.mu_order + 1)],
        }
        return json_text(obj), ok
    lines = [f"model {name} order {instance.order} "
             f"mu-order {args.mu_order}",
             f"  [{'pass' if equation_ok else 'fail'}] "
             "reconstruction equation",
             f"  [{'pass' if flatness.holds else 'fail'}] "
             f"extended flatness (to degree {flatness.proven_to})"]
    return "\n".join(lines) + "\n", ok


def _cmd_fan(args: argparse.Namespace) -> Tuple[str, bool]:
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
        return json_text(obj), report.all_pass
    text = (f"fan on {report.n} elements: {report.cone_count} cones, "
            f"{report.ray_count} rays, {report.max_cone_count} maximal\n"
            f"  unimodular: {report.unimodular}\n"
            f"  complete:   {report.complete}\n"
            f"  face-closed: {report.face_closed}\n"
            f"result: {'PASS' if report.all_pass else 'FAIL'}\n")
    return text, report.all_pass


def _cmd_correlators(args: argparse.Namespace) -> Tuple[str, bool]:
    obj = None if args.source in CORPUS else read_json(args.source)
    if isinstance(obj, dict) and "entries" in obj:
        family = correlators_mod.CorrelatorFamily.from_json_obj(obj)
        if args.order is not None:
            raise InputError(f"--order applies to deriving a family from a "
                             f"model; this family file has order "
                             f"{family.order}")
        b = correlators_mod.b_from_correlators(family)
        residuals = correlators_mod.master_equation_residual(b)
        offending = sorted(key for key, end in residuals.items()
                           if not judge(end).holds)
        ok = not offending
        if args.format == "json":
            out = {
                "schemaVersion": 1,
                "dim": family.dim,
                "order": family.order,
                "masterEquationHolds": ok,
                "failingPairs": [list(k) for k in offending],
            }
            return json_text(out), ok
        return (f"family dim {family.dim} order {family.order}\n"
                f"  master equation: {'pass' if ok else 'fail'}"
                + (f" (pairs {offending})" if offending else "") + "\n"), ok
    # otherwise: a model document; derive the family from its structure
    document = load_model(args.source) if args.source in CORPUS \
        else ModelDocument.from_json_obj(obj)
    instance = document.instantiate(args.order)
    # uncut: integrating C gains a degree only where its cap leaves room
    try:
        b_field = correlators_mod.potential_endomorphism(instance.structure)
        family = correlators_mod.correlators_from_b(b_field, force=args.force)
    except (NotClosedError, correlators_mod.NotSymmetricError) as exc:
        # no correlator family has this structure tensor
        raise InputError(str(exc)) from exc
    return family.to_json(), True


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid rational value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatcirc",
        description="Exact-arithmetic checks for products on formal "
                    "neighborhoods with a flat frame.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, order: bool = True,
               mu: bool = False) -> None:
        if order:
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
    p_check.add_argument("--lambda0", type=_rational, default=None,
                         help="override the model's base-shift parameter")
    # a negative fraction such as -1/2 is a value, not an option
    p_check._negative_number_matcher = re.compile(
        r"^-\d+(/\d+)?$|^-\d*\.\d+$")
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
    common(p_fan, order=False)
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


# parsing reads the parser and never changes it, so one serves every call
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[list] = None) -> int:
    # every value is exact and is printed whole, whatever its number of
    # digits: lift the interpreter's limit on int-string conversion
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        text, ok = args.func(args)
        _emit(text, args.report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

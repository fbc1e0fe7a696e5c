"""Model documents: a JSON schema for workbench inputs, plus a bundled corpus.

A model document describes a structure either through a vector potential
(component expressions) or through an explicit structure-tensor table, with
optional identity, scaling field, twist field, and base-shift parameter.
Numbers are JSON integers or strings parsed exactly as rationals or
expressions, never floats.  Documents are read, never written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence, Tuple

from .expr import NAME_PATTERN, ExprError, is_name, parse_series
from .fmanifold import find_identity, potential_to_structure
from .geometry import HiggsField, VectorField
from .series import InputError, TruncatedSeries

MODEL_SCHEMA_VERSION = 1

CORPUS = ("one-dim", "qc-p1", "nilpotent", "broken-assoc", "shifted-identity")


class ModelFormatError(InputError):
    pass


class InsufficientOrderError(InputError):
    """The instance order leaves the structure tensor proven below degree 1."""


@dataclass(frozen=True)
class ModelDocument:
    """Parsed but not yet instantiated model description."""

    name: str
    dim: int
    variables: Tuple[str, ...]
    potential: Optional[Tuple[str, ...]]
    structure_table: Optional[Tuple[Tuple[Tuple[str, ...], ...], ...]]
    identity: Optional[Tuple[str, ...]]
    euler: Optional[Tuple[Tuple[str, ...], Fraction]]
    epsilon: Optional[Tuple[str, ...]]
    lambda0: Fraction
    default_order: int

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelDocument":
        try:
            version = json_integer(obj["schemaVersion"], "schemaVersion")
            if version != MODEL_SCHEMA_VERSION:
                raise ModelFormatError(f"unsupported schemaVersion {version}")
            dim = json_integer(obj["dim"], "dim")
            if dim < 1:
                raise ModelFormatError("dim must be at least 1")
            variables = obj["variables"]
            if not _is_cube(variables, dim, 1):
                raise ModelFormatError(f"variables is not a list of {dim} strings")
            if not all(map(is_name, variables)):
                raise ModelFormatError(
                    f"variables must match {NAME_PATTERN}, other than exp")
            if len(set(variables)) != dim:
                raise ModelFormatError("variable names must be distinct")
            potential = obj.get("potential")
            table = obj.get("structure")
            if (potential is None) == (table is None):
                raise ModelFormatError(
                    "exactly one of 'potential' and 'structure' is required")
            if table is not None and not _is_cube(table, dim, 3):
                raise ModelFormatError(
                    f"structure table is not a {dim}x{dim}x{dim} table of "
                    "expressions")
            lists = {key: obj.get(key)
                     for key in ("potential", "identity", "epsilon")}
            euler = None
            if "euler" in obj:
                lists["euler components"] = obj["euler"]["components"]
                euler = (tuple(obj["euler"]["components"]),
                         json_rational(obj["euler"]["weight"], "euler weight"))
            for key, comps in lists.items():
                if comps is not None and not _is_cube(comps, dim, 1):
                    raise ModelFormatError(
                        f"{key} is not a list of {dim} expressions")
            if not isinstance(obj["name"], str):
                raise ModelFormatError("name must be a string")
            doc = cls(
                name=obj["name"],
                dim=dim,
                variables=tuple(variables),
                potential=tuple(potential) if potential is not None else None,
                structure_table=tuple(
                    tuple(tuple(row) for row in plane) for plane in table)
                if table is not None else None,
                identity=tuple(obj["identity"]) if "identity" in obj else None,
                euler=euler,
                epsilon=tuple(obj["epsilon"]) if "epsilon" in obj else None,
                lambda0=json_rational(obj.get("lambda0", 0), "lambda0"),
                default_order=json_integer(obj.get("defaultOrder", 8),
                                           "defaultOrder"),
            )
            if doc.default_order < 1:
                raise ModelFormatError("defaultOrder must be at least 1")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ModelFormatError):
                raise
            raise ModelFormatError(f"malformed model document: {exc}") from exc
        return doc

    def _parse(self, text: str, cap: int, where: str) -> TruncatedSeries:
        """``text`` at ``cap``; a parse error names the field ``where``."""
        try:
            return parse_series(text, self.variables, cap)
        except ExprError as exc:
            raise ExprError(f"{where}: {exc.message}", exc.offset) from None

    def _field(self, key: str, expressions: Sequence[str],
               cap: int) -> VectorField:
        return VectorField(tuple(self._parse(text, cap, f"{key}[{i}]")
                                 for i, text in enumerate(expressions)))

    def instantiate(self, order: Optional[int] = None) -> "ModelInstance":
        """The model at ``order``; its identity is the declared field, else
        the one ``find_identity`` solves for, from a potential or a table.
        A parsed series is proven to its cap, so C to the cap from a table
        and to cap - 2 from a potential: the order is checked first."""
        cap = self.default_order if order is None else order
        proven = cap if self.potential is None else cap - 2
        if proven < 1:
            raise InsufficientOrderError(
                f"at order {cap} the structure tensor is proven only to "
                f"degree {proven}; a residual with a derivative needs "
                "degree 1")
        identity = (self._field("identity", self.identity, cap)
                    if self.identity is not None else None)
        if self.potential is not None:
            tensor = potential_to_structure(
                self._field("potential", self.potential, cap))
        else:
            table = self.structure_table
            tensor = HiggsField.build(
                self.dim, lambda a, b, c: self._parse(
                    table[a][b][c], cap, f"structure[{a}][{b}][{c}]"))
        if identity is None:
            identity = find_identity(tensor)
        euler = None
        if self.euler is not None:
            euler = (self._field("euler.components", self.euler[0], cap),
                     self.euler[1])
        epsilon = (self._field("epsilon", self.epsilon, cap)
                   if self.epsilon is not None else None)
        return ModelInstance(self, cap, tensor, identity, euler, epsilon,
                             self.lambda0)


def _is_cube(value, dim: int, depth: int) -> bool:
    """True if ``value`` nests ``depth`` lists of length ``dim`` around strings."""
    if depth == 0:
        return isinstance(value, str)
    return (isinstance(value, list) and len(value) == dim
            and all(_is_cube(v, dim, depth - 1) for v in value))


@dataclass(frozen=True)
class ModelInstance:
    """A model at one order: C as ``structure`` and its identity field,
    None when the product has none."""

    document: ModelDocument
    order: int
    structure: HiggsField
    identity: Optional[VectorField]
    euler: Optional[Tuple[VectorField, Fraction]]
    epsilon: Optional[VectorField]
    lambda0: Fraction


def load_model(name: str) -> ModelDocument:
    """Load a bundled corpus model by name."""
    if name not in CORPUS:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(CORPUS)}")
    text = (resources.files("flatcirc") / "data" / f"{name}.json").read_text()
    return ModelDocument.from_json_obj(json.loads(text))


def json_integer(value: object, name: str) -> int:
    """A document's integer field ``name``: a JSON integer, not a bool."""
    if type(value) is not int:
        raise InputError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def json_rational(value: object, name: str) -> Fraction:
    """A document's rational field ``name``: a JSON integer or a string."""
    if type(value) is not int and not isinstance(value, str):
        raise InputError(f"{name} must be an integer or a string, "
                         f"got {json.dumps(value)}")
    return Fraction(value)


def json_text(obj: object) -> str:
    """The JSON text of every document and report the package writes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(path: str, what: Optional[str] = None) -> object:
    """The JSON value in the file at ``path``; InputError if the file cannot
    be read (named ``what``, by default its quoted path) or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read {what or repr(path)}: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or not JSON
        raise InputError(str(exc)) from exc


def load_model_file(path: str) -> ModelDocument:
    return ModelDocument.from_json_obj(read_json(path, f"model {path!r}"))

"""Model documents: a JSON schema for workbench inputs, plus a bundled corpus.

A model document describes a structure either through a vector potential
(component expressions) or through an explicit structure-tensor table, with
optional identity, scaling field, twist field, and base-shift parameter.  All
numeric payloads are strings parsed exactly as rationals or expressions, so
documents round-trip without floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence, Tuple

from .expr import parse_series
from .fmanifold import FStructure, VectorPotential, potential_to_structure
from .geometry import HiggsField, VectorField

MODEL_SCHEMA_VERSION = 1

CORPUS = ("one-dim", "qc-p1", "nilpotent", "broken-assoc", "shifted-identity")


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ModelDocument:
    """Parsed but not yet instantiated model description."""

    name: str
    description: str
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
            version = obj["schemaVersion"]
            if version != MODEL_SCHEMA_VERSION:
                raise ModelFormatError(f"unsupported schemaVersion {version}")
            dim = int(obj["dim"])
            if dim < 1:
                raise ModelFormatError("dim must be at least 1")
            variables = tuple(obj["variables"])
            if len(variables) != dim:
                raise ModelFormatError("variables list does not match dim")
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
            euler = None
            if "euler" in obj:
                euler = (tuple(obj["euler"]["components"]),
                         Fraction(obj["euler"]["weight"]))
            doc = cls(
                name=obj["name"],
                description=obj.get("description", ""),
                dim=dim,
                variables=variables,
                potential=tuple(potential) if potential is not None else None,
                structure_table=tuple(
                    tuple(tuple(row) for row in plane) for plane in table)
                if table is not None else None,
                identity=tuple(obj["identity"]) if "identity" in obj else None,
                euler=euler,
                epsilon=tuple(obj["epsilon"]) if "epsilon" in obj else None,
                lambda0=Fraction(obj.get("lambda0", "0")),
                default_order=int(obj.get("defaultOrder", 8)),
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ModelFormatError):
                raise
            raise ModelFormatError(f"malformed model document: {exc}") from exc
        for comps in (doc.potential, doc.identity, doc.epsilon):
            if comps is not None and len(comps) != dim:
                raise ModelFormatError("component list does not match dim")
        if doc.euler is not None and len(doc.euler[0]) != dim:
            raise ModelFormatError("scaling-field components do not match dim")
        return doc

    @classmethod
    def from_json(cls, text: str) -> "ModelDocument":
        return cls.from_json_obj(json.loads(text))

    def to_json_obj(self) -> dict:
        obj: dict = {
            "schemaVersion": MODEL_SCHEMA_VERSION,
            "name": self.name,
            "dim": self.dim,
            "variables": list(self.variables),
            "defaultOrder": self.default_order,
        }
        if self.description:
            obj["description"] = self.description
        if self.potential is not None:
            obj["potential"] = list(self.potential)
        if self.structure_table is not None:
            obj["structure"] = [[list(row) for row in plane]
                                for plane in self.structure_table]
        if self.identity is not None:
            obj["identity"] = list(self.identity)
        if self.euler is not None:
            obj["euler"] = {"components": list(self.euler[0]),
                            "weight": str(self.euler[1])}
        if self.epsilon is not None:
            obj["epsilon"] = list(self.epsilon)
        if self.lambda0 != 0:
            obj["lambda0"] = str(self.lambda0)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    def _field(self, expressions: Sequence[str], cap: int) -> VectorField:
        return VectorField(tuple(
            parse_series(text, self.variables, cap) for text in expressions))

    def instantiate(self, order: Optional[int] = None) -> "ModelInstance":
        cap = self.default_order if order is None else order
        identity = (self._field(self.identity, cap)
                    if self.identity is not None else None)
        potential = None
        if self.potential is not None:
            potential = VectorPotential(self._field(self.potential, cap))
            structure = potential_to_structure(potential,
                                               identity_hint=identity)
        else:
            table = self.structure_table
            tensor = HiggsField.build(
                self.dim,
                lambda a, b, c: parse_series(table[a][b][c], self.variables,
                                             cap))
            structure = FStructure(tensor, identity=identity)
        euler = None
        if self.euler is not None:
            euler = (self._field(self.euler[0], cap), self.euler[1])
        epsilon = (self._field(self.epsilon, cap)
                   if self.epsilon is not None else None)
        return ModelInstance(self, cap, potential, structure, euler, epsilon,
                             self.lambda0)


def _is_cube(value, dim: int, depth: int) -> bool:
    """True if ``value`` nests ``depth`` lists of length ``dim`` around strings."""
    if depth == 0:
        return isinstance(value, str)
    return (isinstance(value, list) and len(value) == dim
            and all(_is_cube(v, dim, depth - 1) for v in value))


@dataclass(frozen=True)
class ModelInstance:
    document: ModelDocument
    order: int
    potential: Optional[VectorPotential]
    structure: FStructure
    euler: Optional[Tuple[VectorField, Fraction]]
    epsilon: Optional[VectorField]
    lambda0: Fraction


def _data_text(filename: str) -> str:
    return (resources.files("flatcirc") / "data" / filename).read_text()


def list_models() -> Tuple[str, ...]:
    return CORPUS


def load_model(name: str) -> ModelDocument:
    """Load a bundled corpus model by name."""
    if name not in CORPUS:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(CORPUS)}")
    return ModelDocument.from_json(_data_text(name + ".json"))


def load_model_file(path: str) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return ModelDocument.from_json(handle.read())

import json
from fractions import Fraction

import pytest

from flatcirc.fmanifold import five_term_residual
from flatcirc.geometry import tensor_vanishes_through
from flatcirc.models import (CORPUS, ModelDocument, ModelFormatError,
                             load_model, load_model_file)
from flatcirc.series import InputError

MINIMAL = {
    "schemaVersion": 1,
    "name": "tiny",
    "dim": 1,
    "variables": ["x0"],
    "potential": ["x0^2/2"],
    "identity": ["1"],
}


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS)
    def test_loads_and_instantiates(self, name):
        instance = load_model(name).instantiate(5)
        assert instance.order == 5
        assert instance.structure.tensor[0][0][0].cap == 5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_model("no-such-model")

    def test_compatible_models_pass_integrability(self):
        for name in ("one-dim", "qc-p1", "nilpotent"):
            instance = load_model(name).instantiate(6)
            residual = five_term_residual(instance.structure)
            assert tensor_vanishes_through(residual, 4)

    def test_broken_model_fails_integrability(self):
        instance = load_model("broken-assoc").instantiate(6)
        residual = five_term_residual(instance.structure)
        assert not tensor_vanishes_through(residual, 4)

    def test_shifted_identity_has_lambda0(self):
        assert load_model("shifted-identity").lambda0 == 1
        assert load_model("qc-p1").lambda0 == 0


class TestSchema:
    def test_minimal_document(self):
        doc = ModelDocument.from_json_obj(MINIMAL)
        instance = doc.instantiate(4)
        assert instance.identity is not None

    def test_bad_version(self):
        bad = dict(MINIMAL, schemaVersion=99)
        with pytest.raises(ModelFormatError):
            ModelDocument.from_json_obj(bad)

    def test_variables_dim_mismatch(self):
        bad = dict(MINIMAL, variables=["x0", "x1"])
        with pytest.raises(ModelFormatError):
            ModelDocument.from_json_obj(bad)

    def test_potential_and_structure_exclusive(self):
        bad = dict(MINIMAL, structure=[[["1"]]])
        with pytest.raises(ModelFormatError):
            ModelDocument.from_json_obj(bad)
        neither = {k: v for k, v in MINIMAL.items() if k != "potential"}
        with pytest.raises(ModelFormatError):
            ModelDocument.from_json_obj(neither)

    def test_component_length_checked(self):
        bad = dict(MINIMAL, identity=["1", "0"])
        with pytest.raises(ModelFormatError):
            ModelDocument.from_json_obj(bad)

    def test_euler_parsing(self):
        doc = dict(MINIMAL, euler={"components": ["x0"], "weight": "1"})
        parsed = ModelDocument.from_json_obj(doc)
        assert parsed.euler == (("x0",), Fraction(1))

    def test_structure_table_model(self):
        doc = ModelDocument.from_json_obj({
            "schemaVersion": 1,
            "name": "table",
            "dim": 1,
            "variables": ["t"],
            "structure": [[["1"]]],
            "identity": ["1"],
        })
        instance = doc.instantiate(3)
        assert instance.structure.tensor[0][0][0].constant_term == 1


class TestFileLoading:
    def test_load_model_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(MINIMAL))
        doc = load_model_file(str(path))
        assert doc.name == "tiny"

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="Expecting property name"):
            load_model_file(str(path))

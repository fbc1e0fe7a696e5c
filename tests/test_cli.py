import json

import pytest

from flatcirc.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    @pytest.mark.parametrize("name", ["one-dim", "qc-p1", "nilpotent",
                                      "shifted-identity"])
    def test_valid_models_exit_zero(self, capsys, name):
        code, out, _ = run(capsys, "check", name, "--order", "6")
        assert code == EXIT_OK
        assert "fail" not in out

    def test_broken_model_exits_nonzero(self, capsys):
        code, out, _ = run(capsys, "check", "broken-assoc", "--order", "6")
        assert code == EXIT_CHECK_FAILED
        assert "fail" in out

    def test_broken_model_names_offending_monomial(self, capsys):
        code, out, _ = run(capsys, "check", "broken-assoc", "--order", "6",
                           "--format", "json")
        assert code == EXIT_CHECK_FAILED
        obj = json.loads(out)
        failing = [r for r in obj["checks"] if r["status"] == "fail"]
        assert failing
        assert any("firstOffending" in r and r["firstOffending"].get("monomial")
                   for r in failing)

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "qc-p1", "--order", "5",
                           "--format", "json", "--report", str(path))
        assert code == EXIT_OK
        assert path.read_text() == out

    def test_reports_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run(capsys, "check", "qc-p1", "--order", "5",
                "--format", "json", "--report", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lambda0_override(self, capsys):
        code, _, _ = run(capsys, "check", "qc-p1", "--order", "5",
                         "--lambda0", "1")
        assert code == EXIT_OK

    def test_file_path_model(self, capsys, tmp_path):
        doc = {
            "schemaVersion": 1,
            "name": "tiny",
            "dim": 1,
            "variables": ["x0"],
            "potential": ["x0^2/2"],
            "identity": ["1"],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "check", str(path), "--order", "4")
        assert code == EXIT_OK


class TestBadInput:
    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "check", "/no/such/model.json")
        assert code == EXIT_BAD_INPUT
        assert "error:" in err

    def test_malformed_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schemaVersion": 1}')
        code, _, err = run(capsys, "check", str(path))
        assert code == EXIT_BAD_INPUT
        assert "error:" in err

    def test_bad_expression_in_model(self, capsys, tmp_path):
        path = tmp_path / "bad-expr.json"
        path.write_text(json.dumps({
            "schemaVersion": 1,
            "name": "bad",
            "dim": 1,
            "variables": ["x0"],
            "potential": ["x0 +"],
            "identity": ["1"],
        }))
        code, _, err = run(capsys, "check", str(path))
        assert code == EXIT_BAD_INPUT
        assert "error:" in err

    def test_fan_beyond_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("FLATCIRC_MAX_N", "3")
        code, _, err = run(capsys, "fan", "4")
        assert code == EXIT_BAD_INPUT
        assert "error:" in err


TINY = {"schemaVersion": 1, "name": "tiny", "dim": 1, "variables": ["x0"],
        "potential": ["x0^2/2"], "identity": ["1"]}
FAMILY = {"schemaVersion": 1, "dim": 2, "order": 3, "entries": []}


class TestInputContract:
    """Malformed input exits 2 with an error message, never a traceback."""

    CASES = {
        "weight 1/0": (dict(TINY, euler={"components": ["x0"],
                                         "weight": "1/0"}),
                       ("check",), "malformed model document"),
        "table wrong shape": ({"schemaVersion": 1, "name": "t", "dim": 2,
                               "variables": ["x0", "x1"],
                               "structure": [[["1"]]]},
                              ("check",), "structure table"),
        "duplicate variables": (dict(TINY, dim=2, variables=["x0", "x0"],
                                     potential=["x0^2/2", "0"],
                                     identity=["1", "0"]),
                                ("check",), "distinct"),
        "dim 0": (dict(TINY, dim=0, variables=[], potential=[], identity=[]),
                  ("check",), "dim must be at least 1"),
        "multiset index >= dim": (dict(FAMILY, entries=[
            {"multiset": [2], "matrix": [["1", "0"], ["0", "1"]]}]),
            ("correlators",), "multiset [2]"),
        "unwritable report": (TINY, ("check", "--report",
                                     "/no/such/dir/report.txt"),
                              "cannot write report"),
        "negative mu-order": (dict(TINY, euler={"components": ["x0"],
                                                "weight": "1"}),
                              ("extend", "--mu-order", "-2"), "--mu-order"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_two_with_message(self, capsys, tmp_path, case):
        doc, (command, *flags), message = self.CASES[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        try:
            code, out, err = run(capsys, command, str(path), *flags)
        except SystemExit as exc:  # argparse rejects the option itself
            captured = capsys.readouterr()
            code, out, err = exc.code, captured.out, captured.err
        assert code == EXIT_BAD_INPUT
        assert "error:" in err and message in err
        assert "Traceback" not in err and out == ""


class TestDualize:
    def test_one_dim_ok(self, capsys):
        code, out, _ = run(capsys, "dualize", "one-dim", "--order", "6")
        assert code == EXIT_OK
        assert "dual structure tensor" in out

    def test_json_contains_dual_tensor(self, capsys):
        code, out, _ = run(capsys, "dualize", "one-dim", "--order", "6",
                           "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert "dualStructure" in obj and "hypotheses" in obj

    def test_model_without_twist_field(self, capsys):
        code, _, err = run(capsys, "dualize", "nilpotent")
        assert code == EXIT_BAD_INPUT
        assert "twist" in err


class TestExtend:
    def test_qc_p1_ok(self, capsys):
        code, out, _ = run(capsys, "extend", "qc-p1", "--order", "6",
                           "--mu-order", "3")
        assert code == EXIT_OK
        assert "pass" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "extend", "one-dim", "--order", "5",
                           "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["equationHolds"] and obj["flatnessHolds"]

    def test_model_without_scaling_field(self, capsys):
        code, _, err = run(capsys, "extend", "nilpotent")
        assert code == EXIT_BAD_INPUT
        assert "scaling" in err


class TestFan:
    def test_fan_three(self, capsys):
        code, out, _ = run(capsys, "fan", "3", "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["coneCount"] == 13 and obj["allPass"]

    def test_fan_text(self, capsys):
        code, out, _ = run(capsys, "fan", "2")
        assert code == EXIT_OK
        assert "PASS" in out


class TestCorrelators:
    def test_derive_then_verify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        code, out, _ = run(capsys, "correlators", "qc-p1", "--order", "6",
                           "--report", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["entries"]
        code2, out2, _ = run(capsys, "correlators", str(path),
                             "--format", "json")
        assert code2 == EXIT_OK
        assert json.loads(out2)["masterEquationHolds"]

    def test_incompatible_family_fails(self, capsys, tmp_path):
        family = {
            "schemaVersion": 1,
            "dim": 2,
            "order": 3,
            "entries": [
                {"multiset": [0, 0], "matrix": [["0", "0"], ["1", "0"]]},
                {"multiset": [1, 1], "matrix": [["0", "1"], ["0", "0"]]},
            ],
        }
        path = tmp_path / "bad-family.json"
        path.write_text(json.dumps(family))
        code, out, _ = run(capsys, "correlators", str(path),
                           "--format", "json")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["failingPairs"]

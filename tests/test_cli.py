import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordinates import product_document, unimodular_pair
import flatcirc
from flatcirc import checks, duality
from flatcirc.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main
from flatcirc.models import CORPUS, load_model
from flatcirc.series import DimensionMismatchError, NonUnitError

QC_P1 = json.loads(
    (resources.files("flatcirc") / "data" / "qc-p1.json").read_text())


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

    @pytest.mark.parametrize("name", CORPUS)
    def test_no_degree_beyond_the_structure_tensor(self, capsys, name):
        # every residual is built from the structure tensor, so none is
        # proven further than it; the frame-compatibility check reads the
        # scaling field alone
        _, out, _ = run(capsys, "check", name, "--format", "json")
        limit = load_model(name).instantiate().structure.valid_to
        over = {r["id"]: r["provenTo"] for r in json.loads(out)["checks"]
                if r.get("provenTo", limit) > limit
                and r["id"] != "scaling-frame-compat"}
        assert over == {}

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
        for shift in ("1", "-1/2"):
            code, out, _ = run(capsys, "check", "qc-p1", "--order", "5",
                               "--lambda0", shift)
            assert code == EXIT_OK
            assert out.splitlines()[0].endswith(f"lambda0 {shift}")

    def checks_of(self, capsys, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--order", "5",
                           "--format", "json")
        return code, {r["id"]: r for r in json.loads(out)["checks"]}

    def test_wrong_identity_fails(self, capsys, tmp_path):
        doc = dict(QC_P1, identity=["0", "1"])
        del doc["euler"]
        code, checks = self.checks_of(capsys, tmp_path, doc)
        assert code == EXIT_CHECK_FAILED
        assert checks["identity-exists"]["status"] == "fail"
        # d1 o d0 = d1, so the (0, 0) entry of L_e - 1 is -1
        assert checks["identity-exists"]["firstOffending"] == {
            "entry": [0, 0], "monomial": [0, 0], "value": "-1"}

    def test_frame_compat_failure_names_monomial(self, capsys, tmp_path):
        doc = dict(QC_P1)
        doc["euler"] = {"components": ["x0 + x1^2", "2"], "weight": "1"}
        code, checks = self.checks_of(capsys, tmp_path, doc)
        assert code == EXIT_CHECK_FAILED
        compat = checks["scaling-frame-compat"]
        assert compat["status"] == "fail"
        assert compat["firstOffending"] == {
            "entry": [0], "monomial": [0, 2], "value": "1"}

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


# C_01^0 = 1 and every other entry 0
NOT_A_GRADIENT = {
    "schemaVersion": 1, "name": "t", "dim": 2, "variables": ["x", "y"],
    "structure": [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "0"]]]}


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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_fan_below_one(self, capsys, n):
        assert run(capsys, "fan", n) == (EXIT_BAD_INPUT, "",
                                         "error: n must be >= 1\n")

    def test_fan_bound_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("FLATCIRC_MAX_N", "six")
        code, _, err = run(capsys, "fan", "3")
        assert code == EXIT_BAD_INPUT
        assert "'six'" in err

    @pytest.mark.parametrize("bound", ["0", "-3", "abc"])
    def test_fan_bound_below_one_or_not_an_integer(self, capsys, monkeypatch,
                                                   bound):
        monkeypatch.setenv("FLATCIRC_MAX_N", bound)
        assert run(capsys, "fan", "0") == (
            EXIT_BAD_INPUT, "",
            f"error: FLATCIRC_MAX_N must be an integer >= 1, got '{bound}'\n")

    @pytest.mark.parametrize("command", ["check", "dualize", "extend",
                                         "correlators"])
    def test_invalid_json(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, command, str(path)) == (
            EXIT_BAD_INPUT, "", "error: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize("command", ["check", "dualize", "extend",
                                         "correlators"])
    @pytest.mark.parametrize("value,text", [
        ("null", "'NoneType' object is not subscriptable"),
        ("5", "'int' object is not subscriptable"),
        ("[]", "list indices must be integers or slices, not str")])
    def test_document_not_an_object(self, capsys, tmp_path, command, value,
                                    text):
        path = tmp_path / "value.json"
        path.write_text(value)
        assert run(capsys, command, str(path)) == (
            EXIT_BAD_INPUT, "", f"error: malformed model document: {text}\n")

    @pytest.mark.parametrize("command,label", [("check", "model "),
                                               ("correlators", "")])
    def test_directory(self, capsys, tmp_path, command, label):
        code, _, err = run(capsys, command, str(tmp_path))
        assert code == EXIT_BAD_INPUT
        assert err.startswith(f"error: cannot read {label}{str(tmp_path)!r}: ")

    def test_twist_not_invertible(self, capsys, tmp_path):
        path = tmp_path / "zero-twist.json"
        path.write_text(json.dumps(dict(QC_P1, epsilon=["0", "0"])))
        assert run(capsys, "dualize", str(path)) == (
            EXIT_BAD_INPUT, "", "error: system matrix singular at the origin\n")

    def test_structure_not_a_gradient(self, capsys, tmp_path):
        # C_01^0 = 1 and C_10^0 = 0: B exists, but d_0 B^0_1 != d_1 B^0_0
        path = tmp_path / "table.json"
        path.write_text(json.dumps(NOT_A_GRADIENT))
        assert run(capsys, "correlators", str(path), "--order", "4") == (
            EXIT_BAD_INPUT, "",
            "error: d_0 B^0_1 != d_1 B^0_0: not a gradient family\n")

    def test_force_derives_a_non_gradient_family(self, capsys, tmp_path):
        # the table of ``test_structure_not_a_gradient``: B^0_1 = x
        path = tmp_path / "table.json"
        path.write_text(json.dumps(NOT_A_GRADIENT))
        code, out, err = run(capsys, "correlators", str(path), "--order",
                             "4", "--force")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["entries"] == [
            {"multiset": [0], "matrix": [["0", "1"], ["0", "0"]]}]


class TestInternalErrors:
    """Only input errors exit 2: any other exception is a defect and
    propagates out of ``main`` with its traceback."""

    @pytest.mark.parametrize("error", [
        ValueError("valid_to must not exceed cap"),
        DimensionMismatchError("dimension mismatch: 2 vs 3"),
        NonUnitError("cannot invert a series with zero constant term")])
    def test_defect_is_not_bad_input(self, monkeypatch, error):
        def broken(structure):
            raise error

        monkeypatch.setattr(checks, "five_term_residual", broken)
        with pytest.raises(type(error), match=str(error)):
            main(["check", "qc-p1", "--order", "4"])


TINY = {"schemaVersion": 1, "name": "tiny", "dim": 1, "variables": ["x0"],
        "potential": ["x0^2/2"], "identity": ["1"]}
FAMILY = {"schemaVersion": 1, "dim": 2, "order": 3, "entries": []}


def decimal_digits(value):
    """The decimal digits of a positive int of any length, formed in chunks
    that the interpreter's int-string limit allows."""
    chunks = []
    while value:
        value, chunk = divmod(value, 10 ** 1000)
        chunks.append(chunk)
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in chunks[-2::-1])


class TestBigIntegers:
    """A coefficient longer than the interpreter's default int-string limit
    (4,300 digits) is printed whole, in a fresh process where that limit
    holds, and the command exits 0 or 1 without a traceback."""

    SEVENS = 7 * (10 ** 5001 - 1) // 9  # 5,001 digits

    @pytest.mark.parametrize("term, value", [("7" * 5001, SEVENS),
                                             ("2^20000", 2 ** 20000)],
                             ids=["literal", "power"])
    @pytest.mark.parametrize("command", ["check", "correlators"])
    def test_printed_exactly(self, tmp_path, command, term, value):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(
            TINY, potential=[f"x0^2/2 + {term}*x0^3"])), encoding="utf-8")
        src = str(Path(flatcirc.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "flatcirc.cli", command, str(path),
             "--order", "4"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert result.returncode in (EXIT_OK, EXIT_CHECK_FAILED)
        assert "Traceback" not in result.stderr
        # C_00^0 = 1 + 6 value x0: the identity residual and the family
        # both carry 6 value
        assert decimal_digits(6 * value) in result.stdout


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
        "potential [1]": (dict(TINY, potential=[1]), ("check",),
                          "potential is not a list of 1 expressions"),
        "identity [1]": (dict(TINY, identity=[1]), ("check",),
                         "identity is not a list"),
        "epsilon [1]": (dict(TINY, epsilon=[1]), ("check",),
                        "epsilon is not a list"),
        "euler components [2]": (dict(TINY, euler={"components": [2],
                                                   "weight": "1"}),
                                 ("check",), "euler components is not a list"),
        "identity a string": (dict(TINY, identity="1"), ("check",),
                              "identity is not a list"),
        "family order -1": (dict(FAMILY, dim=1, order=-1), ("correlators",),
                            "at order -1 the master equation is proven only "
                            "to degree -2; order must be at least 1"),
        "multiset longer than order": (dict(FAMILY, order=1, entries=[
            {"multiset": [0, 0, 1], "matrix": [["1", "0"], ["0", "1"]]}]),
            ("correlators",), "longer than order 1"),
        "lambda0 1/0": (QC_P1, ("check", "--lambda0", "1/0"), "--lambda0"),
        "family dim 0": (dict(FAMILY, dim=0), ("correlators",),
                         "dim must be at least 1"),
        "document a number": (5, ("correlators",), "malformed model document"),
        "check below degree 1": (QC_P1, ("check", "--order", "2"), "order 2"),
        "extend below degree 1": (QC_P1, ("extend", "--order", "2"),
                                  "order 2"),
        # one order rule for every instance: the structure tensor is
        # proven to order - 2 from a potential, and must reach degree 1
        "check --order 1": (QC_P1, ("check", "--order", "1"),
                            "at order 1 the structure tensor is proven only "
                            "to degree -1"),
        "check --order 0": (QC_P1, ("check", "--order", "0"), "at order 0"),
        "check --order -1": (QC_P1, ("check", "--order", "-1"),
                             "at order -1"),
        # the order is refused before the document is parsed, so no
        # division at a negative cap is tried
        "dividing potential at --order -1": (
            dict(TINY, variables=["x"],
                 potential=["x^3/6 + 1/((1+x)*(1+x))"]),
            ("check", "--order", "-1"),
            "at order -1 the structure tensor is proven only to degree -3"),
        "defaultOrder 0": (dict(TINY, defaultOrder=0), ("check",),
                           "defaultOrder must be at least 1"),
        # --order picks the order of a derived family; a family file has
        # its own
        "family file with --order": (FAMILY, ("correlators", "--order", "4"),
                                     "--order applies to deriving a family "
                                     "from a model; this family file has "
                                     "order 3"),
        # d_0 f_1 - d_1 f_0 = -x - y^2: the witness is the degree-1 monomial
        "structure not closed": ({"schemaVersion": 1, "name": "t", "dim": 2,
                                  "variables": ["x", "y"], "defaultOrder": 6,
                                  "structure": [[["x*y + y^3/3", "0"],
                                                 ["0", "0"]],
                                                [["0", "0"], ["0", "0"]]]},
                                 ("correlators",), "at monomial 1,0"),
        # JSON numbers: an integer field takes a JSON integer, a rational
        # field a JSON integer or a string, never a float or a bool
        "schemaVersion true": (dict(TINY, schemaVersion=True), ("check",),
                               "schemaVersion must be an integer, got true"),
        "dim 1.7": (dict(TINY, dim=1.7), ("check",),
                    "dim must be an integer, got 1.7"),
        "defaultOrder 4.9": (dict(TINY, defaultOrder=4.9), ("check",),
                             "defaultOrder must be an integer, got 4.9"),
        "lambda0 0.1": (dict(TINY, lambda0=0.1), ("check",),
                        "lambda0 must be an integer or a string, got 0.1"),
        "weight 0.5": (dict(TINY, euler={"components": ["x0"],
                                         "weight": 0.5}),
                       ("check",), "euler weight must be an integer or a "
                                   "string, got 0.5"),
        "family order 3.9": (dict(FAMILY, order=3.9), ("correlators",),
                             "order must be an integer, got 3.9"),
        "matrix entry 0.1": (dict(FAMILY, entries=[
            {"multiset": [0], "matrix": [[0.1, "0"], ["0", "0"]]}]),
            ("correlators",), "matrix entry must be an integer or a string, "
                              "got 0.1"),
        "multiset index 0.6": (dict(FAMILY, entries=[
            {"multiset": [0.6], "matrix": [["1", "0"], ["0", "1"]]}]),
            ("correlators",), "multiset index must be an integer, got 0.6"),
        "multiset index true": (dict(FAMILY, entries=[
            {"multiset": [True], "matrix": [["1", "0"], ["0", "1"]]}]),
            ("correlators",), "multiset index must be an integer, got true"),
        "multiset index '1'": (dict(FAMILY, entries=[
            {"multiset": ["1"], "matrix": [["1", "0"], ["0", "1"]]}]),
            ("correlators",), 'multiset index must be an integer, got "1"'),
        # names: a list of dim distinct identifiers, none of them exp
        "variables a string": (dict(TINY, dim=2, variables="xy",
                                    potential=["x^2/2", "y^2/2"],
                                    identity=["1", "1"]),
                               ("check",), "variables is not a list of 2"),
        "variables [5]": (dict(TINY, variables=[5]), ("check",),
                          "variables is not a list of 1 strings"),
        "variables [exp]": (dict(TINY, variables=["exp"],
                                 potential=["exp^2/2"]), ("check",),
                            "variables must match [A-Za-z_][A-Za-z_0-9]*, "
                            "other than exp"),
        "name [1]": (dict(TINY, name=[1]), ("check",),
                     "name must be a string"),
        # a multiset is named once, in any order of its indices
        "multiset repeated": (dict(FAMILY, entries=[
            {"multiset": [0, 0], "matrix": [["0", "0"], ["1", "0"]]},
            {"multiset": [1, 1], "matrix": [["0", "1"], ["0", "0"]]},
            {"multiset": [0, 0], "matrix": [["0", "0"], ["0", "0"]]}]),
            ("correlators",), "multiset [0, 0] is repeated"),
        "multiset repeated unsorted": (dict(FAMILY, entries=[
            {"multiset": [0, 1], "matrix": [["1", "0"], ["0", "1"]]},
            {"multiset": [1, 0], "matrix": [["0", "0"], ["0", "0"]]}]),
            ("correlators",), "multiset [0, 1] is repeated"),
        # the parser bounds the nesting instead of exhausting the stack
        "potential in 200 parentheses": (
            dict(TINY, potential=["(" * 200 + "x0^2/2" + ")" * 200]),
            ("check",), "parentheses nested deeper than 100 (at offset 100)"),
        "exp nested 101 deep": (
            dict(TINY, potential=["x0^2/2 + " + "exp(" * 101 + "x0"
                                  + ")" * 101]),
            ("check",), "parentheses nested deeper than 100 (at offset 409)"),
        # a number to a long literal power is refused before it is formed
        "literal to a long power": (
            dict(TINY, potential=["x0^2/2 + 7^10000000*x0^3"]),
            ("check",), "a number to this power reaches 2^65536 (at offset 10)"),
        "power of two past the bound": (
            dict(TINY, potential=["2^99999999999999*x0"]),
            ("extend",), "a number to this power reaches 2^65536 (at offset 1)"),
        # so is a series whose constant term would pass that bound
        "series to a long power": (
            dict(TINY, potential=["x0^2/2 + (7+x0)^1000000"]),
            ("check",),
            "a constant term to this power reaches 2^65536 (at offset 15)"),
        # the master equation differentiates once: order 0 proves nothing
        "family order 0": (dict(FAMILY, order=0, entries=[
            {"multiset": [], "matrix": [["1", "2"], ["3", "4"]]}]),
            ("correlators",), "at order 0"),
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

    def test_long_sign_chains_parse(self, capsys, tmp_path):
        # the signs are counted, not recursed into: 1,000 of them give the
        # report of none, and 100 parentheses are inside the bound
        reports = []
        for potential in ("x0^2/2", "-" * 1000 + "x0^2/2",
                          "(" * 100 + "x0^2/2" + ")" * 100):
            path = tmp_path / "input.json"
            path.write_text(json.dumps(dict(TINY, potential=[potential])))
            reports.append(run(capsys, "check", str(path)))
        assert reports[0][0] == EXIT_OK
        assert reports[1] == reports[2] == reports[0]


class TestNoIdentity:
    """A document without ``"identity"`` whose product has none gives a
    model with no identity field: C = x0 is singular at the origin."""

    DOC = {"schemaVersion": 1, "name": "table", "dim": 1,
           "variables": ["x0"], "structure": [[["x0"]]],
           "euler": {"components": ["x0"], "weight": "1"},
           "epsilon": ["exp(-x0)"]}

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(self.DOC))
        return str(path)

    @pytest.mark.parametrize("command", ["dualize", "extend"])
    def test_needs_identity(self, capsys, path, command):
        assert run(capsys, command, path, "--order", "4") == (
            EXIT_BAD_INPUT, "", "error: model 'table' has no identity field\n")

    def test_check_skips_twist_checks(self, capsys, path):
        code, out, _ = run(capsys, "check", path, "--order", "4",
                           "--format", "json")
        assert code == EXIT_CHECK_FAILED  # identity-exists fails
        results = {r["id"]: r for r in json.loads(out)["checks"]}
        assert results["identity-exists"]["status"] == "fail"
        for check_id in ("twist-membership", "twist-hypotheses",
                         "twist-identity-scaling"):
            assert results[check_id] == {
                "id": check_id, "status": "skip",
                "detail": "twist checks need an identity"}


class TestNoTwistedProduct:
    """A twist field that is zero at the origin is not circ-invertible, so
    there is no twisted product and nothing for the identity to scale."""

    DOC = {"schemaVersion": 1, "name": "no-pair", "dim": 1,
           "variables": ["x0"], "potential": ["x0^3/6"],
           "identity": ["1"], "epsilon": ["0"]}

    def test_check_skips_twist_identity_scaling(self, capsys, tmp_path):
        path = tmp_path / "no-pair.json"
        path.write_text(json.dumps(self.DOC))
        code, out, _ = run(capsys, "check", str(path), "--order", "4",
                           "--format", "json")
        assert code == EXIT_CHECK_FAILED  # twist-hypotheses fails
        results = {r["id"]: r for r in json.loads(out)["checks"]}
        assert results["twist-hypotheses"]["status"] == "fail"
        assert results["twist-hypotheses"]["detail"] \
            == "twist field circ-invertible at origin"
        assert results["twist-identity-scaling"] == {
            "id": "twist-identity-scaling", "status": "skip",
            "detail": "no twisted product: the twist field is not "
                      "circ-invertible at the origin"}


class TestTableIdentity:
    def test_identity_is_found_for_a_table(self, capsys, tmp_path):
        # a table gets the same identity search as a potential: e = 1
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "schemaVersion": 1, "name": "table", "dim": 1,
            "variables": ["x0"], "structure": [[["1"]]]}))
        code, out, _ = run(capsys, "check", str(path), "--order", "4",
                           "--format", "json")
        assert code == EXIT_OK
        results = {r["id"]: r for r in json.loads(out)["checks"]}
        assert results["identity-exists"] == {
            "id": "identity-exists", "status": "pass", "provenTo": 4}


class TestDualize:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Names of the twist-identity residual builders called in
        ``duality``, one entry per call."""
        calls = []
        for name in ("euler_residual", "lie_bracket"):
            original = getattr(duality, name)

            def counter(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(duality, name, counter)
        return calls

    @pytest.mark.parametrize("twisted_product", [False, True])
    def test_forms_no_twist_identity_residual(self, capsys, tmp_path, counted,
                                              twisted_product):
        model = "one-dim"
        if twisted_product:
            a, inv = unimodular_pair(2, [(0, 1, 1)], [1, 0], [1, -1])
            path = tmp_path / "product.json"
            path.write_text(json.dumps(product_document(
                ("one-dim", "one-dim"), a, inv, 5)))
            model = str(path)
        assert run(capsys, "dualize", model, "--order", "5")[0] == EXIT_OK
        assert counted == []
        # the counters see the residuals that ``check`` judges
        assert run(capsys, "check", model, "--order", "5")[0] == EXIT_OK
        assert sorted(counted) == ["euler_residual", "lie_bracket"]

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

    def test_fan_takes_no_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fan", "3", "--order", "99"])
        assert exc.value.code == EXIT_BAD_INPUT
        assert "unrecognized arguments: --order 99" in capsys.readouterr().err


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


# A valid model document that declares every optional field, and a valid
# correlator family; the fuzz below breaks one field of either at a time.
FUZZ_MODEL = {"schemaVersion": 1, "name": "fuzz", "dim": 2,
              "variables": ["x0", "x1"],
              "potential": ["x0^2/2 + exp(x1)", "x0*x1"],
              "identity": ["1", "0"],
              "euler": {"components": ["x0", "2"], "weight": "1"},
              "epsilon": ["exp(-x0)", "0"], "lambda0": "0",
              "defaultOrder": 4}
FUZZ_FAMILY = {"schemaVersion": 1, "dim": 2, "order": 3, "entries": [
    {"multiset": [0], "matrix": [["1", "0"], ["0", "1"]]},
    {"multiset": [0, 1], "matrix": [["0", "1"], ["1", "0"]]}]}
FUZZ_TARGETS = [(FUZZ_MODEL, command)
                for command in ("check", "extend", "dualize", "correlators")] \
    + [(FUZZ_FAMILY, "correlators")]


def json_type(value):
    for name, kind in (("null", type(None)), ("bool", bool),
                       ("number", (int, float)), ("string", str),
                       ("array", list)):
        if isinstance(value, kind):
            return name
    return "object"


def field_paths(value, prefix=()):
    """Paths to every field below the document root."""
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield prefix + (key,)
        yield from field_paths(sub, prefix + (key,))


# Numbers stay within 4 in size, so a replaced order stays small too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4)
    | st.floats(-4, 4, allow_nan=False) | st.text("x0^/(a", max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4)


class TestFuzzDocuments:
    """Any document with one field of the wrong JSON type exits 0, 1 or 2."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_wrong_type_never_raises(self, tmp_path_factory, data):
        document, command = data.draw(st.sampled_from(FUZZ_TARGETS))
        document = copy.deepcopy(document)
        *parents, last = data.draw(st.sampled_from(list(field_paths(document))))
        holder = document
        for key in parents:
            holder = holder[key]
        old = json_type(holder[last])
        holder[last] = data.draw(
            JSON_VALUES.filter(lambda value: json_type(value) != old))
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(document))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_INPUT)
        assert "Traceback" not in err.getvalue()

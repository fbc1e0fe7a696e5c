"""Golden reports: exit code and standard output of ``check``, ``extend``
and ``dualize`` on every corpus model at its default order, in text and
JSON, compared byte for byte with ``tests/data/golden_reports.json``.
``extend`` is also pinned at mu-orders 0, 1 and 7: the extension with only
its constant coefficient, the first power of mu, and a deep mu order.
``check`` is also pinned at base shift ``--lambda0=-1/2``, which gives the
pencil a base connection with nonzero Christoffels, and ``correlators``
pins the family derived from each model.  Two dense non-integrable
potentials in dimension 3 (``tests/data/dense-*.json``, seeded random
quartic and exp potentials of the benchmark's integrability shapes) pin
failing pencil and five-term witnesses at n = 3, which no corpus model
reaches.  ``fan`` is pinned at n = 1 to 6, the default size bound.

A refactor that keeps the library's results must keep these bytes.  After a
deliberate change of a report, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from flatcirc.cli import main
from flatcirc.models import CORPUS

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_reports.json"
DENSE = ("dense-quartic3.json", "dense-exp3.json")
CASES = [(command, model, fmt, ())
         for model in CORPUS
         for command in ("check", "extend", "dualize")
         for fmt in ("text", "json")] + [
    ("extend", model, fmt, ("--mu-order", mu_order))
    for model in CORPUS
    for mu_order in ("0", "1", "7")
    for fmt in ("text", "json")] + [
    ("check", model, fmt, ("--lambda0=-1/2",))
    for model in CORPUS
    for fmt in ("text", "json")] + [
    ("correlators", model, "json", ()) for model in CORPUS] + [
    ("check", model, fmt, ()) for model in DENSE for fmt in ("text", "json")] + [
    ("fan", str(n), fmt, ()) for n in range(1, 7) for fmt in ("text", "json")]


def run(command, model, fmt, flags):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        source = str(DATA / model) if model in DENSE else model
        code = main([command, source, "--format", fmt, *flags])
    return {"exit": code, "stdout": out.getvalue()}


def key(command, model, fmt, flags):
    return " ".join((command, model, fmt) + flags)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: key(*case))
def test_report_is_byte_identical(golden, case):
    assert run(*case) == golden[key(*case)]


def run_fixture(name, tmp_path):
    """Run the fixture's ``command`` (``check`` when it names none) on its
    document, with the flags of each of its ``runs`` (the fixture itself
    when it has none); the exit codes and stdouts, beside those the fixture
    holds."""
    case = json.loads((DATA / name).read_text(encoding="utf-8"))
    path = tmp_path / "qqo.json"
    path.write_text(json.dumps(case["document"]), encoding="utf-8")
    got, want = [], []
    for run_ in case.get("runs", [case]):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([case.get("command", "check"), str(path),
                         *run_["args"]])
        got.append({"exit": code, "stdout": out.getvalue()})
        want.append({"exit": run_["exit"], "stdout": run_["stdout"]})
    return got, want


def test_five_dim_product_is_byte_identical(tmp_path):
    """``check --order 4`` on a 5-dim integrable product, the size no
    workload reaches: the transformed product qc-p1 x qc-p1 x one-dim of
    ``benchmarks/workloads.py`` (``product_document("qqo", (QC_P1, QC_P1,
    ONE_DIM), a, inv, 6)`` with ``a, inv = unimodular_pair(random.Random(1),
    5)``).  The file holds the document, the flags, the exit code and stdout,
    so this test does not import the benchmark."""
    got, want = run_fixture("product-qqo5.json", tmp_path)
    assert got == want


def test_five_dim_product_at_order_five_is_byte_identical(tmp_path):
    """The same document at ``--order 5``: the five-term identity is proven
    to degree 2 there (1 at order 4), so this pins a deeper proven range at
    n = 5, where both the cut of C and the index orbits act."""
    got, want = run_fixture("product-qqo5-order5.json", tmp_path)
    assert got == want


@pytest.mark.parametrize("name", ["table-qo3-symmetric.json",
                                  "table-qo3-nonsymmetric.json"])
def test_structure_table_is_byte_identical(name, tmp_path):
    """``check`` on n = 3 structure tables, which no corpus model or workload
    reaches: C of the qc-p1 x one-dim potential (``x^2/2 + exp(y)``,
    ``x*y``, ``z^2/2``) at order 6, written out as polynomials, with the
    identity d_0 + d_2 declared and ``defaultOrder`` 4.  The symmetric table
    adds x*y*z to C_02^1 and C_20^1, so it is not a potential (the pencil's
    linear residual is not zero) and every pair of the five-term residual
    is sorted; the non-symmetric one adds x*y to C_02^1 alone, so the pairs
    (0,2) and (2,0) are kept apart.  Both fail the five-term identity
    inside the proven range, away from the constant term."""
    got, want = run_fixture(name, tmp_path)
    assert got == want


def test_twist_at_shift_minus_one_is_byte_identical(tmp_path):
    """``dualize`` in text and JSON on one-dim with ``lambda0`` -1: the twist
    is tested for the member lambda0 + 1 = 0, whose zero term 0 C still
    carries the ``valid_to`` of C, so "twist field flat for shifted
    connection" is proven to degree 6 at order 8, where the frame's flat
    member would give 7."""
    got, want = run_fixture("twist-one-dim-shift-minus1.json", tmp_path)
    assert got == want


if __name__ == "__main__":
    table = {key(*case): run(*case) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)

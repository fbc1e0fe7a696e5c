"""Golden reports: exit code and standard output of ``check``, ``extend``
and ``dualize`` on every corpus model at its default order, in text and
JSON, compared byte for byte with ``tests/data/golden_reports.json``.

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

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"
CASES = [(command, model, fmt)
         for model in CORPUS
         for command in ("check", "extend", "dualize")
         for fmt in ("text", "json")]


def run(command, model, fmt):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command, model, "--format", fmt])
    return {"exit": code, "stdout": out.getvalue()}


def key(command, model, fmt):
    return f"{command} {model} {fmt}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: key(*case))
def test_report_is_byte_identical(golden, case):
    assert run(*case) == golden[key(*case)]


if __name__ == "__main__":
    table = {key(*case): run(*case) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)

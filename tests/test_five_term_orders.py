"""The five-term verdict of ``check`` is monotone in the instance order.

Raising the order keeps every coefficient of C that the lower order
proves, so it can only prove more of the five-term residual.  On every
bundled model and on every model document under ``tests/data``, at orders
3 to 7 (the 5-dimensional product qqo5 at 3 to 5), ``check --format json``
must report for ``five-term-integrability``:

* a ``provenTo`` that never decreases;
* after a pass at order k, proven to p, no witness of degree <= p at k + 1;
* after a failure at order k, a failure at k + 1 with the same entry,
  monomial and value.

The sweep takes about 2 s on a 2-core Xeon with Python 3.11; a source whose
orders take more than 20 s together fails.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from flatcirc.cli import main
from flatcirc.models import CORPUS

DATA = Path(__file__).resolve().parent / "data"
SECONDS = 20.0


def documents():
    """(name, document or None for a bundled model) of every source, each
    document once: raw ones and the ``document`` of a fixture."""
    found = {name: None for name in CORPUS}
    for path in sorted(DATA.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        document = obj.get("document", obj)
        if "schemaVersion" in document and "dim" in document:
            found.setdefault(document["name"], document)
    return found


SOURCES = documents()


def orders(name):
    return range(3, 6) if name == "qqo" else range(3, 8)


def five_term(source, order):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main(["check", source, "--order", str(order), "--format", "json"])
    report = json.loads(out.getvalue())
    return next(r for r in report["checks"]
                if r["id"] == "five-term-integrability")


def test_sources_cover_bundled_and_data_documents():
    assert set(CORPUS) < set(SOURCES)
    assert {"qqo", "dense-exp3", "dense-quartic3"} <= set(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_five_term_verdict_is_monotone_in_the_order(name, tmp_path):
    document = SOURCES[name]
    source = name
    if document is not None:
        source = str(tmp_path / f"{name}.json")
        Path(source).write_text(json.dumps(document), encoding="utf-8")
    start = time.perf_counter()
    records = [(order, five_term(source, order)) for order in orders(name)]
    assert time.perf_counter() - start < SECONDS
    for (k, low), (_, high) in zip(records, records[1:]):
        assert high["provenTo"] >= low["provenTo"], (name, k)
        if low["status"] == "pass":
            witness = high.get("firstOffending")
            assert witness is None or \
                sum(witness["monomial"]) > low["provenTo"], (name, k)
        else:
            assert high["status"] == "fail", (name, k)
            assert high["firstOffending"] == low["firstOffending"], (name, k)

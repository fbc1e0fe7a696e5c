"""The verdicts of ``check`` are monotone in the instance order.

Raising the order keeps every coefficient of C that the lower order
proves, so it can only prove more of each residual.  On every bundled
model and on every model document under ``tests/data``, at orders 3 to 7
(the 5-dimensional product qqo5 at 3 to 5), ``check --format json`` must
report for ``five-term-integrability``, and for every other check whose
record has a ``provenTo``:

* a ``provenTo`` that never decreases;
* after a pass at order k, proven to p, no witness of degree <= p at k + 1;
* after a failure at order k, a failure at k + 1 with the same entry,
  monomial and value.

A record without a ``provenTo`` (a skip, the identity-derivative mode, a
missing identity) keeps its status.  Each source is run once at each
order, and both tests read those reports.  The sweep takes about 2 s on a
2-core Xeon with Python 3.11; a source whose orders take more than 20 s
together fails.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
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


def checks(source, order):
    """{check id: record} of the JSON report of ``check`` at ``order``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main(["check", source, "--order", str(order), "--format", "json"])
    return {r["id"]: r for r in json.loads(out.getvalue())["checks"]}


@lru_cache(maxsize=None)
def sweep(name):
    """(seconds, [(order, checks)]) of the source ``name`` at its orders."""
    document = SOURCES[name]
    with tempfile.TemporaryDirectory() as directory:
        source = name
        if document is not None:
            source = str(Path(directory) / f"{name}.json")
            Path(source).write_text(json.dumps(document), encoding="utf-8")
        start = time.perf_counter()
        reports = [(order, checks(source, order)) for order in orders(name)]
        return time.perf_counter() - start, reports


def assert_monotone(low, high, where):
    """The three rules for one check's records at orders k and k + 1."""
    assert high["provenTo"] >= low["provenTo"], where
    if low["status"] == "pass":
        witness = high.get("firstOffending")
        assert witness is None or \
            sum(witness["monomial"]) > low["provenTo"], where
    else:
        assert high["status"] == "fail", where
        assert high.get("firstOffending") == low.get("firstOffending"), where


def test_sources_cover_bundled_and_data_documents():
    assert set(CORPUS) < set(SOURCES)
    assert {"qqo", "dense-exp3", "dense-quartic3"} <= set(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_five_term_verdict_is_monotone_in_the_order(name):
    seconds, reports = sweep(name)
    assert seconds < SECONDS
    for (k, low), (_, high) in zip(reports, reports[1:]):
        assert_monotone(low["five-term-integrability"],
                        high["five-term-integrability"], (name, k))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_verdict_is_monotone_in_the_order(name):
    _, reports = sweep(name)
    for (k, low), (_, high) in zip(reports, reports[1:]):
        assert low.keys() == high.keys(), (name, k)
        for check_id, record in low.items():
            where = (name, k, check_id)
            if "provenTo" in record:
                assert_monotone(record, high[check_id], where)
            else:
                assert high[check_id]["status"] == record["status"], where

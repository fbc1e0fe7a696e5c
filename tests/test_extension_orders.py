"""``extend`` and ``check`` share one evaluation of the mu-extension, and
the H it prints holds through its proven degree at every higher order.

The sources are every bundled model and every distinct model document
under ``tests/data`` that has an identity and a scaling field.

* At orders 3 to 6 and mu-orders 0, 1 and 3, ``extend --format json``
  reports ``flatnessHolds``, ``provenTo`` and ``equationHolds`` as ``check
  --format json`` reports the status and ``provenTo`` of
  ``extension-flatness`` and the status of ``extension-equation``.
* At mu-order 3, every coefficient of every H_k entry up to the entry's
  ``valid_to`` at order k equals the coefficient at order k + 1, for k from
  3 to 5 (the 5-dimensional qqo5 at 3 only).  ``extend`` prints H formed
  from the uncut C, so this tests on these inputs that no printed
  coefficient it proves changes with the order.

Both sweeps together take about 6 s on a 2-core Xeon with Python 3.11; a
source whose runs take more than 30 s fails.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

from flatcirc.checks import evaluate_extension
from flatcirc.cli import main
from flatcirc.models import CORPUS, ModelDocument, load_model

DATA = Path(__file__).resolve().parent / "data"
SECONDS = 30.0
MU_ORDERS = (0, 1, 3)


def extensible(document):
    instance = document.instantiate(3)
    return instance.identity is not None and instance.euler is not None


def sources():
    """{key: (model document, JSON text or None for a bundled model)} of
    every source with an identity and a scaling field; a fixture's
    ``document`` counts once however many fixtures hold it."""
    found = {name: (load_model(name), None) for name in CORPUS}
    seen = set()
    for path in sorted(DATA.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        document = obj.get("document", obj)
        text = json.dumps(document, sort_keys=True)
        if "dim" in document and text not in seen:
            seen.add(text)
            found[path.stem] = (ModelDocument.from_json_obj(document), text)
    return {key: value for key, value in found.items()
            if extensible(value[0])}


SOURCES = sources()


def top_order(key):
    return 4 if SOURCES[key][0].dim >= 5 else 6


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main(argv)
    return json.loads(out.getvalue())


@lru_cache(maxsize=None)
def command_pairs(key):
    """(seconds, [(order, mu-order, extend JSON, check JSON)])."""
    text = SOURCES[key][1]
    with tempfile.TemporaryDirectory() as directory:
        source = key
        if text is not None:
            source = str(Path(directory) / f"{key}.json")
            Path(source).write_text(text, encoding="utf-8")
        start = time.perf_counter()
        pairs = []
        for order in range(3, 7):
            for mu in MU_ORDERS:
                at = ("--order", str(order), "--mu-order", str(mu),
                      "--format", "json")
                pairs.append((order, mu, run(["extend", source, *at]),
                              run(["check", source, *at])))
        return time.perf_counter() - start, pairs


def test_there_are_sources():
    assert {"one-dim", "qc-p1", "shifted-identity"} <= set(SOURCES)
    assert any(document.dim == 5 for document, _ in SOURCES.values())


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_extend_reports_what_check_reports(key):
    seconds, pairs = command_pairs(key)
    assert seconds < SECONDS, f"{key}: {seconds:.1f} s"
    for order, mu, extend, check in pairs:
        records = {r["id"]: r for r in check["checks"]}
        flatness = records["extension-flatness"]
        equation = records["extension-equation"]
        where = f"{key} order {order} mu-order {mu}"
        assert extend["flatnessHolds"] == (flatness["status"] == "pass"), where
        assert extend["provenTo"] == flatness["provenTo"], where
        assert extend["equationHolds"] == (equation["status"] == "pass"), where


def h_at(key, order):
    instance = SOURCES[key][0].instantiate(order)
    return evaluate_extension(instance.structure, instance.identity,
                              instance.lambda0, instance.euler[0], 3).h


def terms_through(s, degree):
    return [(e, c) for e, c in s.items() if sum(e) <= degree]


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_printed_h_holds_at_the_next_order(key):
    start = time.perf_counter()
    compared = 0
    for order in range(3, top_order(key)):
        low, high = h_at(key, order), h_at(key, order + 1)
        for k, (h_low, h_high) in enumerate(zip(low, high, strict=True)):
            for a, (row_low, row_high) in enumerate(zip(h_low.matrix,
                                                        h_high.matrix)):
                for c, (s, t) in enumerate(zip(row_low, row_high)):
                    assert terms_through(s, s.valid_to) == terms_through(
                        t, s.valid_to), f"{key} order {order} H_{k} [{a}][{c}]"
                    compared += 1
    assert compared
    seconds = time.perf_counter() - start
    assert seconds < SECONDS, f"{key}: {seconds:.1f} s"

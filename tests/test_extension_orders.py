"""``extend`` and ``check`` share one evaluation of the mu-extension, and
what ``extend`` and ``dualize`` print holds at every higher order.

The sources are every bundled model, every distinct model document under
``tests/data`` and the two documents ``INLINE`` holds; ``extend`` runs on
those with an identity and a scaling field, ``dualize`` on those with an
identity and a twist field.

* At orders 3 to 6 and mu-orders 0, 1 and 3, ``extend --format json``
  reports ``flatnessHolds``, ``provenTo`` and ``equationHolds`` as ``check
  --format json`` reports the status and ``provenTo`` of
  ``extension-flatness`` and the status of ``extension-equation``.
* At mu-order 3, every stored term of every H_k entry at order k equals
  the coefficient at order k + 1, and no term up to the entry's cap is
  missing there, for k from 3 to 5 (the 5-dimensional qqo5 at 3 only), at
  the source's own base shift and at each shift of the digest sweep (1,
  -1/2, 2 and -1).
* Every coefficient of ``dualStructure`` and ``inverseTwist`` that
  ``dualize --format json`` prints at order k is printed with the same
  value at order k + 1, for k from 3 to 5.

Both commands print only coefficients through their proven degree, so a
printed coefficient does not change with the order.  All sweeps together
take about 5 s on a 2-core Xeon with Python 3.11; a source whose runs take
more than 30 s fails.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from flatcirc.checks import cut_to_proven, evaluate_extension
from flatcirc.cli import main
from flatcirc.models import CORPUS, ModelDocument, load_model

DATA = Path(__file__).resolve().parent / "data"
SECONDS = 30.0
MU_ORDERS = (0, 1, 3)
# the base shifts of the digest sweep; None is the source's own
SHIFTS = (None, Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(-1))

# qc-p1 with a scaling field whose second component has a linear term, and
# qc-p1 with a twist field.  Formed from the uncut C, the coefficient 0,5 of
# H_0 [0][1] is 1/24 at order 6 and 7/120 at order 7, and the coefficient
# 1,4 of the dual entry [0][1][0] is 67/24 at order 6 and -53/24 at order 7:
# both lie above their proven degree.
QC_P1 = {"schemaVersion": 1, "dim": 2, "variables": ["x0", "x1"],
         "potential": ["x0^2/2 + exp(x1)", "x0*x1"], "identity": ["1", "0"],
         "euler": {"components": ["x0", "2"], "weight": "1"}}
INLINE = {
    "qc-p1-euler-x1": dict(QC_P1, name="qc-p1-euler-x1",
                           euler={"components": ["x0", "2 + x1"],
                                  "weight": "1"}),
    "qc-p1-twist": dict(QC_P1, name="qc-p1-twist", epsilon=["1 + x1", "x0"]),
}


def all_sources():
    """{key: (model document, JSON text or None for a bundled model)} of
    every source; a fixture's ``document`` counts once however many
    fixtures hold it."""
    found = {name: (load_model(name), None) for name in CORPUS}
    seen = set()
    documents = []
    for path in sorted(DATA.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        documents.append((path.stem, obj.get("document", obj)))
    for key, document in (*documents, *INLINE.items()):
        text = json.dumps(document, sort_keys=True)
        if "dim" in document and text not in seen:
            seen.add(text)
            found[key] = (ModelDocument.from_json_obj(document), text)
    return found


ALL_SOURCES = all_sources()


def having(*fields):
    """The sources whose instance at order 3 has every one of ``fields``."""
    return {key: value for key, value in ALL_SOURCES.items()
            if all(getattr(value[0].instantiate(3), field) is not None
                   for field in fields)}


SOURCES = having("identity", "euler")
TWISTED = having("identity", "epsilon")


def top_order(key):
    return 4 if SOURCES[key][0].dim >= 5 else 6


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main(argv)
    return json.loads(out.getvalue())


def source_path(key, sources, directory):
    """The command-line source of ``key``: its name for a bundled model,
    else a file written under ``directory``."""
    text = sources[key][1]
    if text is None:
        return key
    path = Path(directory) / f"{key}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@lru_cache(maxsize=None)
def command_pairs(key):
    """(seconds, [(order, mu-order, extend JSON, check JSON)])."""
    with tempfile.TemporaryDirectory() as directory:
        source = source_path(key, SOURCES, directory)
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
    assert {"one-dim", "qc-p1", "shifted-identity", *INLINE} <= set(SOURCES)
    assert {"one-dim", "qc-p1-twist"} <= set(TWISTED)
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


def h_at(key, order, shift):
    """The H that ``extend`` prints on ``key`` at ``order`` and mu-order 3,
    with the base shift ``shift`` as the document's ``lambda0`` (None: the
    document's own)."""
    instance = SOURCES[key][0].instantiate(order)
    lambda0 = instance.lambda0 if shift is None else shift
    return evaluate_extension(cut_to_proven(instance.structure),
                              instance.identity, lambda0,
                              instance.euler[0], 3).h


def terms_through(s, degree):
    return [(e, c) for e, c in s.items() if sum(e) <= degree]


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_printed_h_holds_at_the_next_order(key):
    start = time.perf_counter()
    compared = 0
    for shift, order in product(SHIFTS, range(3, top_order(key))):
        low, high = h_at(key, order, shift), h_at(key, order + 1, shift)
        for k, (h_low, h_high) in enumerate(zip(low, high, strict=True)):
            for a, (row_low, row_high) in enumerate(zip(h_low.matrix,
                                                        h_high.matrix)):
                for c, (s, t) in enumerate(zip(row_low, row_high)):
                    assert list(s.items()) == terms_through(t, s.cap), (
                        f"{key} shift {shift} order {order} H_{k} [{a}][{c}]")
                    compared += 1
    assert compared
    seconds = time.perf_counter() - start
    assert seconds < SECONDS, f"{key}: {seconds:.1f} s"


def printed_dual(obj):
    """{(where, exponent): value} of every coefficient of the dual
    structure and the inverse twist in a ``dualize`` JSON report."""
    n = len(obj["inverseTwist"])
    entries = [(f"inverseTwist [{c}]", text)
               for c, text in enumerate(obj["inverseTwist"])]
    entries += [(f"dualStructure [{a}][{b}][{c}]",
                 obj["dualStructure"][a][b][c])
                for a in range(n) for b in range(n) for c in range(n)]
    return {(where, exponent): value for where, text in entries
            for exponent, value in (line.split(":")
                                    for line in text.splitlines())}


@pytest.mark.parametrize("key", sorted(TWISTED))
def test_printed_dual_holds_at_the_next_order(key):
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory:
        source = source_path(key, TWISTED, directory)
        printed = [printed_dual(run(["dualize", source, "--order", str(order),
                                     "--format", "json"]))
                   for order in range(3, 7)]
    for order, low, high in zip(range(3, 6), printed, printed[1:]):
        for (where, exponent), value in low.items():
            assert high.get((where, exponent)) == value, (
                f"{key} order {order} {where} monomial {exponent}")
    assert any(printed)
    seconds = time.perf_counter() - start
    assert seconds < SECONDS, f"{key}: {seconds:.1f} s"

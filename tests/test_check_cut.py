"""The check suite forms its residuals from C cut to its proven degree.

``run_check_suite`` gives each entry of C the cap of its own ``valid_to``
before any residual is formed.  These tests pin that the cut changes no
verdict: the records equal ``judge`` of the residuals formed from the uncut
structure, the whole report equals the one with the cut left out, and the
report still names the instance order.  ``cut_to_proven`` cuts each
distinct row of C once and keeps C_ab and C_ba one row, and so does the
dual formed from the cut C.  ``evaluate_extension``, which ``extend`` hands
the cut C, forms from it H, cut entry by entry, which its flatness residual
reads and ``extend`` prints.  On qqo5 the suite reads that
residual off the R2 and the scaling-weight residual it has formed, forming
each once, no H and no commutator [H_k, C_a]; a shift, an identity that
fails and a table that is not symmetric keep the commutators, and
``extend``, which prints H, forms it once.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from flatcirc import checks, euler
from flatcirc.checks import run_check_suite
from flatcirc.cli import main
from flatcirc.duality import dual_structure
from flatcirc.fmanifold import five_term_residual
from flatcirc.geometry import (EndField, HiggsField, base_member,
                               covariant_derivative, iter_tensor, judge,
                               pencil_curvature_split)
from flatcirc.models import CORPUS, ModelDocument, load_model
from flatcirc.series import TruncatedSeries


def exp_document(seed, n, order):
    """A seeded potential of quadratic and cubic monomials plus one
    exponential of a linear form per component: C is dense up to its
    proven degree, two below the cap, where the cut puts its cap."""
    rng = random.Random(f"cut:{seed}:{n}")
    xs = [f"x{i}" for i in range(n)]

    def component():
        terms = [f"{rng.randint(-3, 3)}*{xs[i]}*{xs[j]}"
                 for i in range(n) for j in range(i, n)]
        terms += [f"{rng.randint(-3, 3)}*{xs[i]}^3" for i in range(n)]
        linear = " + ".join(f"{rng.randint(-2, 2)}*{x}" for x in xs)
        return " + ".join(terms) + f" + {rng.randint(1, 3)}*exp({linear})"

    return {"schemaVersion": 1, "name": f"exp{n}-{seed}", "dim": n,
            "variables": xs, "defaultOrder": order,
            "potential": [component() for _ in range(n)]}


CASES = [(seed, n, order) for n in (2, 3) for order in range(4, 9)
         for seed in (0, 1)]


def record(report, check_id):
    return next(r for r in report.results if r.check_id == check_id)


def verdict_fields(result):
    return result.status, result.proven_to, result.offending


@pytest.mark.parametrize("seed, n, order", CASES)
def test_cut_changes_no_verdict(seed, n, order, monkeypatch):
    instance = ModelDocument.from_json_obj(
        exp_document(seed, n, order)).instantiate(order)
    uncut = instance.structure
    five_term = five_term_residual(uncut)
    # uncut, the residual holds terms above its proven degree
    assert any(not s.from_degree(s.valid_to + 1).vanishes_through(s.cap)
               for _, s in iter_tensor(five_term))

    received = []

    def recording(structure):
        received.extend(s for p in structure.tensor for r in p for s in r)
        return five_term_residual(structure)

    monkeypatch.setattr(checks, "five_term_residual", recording)
    report = run_check_suite(instance, 2, None)
    assert received and all(s.cap == s.valid_to for s in received)
    assert report.order == order

    r1, r2 = pencil_curvature_split(uncut, base_member(instance.lambda0))
    for check_id, tensor in (("five-term-integrability", five_term),
                             ("pencil-linear-flatness", r1),
                             ("pencil-quadratic-flatness", r2)):
        verdict = judge(tensor)
        assert verdict_fields(record(report, check_id)) == (
            "pass" if verdict.holds else "fail", verdict.proven_to,
            verdict.offending), check_id


def test_json_order_is_the_flag(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(exp_document(0, 2, 8)), encoding="utf-8")
    for order in (4, 6):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main(["check", str(path), "--order", str(order),
                  "--format", "json"])
        assert json.loads(out.getvalue())["order"] == order


# A declared identity e = 1 + x^k at order k: nabla_e e is k x^(k-1) + ...,
# one degree above the cap of the cut C, so the flat connection must stay
# at the instance order for the identity-derivative mode to read it.
DECLARED_IDENTITY = {"schemaVersion": 1, "name": "declared", "dim": 1,
                     "variables": ["x"], "defaultOrder": 4,
                     "potential": ["x^2/2 + x^3/6"], "identity": ["1 + x^4"],
                     "euler": {"components": ["x"], "weight": "1"},
                     "epsilon": ["1 + x"]}


@pytest.mark.parametrize("document, order, shift", [
    (exp_document(0, 2, 6), 6, None),
    (exp_document(1, 2, 5), 5, Fraction(1)),
    (exp_document(0, 3, 5), 5, Fraction(-1, 2)),
    (DECLARED_IDENTITY, 4, None),
    (DECLARED_IDENTITY, 4, Fraction(2)),
])
def test_report_equals_the_uncut_report(document, order, shift, monkeypatch):
    instance = ModelDocument.from_json_obj(document).instantiate(order)
    cut = run_check_suite(instance, 2, shift)
    monkeypatch.setattr(checks, "cut_to_proven", lambda structure: structure)
    uncut = run_check_suite(instance, 2, shift)
    assert cut.to_json() == uncut.to_json()
    assert cut.to_text() == uncut.to_text()


QQO5 = json.loads((Path(__file__).resolve().parent / "data"
                   / "product-qqo5-order5.json").read_text(
                       encoding="utf-8"))["document"]


def proven_terms(s):
    return [(e, c) for e, c in s.items() if sum(e) <= s.valid_to]


@pytest.mark.parametrize("document, order, lambda0", [
    (QQO5, 5, Fraction(0)),
    (QQO5, 4, Fraction(1)),
    (DECLARED_IDENTITY, 4, Fraction(-1, 2)),
], ids=["qqo5-order5", "qqo5-order4-shift1", "declared-shift-half"])
def test_extension_flatness_from_cut_operands(document, order, lambda0,
                                              monkeypatch):
    """``evaluate_extension`` hands ``full_flatness_residual`` C and every
    H_k cut to their proven degrees; the H it returns is that cut H, which
    agrees with the H of the uncut C through each entry's ``valid_to``, and
    so does the flatness it forms, with the same verdict."""
    instance = ModelDocument.from_json_obj(document).instantiate(order)
    uncut, e, mu_order = instance.structure, instance.identity, 3
    e_field = instance.euler[0]
    working = base_member(lambda0)
    e1 = covariant_derivative(uncut, working, e, e)
    g = euler.geometric_inverse(uncut, e, e1, mu_order)
    h = euler.h_from_e(e_field, uncut, working, g)
    flatness = euler.full_flatness_residual(h, uncut, working)
    # the cut has something to drop
    assert any(s.cap > s.valid_to for _, s in iter_tensor(uncut.tensor))
    assert any(s.cap > s.valid_to for _, s in iter_tensor(h))

    received = []
    full_flatness_residual = euler.full_flatness_residual

    def recording(h_cut, c, shift):
        received.append((h_cut, c))
        return full_flatness_residual(h_cut, c, shift)

    monkeypatch.setattr(checks.euler_mod, "full_flatness_residual", recording)
    extension = checks.evaluate_extension(checks.cut_to_proven(uncut), e,
                                          lambda0, e_field, mu_order)
    (h_cut, c), = received
    for _, s in (*iter_tensor(h_cut), *iter_tensor(c.tensor)):
        assert s.cap == s.valid_to
    for (index, got), (_, want) in zip(iter_tensor(extension.h),
                                       iter_tensor(h), strict=True):
        assert got.cap == got.valid_to, index
        assert got.valid_to == want.valid_to, index
        assert proven_terms(got) == proven_terms(want), index
    for (index, got), (_, want) in zip(iter_tensor(extension.flatness),
                                       iter_tensor(flatness),
                                       strict=True):
        assert got.valid_to == want.valid_to, index
        assert proven_terms(got) == proven_terms(want), index
    assert judge(extension.flatness) == judge(flatness)


TABLE = json.loads((Path(__file__).resolve().parent / "data"
                    / "table-qo3-nonsymmetric.json").read_text(
                        encoding="utf-8"))["document"]
SYMMETRIC_TABLE = json.loads((Path(__file__).resolve().parent / "data"
                              / "table-qo3-symmetric.json").read_text(
                                  encoding="utf-8"))["document"]


def shared(tensor, a, b):
    return tensor[a][b] is tensor[b][a]


@pytest.mark.parametrize("document, order, symmetric", [
    (QQO5, 5, True), (SYMMETRIC_TABLE, 4, True), (TABLE, 4, False),
], ids=["qqo5", "table-symmetric", "table-not-symmetric"])
def test_cut_keeps_shared_rows(document, order, symmetric, monkeypatch):
    """``cut_to_proven`` cuts each distinct row once, n cuts for each of
    ``representatives``, and tiles the cut rows over ``pairs``: C_ab is
    C_ba wherever the two rows are equal, two rows stay two, and each entry
    is the cut of the entry of C."""
    structure = ModelDocument.from_json_obj(document).instantiate(
        order).structure
    n, t, pairs = structure.dim, structure.tensor, structure.pairs
    want = [[[s.cut(s.valid_to) for s in row] for row in plane]
            for plane in t]
    calls = []
    cut = TruncatedSeries.cut

    def counted(s, cap):
        calls.append(s)
        return cut(s, cap)

    monkeypatch.setattr(TruncatedSeries, "cut", counted)
    result = checks.cut_to_proven(structure).tensor
    assert len(calls) == len(structure.representatives) * n
    assert all(pairs[a][b] == pairs[b][a]
               for a in range(n) for b in range(n)) == symmetric
    for a in range(n):
        for b in range(n):
            assert shared(result, a, b) == (pairs[a][b] == pairs[b][a])
            assert list(result[a][b]) == want[a][b], (a, b)


def sharing_sources():
    """{key: document} of every bundled model, every model document under
    ``tests/data`` built from a potential, and the symmetric table."""
    found = {name: load_model(name) for name in CORPUS}
    for path in sorted((Path(__file__).resolve().parent / "data").glob(
            "*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        document = obj.get("document", obj)
        if "potential" in document or document == SYMMETRIC_TABLE:
            found[path.stem] = ModelDocument.from_json_obj(document)
    return found


SHARING_SOURCES = sharing_sources()


@pytest.mark.parametrize("key", sorted(SHARING_SOURCES))
def test_cut_and_dual_share_every_row(key):
    """On C from a potential and on the symmetric table, the cut C and the
    dual formed from it (twisted by the twist field, else by the identity)
    keep every C_ab and C_ba one row."""
    instance = SHARING_SOURCES[key].instantiate(4)
    cut = checks.cut_to_proven(instance.structure)
    n = cut.dim
    assert all(shared(cut.tensor, a, b) for a in range(n) for b in range(n))
    if instance.identity is None:
        return
    epsilon = instance.epsilon or instance.identity
    dual = dual_structure(cut, instance.identity, epsilon).dual.tensor
    assert all(shared(dual, a, b) for a in range(n) for b in range(n))


@pytest.fixture
def formed(monkeypatch):
    """Counts of what the suite forms: R2 (``HiggsField.r2``), the
    scaling-weight residual, the commutators [A, B] and each way of forming
    the extension's flatness."""
    counts = {"r2": 0, "euler_residual": 0, "commutator": 0,
              "full_flatness_residual": 0, "flatness_from_residuals": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    r2 = cached_property(counted("r2", HiggsField.r2.func))
    r2.__set_name__(HiggsField, "r2")
    monkeypatch.setattr(HiggsField, "r2", r2)
    monkeypatch.setattr(EndField, "commutator",
                        counted("commutator", EndField.commutator))
    for name in ("euler_residual", "full_flatness_residual",
                 "flatness_from_residuals"):
        monkeypatch.setattr(euler, name, counted(name, getattr(euler, name)))
    return counts


def test_check_reads_the_flatness_off_formed_residuals(formed):
    """On qqo5 at order 5, ``check`` forms R2 and the scaling-weight
    residual once each and no [H_k, C_a]: the only commutators are the n
    of [C_a, D] inside the scaling-weight residual."""
    instance = ModelDocument.from_json_obj(QQO5).instantiate(5)
    report = run_check_suite(instance, 3, None)
    assert record(report, "extension-flatness").status == "pass"
    assert formed == {"r2": 1, "euler_residual": 1, "commutator": 5,
                      "full_flatness_residual": 0,
                      "flatness_from_residuals": 1}


@pytest.mark.parametrize("document, order, lambda0", [
    (QQO5, 4, Fraction(1)),
    (dict(QQO5, identity=["-1", "-1", "2", "-2", "2"]), 5, None),
    (dict(TABLE, euler={"components": ["x", "y", "z"], "weight": "1"}), 4,
     None),
], ids=["shift", "identity-fails", "table-not-symmetric"])
def test_other_inputs_keep_the_commutators(document, order, lambda0, formed):
    """A shift, an identity residual L_e - 1 that does not vanish, and a
    table that is not symmetric form the flatness from the commutators."""
    instance = ModelDocument.from_json_obj(document).instantiate(order)
    run_check_suite(instance, 3, lambda0)
    assert formed["full_flatness_residual"] == 1
    assert formed["flatness_from_residuals"] == 0


@pytest.mark.parametrize("command, calls", [("check", 0), ("extend", 1)])
def test_h_formed_only_where_read(command, calls, tmp_path, monkeypatch):
    """``check`` on qqo5 reads the mu-flatness off its residuals and forms
    no H; ``extend`` prints H and forms it once."""
    path = tmp_path / "qqo5.json"
    path.write_text(json.dumps(QQO5), encoding="utf-8")
    formed = []
    h_from_e = euler.h_from_e

    def counted(*args):
        formed.append(args)
        return h_from_e(*args)

    monkeypatch.setattr(euler, "h_from_e", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([command, str(path), "--order", "5"]) == 0
    assert len(formed) == calls

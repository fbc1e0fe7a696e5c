"""Tests of the benchmark itself: generator, gate and tracer.

Run from the checkout root with ``python3 -m pytest benchmarks -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from gate import Ledger, Outcome, problems  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Run, run_task  # noqa: E402
from workloads import ALL_PASS, INTEGRABILITY, Expect, Task  # noqa: E402

from flatcirc import checks, cli, fmanifold  # noqa: E402
from flatcirc.series import TruncatedSeries  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first, again = workloads.build(name, 7), workloads.build(name, 7)
    assert first.documents == again.documents
    assert first.tasks == again.tasks
    assert first.digests() == again.digests()


def test_seed_changes_the_documents():
    for name in ("integrability-dense", "extension-twist"):
        assert workloads.build(name, 1).digests() != workloads.build(name, 2).digests()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coordinate_change_is_unimodular(n):
    import random
    a, inv = workloads.unimodular_pair(random.Random(n), n)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert workloads.mat_mul(inv, a) == identity
    assert all(v != 0 for row in a for v in row)


def test_task_keys_are_unique():
    for name in workloads.WORKLOADS:
        keys = [t.key for t in workloads.build(name, 0).tasks]
        assert len(keys) == len(set(keys))


def _broken_check():
    return run_task(cli, Task("broken", ("check", "broken-assoc", "--order", "5",
                                         "--format", "json"), Expect(0, ALL_PASS)))


def test_gate_rejects_a_wrong_verdict():
    outcome = _broken_check()
    as_control = Task("broken", ("check",), Expect(0, ALL_PASS))
    as_failure = Task("broken", ("check",), Expect(1, INTEGRABILITY))
    assert problems(as_control, outcome)
    assert problems(as_failure, outcome) == []


def test_mislabelled_control_counts_toward_failed_share():
    task = Task("broken-as-control", ("check", "broken-assoc", "--order", "5",
                                      "--format", "json"), Expect(0, ALL_PASS))
    run = Run(cli, (task,))
    run.one_pass(timed=True)
    assert (run.attempted, run.failed) == (1, 1)
    assert run.matched == 0


def test_gate_flags_differing_bytes_between_passes():
    task = Task("t", ("fan", "3"), Expect(0))
    ledger = Ledger()
    assert ledger.problems(task, Outcome(0, "a\n", "")) == []
    assert ledger.problems(task, Outcome(0, "b\n", ""))


def test_gate_flags_an_uncaught_exception():
    assert problems(Task("t", (), Expect(0)), Outcome(None, "", "", error="IndexError: x"))


def test_tracer_sees_calls_through_from_import_bindings():
    original = fmanifold.five_term_residual
    tracer = Tracer()
    with tracer:
        assert checks.five_term_residual is not original
        out = run_task(cli, Task("qc", ("check", "qc-p1", "--order", "3"), Expect(0)))
    assert out.exit == 0
    assert checks.five_term_residual is original
    table = tracer.snapshot()
    assert table["fmanifold.five_term_residual.calls"] == 1
    assert table["checks.run_check_suite.calls"] == 1
    assert table["cli.main.calls"] == 1
    assert table["series.mul.calls"] > 0
    assert tracer.spans[0].name == "cli.main" and tracer.spans[0].task is None


def test_rmul_alias_is_counted():
    # __rmul__ is bound to __mul__ in the class body, so it needs its own patch
    tracer = Tracer()
    s = TruncatedSeries.variable(2, 3, 0)
    with tracer:
        _ = 2 * s
        _ = s * s
    assert tracer.counters["series.mul"][0] == 2
    assert tracer.term_pairs == 1 and tracer.in_cap_pairs == 1


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    with tracer:
        run_task(cli, Task("qc", ("check", "qc-p1", "--order", "3"), Expect(0)))
    table = tracer.snapshot()
    own = sum(v for k, v in table.items() if k.endswith(".self_s"))
    root = table["cli.main.total_s"]
    assert abs(own + table["trace.bookkeeping_s"] - root) <= 1e-6 * max(1, root) + 1e-9



def _check_report(**statuses):
    checks = [{"id": cid.replace("_", "-"), "status": st} for cid, st in statuses.items()]
    return json.dumps({"checks": checks})


def test_gate_applies_the_per_check_rules():
    control = Task("t", ("check",), Expect(0, ALL_PASS))
    failing = _check_report(structure_symmetric="pass", five_term_integrability="fail")
    assert problems(control, Outcome(0, failing, ""))
    relational = Task("t", ("check",), Expect(None, INTEGRABILITY))
    assert problems(relational, Outcome(1, failing, ""))  # five-term without pencil
    both = _check_report(structure_symmetric="pass", pencil_quadratic_flatness="fail",
                         five_term_integrability="fail")
    assert problems(relational, Outcome(1, both, "")) == []
    assert problems(relational, Outcome(0, both, ""))  # a failed check must exit 1

"""Digest the output of every benchmark workload task and of a sweep.

Usage, from anywhere::

    python3 tools/workload_digests.py TREE > digests.json

TREE is the root of a flatcirc checkout.  The script imports flatcirc from
``TREE/src`` and the task lists from ``TREE/benchmarks/workloads.py`` (read
only: no bytecode is written), then runs in this process

* every task of every workload at seeds 0 and 1;
* a sweep of ``check`` with ``--lambda0`` in {0, 1, -1/2, 2, -1} and
  ``--mu-order`` in {0, 1, 3}, ``extend`` with the same mu-orders and
  ``dualize``, each at orders 3, 4 and 5, over the bundled models, the
  documents of every workload at seed 0 and the model documents under
  ``TREE/tests/data`` (a file that is one, or the ``document`` a test case
  holds, each distinct document once, named after the first file that
  holds it): structure tables, n = 5 and a declared ``lambda0`` among them.
  The workloads themselves run only the bundled ``shifted-identity`` with a
  nonzero base shift, so the sweep is what reaches the lambda C terms of
  the twist, extension and identity-derivative residuals on dense and
  transformed models;
* ``correlators DOC --order k --report F``, which derives a correlator
  family from each swept document at each of the sweep's orders, and then
  ``correlators F``, which verifies that family: no workload task derives
  a family from a structure table or from the n = 5 product;
* ``dualize``, which has no ``--lambda0``, at the same orders on a copy of
  every swept document that declares a twist field, with each
  of those base shifts written into the copy as ``lambda0``.  Its report
  gives the degree of each twist hypothesis, so at -1 it shows the twist
  tested for the member lambda0 + 1 = 0, whose zero term still carries the
  cap and ``valid_to`` of C; the ``check`` report folds that degree into the
  least over the hypotheses.

Each workload and seed, and the sweep, run in a fresh temporary directory
that holds their model documents; every path on a command line is relative
to it, so no output names the directory and two trees digest alike.  For
each task the script prints the SHA-256 of its exit code, stdout, stderr
and ``--report`` file as one JSON object with sorted keys
``<workload>/<seed>/<task key>`` and ``sweep/<model>/<command>/...``, the
shifted copies as ``sweep/<document>/dualize/l<shift>/o<order>``.  Two
trees whose digest files are byte-identical (``cmp``) give the same bytes on
every task.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1)
SWEEP_ORDERS = (3, 4, 5)
SWEEP_LAMBDA0 = ("0", "1", "-1/2", "2", "-1")
SWEEP_MU_ORDERS = (0, 1, 3)


def run_task(cli, argv, report=None) -> str:
    """SHA-256 of one task's exit code, stdout, stderr and report bytes.

    An uncaught exception is part of the digest (type and message), so a
    traceback in one tree never digests like a clean exit in the other.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    data = None
    if report is not None and os.path.exists(report):
        data = Path(report).read_bytes().hex()
    record = json.dumps([code, out.getvalue(), err.getvalue(), data, error])
    return hashlib.sha256(record.encode()).hexdigest()


def sweep_tasks(models):
    """(key, argv, report) of the sweep over ``models``, names or document
    paths: ``report`` is the file the task writes, else None."""
    for i, model in enumerate(models):
        for order in SWEEP_ORDERS:
            at = (model, "--order", str(order))
            for mu in SWEEP_MU_ORDERS:
                for shift in SWEEP_LAMBDA0:
                    yield (f"sweep/{model}/check/o{order}/mu{mu}/l{shift}",
                           ("check",) + at + ("--mu-order", str(mu),
                                              f"--lambda0={shift}",
                                              "--format", "json"), None)
                yield (f"sweep/{model}/extend/o{order}/mu{mu}",
                       ("extend",) + at + ("--mu-order", str(mu),
                                           "--format", "json"), None)
            yield (f"sweep/{model}/dualize/o{order}",
                   ("dualize",) + at + ("--format", "json"), None)
            family = f"family-{i}-o{order}.json"
            yield (f"sweep/{model}/correlators/o{order}/derive",
                   ("correlators",) + at + ("--report", family), family)
            yield (f"sweep/{model}/correlators/o{order}/verify",
                   ("correlators", family), None)


def data_documents(data):
    """(file name, bytes) of each distinct model document in the directory
    ``data``: a file that is one, or the ``document`` of a test case."""
    seen = set()
    for path in sorted(data.glob("*.json")):
        body = path.read_bytes()
        obj = json.loads(body)
        if "document" in obj:
            obj = obj["document"]
            body = json.dumps(obj).encode()
        key = json.dumps(obj, sort_keys=True)
        if "schemaVersion" in obj and key not in seen:
            seen.add(key)
            yield path.name, body


def shifted_copies(documents):
    """(key prefix, file name, bytes) of a copy of every document (name,
    bytes) that declares a twist field, once per base shift of the sweep."""
    for name, body in documents:
        obj = json.loads(body)
        if "epsilon" in obj:
            for i, shift in enumerate(SWEEP_LAMBDA0):
                yield (f"sweep/{name}/dualize/l{shift}", f"l{i}-{name}",
                       json.dumps({**obj, "lambda0": shift}).encode())


@contextlib.contextmanager
def directory_with(documents):
    """A fresh working directory holding ``documents`` (name, bytes)."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, body in documents:
            Path(work, name).write_bytes(body)
        os.chdir(work)
        try:
            yield
        finally:
            os.chdir(home)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    src = tree / "src"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(tree / "benchmarks")]
    # the fan bound the benchmark worker runs with
    os.environ["FLATCIRC_MAX_N"] = "6"
    import flatcirc.cli
    import flatcirc.models
    import workloads
    if not Path(flatcirc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flatcirc imported from {flatcirc.__file__}, not {src}")
    digests = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workload = workloads.build(name, seed)
            with directory_with(workload.documents):
                for task in workload.tasks:
                    digests[f"{name}/{seed}/{task.key}"] = \
                        run_task(flatcirc.cli, task.argv, task.report)
    documents = [doc for name in workloads.WORKLOADS
                 for doc in workloads.build(name, 0).documents]
    documents += data_documents(tree / "tests" / "data")
    models = sorted(flatcirc.models.CORPUS) + [doc for doc, _ in documents]
    bundled = [(f"{model}.json", (src / "flatcirc" / "data" /
                                  f"{model}.json").read_bytes())
               for model in sorted(flatcirc.models.CORPUS)]
    shifted = list(shifted_copies(bundled + documents))
    with directory_with(documents + [(name, body)
                                     for _, name, body in shifted]):
        for key, task_argv, report in sweep_tasks(models):
            digests[key] = run_task(flatcirc.cli, task_argv, report)
        for prefix, name, _ in shifted:
            for order in SWEEP_ORDERS:
                digests[f"{prefix}/o{order}"] = run_task(
                    flatcirc.cli, ("dualize", name, "--order", str(order),
                                   "--format", "json"))
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Digest the output of every benchmark workload task of a source tree.

Usage, from anywhere::

    python3 tools/workload_digests.py TREE > digests.json

TREE is the root of a flatcirc checkout.  The script imports flatcirc from
``TREE/src`` and the task lists from ``TREE/benchmarks/workloads.py`` (read
only: no bytecode is written), then runs every task of every workload at
seeds 0 and 1 in this process, each workload and seed in a fresh temporary
directory that holds its model documents.  For each task it prints the
SHA-256 of its exit code, stdout, stderr and ``--report`` file as one JSON
object with sorted keys ``<workload>/<seed>/<task key>``.  Two trees whose
digest files are byte-identical (``cmp``) give the same bytes on every task.
Standard library only.
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


def run_task(cli, task) -> str:
    """SHA-256 of one task's exit code, stdout, stderr and report bytes.

    An uncaught exception is part of the digest (type and message), so a
    traceback in one tree never digests like a clean exit in the other.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(task.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    report = None
    if task.report is not None and os.path.exists(task.report):
        report = Path(task.report).read_bytes().hex()
    record = json.dumps([code, out.getvalue(), err.getvalue(), report, error])
    return hashlib.sha256(record.encode()).hexdigest()


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
    import workloads
    if not Path(flatcirc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flatcirc imported from {flatcirc.__file__}, not {src}")
    digests = {}
    home = os.getcwd()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workload = workloads.build(name, seed)
            with tempfile.TemporaryDirectory() as work:
                for doc, body in workload.documents:
                    Path(work, doc).write_bytes(body)
                os.chdir(work)
                try:
                    for task in workload.tasks:
                        digests[f"{name}/{seed}/{task.key}"] = \
                            run_task(flatcirc.cli, task)
                finally:
                    os.chdir(home)
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

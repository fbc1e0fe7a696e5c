"""Print how much of each traced benchmark pass the layer self times cover.

Usage, from anywhere::

    python3 tools/trace_margin.py TREE [--workload W]

TREE is the root of a flatcirc checkout; W is a workload name of
``TREE/benchmarks/workloads.py`` or ``all`` (the default).  ``run.py
--trace 1`` fails a run when, in some traced pass, the self times of the
traced layers plus the tracer's bookkeeping differ from the pass time by
more than ``worker.SELF_SUM_TOLERANCE``; the time a task spends outside
``cli.main`` is in that gap.  That check prints nothing but the failure, so
this script runs the same passes and prints the share of every one.

For each workload it starts one fresh process, which imports TREE's
``benchmarks/worker.py`` and ``tracer.py`` and, through ``worker``, flatcirc
from TREE's ``src`` (read only: no bytecode is written).  The process writes
the seed-0 documents into a fresh temporary directory and does what
``worker.measure`` does, for a fixed number of passes: one untimed warm-up
pass, then plain and traced passes in turn.  It prints each traced pass's
covered share (self times plus bookkeeping over pass time), as
``worker.layer_metrics`` computes it, and their range.  Exit status 1 when
some share lies outside the tolerance, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

PASSES = 10  # traced passes per workload, each after a plain one
SEED = 0


def traced_shares(tree: str, name: str):
    """In a fresh process: (tolerance, failed tasks, [(share, self + bookkeeping
    seconds, pass seconds)] of each traced pass) of one workload on ``tree``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(tree, "benchmarks")))
    import worker
    from tracer import Tracer
    cli = worker.import_flatcirc()
    workload = worker.build(name, SEED)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for document, body in workload.documents:
            Path(work, document).write_bytes(body)
        os.chdir(work)
        try:
            run = worker.Run(cli, workload.tasks, Tracer())
            run.calibrate()
            run.one_pass(timed=False)
            for _ in range(PASSES):
                run.one_pass(timed=True)
                run.one_pass(timed=True, traced=True)
            run.calibrate()
        finally:
            os.chdir(home)
    shares = []
    for p, seconds in zip(run.layer_passes, run.pass_seconds["traced"]):
        covered = (sum(v for k, v in p.items() if k.endswith(".self_s"))
                   + p["trace.bookkeeping_s"])
        shares.append((covered / seconds, covered, seconds))
    return worker.SELF_SUM_TOLERANCE, run.failed, shares


def report(tree: str, name: str) -> bool:
    """Print the shares of one workload; True if all lie inside the tolerance."""
    spawn = multiprocessing.get_context("spawn")
    with spawn.Pool(1) as pool:
        tolerance, failed, shares = pool.apply(traced_shares, (tree, name))
    print(f"{name} (seed {SEED}): {len(shares)} traced passes, "
          f"{failed} failed tasks, tolerance {tolerance}")
    inside = True
    for k, (share, covered, seconds) in enumerate(shares):
        ok = abs(1 - share) <= tolerance
        inside = inside and ok
        print(f"  pass {k:2d}  {share:.4f}  ({covered * 1e3:8.2f} of "
              f"{seconds * 1e3:8.2f} ms){'' if ok else '  OUTSIDE'}")
    values = [share for share, _, _ in shares]
    print(f"  range {min(values):.4f}-{max(values):.4f}")
    print()
    return inside


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", metavar="TREE")
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    tree = str(Path(args.tree).resolve())
    names = [args.workload]
    if args.workload == "all":
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(Path(tree, "benchmarks")))
        import workloads
        names = workloads.WORKLOADS
    inside = True
    for name in names:
        inside = report(tree, name) and inside
    return 0 if inside else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time two trees on the benchmark workload tasks, in alternating fresh processes.

Usage, from anywhere::

    python3 tools/inprocess_ab.py TREE_A TREE_B [--workload W]

TREE_A and TREE_B are roots of flatcirc checkouts; W is a workload name of
``TREE_A/benchmarks/workloads.py`` or ``all`` (the default).  For each
workload the script starts ``ROUNDS`` fresh processes per tree, one at a
time and alternating A, B, A, B, ...  Each process imports flatcirc from
its tree's ``src`` and the task list from its tree's
``benchmarks/workloads.py`` (read only: no bytecode is written), writes the
seed-0 documents into a fresh temporary directory and runs every task of the
workload ``PASSES`` times in that process, in order, timing each
``cli.main`` call.

It prints, per workload, each task's best time over all passes of all
processes of each tree and the ratio B/A, their sums, and per tree one
SHA-256 over every task's exit code, stdout, stderr and ``--report`` bytes
of the first pass.  A process whose later passes print other bytes than its
first, or two processes of one tree that disagree, stop the script.  Exit
status 0 when the two trees' digests are equal on every workload, else 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

ROUNDS = 5   # fresh processes per tree and workload
PASSES = 3   # passes over the task list in each process
SEED = 0


def run_workload(tree: str, name: str):
    """In a fresh process: ({task key: best seconds}, digest) on ``tree``."""
    src = Path(tree, "src")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(Path(tree, "benchmarks")),
                    str(Path(__file__).resolve().parent)]
    os.environ["FLATCIRC_MAX_N"] = "6"  # the fan bound the benchmark runs with
    import flatcirc.cli
    import workloads
    from workload_digests import directory_with
    if not Path(flatcirc.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"flatcirc imported from {flatcirc.__file__}, not {src}")
    workload = workloads.build(name, SEED)
    best = {task.key: float("inf") for task in workload.tasks}
    digests = set()
    with directory_with(workload.documents):
        for _ in range(PASSES):
            digest = hashlib.sha256()
            for task in workload.tasks:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    code = flatcirc.cli.main(list(task.argv))
                    elapsed = time.perf_counter() - start
                best[task.key] = min(best[task.key], elapsed)
                report = None
                if task.report is not None and os.path.exists(task.report):
                    report = Path(task.report).read_bytes().hex()
                digest.update(json.dumps([task.key, code, out.getvalue(),
                                          err.getvalue(), report]).encode())
            digests.add(digest.hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"{tree}: passes of {name} print different bytes")
    return best, digests.pop()


def compare(trees, name: str) -> bool:
    """Print the table of one workload; True if both trees digest alike."""
    spawn = multiprocessing.get_context("spawn")
    best = [{}, {}]
    digests = [set(), set()]
    for _ in range(ROUNDS):
        for side, tree in enumerate(trees):
            with spawn.Pool(1) as pool:
                times, digest = pool.apply(run_workload, (tree, name))
            digests[side].add(digest)
            for key, t in times.items():
                best[side][key] = min(best[side].get(key, t), t)
    for side, tree in enumerate(trees):
        if len(digests[side]) != 1:
            raise RuntimeError(f"{tree}: processes of {name} print different bytes")
    print(f"{name} (seed {SEED}): best of {ROUNDS} processes x {PASSES} "
          "passes per tree, ms")
    print(f"{'task':<48} {'A':>9} {'B':>9} {'B/A':>6}")
    for key, a in best[0].items():
        b = best[1][key]
        print(f"{key:<48} {a * 1e3:9.2f} {b * 1e3:9.2f} {b / a:6.3f}")
    total_a, total_b = sum(best[0].values()), sum(best[1].values())
    print(f"{'total':<48} {total_a * 1e3:9.2f} {total_b * 1e3:9.2f} "
          f"{total_b / total_a:6.3f}")
    (digest_a,), (digest_b,) = digests
    print(f"digest A {digest_a}")
    print(f"digest B {digest_b} {'equal' if digest_a == digest_b else 'DIFFERENT'}")
    print()
    return digest_a == digest_b


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    trees = [str(Path(tree).resolve()) for tree in args.trees]
    names = [args.workload]
    if args.workload == "all":
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(Path(trees[0], "benchmarks")))
        import workloads
        names = workloads.WORKLOADS
    equal = True
    for name in names:
        equal = compare(trees, name) and equal
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time one command-line call on two trees, in alternating fresh processes.

Usage, from anywhere::

    python3 tools/command_ab.py TREE_A TREE_B [--rounds N] -- ARGS...

TREE_A and TREE_B are roots of flatcirc checkouts; ARGS are the arguments
of ``flatcirc`` (for example ``check doc.json --order 8``), with paths read
from the current directory.  The script starts ``--rounds`` processes per
tree (default 5), one at a time and alternating A, B, A, B, ...  Each runs
``flatcirc.cli.main(ARGS)`` with the tree's ``src`` first on
``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles the
tree afresh, as the benchmark's fresh checkouts do.

Per run it prints the wall time from start to exit, the child's maxrss
(``os.wait4``), the exit code and the SHA-256 of stdout; stderr passes
through.  Then per tree the median, least and greatest wall time and
maxrss.  Exit status 1 when the two trees print different stdout bytes or
exit codes, or when the runs of one tree disagree; else 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = "import sys, flatcirc.cli; sys.exit(flatcirc.cli.main(sys.argv[1:]))"


def run_once(tree: str, args):
    """(wall seconds, maxrss KB, exit code, stdout sha256) of one run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(tree, "src"))]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", RUN, *args], env=env,
                             stdout=subprocess.PIPE)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    return (wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status),
            hashlib.sha256(out).hexdigest())


def main(argv) -> int:
    if "--" not in argv:
        print("usage: command_ab.py TREE_A TREE_B [--rounds N] -- ARGS...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--rounds", type=int, default=5)
    opts = parser.parse_args(argv[:split])
    args = argv[split + 1:]
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [str(Path(tree).resolve()) for tree in opts.trees]
    runs = [[], []]
    print(f"command: flatcirc {' '.join(args)}")
    for round_ in range(opts.rounds):
        for side, tree in enumerate(trees):
            wall, rss, code, digest = run_once(tree, args)
            runs[side].append((wall, rss, code, digest))
            print(f"{'AB'[side]} run {round_ + 1}: {wall:8.3f} s "
                  f"{rss:9,d} KB  exit {code}  sha256 {digest}", flush=True)
    outputs = []
    for side, tree in enumerate(trees):
        walls = [r[0] for r in runs[side]]
        rsss = [r[1] for r in runs[side]]
        print(f"{'AB'[side]} {tree}: wall median {statistics.median(walls):.3f} s "
              f"({min(walls):.3f}-{max(walls):.3f}), maxrss median "
              f"{statistics.median(rsss):,.0f} KB ({min(rsss):,d}-{max(rsss):,d})")
        outputs.append({r[2:] for r in runs[side]})
    if any(len(o) != 1 for o in outputs):
        print("runs of one tree disagree", file=sys.stderr)
        return 1
    if outputs[0] != outputs[1]:
        print("the trees print different bytes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

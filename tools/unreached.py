"""List every function of the library that no command or acceptance criterion calls.

Usage, from anywhere::

    python3 tools/unreached.py TREE

TREE is the root of a flatcirc checkout.  In this one process, under a
``sys.setprofile`` hook that records every Python function entered, the
script runs

* ``workload_digests.main([TREE])`` (the tool next to this file), which runs
  every benchmark workload task at seeds 0 and 1 and the sweep of ``check``,
  ``extend``, ``dualize`` and ``correlators``; its digests are discarded;
* ``pytest`` on ``TREE/tests/test_acceptance.py``, the acceptance criteria.

It then prints, one per line as ``path:first-last name``, every ``def``
under ``TREE/src/flatcirc`` (found with ``ast`` before the runs, so an edit
made while they run cannot move a line; the line range starts at the first
decorator) whose code was never entered.  Exit status 0 when the
runs complete (whatever they list), 1 when the acceptance tests fail.
Standard library plus pytest; the runs take minutes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path


def definitions(package: Path):
    """{(file, first line): (last line, dotted name)} of every def in ``package``.

    The first line is that of the first decorator, which is the line the
    interpreter gives the function's code object.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                found[str(path), first] = (child.end_lineno,
                                           prefix + child.name)
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return found


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pytest
    import workload_digests

    defined = definitions(tree / "src" / "flatcirc")
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            workload_digests.main([str(tree)])
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main([str(tree / "tests" / "test_acceptance.py"),
                                  "-q", "-p", "no:cacheprovider",
                                  "--rootdir", str(tree)])
    finally:
        sys.setprofile(None)
    called = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
              for code in entered}
    for (path, first), (last, name) in sorted(defined.items()):
        if (path, first) not in called:
            print(f"{Path(path).relative_to(tree)}:{first}-{last} {name}")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

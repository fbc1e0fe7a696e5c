"""Metamorphic property: a linear change of flat coordinates keeps verdicts.

A product of corpus models written in the flat coordinates y with x = A y,
A integral with an integral inverse, is the same structure in another flat
frame (``coordinates.product_document``).  Every residual is a tensor, so
``check --format json`` must give the same exit code, and every check the
same status and ``provenTo``, before and after the change, at every base
shift.  Products of up to four dimensions are drawn, and one n = 4 case
runs every time.
"""

import io
import json
from contextlib import redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordinates import product_document, unimodular_pair
from flatcirc.cli import main
from flatcirc.models import load_model

FACTORS = (("one-dim",), ("qc-p1",), ("one-dim", "one-dim"),
           ("qc-p1", "one-dim"), ("one-dim", "qc-p1"), ("one-dim",) * 3,
           ("qc-p1", "qc-p1"), ("one-dim", "qc-p1", "one-dim"),
           ("one-dim",) * 4)


@st.composite
def coordinate_changes(draw):
    factors = draw(st.sampled_from(FACTORS))
    n = sum(load_model(name).dim for name in factors)
    shears = [] if n == 1 else draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                  st.sampled_from((-2, -1, 1, 2))).map(
            lambda s: (s[0], (s[0] + s[1]) % n, s[2])), max_size=3))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return (factors, unimodular_pair(n, shears, perm, signs),
            draw(st.integers(3, 5)), draw(st.sampled_from(("0", "1", "-1/2"))))


def verdicts(directory, name, document, order, shift):
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", str(path), "--order", str(order),
                     "--lambda0", shift, "--format", "json"])
    return code, [(r["id"], r["status"], r.get("provenTo"))
                  for r in json.loads(out.getvalue())["checks"]]


@settings(max_examples=20, deadline=None)
@given(change=coordinate_changes())
# n = 4 in every run, at the largest order and a nonzero shift
@example(change=(("qc-p1", "qc-p1"),
                 unimodular_pair(4, [(0, 1, 1), (2, 3, -1), (3, 0, 2)],
                                 [3, 2, 1, 0], [1, -1, 1, 1]), 5, "-1/2"))
def test_coordinate_change_keeps_every_verdict(tmp_path_factory, change):
    factors, (a, inv), order, shift = change
    n = len(a)
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    directory = tmp_path_factory.mktemp("metamorphic")
    before = verdicts(directory, "plain",
                      product_document(factors, one, one, order), order, shift)
    after = verdicts(directory, "moved",
                     product_document(factors, a, inv, order), order, shift)
    assert after == before

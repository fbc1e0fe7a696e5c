"""Linear changes of flat coordinates for tests: integral matrices with an
integral inverse, and products of corpus models written in new coordinates.

A helper module, not a test module: test modules import it by name.
"""

import re

from flatcirc.models import load_model


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def unimodular_pair(n, shears, perm, signs):
    """A = S_1 ... S_k Q and its integral inverse.

    Each shear (i, j, k), i != j, adds k times coordinate j to coordinate
    i; Q is the signed permutation with Q[i][perm[i]] = signs[i].
    """
    def identity():
        return [[int(i == j) for j in range(n)] for i in range(n)]

    a, inv = identity(), identity()
    for i, j, k in shears:
        s, s_inv = identity(), identity()
        s[i][j], s_inv[i][j] = k, -k
        a, inv = _mat_mul(a, s), _mat_mul(s_inv, inv)
    q = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    q_inv = [list(row) for row in zip(*q)]
    return _mat_mul(a, q), _mat_mul(q_inv, inv)


def _combination(row, components):
    terms = [f"({c})*({comp})" for c, comp in zip(row, components) if c]
    return " + ".join(terms) or "0"


def product_document(factors, a, inv, order):
    """The product of the corpus models ``factors`` in the flat coordinates
    y with x = A y, as a model document (a JSON object).

    This is the rule of the benchmark's ``product_document``: every vector
    field, the vector potential included, becomes v'(y) = A^-1 v(A y), so a
    linear change of flat coordinates keeps every verdict.  A field is
    declared when every factor declares it; every factor has weight-one
    scaling and no base shift.
    """
    n = len(a)
    forms = [_combination(row, [f"x{j}" for j in range(n)]) for row in a]
    fields = {"potential": [], "identity": [], "euler": [], "epsilon": []}
    offset = 0
    for name in factors:
        doc = load_model(name)
        assert doc.lambda0 == 0 and (doc.euler is None or doc.euler[1] == 1)
        names = {v: f"({forms[offset + i]})"
                 for i, v in enumerate(doc.variables)}

        def substituted(text):
            return re.sub(r"[A-Za-z_]\w*",
                          lambda m: names.get(m.group(), m.group()), text)

        for key in fields:
            value = getattr(doc, key)
            if key == "euler" and value is not None:
                value = value[0]
            if value is None or fields[key] is None:
                fields[key] = None
            else:
                fields[key] += [substituted(text) for text in value]
        offset += doc.dim
    assert offset == n
    obj = {"schemaVersion": 1, "name": "product", "dim": n,
           "variables": [f"x{j}" for j in range(n)], "defaultOrder": order}
    for key, value in fields.items():
        if value is not None:
            value = [_combination(row, value) for row in inv]
            obj[key] = ({"components": value, "weight": "1"}
                        if key == "euler" else value)
    return obj

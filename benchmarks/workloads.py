"""Seeded inputs for the benchmark workloads, with verdicts known by construction.

A workload is a fixed list of CLI tasks plus the model documents they read.
Everything is derived from ``(workload name, seed)`` alone, so the same seed
gives byte-identical documents and the same task list.

Coordinate changes are products of elementary integer matrices (unit lower
times unit upper triangular), so their inverses are integral and every
transformed expression stays exact.  ``exp`` is only ever applied to an
integer linear form with zero constant term.

Expected verdicts never come from running flatcirc:

* a linear change of flat coordinates preserves every verdict, so a
  transformed product of integrable corpus factors passes every check;
* for a potential, ``five-term-integrability`` fails exactly when a
  pencil-flatness check fails, and ``structure-symmetric`` always passes;
* a command that needs a field the document lacks exits 2.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Per-check rules the gate applies to a ``check`` report.
ALL_PASS = "all-pass"          # no check fails
INTEGRABILITY = "integrability"  # symmetric passes; five-term fails iff pencil fails

CORPUS = ("one-dim", "qc-p1", "nilpotent", "broken-assoc", "shifted-identity")
CORPUS_DATA = Path(__file__).resolve().parent.parent / "src" / "flatcirc" / "data"
# The negative control of the corpus: its product is not associative.
NON_ASSOCIATIVE = {"broken-assoc"}


def corpus_fields(model: str) -> set:
    """Optional fields a bundled model document declares."""
    obj = json.loads((CORPUS_DATA / f"{model}.json").read_text(encoding="utf-8"))
    return {"identity", "euler", "epsilon"} & obj.keys()


@dataclass(frozen=True)
class Expect:
    """Verdict known by construction.

    ``exit`` is the expected exit code, or None when it follows from the
    per-check statuses (1 if any check fails, else 0).
    """

    exit: Optional[int]
    checks: str = ""


@dataclass(frozen=True)
class Task:
    key: str
    argv: Tuple[str, ...]
    expect: Expect
    report: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    tasks: Tuple[Task, ...]
    documents: Tuple[Tuple[str, bytes], ...]

    def digests(self) -> Dict[str, str]:
        return {name: hashlib.sha256(body).hexdigest()
                for name, body in self.documents}


# -- exact helpers ----------------------------------------------------------

Matrix = List[List[int]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def unimodular_pair(rng: random.Random, n: int) -> Tuple[Matrix, Matrix]:
    """A dense integer matrix of determinant +-1 and its integral inverse.

    ``A = B @ Q``: ``B = L @ U`` is a fixed dense product of elementary
    matrices (unit lower and unit upper triangular, all off-diagonal entries
    1) and ``Q`` is a random signed permutation, itself a product of swaps and
    sign changes.  Every factor has an integral inverse.  ``Q`` only renames
    the new coordinates and flips their signs, which maps every series term
    by term, so each seed gives different documents whose series have the
    same supports and coefficient sizes: the workload costs the same for
    every seed.
    """
    lower = [[int(j <= i) for j in range(n)] for i in range(n)]
    upper = [[int(j >= i) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    q = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)]
         for i in range(n)]
    a = mat_mul(mat_mul(lower, upper), q)
    inv = mat_mul(transpose(q), mat_mul(_unit_triangular_inverse(upper, upper=True),
                                        _unit_triangular_inverse(lower, upper=False)))
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    if mat_mul(a, inv) != identity:
        raise AssertionError("unimodular inverse is wrong")
    return a, inv


def transpose(m: Matrix) -> Matrix:
    return [list(row) for row in zip(*m)]


def _unit_triangular_inverse(t: Matrix, upper: bool) -> Matrix:
    n = len(t)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            if i == col:
                continue
            span = range(i + 1, n) if upper else range(i)
            inv[i][col] = -sum(t[i][k] * inv[k][col] for k in span)
    return inv


def linear_form(coeffs: Sequence[int], constant: int = 0) -> str:
    """``2*x0 - x1 + 3`` style text for an integer affine form."""
    terms = [("" if c == 1 else "-" if c == -1 else f"{c}*") + f"x{i}"
             for i, c in enumerate(coeffs) if c]
    if constant:
        terms.append(str(constant))
    return join_terms(terms)


def monomial(coeff: int, exponent: Sequence[int]) -> str:
    factors = [f"x{i}" if k == 1 else f"x{i}^{k}"
               for i, k in enumerate(exponent) if k]
    return "*".join([str(coeff)] + factors)


def join_terms(terms: Sequence[str]) -> str:
    out = ""
    for term in terms:
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def exponents_of_degree(n: int, degree: int) -> List[Tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def document(name: str, n: int, potential: Sequence[str], order: int,
             identity: Optional[Sequence[str]] = None,
             euler: Optional[Sequence[str]] = None,
             epsilon: Optional[Sequence[str]] = None) -> bytes:
    obj: dict = {"schemaVersion": 1, "name": name, "dim": n,
                 "variables": [f"x{i}" for i in range(n)],
                 "potential": list(potential), "defaultOrder": order}
    if identity is not None:
        obj["identity"] = list(identity)
    if euler is not None:
        obj["euler"] = {"components": list(euler), "weight": "1"}
    if epsilon is not None:
        obj["epsilon"] = list(epsilon)
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


# -- integrable product models ----------------------------------------------

@dataclass(frozen=True)
class Factor:
    """An integrable corpus model written over substituted coordinates.

    ``potential(xs)`` gives the potential components with each coordinate
    replaced by the text ``xs[i]``; the scaling field is ``M x + b``.
    """

    dim: int
    potential: object
    identity: Tuple[int, ...]
    euler_matrix: Tuple[Tuple[int, ...], ...]
    euler_constant: Tuple[int, ...]
    twist: Optional[object]


QC_P1 = Factor(2, lambda xs: [f"({xs[0]})^2/2 + exp({xs[1]})",
                              f"({xs[0]})*({xs[1]})"],
               (1, 0), ((1, 0), (0, 0)), (0, 2), None)
ONE_DIM = Factor(1, lambda xs: [f"({xs[0]})^2/2"], (1,), ((1,),), (0,),
                 lambda xs: [f"exp(-({xs[0]}))"])


def product_document(name: str, factors: Sequence[Factor], a: Matrix,
                     inv: Matrix, order: int) -> bytes:
    """The product of ``factors`` in the flat coordinates y with x = A y.

    Every vector field transforms as ``v'(y) = A^-1 v(A y)``.
    """
    n = sum(f.dim for f in factors)
    xs = [linear_form(row) for row in a]
    potential: List[str] = []
    identity: List[int] = []
    e_rows: List[List[int]] = []
    e_const: List[int] = []
    twist: Optional[List[str]] = []
    offset = 0
    for f in factors:
        local = xs[offset:offset + f.dim]
        potential += f.potential(local)
        identity += f.identity
        for row in f.euler_matrix:
            e_rows.append([0] * offset + list(row) + [0] * (n - offset - f.dim))
        e_const += f.euler_constant
        if f.twist is None or twist is None:
            twist = None
        else:
            twist += f.twist(local)
        offset += f.dim

    def transformed(components: Sequence[str]) -> List[str]:
        return [join_terms([f"{c}*({comp})" if c != 1 else f"({comp})"
                            for c, comp in zip(row, components) if c])
                for row in inv]

    new_identity = [linear_form([], sum(r * e for r, e in zip(row, identity)))
                    for row in inv]
    euler_lin = mat_mul(inv, mat_mul(e_rows, a))
    euler_const = [sum(r * b for r, b in zip(row, e_const)) for row in inv]
    euler = [linear_form(lin, c)
             for lin, c in zip(euler_lin, euler_const)]
    return document(name, n, transformed(potential), order,
                    identity=new_identity, euler=euler,
                    epsilon=transformed(twist) if twist is not None else None)


# -- the three workloads ------------------------------------------------------

def _check(key: str, doc: str, order: int, expect: Expect) -> Task:
    return Task(key, ("check", doc, "--order", str(order), "--format", "json"), expect)


def integrability_dense(seed: int) -> Workload:
    """Long structure-tensor series: the kernel inside the five-term residual."""
    rng = random.Random(f"integrability-dense:{seed}")
    docs: List[Tuple[str, bytes]] = []
    tasks: List[Task] = []
    relational = Expect(None, INTEGRABILITY)
    # (name, n, order, degrees, with exp): quadratic and cubic terms plus
    # k*exp(linear form) at n = 2 and 3, the dense random quartic of the
    # acceptance tests at n = 3, cap 6, and one integrable control.
    for name, n, order, degrees, with_exp in (
            ("exp2o8", 2, 8, (2, 3), True),
            ("exp3o4", 3, 4, (2, 3), True),
            ("quartic3", 3, 6, (2, 3, 4), False)):
        comps = []
        for _ in range(n):
            terms = [monomial(nonzero(rng, 3), e)
                     for d in degrees for e in exponents_of_degree(n, d)]
            if with_exp:
                form = linear_form([nonzero(rng, 2) for _ in range(n)])
                terms.append(f"{nonzero(rng, 2)}*exp({form})")
            comps.append(join_terms(terms))
        docs.append((name + ".json", document(name, n, comps, order)))
        tasks.append(_check(name, name + ".json", order, relational))
    a, inv = unimodular_pair(rng, 3)
    docs.append(("control.json", product_document("control", (QC_P1, ONE_DIM),
                                                  a, inv, 4)))
    tasks.append(_check("control", "control.json", 4, Expect(0, ALL_PASS)))
    return Workload(tuple(tasks), tuple(docs))


def extension_twist(seed: int) -> Workload:
    """Product models through extend, dualize and the correlator roundtrip."""
    rng = random.Random(f"extension-twist:{seed}")
    docs: List[Tuple[str, bytes]] = []
    tasks: List[Task] = []
    for name, factors, order in (("qc-one", (QC_P1, ONE_DIM), 5),
                                 ("one-cubed", (ONE_DIM,) * 3, 6),
                                 ("qc-qc", (QC_P1, QC_P1), 4)):
        n = sum(f.dim for f in factors)
        has_twist = all(f.twist is not None for f in factors)
        a, inv = unimodular_pair(rng, n)
        doc = name + ".json"
        docs.append((doc, product_document(name, factors, a, inv, order)))
        for mu in (4, 6):
            tasks.append(Task(f"{name}/extend-mu{mu}",
                              ("extend", doc, "--mu-order", str(mu),
                               "--format", "json"), Expect(0)))
        tasks.append(Task(f"{name}/dualize", ("dualize", doc, "--format", "json"),
                          Expect(0 if has_twist else 2)))
        family = f"{name}-family.json"
        tasks.append(Task(f"{name}/correlators-derive",
                          ("correlators", doc, "--report", family), Expect(0),
                          report=family))
        tasks.append(Task(f"{name}/correlators-verify",
                          ("correlators", family, "--format", "json"), Expect(0)))
    return Workload(tuple(tasks), tuple(docs))


def corpus_cli(seed: int) -> Workload:
    """Every subcommand on every bundled model: the interactive path.

    The corpus is fixed; the seed only shuffles the order of the
    independent tasks (a derived family file is always verified after it is
    written).
    """
    rng = random.Random(f"corpus-cli:{seed}")
    groups: List[List[Task]] = []
    for model in CORPUS:
        fields = corpus_fields(model)
        broken = model in NON_ASSOCIATIVE
        for order in (8, 12):
            for fmt in ("text", "json"):
                tag = f"{model}/o{order}/{fmt}"
                common = ("--order", str(order), "--format", fmt)
                report = f"{tag.replace('/', '_')}_check.out"
                groups.append([Task(
                    f"{tag}/check", ("check", model) + common + ("--report", report),
                    Expect(1 if broken else 0, INTEGRABILITY if broken else ALL_PASS),
                    report=report)])
                has_twist = {"identity", "epsilon"} <= fields
                groups.append([Task(f"{tag}/dualize", ("dualize", model) + common,
                                    Expect(0 if has_twist else 2))])
                has_scaling = {"identity", "euler"} <= fields
                groups.append([Task(f"{tag}/extend", ("extend", model) + common,
                                    Expect(0 if has_scaling else 2))])
            family = f"{model}_o{order}_family.json"
            groups.append([
                Task(f"{model}/o{order}/correlators-derive",
                     ("correlators", model, "--order", str(order),
                      "--report", family), Expect(0), report=family),
                # the master equation is the commutation of the product
                Task(f"{model}/o{order}/correlators-verify",
                     ("correlators", family), Expect(1 if broken else 0)),
            ])
    for n in (4, 5):
        for fmt in ("text", "json"):
            groups.append([Task(f"fan{n}/{fmt}", ("fan", str(n), "--format", fmt),
                                Expect(0))])
    groups.append([Task("fan7/too-large", ("fan", "7"), Expect(2))])
    rng.shuffle(groups)
    tasks = tuple(t for group in groups for t in group)
    return Workload(tasks, ())


BUILDERS = {"integrability-dense": integrability_dense,
            "extension-twist": extension_twist,
            "corpus-cli": corpus_cli}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)

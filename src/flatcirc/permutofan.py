"""Ordered set partitions, the braid fan, and the concatenation product.

Partitions of {1..n} label cones of the permutohedral fan in Z^n/Z.  The
lattice quotient uses the canonical representative with last coordinate zero,
so vectors hash and serialize uniquely.  Fan verification is deterministic:
membership goes through the braid rule (constant on blocks, strictly
decreasing across consecutive blocks) rather than sampling.  Every lattice
computation is in plain integers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .series import InputError, Scalar

DEFAULT_MAX_N = 6
_MAX_N_ENV = "FLATCIRC_MAX_N"


def max_fan_size() -> int:
    text = os.environ.get(_MAX_N_ENV, str(DEFAULT_MAX_N))
    try:
        value: Optional[int] = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise FanSizeError(
            f"{_MAX_N_ENV} must be an integer >= 1, got {text!r}")
    return value


class FanSizeError(InputError):
    pass


@dataclass(frozen=True)
class OrderedPartition:
    """Totally ordered disjoint non-empty blocks covering {1..n}.

    Blocks are stored sorted.  The constructor does not check them: blocks
    given by a caller enter through ``of``, which validates them, and the
    partitions this module builds are valid by construction.
    """

    blocks: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, *blocks: Sequence[int]) -> "OrderedPartition":
        """Validated partition: blocks non-empty, disjoint, covering {1..n}."""
        sorted_blocks = tuple(tuple(sorted(b)) for b in blocks)
        if not all(sorted_blocks):
            raise ValueError("empty block")
        elements = sorted(x for block in sorted_blocks for x in block)
        if elements != list(range(1, len(elements) + 1)):
            raise ValueError("blocks must be disjoint and cover {1..n}")
        return cls(sorted_blocks)

    @property
    def ground_size(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def enumerate_partitions(n: int) -> List[OrderedPartition]:
    """All ordered set partitions of {1..n}, deterministic order."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(remaining: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if not remaining:
            yield ()
            return
        k = len(remaining)
        # nonempty subsets of remaining as first block, in mask order
        for mask in range(1, 1 << k):
            first = tuple(remaining[i] for i in range(k) if mask >> i & 1)
            rest = tuple(remaining[i] for i in range(k) if not mask >> i & 1)
            for tail in rec(rest):
                yield (first,) + tail

    return [OrderedPartition(blocks) for blocks in rec(tuple(range(1, n + 1)))]


def fubini_number(n: int) -> int:
    """Count of ordered set partitions via the binomial recurrence."""
    from math import comb
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def good_family(tau: OrderedPartition) -> List[OrderedPartition]:
    """The 2-partitions with first part tau_1 | ... | tau_a, a = 1..N."""
    return [_merge_partition(tau, [a]) for a in range(1, tau.num_blocks)]


LatticeVector = Tuple[int, ...]


def normalize_lattice(vector: Sequence[int]) -> LatticeVector:
    """Canonical representative in Z^n/Z: subtract so the last entry is zero."""
    last = vector[-1]
    return tuple(v - last for v in vector)


def indicator(subset: Sequence[int], n: int) -> LatticeVector:
    """chi_subset normalized in Z^n/Z (1-based subset of {1..n})."""
    chosen = set(subset)
    return normalize_lattice([1 if i in chosen else 0 for i in range(1, n + 1)])


@dataclass(frozen=True)
class Cone:
    label: OrderedPartition
    generators: Tuple[LatticeVector, ...]


def cone_of_partition(tau: OrderedPartition) -> Cone:
    """Generators chi of the first parts of the good family, normalized."""
    n = tau.ground_size
    gens = tuple(indicator(sigma.blocks[0], n) for sigma in good_family(tau))
    return Cone(tau, gens)


def locate_point(vector: Sequence[Scalar], n: int) -> OrderedPartition:
    """The unique partition whose cone's relative interior contains the point.

    Level sets of the vector, ordered by decreasing value; ties make blocks.
    Only the class modulo constants matters.  Values are grouped as given:
    an int and a Fraction of equal value hash and compare alike.
    """
    if len(vector) != n:
        raise ValueError("vector length must be n")
    levels: Dict[Scalar, List[int]] = {}
    for i, v in enumerate(vector, start=1):
        levels.setdefault(v, []).append(i)
    return OrderedPartition(tuple(tuple(levels[v])
                                  for v in sorted(levels, reverse=True)))


def concat_product(tau1: OrderedPartition, tau2: OrderedPartition) -> OrderedPartition:
    """Blocks of tau1 followed by the blocks of tau2 shifted by |tau1|."""
    m = tau1.ground_size
    shifted = tuple(tuple(x + m for x in block) for block in tau2.blocks)
    return OrderedPartition(tau1.blocks + shifted)


def sn_action(perm: Sequence[int], tau: OrderedPartition) -> OrderedPartition:
    """Relabel elements by a permutation of {1..n}, keeping block order.

    ``perm[i-1]`` is the image of i.
    """
    n = tau.ground_size
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("permutation does not match the ground set")
    # the image of a one-element block is sorted already
    return OrderedPartition(tuple(
        tuple(sorted([perm[x - 1] for x in block])) if len(block) > 1
        else (perm[block[0] - 1],) for block in tau.blocks))


def embed_product_permutation(p1: Sequence[int], p2: Sequence[int]) -> List[int]:
    """The image of (p1, p2) under the block embedding of S_m x S_n."""
    m = len(p1)
    return list(p1) + [m + v for v in p2]


@dataclass(frozen=True)
class FanReport:
    n: int
    cone_count: int
    ray_count: int
    max_cone_count: int
    unimodular: bool
    complete: bool
    face_closed: bool

    @property
    def all_pass(self) -> bool:
        return self.unimodular and self.complete and self.face_closed


def _merge_partition(tau: OrderedPartition, kept_cuts: Sequence[int]) -> OrderedPartition:
    """Coarsen tau keeping only the cuts after block positions in kept_cuts.

    Cut i (1-based) separates blocks i-1 and i of tau; dropping a cut merges
    across it.
    """
    cuts = set(kept_cuts)
    merged: List[List[int]] = []
    for i, block in enumerate(tau.blocks):
        if i == 0 or i in cuts:
            merged.append([])
        merged[-1].extend(block)
    return OrderedPartition(tuple(tuple(sorted(block)) for block in merged))


def verify_fan(n: int) -> FanReport:
    """Structural verification of the braid fan for ground set size n.

    Checks ray and maximal-cone counts, unimodularity of every maximal cone,
    deterministic completeness (nonnegative combinations of each cone's
    generators locate to a coarsening of its label) and face closure (each
    generator subset spans the cone of the corresponding coarsening, its
    generators in the same order).

    Completeness and face closure are checked on the maximal cones only,
    which is exactly as strong as checking every cone.  Every ordered
    partition tau coarsens a maximal sigma, the flag that orders each block
    of tau increasingly: tau keeps the cuts C of sigma at its block ends.
    If face closure holds on sigma, the check (sigma, C) makes tau's
    generators sigma's generators at C, in the same chain order.  So each
    check (tau, S) of the enumeration over all cones is the check
    (sigma, C_S), C_S the cuts of C at the positions S: the same
    coarsening, the same point (ranks follow the chain order) and the same
    generators.  If face closure fails on some sigma, both enumerations
    report ``face_closed`` false, since the enumeration over all cones
    contains the checks on sigma.
    """
    limit = max_fan_size()
    if n > limit:
        raise FanSizeError(f"n={n} exceeds the configured bound {limit}")
    if n < 1:
        raise FanSizeError("n must be >= 1")
    partitions = enumerate_partitions(n)
    known = {tau: cone_of_partition(tau) for tau in partitions}
    rays = sum(1 for tau in partitions if tau.num_blocks == 2)
    maximal = [cone for tau, cone in known.items() if tau.num_blocks == n]

    unimodular = all(
        abs(linalg.determinant([gen[:-1] for gen in cone.generators])) == 1
        for cone in maximal)

    complete = True
    face_closed = True
    for cone in maximal:
        k = len(cone.generators)
        for mask in range(1 << k):
            chosen = [i for i in range(k) if mask >> i & 1]
            coarser = _merge_partition(cone.label, [i + 1 for i in chosen])
            # face closure: the subset's generators are the coarsening's
            # generators, in the same order
            if known[coarser].generators != tuple(
                    cone.generators[i] for i in chosen):
                face_closed = False
            # completeness witness: interior combinations locate back
            point = [0] * n
            for rank, i in enumerate(chosen, start=1):
                point = [p + rank * v for p, v in zip(point, cone.generators[i])]
            if locate_point(point, n) != coarser:
                complete = False
    return FanReport(n, len(partitions), rays, len(maximal), unimodular,
                     complete, face_closed)

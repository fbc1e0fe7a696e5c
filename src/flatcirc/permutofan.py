"""Ordered set partitions, the braid fan, and the concatenation product.

Partitions of {1..n} label cones of the permutohedral fan in Z^n/Z.  The
lattice quotient uses the canonical representative with last coordinate zero,
so vectors hash and serialize uniquely.  Fan verification is deterministic:
membership goes through the braid rule (constant on blocks, strictly
decreasing across consecutive blocks) rather than sampling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from . import linalg

DEFAULT_MAX_N = 6
_MAX_N_ENV = "FLATCIRC_MAX_N"


def max_fan_size() -> int:
    value = os.environ.get(_MAX_N_ENV)
    if value is None:
        return DEFAULT_MAX_N
    return int(value)


class FanSizeError(ValueError):
    pass


@dataclass(frozen=True)
class OrderedPartition:
    """Totally ordered disjoint non-empty blocks covering {1..n}."""

    blocks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if tuple(sorted(block)) != block:
                raise ValueError("blocks must be stored sorted")
            if seen & set(block):
                raise ValueError("blocks must be disjoint")
            seen.update(block)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover {1..n}")

    @classmethod
    def of(cls, *blocks: Sequence[int]) -> "OrderedPartition":
        return cls(tuple(tuple(sorted(b)) for b in blocks))

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def text(self) -> str:
        """Canonical text form, blocks joined by '|': e.g. ``1|2|3,4``."""
        return "|".join(",".join(str(x) for x in block) for block in self.blocks)


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
    if tau.num_blocks < 2:
        return []
    out = []
    for a in range(1, tau.num_blocks):
        first = [x for block in tau.blocks[:a] for x in block]
        second = [x for block in tau.blocks[a:] for x in block]
        out.append(OrderedPartition.of(first, second))
    return out


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


def locate_point(vector: Sequence[Fraction], n: int) -> OrderedPartition:
    """The unique partition whose cone's relative interior contains the point.

    Level sets of the vector, ordered by decreasing value; ties make blocks.
    Only the class modulo constants matters.
    """
    if len(vector) != n:
        raise ValueError("vector length must be n")
    values = [Fraction(v) for v in vector]
    levels: Dict[Fraction, List[int]] = {}
    for i, v in enumerate(values, start=1):
        levels.setdefault(v, []).append(i)
    ordered = [levels[v] for v in sorted(levels, reverse=True)]
    return OrderedPartition.of(*ordered)


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
    return OrderedPartition.of(*[[perm[x - 1] for x in block]
                                 for block in tau.blocks])


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
    merged: List[List[int]] = [list(tau.blocks[0])]
    for i in range(1, tau.num_blocks):
        if i in cuts:
            merged.append(list(tau.blocks[i]))
        else:
            merged[-1].extend(tau.blocks[i])
    return OrderedPartition.of(*merged)


def verify_fan(n: int) -> FanReport:
    """Structural verification of the braid fan for ground set size n.

    Checks ray and maximal-cone counts, unimodularity of every maximal cone,
    deterministic completeness (nonnegative combinations of each cone's
    generators locate to a coarsening of its label) and face closure (each
    generator subset spans the cone of the corresponding coarsening).
    """
    limit = max_fan_size()
    if n > limit:
        raise FanSizeError(f"n={n} exceeds the configured bound {limit}")
    partitions = enumerate_partitions(n)
    cones = [cone_of_partition(tau) for tau in partitions]
    rays = sum(1 for tau in partitions if tau.num_blocks == 2)
    maximal = [c for c in cones if c.label.num_blocks == n]

    unimodular = True
    for cone in maximal:
        matrix = [[Fraction(v) for v in gen[:-1]] for gen in cone.generators]
        if abs(linalg.determinant(matrix)) != 1:
            unimodular = False
            break

    complete = True
    face_closed = True
    known = {cone.label.text(): cone for cone in cones}
    for cone in cones:
        k = len(cone.generators)
        for mask in range(1 << k):
            chosen = [i for i in range(k) if mask >> i & 1]
            coarser = _merge_partition(cone.label, [i + 1 for i in chosen])
            # face closure: the subset's generators are exactly the
            # coarsening's generators
            target = known.get(coarser.text())
            if target is None or set(target.generators) != {
                    cone.generators[i] for i in chosen}:
                face_closed = False
            # completeness witness: interior combinations locate back
            point = [Fraction(0)] * n
            for rank, i in enumerate(chosen, start=1):
                gen = cone.generators[i]
                for j in range(n):
                    point[j] += Fraction(rank) * gen[j]
            if locate_point(point, n).text() != coarser.text():
                complete = False
    return FanReport(n, len(cones), rays, len(maximal), unimodular, complete,
                     face_closed)

"""Independent cross-checks for the exact machinery.

Everything in this module recomputes a quantity the rest of the package
derives combinatorially, using a deliberately different method: explicit
level-by-level unfolding of columns, exhaustive tuple enumeration, index
vectors over the product structure, or seeded random sampling.  None of it
shares code paths with :mod:`rankone.core` set arithmetic, so agreement is
meaningful evidence and disagreement localizes a bug.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from rankone.core import BudgetExceeded, IntSet, RankOneSpec, descendant_set
from rankone.tower import LevelSet, Point, apply_pointwise, measure, point_eq, point_in

_DEFAULT_CELL_LIMIT = 1_000_000
_DEFAULT_OP_LIMIT = 100_000_000


def brute_descendants(
    spec: RankOneSpec, i: int, j: int, b: int = 0, *, max_cells: int = _DEFAULT_CELL_LIMIT
) -> IntSet:
    """Descendant heights of level ``b`` of ``C_i`` inside ``C_j``, the slow way.

    Builds the full level array of every intermediate column by literal
    cut-and-stack concatenation, tagging which levels descend from ``b``.
    Costs O(h_j) memory, so only usable for small columns; that is the
    point, it shares nothing with the sum-set arithmetic it checks.
    """
    if j < i:
        raise ValueError(f"need i <= j, got i={i}, j={j}")
    if not 0 <= b < spec.height(i):
        raise ValueError(f"level {b} is not a level of C_{i}")
    if spec.height(j) > max_cells:
        raise BudgetExceeded(
            f"brute unfolding of C_{j} needs {spec.height(j)} cells, limit is {max_cells}"
        )
    tags = [lvl == b for lvl in range(spec.height(i))]
    for m in range(i, j):
        st = spec.stage(m)
        nxt: list[bool] = []
        for cut in range(st.r):
            nxt.extend(tags)
            nxt.extend([False] * st.spacers[cut])
        tags = nxt
    if len(tags) != spec.height(j):
        raise AssertionError("unfolded column has the wrong height")
    return tuple(lvl for lvl, hit in enumerate(tags) if hit)


def brute_tuple_fraction(
    spec: RankOneSpec, i: int, j: int, k: int, *, max_ops: int = _DEFAULT_OP_LIMIT
) -> Fraction:
    """Fraction of k-tuples of descendants admitting a shifted companion tuple.

    A tuple ``(a_0, ..., a_{k-1})`` counts when some nonzero shift ``t``
    keeps every ``a_l - t`` inside the descendant set.  Enumerates every
    tuple and every candidate shift directly.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    D = descendant_set(spec, i, j)
    if len(D) ** (k + 1) > max_ops:
        raise BudgetExceeded(
            f"brute tuple scan needs ~{len(D) ** (k + 1)} operations, limit is {max_ops}"
        )
    Dset = set(D)
    good = 0
    for tup in product(D, repeat=k):
        for d0 in D:
            t = tup[0] - d0
            if t != 0 and all(a - t in Dset for a in tup):
                good += 1
                break
    return Fraction(good, len(D) ** k)


def brute_shared_coordinate_fraction(
    spec: RankOneSpec, i: int, j: int, k: int, *, max_ops: int = _DEFAULT_OP_LIMIT
) -> Fraction:
    """Fraction of k-tuples whose product coordinates agree somewhere.

    Each descendant corresponds to one choice of subcolumn per stage; this
    enumerates tuples of such index vectors and counts those with all ``k``
    vectors equal in at least one stage slot.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    ranges = [range(spec.stage(m).r) for m in range(i, j)]
    total_vectors = math.prod(len(r) for r in ranges) if ranges else 1
    if total_vectors**k * max(1, len(ranges)) > max_ops:
        raise BudgetExceeded(
            f"brute coordinate scan over {total_vectors}^{k} tuples exceeds {max_ops}"
        )
    vectors = list(product(*ranges))
    slots = len(ranges)
    good = 0
    for tup in product(vectors, repeat=k):
        if any(all(v[m] == tup[0][m] for v in tup) for m in range(slots)):
            good += 1
    return Fraction(good, total_vectors**k)


class SplitMix64:
    """Tiny deterministic 64-bit generator for reproducible sampling."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-enough integer in [0, n) via multiply-shift."""
        return (self.next_u64() * n) >> 64

    def next_unit(self) -> Fraction:
        """Exact dyadic rational in [0, 1)."""
        return Fraction(self.next_u64(), 1 << 64)


def monte_carlo_measure(
    spec: RankOneSpec, B: LevelSet, k: int, samples: int, seed: int
) -> tuple[Fraction, float]:
    """Sampled estimate of the overlap of ``B`` with its k-step image.

    Draws points uniformly from ``B``, applies the transformation
    pointwise, and counts returns to ``B``.  Returns the exact-rational
    estimate ``mu(B) * hits / samples`` plus a float standard error; the
    estimate is a diagnostic, never a certificate value.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a usable estimate, got {samples}")
    rng = SplitMix64(seed)
    w = spec.width(B.stage)
    hits = 0
    for _ in range(samples):
        h = B.heights[rng.next_below(len(B.heights))]
        p = Point(B.stage, h, rng.next_unit() * w)
        if point_in(spec, apply_pointwise(spec, p, k), B):
            hits += 1
    p_hat = hits / samples
    stderr = float(measure(spec, B)) * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return measure(spec, B) * Fraction(hits, samples), stderr


def stepwise_orbit_check(spec: RankOneSpec, p: Point, k: int) -> bool:
    """Whether the k-step map agrees with composing single steps.

    Exercises the lifting logic along the whole orbit segment instead of
    jumping straight to the final height.
    """
    direct = apply_pointwise(spec, p, k)
    step = 1 if k >= 0 else -1
    q = p
    for _ in range(abs(k)):
        q = apply_pointwise(spec, q, step)
    return point_eq(spec, direct, q)

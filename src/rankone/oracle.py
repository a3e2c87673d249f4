"""Independent cross-checks for the exact machinery.

Everything in this module recomputes a quantity the rest of the package
derives combinatorially, using a deliberately different method: explicit
level-by-level unfolding of columns, exhaustive tuple enumeration, index
vectors over the product structure, or seeded random sampling.  None of it
shares code paths with :mod:`rankone.core` set arithmetic, so agreement is
meaningful evidence and disagreement localizes a bug.

The ``brute_*`` twins of certificate routines are the exception: they
build their sets with :func:`rankone.core.descendant_set` and
:func:`rankone.tower.refine`, then walk every pair (or tuple), where the
routines convolve per-stage difference counts.  They share the sets, not
the counting, and check the same budgets, so a twin raises
:class:`BudgetExceeded` exactly when its routine does.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction
from itertools import product

from rankone.analysis import AlphaProfile, rigidity_ratio
from rankone.core import BudgetExceeded, IntSet, RankOneSpec, descendant_set
from rankone.tower import (
    LevelSet,
    Point,
    apply_pointwise,
    least_valid_stage,
    measure,
    point_eq,
    point_in,
    refine,
)

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


def brute_cons_fraction(spec: RankOneSpec, i: int, j: int, k: int) -> Fraction:
    """Twin of :func:`rankone.analysis.cons_fraction_exact` over every k-tuple."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    D = descendant_set(spec, i, j)
    total = len(D) ** k
    if total > spec.budget.max_pairs:
        raise BudgetExceeded(f"{total} tuples exceeds max_pairs={spec.budget.max_pairs}")
    Dset = set(D)
    witness_count: dict[tuple[int, ...], int] = {}
    good = 0
    for tup in product(D, repeat=k):
        delta = tuple(a - tup[0] for a in tup[1:])
        cnt = witness_count.get(delta)
        if cnt is None:
            cnt = sum(1 for x in D if all(x + d in Dset for d in delta))
            witness_count[delta] = cnt
        if cnt >= 2:
            good += 1
    return Fraction(good, total)


def brute_nonerg_pair_fraction(spec: RankOneSpec, n: int, b: int) -> Fraction:
    """Twin of :func:`rankone.analysis.nonerg_pair_fraction` over every pair."""
    D = descendant_set(spec, 0, n)
    if len(D) ** 2 > spec.budget.max_pairs:
        raise BudgetExceeded(f"{len(D) ** 2} pairs exceeds max_pairs={spec.budget.max_pairs}")
    mult = Counter(d - d2 for d in D for d2 in D)
    good = sum(pairs for v, pairs in mult.items() if v + b in mult)
    return Fraction(good, len(D) ** 2)


def brute_rigidity_scan(spec: RankOneSpec, n: int) -> tuple[int, Fraction]:
    """Twin of :func:`rankone.analysis.rigidity_scan`: the ratio of every shift."""
    H = spec.height_set(n)
    if len(H) ** 2 > spec.budget.max_pairs:
        raise BudgetExceeded(
            f"{len(H) ** 2} height pairs exceeds max_pairs={spec.budget.max_pairs}"
        )
    best_a, best_ratio = 0, Fraction(-1)
    for a in sorted({y - x for x in H for y in H if y > x}):
        ratio = rigidity_ratio(H, a)
        if ratio > best_ratio:
            best_a, best_ratio = a, ratio
    return best_a, best_ratio


def brute_alpha_type_profile(
    spec: RankOneSpec,
    B: LevelSet,
    k_max: int,
    threshold: Fraction = Fraction(1, 2),
    *,
    store_ratios: bool = False,
) -> AlphaProfile:
    """Twin of :func:`rankone.analysis.alpha_type_profile` over the refined set's pairs."""
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    threshold = Fraction(threshold)
    s = least_valid_stage(spec, B, k_max)
    D = refine(spec, B, s).heights
    if len(D) ** 2 > spec.budget.max_pairs:
        raise BudgetExceeded(f"{len(D) ** 2} pairs exceeds max_pairs={spec.budget.max_pairs}")
    mult = Counter(y - x for x in D for y in D if y > x)
    exceptions: list[tuple[int, Fraction]] = []
    ratios: list[tuple[int, Fraction]] = []
    sup_out = Fraction(0)
    sup_at: int | None = None
    for k in range(1, k_max + 1):
        ratio = Fraction(mult.get(k, 0), len(D))
        ratios.append((k, ratio))
        if ratio > threshold:
            exceptions.append((k, ratio))
        elif ratio > sup_out:
            sup_out, sup_at = ratio, k
    return AlphaProfile(
        stage=s,
        k_max=k_max,
        threshold=threshold,
        base_size=len(D),
        exceptions=tuple(exceptions),
        sup_outside=sup_out,
        sup_outside_at=sup_at,
        ratios=tuple(ratios) if store_ratios else None,
    )


def brute_wde_probe(spec: RankOneSpec, A: LevelSet, B: LevelSet, n_max: int) -> int | None:
    """Twin of :func:`rankone.analysis.wde_probe`: window walks over the refined sets."""
    if n_max < 1:
        return None
    target = least_valid_stage(spec, A, n_max)
    s = max(A.stage, B.stage)
    size = max(len(A.heights), len(B.heights))
    while s < target and size * spec.stage(s).r <= spec.budget.max_descendants:
        size *= spec.stage(s).r
        s += 1
    DA = refine(spec, A, s).heights
    DB = refine(spec, B, s).heights
    pair_ops = 0
    self_hits: set[int] = set()
    for i, d in enumerate(DA):
        j = i + 1
        while j < len(DA) and DA[j] - d <= n_max:
            self_hits.add(DA[j] - d)
            j += 1
        pair_ops += j - i - 1
        if pair_ops > spec.budget.max_pairs:
            raise BudgetExceeded("difference scan over pair budget")
    if not self_hits:
        return None
    cross_hits: set[int] = set()
    for d in DA:
        lo = bisect.bisect_right(DB, d)
        hi = bisect.bisect_right(DB, d + n_max)
        cross_hits.update(DB[j] - d for j in range(lo, hi))
        pair_ops += hi - lo
        if pair_ops > spec.budget.max_pairs:
            raise BudgetExceeded("difference scan over pair budget")
    both = self_hits & cross_hits
    return min(both) if both else None


def brute_intersection_measure(spec: RankOneSpec, A: LevelSet, B: LevelSet, k: int) -> Fraction:
    """Twin of :func:`rankone.tower.intersection_measure` by set lookups.

    With ``A = B`` it is also the twin of
    :func:`rankone.tower.translate_intersection_measure`.
    """
    n = max(least_valid_stage(spec, A, k), least_valid_stage(spec, B, k))
    DA = refine(spec, A, n).heights
    DB = set(refine(spec, B, n).heights)
    return sum(1 for d in DA if d + k in DB) * spec.width(n)


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

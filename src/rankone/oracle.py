"""Independent cross-checks for the exact machinery.

Everything in this module recomputes a quantity the rest of the package
derives combinatorially, using a deliberately different method: explicit
level-by-level unfolding of columns, exhaustive tuple enumeration, index
vectors over the product structure, or seeded random sampling, so
agreement is meaningful evidence and disagreement localizes a bug.

What the twins do share with the fast paths is stage arithmetic.  The
``brute_*`` twins of certificate routines list their sets with
:func:`rankone.core.descendant_set` and :func:`rankone.tower.refine`, then
walk every pair (or tuple), where the routines convolve per-stage
difference counts; and they pick the stage they count at with
:func:`rankone.tower._probe_stage` and :func:`rankone.tower.least_valid_stage`,
as their routines do.  They share the sets and the stage choice, not the
counting: each twin counts for itself and refuses through
:meth:`rankone.core.Budget.check`, as its routine does.  ROADMAP item 21
plans twins that share no stage arithmetic at all.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from sys import byteorder

from rankone.core import (
    BudgetExceeded,
    IntSet,
    RankOneSpec,
    _check_int,
    _check_level,
    _check_stages,
    _exact,
    descendant_set,
)
from rankone.tower import (
    LevelSet,
    Point,
    _on_column,
    _probe_stage,
    apply_pointwise,
    least_valid_stage,
    measure,
    point_eq,
    refine,
)

_DEFAULT_CELL_LIMIT = 1_000_000
_DEFAULT_OP_LIMIT = 100_000_000
_BLOCK = 1024  # Monte Carlo samples drawn and walked together


def brute_descendants(spec: RankOneSpec, i: int, j: int, b: int = 0) -> IntSet:
    """Descendant heights of level ``b`` of ``C_i`` inside ``C_j``, the slow way.

    Builds the full level array of every intermediate column by literal
    cut-and-stack concatenation, tagging which levels descend from ``b``.
    Costs O(h_j) memory, so only usable for small columns; that is the
    point, it shares nothing with the sum-set arithmetic it checks.
    """
    _check_stages(i, j)
    _check_level(spec, i, b, "level")
    if spec.height(j) > _DEFAULT_CELL_LIMIT:
        raise BudgetExceeded(
            f"brute unfolding of C_{j} needs {spec.height(j)} cells, "
            f"limit is {_DEFAULT_CELL_LIMIT}"
        )
    tags = [lvl == b for lvl in range(spec.height(i))]
    for m in range(i, j):
        nxt: list[bool] = []
        for s in tuple(spec.stage(m).spacers):  # listed once: no index arithmetic of a run
            nxt.extend(tags)
            nxt.extend([False] * s)
        tags = nxt
    if len(tags) != spec.height(j):
        raise AssertionError("unfolded column has the wrong height")
    return tuple(lvl for lvl, hit in enumerate(tags) if hit)


def brute_tuple_fraction(spec: RankOneSpec, i: int, j: int, k: int) -> Fraction:
    """Twin of :func:`rankone.analysis.cons_fraction_exact` by shift search.

    A tuple ``(a_0, ..., a_{k-1})`` counts when some nonzero shift ``t``
    keeps every ``a_l - t`` inside the descendant set.  Enumerates every
    tuple and every candidate shift directly.
    """
    _check_int("k", k, 2)
    D = descendant_set(spec, i, j)
    total = spec.budget.power(len(D), k, "|D|")
    spec.budget.check("max_pairs", total, "{} pairs" if k == 2 else "{} tuples")
    if len(D) ** (k + 1) > _DEFAULT_OP_LIMIT:
        raise BudgetExceeded(
            f"brute tuple scan needs ~{len(D) ** (k + 1)} operations, "
            f"limit is {_DEFAULT_OP_LIMIT}"
        )
    Dset = set(D)
    good = 0
    for tup in product(D, repeat=k):
        for d0 in D:
            t = tup[0] - d0
            if t != 0 and all(a - t in Dset for a in tup):
                good += 1
                break
    return Fraction(good, total)


def brute_shared_coordinate_fraction(spec: RankOneSpec, i: int, j: int, k: int) -> Fraction:
    """Fraction of k-tuples whose product coordinates agree somewhere.

    Each descendant corresponds to one choice of subcolumn per stage; this
    enumerates tuples of such index vectors and counts those with all ``k``
    vectors equal in at least one stage slot.
    """
    _check_int("k", k, 2)
    _check_stages(i, j)
    ranges = [range(spec.stage(m).r) for m in range(i, j)]
    total_vectors = math.prod(map(len, ranges))
    total = spec.budget.power(total_vectors, k, "|D|")  # a vector per descendant
    if total * max(1, len(ranges)) > _DEFAULT_OP_LIMIT:
        raise BudgetExceeded(
            f"brute coordinate scan over {total_vectors}^{k} tuples exceeds {_DEFAULT_OP_LIMIT}"
        )
    vectors = list(product(*ranges))
    slots = len(ranges)
    good = 0
    for tup in product(vectors, repeat=k):
        if any(all(v[m] == tup[0][m] for v in tup) for m in range(slots)):
            good += 1
    return Fraction(good, total)


def brute_nonerg_pair_fraction(spec: RankOneSpec, n: int, b: int) -> Fraction:
    """Twin of :func:`rankone.analysis.nonerg_pair_fraction` over every pair."""
    _check_int("b", b, None)
    D = descendant_set(spec, 0, n)
    total = spec.budget.check("max_pairs", spec.budget.power(len(D), 2, "|D|"), "{} pairs")
    mult = Counter(d - d2 for d in D for d2 in D)
    good = sum(pairs for v, pairs in mult.items() if v + b in mult)
    return Fraction(good, total)


def brute_rigidity_scan(spec: RankOneSpec, n: int) -> tuple[int, Fraction]:
    """Twin of :func:`rankone.analysis.rigidity_scan`: the ratio of every shift."""
    H = spec.height_set(n)
    spec.budget.check("max_pairs", len(H) ** 2, "{} height pairs")
    Hset = set(H)
    best_a, best_ratio = 0, Fraction(-1)
    for a in sorted({y - x for x in H for y in H if y > x}):
        ratio = Fraction(sum(1 for x in H if x + a in Hset), len(H))
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
    from rankone.analysis import AlphaProfile  # here only: oracle runs need no analysis

    _check_int("k_max", k_max, 1)
    threshold = _exact("threshold", threshold)
    if store_ratios or threshold < 0:
        spec.budget.check("max_descendants", k_max, "{} listed ratios")
    s = least_valid_stage(spec, B, k_max)
    D = refine(spec, B, s).heights
    spec.budget.check("max_pairs", len(D) ** 2, "{} pairs")
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
    _check_int("n_max", n_max, 1)
    s = _probe_stage(spec, A, B, n_max)
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
        spec.budget.check("max_pairs", pair_ops, "{} window pairs")
    if not self_hits:
        return None
    cross_hits: set[int] = set()
    for d in DA:
        lo = bisect.bisect_right(DB, d)
        hi = bisect.bisect_right(DB, d + n_max)
        cross_hits.update(DB[j] - d for j in range(lo, hi))
        pair_ops += hi - lo
        spec.budget.check("max_pairs", pair_ops, "{} window pairs")
    both = self_hits & cross_hits
    return min(both) if both else None


def brute_intersection_measure(spec: RankOneSpec, A: LevelSet, B: LevelSet, k: int) -> Fraction:
    """Twin of :func:`rankone.tower.intersection_measure` by set lookups.

    With ``A = B`` it is also the twin of
    :func:`rankone.tower.translate_intersection_measure`.
    """
    n = max(least_valid_stage(spec, A, k), least_valid_stage(spec, B, k))  # which checks k
    DA = refine(spec, A, n).heights
    DB = set(refine(spec, B, n).heights)
    return sum(1 for d in DA if d + k in DB) * spec.width(n)


def brute_apply_pointwise(spec: RankOneSpec, p: Point, k: int, stage: int = 0) -> Point:
    """Twin of :func:`rankone.tower.apply_pointwise` in absolute ``Fraction`` offsets.

    The image is addressed at the least stage at or after ``p.stage`` and
    ``stage`` at which the shift stays in the column, so ``k = 0`` is the
    twin of :func:`rankone.tower.lift_to`.  Each lift divides the offset by
    the next column width to find the cut, with a gcd per step.
    """
    _check_int("stage index", stage, 0)
    n, h, x = _on_column(spec, p)
    while n < stage or not 0 <= h + k < spec.height(n):
        w_next = spec.width(n + 1)
        c = int(x / w_next)
        h += spec.height_set(n)[c]
        x -= c * w_next
        n += 1
    return Point(n, h + k, x)


def _native(image: bytes | bytearray) -> memoryview:
    """The 64-bit words of a native-order integer image, least significant first."""
    words = memoryview(image).cast("Q")
    return words if byteorder == "little" else words[::-1]


def _lanes(values) -> int:
    """64-bit words (an ``array("Q")`` or a ``"Q"`` memoryview) packed into
    128-bit lanes, the first in the lowest."""
    image = bytearray(16 * len(values))
    _native(image)[0::2] = values
    return int.from_bytes(image, byteorder)


def _words(x: int, count: int) -> memoryview:
    """The ``2 * count`` 64-bit words of ``x``, least significant first.

    Word ``2j`` is the low half of lane ``j``, word ``2j + 1`` its high half.
    """
    return _native(x.to_bytes(16 * count, byteorder))


def _low_halves(count: int) -> int:
    """The mask of the low 64 bits of each of ``count`` 128-bit lanes."""
    return int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little")


class SplitMix64:
    """Tiny deterministic 64-bit generator for reproducible sampling.

    The mixing function of Steele, Lea and Flood, "Fast splittable
    pseudorandom number generators" (OOPSLA 2014), over the states
    ``seed + j * GAMMA mod 2^64``.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int) -> None:
        _check_int("seed", seed, None)
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-enough integer in [0, n) via multiply-shift."""
        _check_int("n", n, 1)
        return (self.next_u64() * n) >> 64

    def _mix(self, n: int) -> memoryview:
        """The next ``n`` outputs, ``n <= 2 * _BLOCK`` (a Monte Carlo block's
        two draws per sample), as the low words (even indices) of the
        :func:`_words` of ``n`` lanes, with the state left as ``n`` calls of
        :meth:`next_u64` would leave it.

        The states of the ``n`` draws form an arithmetic progression, so they
        pack into one integer with 128-bit lanes, lane ``j`` holding
        ``state + (j + 1) * GAMMA`` (``state * ONES + GAMMA * IDX``, masked to
        the low 64 bits of each lane).  Each mixing step is then one
        big-integer operation and a per-lane mask: a right shift pulls the
        next lane's low bits only into the high half, which the mask clears
        before the multiply, and a value below 2^64 times a 64-bit constant
        stays below 2^128, so no lane carries into the next.
        """
        ones, steps, low = _generator_lanes()
        z = (self._state * ones + steps) & low & ((1 << 128 * n) - 1)
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        self._state = (self._state + n * self._GAMMA) & self._MASK
        return _words(z ^ (z >> 31), n)


@cache
def _generator_lanes() -> tuple[int, int, int]:
    """:meth:`SplitMix64._mix`'s constants over a Monte Carlo block's lanes:
    ``ONES``, ``GAMMA * IDX`` and the low-half mask."""
    count = 2 * _BLOCK
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    steps = SplitMix64._GAMMA * _lanes(array("Q", range(1, count + 1)))
    return ones, steps, _low_halves(count)


def _cut_lanes(offsets: int, r: int, low: int, count: int) -> tuple[list[int], int]:
    """One stage of the walk for ``count`` offsets ``u``, packed in 128-bit lanes.

    Returns the cuts ``u * r >> 64`` and the offsets ``u * r mod 2^64``,
    packed.  ``r`` is a stage's cut count or ``|B|``, the length of a tuple,
    so ``r < 2^64``: each lane holds ``u * r < 2^128`` and none carries into
    the next.
    """
    p = offsets * r
    return _words(p, count)[1::2].tolist(), p & low


def _block_hits(spec: RankOneSpec, B: LevelSet, k: int, draws: memoryview) -> int:
    """How many of the samples drawn as ``draws``, the words of
    :meth:`SplitMix64._mix` (a level pick, then an offset, per sample), land in
    ``B`` after ``k`` steps."""
    count, levels = len(draws) // 4, B.heights
    low = _low_halves(count)
    # a pick u * |B| >> 64 is the cut of a stage with |B| subcolumns
    picks, _ = _cut_lanes(_lanes(draws[0::4]), len(levels), low, count)
    hs = [levels[i] + k for i in picks]  # the shifted levels h + k
    offsets = _lanes(draws[2::4])
    n = B.stage
    while not (max(hs) < spec.height(n) and min(hs) >= 0):
        r = spec.stage(n).r
        H = spec.height_set(n)
        cuts, offsets = _cut_lanes(offsets, r, low, count)
        hs = [h + H[c] for h, c in zip(hs, cuts)]
        n += 1
    right = bisect.bisect_right
    for m in reversed(range(B.stage, n)):
        H = spec.height_set(m)
        hs = [h - H[right(H, h) - 1] for h in hs]
    return sum(map(set(levels).__contains__, hs))


def monte_carlo_measure(
    spec: RankOneSpec, B: LevelSet, k: int, samples: int, seed: int
) -> tuple[Fraction, float]:
    """Sampled estimate of the overlap of ``B`` with its k-step image.

    Draws points uniformly from ``B``, applies the transformation
    pointwise, and counts returns to ``B``.  Returns the exact-rational
    estimate ``mu(B) * hits / samples`` plus a float standard error; the
    estimate is a diagnostic, never a certificate value.

    Each sample takes two draws of :class:`SplitMix64`: a level of ``B``
    (``u * |B| >> 64``) and its offset, ``u / 2^64`` of the column width.
    Samples go in blocks of 1024, so memory does not grow with ``samples``,
    and the code shares nothing with :mod:`rankone.tower`'s walk.
    A block walks one stage at a time: its offsets sit in 128-bit lanes of
    one integer, and one multiply by ``r_n`` gives every sample's cut (the
    high 64 bits of its lane) and new offset (the low 64 bits); a cut count
    is the length of a tuple, so ``r_n < 2^64`` and a lane holds
    ``u * r_n < 2^128`` with no carry.  The block walks until every sample
    satisfies ``0 <= h + k < h_n``, then projects every ``h + k`` down to
    ``B.stage`` by bisection.

    Lemma: once ``0 <= h + k < h_n`` holds at stage ``n``, it holds at every
    later stage, and projecting down returns the same level.  Copy ``c`` of
    ``C_n`` sits at ``[H_n[c], H_n[c] + h_n)`` inside ``C_{n+1}``, and the
    gaps of ``H_n`` are at least ``h_n``, so the walk adds ``H_n[c]`` to
    ``h + k`` and the bisection takes it off again.  Walking a sample past
    its own stopping stage therefore changes no hit, and the estimate is the
    one the point-by-point walk gives.  A level that projects into spacers
    stays at or above the column top all the way down (``h_{m+1}`` is at
    least ``max H_m + h_m``), so it is never counted.
    """
    _check_int("k", k, None)
    _check_int("samples", samples, 1000)  # fewer give no usable estimate
    spec.budget.check("max_iterate", samples, "{} samples")
    rng = SplitMix64(seed)
    hits = 0
    for start in range(0, samples, _BLOCK):
        hits += _block_hits(spec, B, k, rng._mix(2 * min(_BLOCK, samples - start)))
    p_hat = hits / samples
    stderr = float(measure(spec, B)) * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return measure(spec, B) * Fraction(hits, samples), stderr


def stepwise_orbit_check(spec: RankOneSpec, p: Point, k: int) -> bool:
    """Whether the k-step map agrees with composing single steps.

    Exercises the lifting logic along the whole orbit segment instead of
    jumping straight to the final height.
    """
    spec.budget.check("max_iterate", abs(k), "{} orbit steps")
    direct = apply_pointwise(spec, _on_column(spec, p), k)
    step = 1 if k >= 0 else -1
    q = p
    for _ in range(abs(k)):
        q = apply_pointwise(spec, q, step)
    return point_eq(spec, direct, q)

"""Points, level sets, and exact measures on the tower of columns.

A point of the space is addressed relative to a stage: ``Point(n, h, x)``
is the point of column ``C_n`` sitting at height ``h`` (an integer level)
and horizontal offset ``x``, an exact rational with ``0 <= x < w_n``.  The
same point has an address at every later stage; :meth:`RankOneSpec._lift
<rankone.core.RankOneSpec._lift>` is the one walk that rewrites it, in
integers, and it builds a :class:`fractions.Fraction` only for a point it lifts.

Measurable sets are finite unions of levels, :class:`LevelSet`.  All
measures are exact :class:`fractions.Fraction` values: a level of ``C_n``
has measure ``w_n = 1/(r_0 ... r_{n-1})``, and intersection measures are
computed by refining level sets to a stage deep enough that a shift by
``k`` cannot wrap around the column.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Sequence

from rankone.core import (
    IntSet,
    RankOneSpec,
    _check_int,
    _check_level,
    _check_stages,
    _convolve,
    _exact,
    _refined,
    _validated_make,
    descendant_count,
)


class LevelSet(namedtuple("LevelSet", "stage heights")):
    """A finite union of levels of one column: ``stage`` plus increasing int heights."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, stage: int, heights: IntSet) -> LevelSet:
        _check_int("stage index", stage, 0)
        hs = tuple(heights)
        if not hs:
            raise ValueError("a level set needs at least one level")
        for h in hs:
            _check_int("height", h, 0)
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("heights must be strictly increasing")
        return tuple.__new__(cls, (stage, hs))


class Point(namedtuple("Point", "stage height offset")):
    """One point of the space, addressed in the coordinates of ``stage``.

    The offset is exact, never a float.  Build points with :func:`point`,
    which checks them against the column.  Every other reader of a point
    checks it at entry too, except :func:`apply_pointwise`, the per-map path."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, stage: int, height: int, offset: Fraction) -> Point:
        _check_int("stage index", stage, 0)
        _check_int("height", height, 0)
        x = _exact("offset", offset)
        if x < 0:
            raise ValueError(f"offset must be nonnegative, got {x}")
        return tuple.__new__(cls, (stage, height, x))


def _in_column(spec: RankOneSpec, B: LevelSet) -> LevelSet:
    """``B``, once its top height is a level of ``C_{B.stage}``."""
    _check_level(spec, B.stage, B.heights[-1])
    return B


def _on_column(spec: RankOneSpec, p: Point) -> Point:
    """``p``, once its height is a level of ``C_{p.stage}`` and its offset is
    below ``w_{p.stage}``."""
    n, h, x = p
    _check_level(spec, n, h)
    if x.numerator * spec.width_denominator(n) >= x.denominator:  # x >= w_n, in integers
        raise ValueError(f"offset {x} out of range for C_{n} (w={spec.width(n)})")
    return p


def level_set(spec: RankOneSpec, stage: int, heights) -> LevelSet:
    """Validated :class:`LevelSet`: every height must be a level of ``C_stage``."""
    return _in_column(spec, LevelSet(stage, sorted(set(heights))))


def point(spec: RankOneSpec, stage: int, height: int, offset) -> Point:
    """Validated :class:`Point` with ``0 <= height < h_stage``, ``0 <= offset < w_stage``."""
    return _on_column(spec, Point(stage, height, offset))


def measure(spec: RankOneSpec, B: LevelSet) -> Fraction:
    """Exact measure of a level set: level count times column width."""
    return len(B.heights) * spec.width(_in_column(spec, B).stage)


def refine(spec: RankOneSpec, B: LevelSet, n: int) -> LevelSet:
    """Rewrite ``B`` as a level set of the deeper column ``C_n``.

    Each level of ``C_i`` appears in ``C_n`` as its translated descendant
    set, so the refined set is the direct sum ``B + H_i + ... + H_{n-1}``,
    with exactly ``|B| * r_i * ... * r_{n-1}`` levels, increasing, and the
    same measure.
    """
    _check_stages(B.stage, n)
    if n == _in_column(spec, B).stage:
        return B
    return tuple.__new__(LevelSet, (n, _refined(spec, B.heights, B.stage, n)))


def lift_to(spec: RankOneSpec, p: Point, n: int) -> Point:
    """The same point addressed at stage ``n``, at or after ``p.stage``."""
    _check_stages(p.stage, n)
    return tuple.__new__(Point, spec._lift(*_on_column(spec, p), 0, n))


def point_eq(spec: RankOneSpec, p: Point, q: Point) -> bool:
    """Whether two addresses denote the same point of the space."""
    p, q = _on_column(spec, p), _on_column(spec, q)
    n = max(p.stage, q.stage)
    return spec._lift(*p, 0, n) == spec._lift(*q, 0, n)


def project_height(spec: RankOneSpec, stage: int, height: int, n: int) -> int | None:
    """The level of ``C_n`` containing a given level of ``C_stage``.

    Returns None when the level lies in spacers added after stage ``n``
    and so belongs to no level of ``C_n``.
    """
    _check_stages(n, stage)
    _check_level(spec, stage, height)
    h = height
    for m in range(stage - 1, n - 1, -1):
        H = spec.height_set(m)
        c = bisect_right(H, h) - 1
        h -= H[c]
        if h >= spec.height(m):
            return None
    return h


def point_in(spec: RankOneSpec, p: Point, B: LevelSet) -> bool:
    """Membership of a point in a level set, regardless of address stages."""
    n, h, _ = spec._lift(*_on_column(spec, p), 0, _in_column(spec, B).stage)
    h = project_height(spec, n, h, B.stage)
    return h is not None and bisect_left(B.heights, h) < bisect_right(B.heights, h)


def apply_pointwise(spec: RankOneSpec, p: Point, k: int) -> Point:
    """Image of a point under the k-th power of the transformation.

    Within a column the map just moves ``k`` levels up; when that walks off
    the top or bottom, the address is lifted until the target height falls
    inside the deeper column.  The orbit of a measure-zero set of points
    stays outside every column at every stage, which surfaces as
    :class:`rankone.core.BudgetExceeded` once ``max_stage`` is hit.
    """
    if type(k) is not int:  # an int shift, on the map's hot path, skips the call
        _check_int("k", k, None)
    return tuple.__new__(Point, spec._lift(*p, k, p.stage))


def least_valid_stage(spec: RankOneSpec, B: LevelSet, k: int) -> int:
    """Least stage where a shift by ``k`` cannot wrap any descendant of ``B``.

    That is the least ``n >= B.stage`` with ``h_n > max B + max D + |k|``,
    ``D = H_{B.stage} + ... + H_{n-1}``, so that ``max B + max D`` is the top
    descendant of ``B`` in ``C_n``.  The headroom ``h_n - max B - max D``
    grows per stage by the last subcolumn's spacer count and never falls, so
    the stage does not decrease with ``|k|``, and it exists exactly when
    those counts keep accumulating; when the budget's ``max_stage`` arrives
    first, :class:`rankone.core.BudgetExceeded` is raised.
    """
    _check_int("k", k, None)
    n = _in_column(spec, B).stage
    lift = B.heights[-1] - spec.max_descendant(n)  # max B + max D - max_descendant(n)
    while spec.height(n) - spec.max_descendant(n) - lift <= abs(k):  # refused past max_stage
        n += 1
    return n


def _probe_stage(spec: RankOneSpec, A: LevelSet, B: LevelSet, n_max: int) -> int:
    """The stage at which a probe compares ``A`` and ``B`` over shifts up to ``n_max``.

    It is the common stage of the two sets, deepened while both, refined,
    fit ``max_descendants`` and the column does not yet clear a shift by
    ``n_max`` over ``A`` (:func:`least_valid_stage`).  Each set's levels are
    counted at the common stage, however the set is written.
    """
    s = max(A.stage, B.stage)
    size = max(
        descendant_count(spec, A.stage, s, len(A.heights)),
        descendant_count(spec, _in_column(spec, B).stage, s, len(B.heights)),
    )
    target = least_valid_stage(spec, A, n_max)
    while s < target and size * spec.stage(s).r <= spec.budget.max_descendants:
        size *= spec.stage(s).r
        s += 1
    return s


def _common_stage(spec: RankOneSpec, A: LevelSet, B: LevelSet, n: int):
    """Budget-check ``A`` and ``B`` refined to ``C_n`` as :func:`refine` would,
    and refine them only to their common stage ``i``.  Also returns
    ``|A_n| * |B_n|``, the number of pairs of the refinements to ``C_n``."""
    pairs = descendant_count(spec, A.stage, n, len(A.heights))
    pairs *= descendant_count(spec, B.stage, n, len(B.heights))
    i = max(A.stage, B.stage)
    return i, refine(spec, A, i).heights, refine(spec, B, i).heights, pairs


def overlap_counts(
    spec: RankOneSpec, A: LevelSet, B: LevelSet, n: int, ks: Sequence[int]
) -> Counter:
    """``N(t) = #{x in A_n : x + t in B_n}`` for the shifts ``t`` of ``ks``, in any order.

    ``A_n`` and ``B_n`` are the refinements of ``A`` and ``B`` to ``C_n``.
    Only their common stage ``i`` is enumerated: ``x = a + u_A``,
    ``x + t = b + u_B`` with ``u_A``, ``u_B`` in the direct sum
    ``D = H_i + ... + H_{n-1}``, so ``t = (b - a) + u`` for ``u = u_B - u_A``.
    The counts of ``u`` over ``D x D`` have the generating polynomial
    ``prod_m sum_{h, h' in H_m} x^(h - h')``: the combinatorial side of the
    Riesz product formula for rank-one spectral measures.  No set is
    enumerated.  Stages are taken top-down, in the window ``[ks[0], ks[-1]]``
    widened by the spread of ``b - a``, and a partial sum is dropped as soon
    as the stages below it, whose differences stay within
    ``max H_i + ... + max H_{m-1}``, can no longer bring it into that window.
    Each ``(u, a)`` then walks the ``b`` in range, so the work beyond the
    product is the pairs counted plus one bisection per ``(u, a)``.

    When ``ks`` has gaps, fewer shifts than its window, the same bound is
    applied to each shift: a partial sum ``p`` is kept only while some shift
    lies in ``[p + min(b - a) - spread, p + max(b - a) + spread]``, found by
    bisection into ``ks``, and only the shifts of ``ks`` are counted.  A
    contiguous ``ks`` (a ``range``, or one shift) is its window and skips
    that step.
    """
    if not isinstance(ks, range) and not set(map(type, ks)) <= {int}:  # the loop names the bad one
        for k in ks:
            _check_int("shift", k, None)
    ks = ks if isinstance(ks, range) and ks.step > 0 else sorted(set(ks))
    i, DA, DB, _ = _common_stage(spec, A, B, n)
    lo, hi = (ks[0], ks[-1]) if ks else (1, 0)
    gapped = len(ks) < hi - lo + 1
    wmin, wmax = DB[0] - DA[-1], DB[-1] - DA[0]  # range of b - a
    acc = {0: 1}
    for m in reversed(range(i, n)):
        spread = spec.max_descendant(m) - spec.max_descendant(i)  # max H_i + ... + max H_{m-1}
        acc = _convolve(acc, *spec.height_differences(m), lo - wmax - spread, hi - wmin + spread)
        if gapped:
            near, far = wmin - spread, wmax + spread
            acc = {p: c for p, c in acc.items() if _any_in(ks, p + near, p + far)}
    counts: Counter = Counter()
    for u, c in acc.items():
        for a in DA:
            for b in DB[bisect_left(DB, a + lo - u) : bisect_right(DB, a + hi - u)]:
                counts[u + b - a] += c
    return Counter({k: counts[k] for k in ks if k in counts}) if gapped else counts


def _any_in(ks: Sequence[int], lo: int, hi: int) -> bool:
    """Whether the increasing ``ks`` has an element in ``[lo, hi]``."""
    j = bisect_left(ks, lo)
    return j < len(ks) and ks[j] <= hi


def overlap_total(spec: RankOneSpec, A: LevelSet, B: LevelSet, n: int, lo: int, hi: int) -> int:
    """The number of pairs :func:`overlap_counts` counts, without listing any difference.

    The stage differences are convolved top-down as in
    :func:`overlap_counts`, but a partial sum all of whose
    completions, by the stages below and by ``b - a``, land in the window is
    counted at once and dropped.  What is kept lies within the spread of the
    stages below of an end of the window, and distinct elements of a stage
    sum differ by more than that spread, so the work is linear in the size
    of the stage sum however many pairs there are.
    """
    _check_int("lo", lo, None)
    _check_int("hi", hi, None)
    i, DA, DB, completions = _common_stage(spec, A, B, n)
    if lo > hi:
        return 0
    wmin, wmax = DB[0] - DA[-1], DB[-1] - DA[0]  # range of b - a
    total = 0
    acc = {0: 1}
    for m in reversed(range(i, n)):
        spread = spec.max_descendant(m) - spec.max_descendant(i)  # max H_i + ... + max H_{m-1}
        completions //= spec.stage(m).r ** 2
        acc = _convolve(acc, *spec.height_differences(m), lo - wmax - spread, hi - wmin + spread)
        for p in [p for p in acc if lo - wmin + spread <= p <= hi - wmax - spread]:
            total += acc.pop(p) * completions
    for u, c in acc.items():
        total += c * sum(bisect_right(DB, a + hi - u) - bisect_left(DB, a + lo - u) for a in DA)
    return total


def translate_intersection_measure(spec: RankOneSpec, B: LevelSet, k: int) -> Fraction:
    """Exact measure of the overlap of ``B`` with its image ``k`` steps up.

    At the least stage at which a shift by ``k`` stays inside the column, the
    overlap is just a count of coinciding levels.
    """
    return intersection_measure(spec, B, B, k)


def intersection_measure(spec: RankOneSpec, A: LevelSet, B: LevelSet, k: int) -> Fraction:
    """Exact measure of ``T^k A`` meets ``B`` for level sets ``A``, ``B``."""
    n = max(least_valid_stage(spec, X, k) for X in {A, B})  # which checks k
    return overlap_counts(spec, A, B, n, (k,))[k] * spec.width(n)

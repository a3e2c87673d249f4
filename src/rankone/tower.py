"""Points, level sets, and exact measures on the tower of columns.

A point of the space is addressed relative to a stage: ``Point(n, h, x)``
is the point of column ``C_n`` sitting at height ``h`` (an integer level)
and horizontal offset ``x``, an exact rational with ``0 <= x < w_n``.  The
same point has an address at every later stage.  Inside the walk that
rewrites an address stage by stage, the offset is an integer numerator
``num`` over a fixed denominator ``den``, relative to the column width:
``x = (num / den) w_n``.  One stage up, ``num * r_n = c * den + num'`` picks
the cut ``c`` and the new numerator, so ``den`` never changes and no gcd
runs; this is the mixed-radix (odometer) address of the point.  A
:class:`Point` enters the walk with no :class:`fractions.Fraction` built, and
one is built at exit only for a point that was lifted.

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

from rankone.core import (
    IntSet,
    RankOneSpec,
    _convolve,
    _refined,
    descendant_count,
    difference_counts,
)


class LevelSet(namedtuple("LevelSet", "stage heights")):
    """A finite union of levels of one column: ``stage`` plus sorted heights."""

    __slots__ = ()

    def __new__(cls, stage: int, heights: IntSet) -> LevelSet:
        hs = tuple(int(h) for h in heights)
        if not hs:
            raise ValueError("a level set needs at least one level")
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("heights must be strictly increasing")
        if hs[0] < 0:
            raise ValueError("heights must be nonnegative")
        return tuple.__new__(cls, (stage, hs))


class Point(namedtuple("Point", "stage height offset")):
    """One point of the space, addressed in the coordinates of ``stage``."""

    __slots__ = ()

    def __new__(cls, stage: int, height: int, offset: Fraction) -> Point:
        if not isinstance(offset, Fraction):
            offset = Fraction(offset)
        return tuple.__new__(cls, (stage, height, offset))


def level_set(spec: RankOneSpec, stage: int, heights) -> LevelSet:
    """Validated :class:`LevelSet`: every height must be a level of ``C_stage``."""
    ls = LevelSet(stage, tuple(sorted(set(int(h) for h in heights))))
    h_n = spec.height(stage)
    if ls.heights[-1] >= h_n:
        raise ValueError(
            f"height {ls.heights[-1]} is not a level of C_{stage} (h_{stage}={h_n})"
        )
    return ls


def point(spec: RankOneSpec, stage: int, height: int, offset) -> Point:
    """Validated :class:`Point` with ``0 <= height < h_stage``, ``0 <= offset < w_stage``."""
    x = Fraction(offset)
    if not 0 <= height < spec.height(stage):
        raise ValueError(f"height {height} out of range for C_{stage}")
    if not 0 <= x < spec.width(stage):
        raise ValueError(f"offset {x} out of range for C_{stage} (w={spec.width(stage)})")
    return Point(stage, height, x)


def measure(spec: RankOneSpec, B: LevelSet) -> Fraction:
    """Exact measure of a level set: level count times column width."""
    return len(B.heights) * spec.width(B.stage)


def refine(spec: RankOneSpec, B: LevelSet, n: int) -> LevelSet:
    """Rewrite ``B`` as a level set of the deeper column ``C_n``.

    Each level of ``C_i`` appears in ``C_n`` as its translated descendant
    set, so the refined set is the direct sum ``B + H_i + ... + H_{n-1}``,
    with exactly ``|B| * r_i * ... * r_{n-1}`` levels and the same measure.
    """
    if n < B.stage:
        raise ValueError(f"cannot refine stage {B.stage} set to earlier stage {n}")
    return B if n == B.stage else LevelSet(n, _refined(spec, B.heights, B.stage, n))


def _walk(spec: RankOneSpec, p: Point, k: int, stage: int):
    """Lift ``p`` until it is addressed at ``stage`` or later and a shift by
    ``k`` stays in the column.

    Returns the stage, the shifted height ``h + k`` and the offset as ``num / den``
    of that column's width, unreduced.  The offset selects the subcolumn: cut
    ``c = floor(num * r_n / den)``, after which the height gains the c-th entry of ``H_n``.
    """
    n, h, x = p.stage, p.height, p.offset
    num, den = x.numerator * spec.width_denominator(n), x.denominator
    while n < stage or not 0 <= h + k < spec.height(n):
        c, num = divmod(num * spec.stage(n).r, den)
        h += spec.height_set(n)[c]
        n += 1
    return n, h + k, num, den


def _moved(spec: RankOneSpec, p: Point, k: int, stage: int) -> Point:
    """:func:`_walk` from and back to a :class:`Point`; a new ``Fraction`` only after a lift."""
    if p.stage >= stage and 0 <= p.height + k < spec.height(p.stage):
        return Point(p.stage, p.height + k, p.offset)
    n, h, num, den = _walk(spec, p, k, stage)
    return Point(n, h, Fraction(num, den * spec.width_denominator(n)))


def lift_to(spec: RankOneSpec, p: Point, n: int) -> Point:
    """The same point addressed at stage ``n``, at or after ``p.stage``."""
    if n < p.stage:
        raise ValueError(f"cannot lower a stage-{p.stage} address to stage {n}")
    return _moved(spec, p, 0, n)


def point_eq(spec: RankOneSpec, p: Point, q: Point) -> bool:
    """Whether two addresses denote the same point of the space."""
    n = max(p.stage, q.stage)
    (_, hp, a, da), (_, hq, b, db) = _walk(spec, p, 0, n), _walk(spec, q, 0, n)
    return hp == hq and a * db == b * da


def project_height(spec: RankOneSpec, stage: int, height: int, n: int) -> int | None:
    """The level of ``C_n`` containing a given level of ``C_stage``.

    Returns None when the level lies in spacers added after stage ``n``
    and so belongs to no level of ``C_n``.
    """
    if n > stage:
        raise ValueError(f"need n <= {stage}, got {n}")
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
    n, h, _, _ = _walk(spec, p, 0, B.stage)
    h = project_height(spec, n, h, B.stage)
    return h is not None and bisect_left(B.heights, h) < bisect_right(B.heights, h)


def apply_pointwise(spec: RankOneSpec, p: Point, k: int) -> Point:
    """Image of a point under the k-th power of the transformation.

    Within a column the map just moves ``k`` levels up; when that walks off
    the top or bottom, the address is lifted until the target height falls
    inside the deeper column.  The orbit of a measure-zero set of points
    stays outside every column at every stage, which surfaces as
    :class:`BudgetExceeded` once ``max_stage`` is hit.
    """
    return _moved(spec, p, k, p.stage)


def least_valid_stage(spec: RankOneSpec, B: LevelSet, k: int) -> int:
    """Least stage where a shift by ``k`` cannot wrap any descendant of ``B``.

    That is the least ``n >= B.stage`` with ``h_n > max B + max D + |k|``,
    ``D = H_{B.stage} + ... + H_{n-1}``, so that ``max B + max D`` is the top
    descendant of ``B`` in ``C_n``.  The headroom above it grows per stage by
    the last subcolumn's spacer count, so such a stage exists exactly when
    those counts keep accumulating; when the budget's ``max_stage`` arrives
    first, :class:`BudgetExceeded` is raised.
    """
    n = B.stage
    reach = B.heights[-1] + abs(k) - spec.max_descendant(n)  # refused past max_stage
    while spec.height(n) <= reach + spec.max_descendant(n):
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
        descendant_count(spec, B.stage, s, len(B.heights)),
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
    spec: RankOneSpec, A: LevelSet, B: LevelSet, n: int, lo: int, hi: int
) -> Counter:
    """``N(t) = #{x in A_n : x + t in B_n}`` for ``lo <= t <= hi``.

    ``A_n`` and ``B_n`` are the refinements of ``A`` and ``B`` to ``C_n``.
    Only their common stage ``i`` is enumerated: ``x = a + u_A``,
    ``x + t = b + u_B`` with ``u`` in ``H_i + ... + H_{n-1}``, so
    ``t = (b - a) + u`` with ``u`` a difference of that sum, whose counts in
    the window widened by the spread of ``b - a`` come from
    :func:`rankone.core.difference_counts`.  Each ``(u, a)`` then walks the
    ``b`` in range, so the work beyond those counts is the pairs counted plus
    one bisection per ``(u, a)``.
    """
    i, DA, DB, _ = _common_stage(spec, A, B, n)
    stage_diffs = difference_counts(spec, i, n, lo - (DB[-1] - DA[0]), hi - (DB[0] - DA[-1]))
    counts: Counter = Counter()
    for u, c in stage_diffs.items():
        for a in DA:
            for b in DB[bisect_left(DB, a + lo - u) : bisect_right(DB, a + hi - u)]:
                counts[u + b - a] += c
    return counts


def overlap_total(spec: RankOneSpec, A: LevelSet, B: LevelSet, n: int, lo: int, hi: int) -> int:
    """The number of pairs :func:`overlap_counts` counts, without listing any difference.

    The stage differences are convolved top-down as in
    :func:`rankone.core.difference_counts`, but a partial sum all of whose
    completions, by the stages below and by ``b - a``, land in the window is
    counted at once and dropped.  What is kept lies within the spread of the
    stages below of an end of the window, and distinct elements of a stage
    sum differ by more than that spread, so the work is linear in the size
    of the stage sum however many pairs there are.
    """
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
    n = max(least_valid_stage(spec, X, k) for X in {A, B})
    return overlap_counts(spec, A, B, n, k, k)[k] * spec.width(n)

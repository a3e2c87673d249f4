"""Points, level sets, and exact measures on the tower of columns.

A point of the space is addressed relative to a stage: ``Point(n, h, x)``
is the point of column ``C_n`` sitting at height ``h`` (an integer level)
and horizontal offset ``x``, an exact rational with ``0 <= x < w_n``.  The
same point has an address at every later stage; :func:`lift` rewrites the
address one stage up and :func:`point_eq` compares points by lifting both
to a common stage.

Measurable sets are finite unions of levels, :class:`LevelSet`.  All
measures are exact :class:`fractions.Fraction` values: a level of ``C_n``
has measure ``w_n = 1/(r_0 ... r_{n-1})``, and intersection measures are
computed by refining level sets to a stage deep enough that a shift by
``k`` cannot wrap around the column.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from rankone.core import BudgetExceeded, IntSet, RankOneSpec, descendant_set


@dataclass(frozen=True)
class LevelSet:
    """A finite union of levels of one column: ``stage`` plus sorted heights."""

    stage: int
    heights: IntSet

    def __post_init__(self) -> None:
        hs = tuple(int(h) for h in self.heights)
        object.__setattr__(self, "heights", hs)
        if not hs:
            raise ValueError("a level set needs at least one level")
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("heights must be strictly increasing")
        if hs[0] < 0:
            raise ValueError("heights must be nonnegative")


@dataclass(frozen=True)
class Point:
    """One point of the space, addressed in the coordinates of ``stage``."""

    stage: int
    height: int
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", Fraction(self.offset))


def level_set(spec: RankOneSpec, stage: int, heights) -> LevelSet:
    """Validated :class:`LevelSet`: every height must be a level of ``C_stage``."""
    ls = LevelSet(stage, tuple(sorted(set(int(h) for h in heights))))
    h_n = spec.height(stage)
    if ls.heights[-1] >= h_n:
        raise ValueError(
            f"height {ls.heights[-1]} is not a level of C_{stage} (h_{stage}={h_n})"
        )
    return ls


def base_level(spec: RankOneSpec, stage: int) -> LevelSet:
    """The base level of ``C_stage``."""
    spec.height(stage)
    return LevelSet(stage, (0,))


def level(spec: RankOneSpec, stage: int, height: int) -> LevelSet:
    """A single level of ``C_stage``."""
    return level_set(spec, stage, (height,))


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


def max_descendant_height(spec: RankOneSpec, B: LevelSet, n: int) -> int:
    """Largest height any level of ``B`` can reach among its stage-``n`` descendants."""
    if n < B.stage:
        raise ValueError(f"need n >= {B.stage}, got {n}")
    return B.heights[-1] + spec.max_descendant(n) - spec.max_descendant(B.stage)


def refine(spec: RankOneSpec, B: LevelSet, n: int) -> LevelSet:
    """Rewrite ``B`` as a level set of the deeper column ``C_n``.

    Each level of ``C_i`` appears in ``C_n`` as its translated descendant
    set, so the refined set has exactly ``|B| * r_i * ... * r_{n-1}`` levels
    and the same measure.  Consecutive descendants of the base differ by at
    least ``h_i``, more than any level of ``B``, so the shifted copies come
    out already sorted.
    """
    i = B.stage
    if n < i:
        raise ValueError(f"cannot refine stage {i} set to earlier stage {n}")
    if n == i:
        return B
    copies = 1
    for m in range(i, n):
        copies *= spec.stage(m).r
    if copies * len(B.heights) > spec.budget.max_descendants:
        raise BudgetExceeded(
            f"refinement to stage {n} needs {copies * len(B.heights)} levels, "
            f"budget is max_descendants={spec.budget.max_descendants}"
        )
    shifts = descendant_set(spec, i, n)
    return LevelSet(n, tuple([s + b for s in shifts for b in B.heights]))


def lift(spec: RankOneSpec, p: Point) -> Point:
    """The same point addressed one stage deeper.

    The offset selects the subcolumn: cut ``c = floor(offset / w_{n+1})``,
    after which the height gains the c-th entry of the height set and the
    offset loses ``c`` widths.
    """
    n = p.stage
    w_next = spec.width(n + 1)
    c = int(p.offset / w_next)
    H = spec.height_set(n)
    return Point(n + 1, p.height + H[c], p.offset - c * w_next)


def lift_to(spec: RankOneSpec, p: Point, n: int) -> Point:
    if n < p.stage:
        raise ValueError(f"cannot lower a stage-{p.stage} address to stage {n}")
    while p.stage < n:
        p = lift(spec, p)
    return p


def point_eq(spec: RankOneSpec, p: Point, q: Point) -> bool:
    """Whether two addresses denote the same point of the space."""
    n = max(p.stage, q.stage)
    p, q = lift_to(spec, p, n), lift_to(spec, q, n)
    return p.height == q.height and p.offset == q.offset


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
    if p.stage < B.stage:
        p = lift_to(spec, p, B.stage)
    h = project_height(spec, p.stage, p.height, B.stage)
    return h is not None and h in set(B.heights)


def apply_pointwise(spec: RankOneSpec, p: Point, k: int) -> Point:
    """Image of a point under the k-th power of the transformation.

    Within a column the map just moves ``k`` levels up; when that walks off
    the top or bottom, the address is lifted until the target height falls
    inside the deeper column.  The orbit of a measure-zero set of points
    stays outside every column at every stage, which surfaces as
    :class:`BudgetExceeded` once ``max_stage`` is hit.
    """
    q = p
    while not 0 <= q.height + k < spec.height(q.stage):
        q = lift(spec, q)
    return Point(q.stage, q.height + k, q.offset)


def least_valid_stage(spec: RankOneSpec, B: LevelSet, k: int) -> int:
    """Least stage where a shift by ``k`` cannot wrap any descendant of ``B``.

    That is the least ``n >= B.stage`` with
    ``h_n > max_descendant_height(B, n) + |k|``.  The headroom above the
    top descendant grows per stage by the last subcolumn's spacer count,
    so such a stage exists exactly when those counts keep accumulating;
    when the budget's ``max_stage`` arrives first, :class:`BudgetExceeded`
    is raised.
    """
    n = B.stage
    while spec.height(n) <= max_descendant_height(spec, B, n) + abs(k):
        n += 1
        spec.materialize(n)  # raises BudgetExceeded past max_stage
    return n


def translate_intersection_measure(spec: RankOneSpec, B: LevelSet, k: int) -> Fraction:
    """Exact measure of the overlap of ``B`` with its image ``k`` steps up.

    Refines ``B`` to the least stage at which a shift by ``k`` stays inside
    the column, where the overlap is just a count of coinciding levels.
    """
    n = least_valid_stage(spec, B, k)
    D = refine(spec, B, n).heights
    Dset = set(D)
    hits = sum(1 for d in D if d + k in Dset)
    return hits * spec.width(n)


def intersection_measure(spec: RankOneSpec, A: LevelSet, B: LevelSet, k: int) -> Fraction:
    """Exact measure of ``T^k A`` meets ``B`` for level sets ``A``, ``B``."""
    n = max(least_valid_stage(spec, A, k), least_valid_stage(spec, B, k))
    DA = refine(spec, A, n).heights
    DB = set(refine(spec, B, n).heights)
    hits = sum(1 for d in DA if d + k in DB)
    return hits * spec.width(n)

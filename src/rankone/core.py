"""Exact stage calculus for rank-one cutting-and-stacking constructions.

A rank-one transformation is described stage by stage: column ``C_n`` of
height ``h_n`` is cut into ``r_n`` subcolumns of equal width, ``s_{n,k}``
spacer levels are stacked on top of the k-th subcolumn, and the pieces are
stacked left to right to form ``C_{n+1}``.  Everything here is computed with
arbitrary-precision integers and exact rationals; no floats enter any
quantity that a certificate depends on.

The central combinatorial object is the height set

    H_n = {0} u { sum_{k<=l} (h_n + s_{n,k}) : 0 <= l < r_n - 1 },

the set of heights at which copies of the base of ``C_n`` appear inside
``C_{n+1}``.  Descendant sets of a level are iterated sum sets of height
sets, and every certificate in :mod:`rankone.analysis` is a statement about
those sets.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, starmap
from operator import neg, sub
from sys import byteorder
from typing import Callable, Iterable, Sequence

IntSet = tuple[int, ...]  # strictly increasing tuple of nonnegative ints


class RankOneError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceeded(RankOneError):
    """A computation would exceed the spec's resource budget."""


class PreconditionError(RankOneError):
    """An operation's structural precondition on the spec does not hold."""


class NotStronglyArithmetic(PreconditionError):
    """A certificate required every stage to be staircase shaped."""


class CapsMakeConstructionUnfaithful(UserWarning):
    """A gallery cap forced a cut count below the value the construction calls for.

    Not fatal: the capped spec is still a perfectly good rank-one
    transformation, but conclusions that depend on the uncapped growth no
    longer follow from the construction recipe.  The cap is recorded in the
    spec's notes and surfaces in every report.
    """


def _check_int(what: str, value: int, floor: int) -> None:
    """Accept only an int (not a bool) that is at least ``floor``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    if value < floor:
        raise ValueError(f"{what} must be at least {floor}, got {value}")


class Budget(
    namedtuple("Budget", "max_stage max_height_bits max_descendants max_pairs max_iterate")
):
    """Resource limits for lazy materialization and set enumeration.

    What each field bounds is listed in the README; :meth:`check` is where a
    count meets its limit.
    """

    __slots__ = ()

    def __new__(
        cls,
        max_stage: int = 64,
        max_height_bits: int = 100_000,
        max_descendants: int = 200_000,
        max_pairs: int = 10_000_000,
        max_iterate: int = 1_000_000,
    ) -> Budget:
        self = tuple.__new__(
            cls, (max_stage, max_height_bits, max_descendants, max_pairs, max_iterate)
        )
        for name, value in zip(cls._fields, self):
            _check_int(f"budget field {name}", value, 0 if name == "max_stage" else 1)
        return self

    def check(self, field: str, count: int, what: str) -> int:
        """Return ``count`` if it is at most the limit ``field``, else refuse.

        The one comparison of a count with a budget limit.  ``what`` names the
        count, ``{}`` standing for its value; the refusal reads
        ``<what> exceeds <field>=<limit>``.
        """
        limit = getattr(self, field)
        if count > limit:
            raise BudgetExceeded(f"{what.format(count)} exceeds {field}={limit}")
        return count


class StageSpec(namedtuple("StageSpec", "r spacers")):
    """One cutting stage: cut count ``r`` and spacer counts per subcolumn."""

    __slots__ = ()

    def __new__(cls, r: int, spacers: Sequence[int]) -> StageSpec:
        _check_int("cut count", r, 2)
        spacers = tuple(spacers)
        if len(spacers) != r:
            raise ValueError(
                f"need one spacer count per subcolumn: r={r}, "
                f"got {len(spacers)} spacer entries"
            )
        for s in spacers:
            _check_int("spacer count", s, 0)
        return tuple.__new__(cls, (r, spacers))


Builder = Callable[[int, "RankOneSpec"], StageSpec]


def sum_set(a: Sequence[int], b: Sequence[int]) -> IntSet:
    """Sorted, deduplicated set of pairwise sums of two int sets."""
    return tuple(sorted({x + y for x in a for y in b}))


def sum_is_direct(sets: Sequence[Sequence[int]]) -> bool:
    """True when the iterated sum of the given sets has no collisions.

    The sum is direct exactly when its cardinality is the product of the
    individual cardinalities.
    """
    expected = 1
    acc: IntSet = (0,)
    for s in sets:
        expected *= len(s)
        acc = sum_set(acc, s)
        if len(acc) < expected:
            return False
    return len(acc) == expected


def _gap_tuple_count(r: int, g: int, k: int) -> int:
    """Number of tuples in {0..r-1}^k with max - min <= g (g >= 0)."""
    if g >= r - 1:
        return r**k
    return (r - g) * ((g + 1) ** k - g**k) + g**k


def gap_pair_count(r: int, m: int) -> int:
    """Number of pairs in {1..r}^2 whose coordinates differ by less than ``m``.

    The ``k = 2`` gap-tuple count, ``r^2 - (r-m)(r-m+1)``.  Only defined
    for ``1 <= m <= r``.
    """
    if not 1 <= m <= r:
        raise ValueError(f"need 1 <= m <= r, got m={m}, r={r}")
    return _gap_tuple_count(r, m - 1, 2)


def _separation_bound(r: int, maxd: int) -> int:
    """What a gap of a staircase stage of ``r`` cuts must exceed: the triangular
    spread plus twice the accumulated descendant spread ``maxd``, so that wide
    index tuples stay misaligned."""
    return r * (r - 1) + 2 * maxd + 1


class RankOneSpec:
    """A lazily materialized rank-one construction.

    ``builder(n, spec)`` must return the :class:`StageSpec` for stage ``n``
    and may inspect any already materialized stage ``m < n`` through
    ``spec``, so adaptive recipes (spacer padding driven by descendant
    growth, for instance) stay deterministic: stage ``n`` depends only on
    the builder parameters and stages below it.
    """

    def __init__(
        self,
        builder: Builder,
        *,
        name: str = "anonymous",
        budget: Budget | None = None,
        params: dict | None = None,
        declared_properties: Iterable[str] = (),
    ) -> None:
        if not isinstance(name, str):
            raise TypeError(f"spec name must be a string, got {name!r}")
        self.builder = builder
        self.name = name
        self.budget = budget if budget is not None else Budget()
        self.params = dict(params) if params else {}
        self.declared_properties = frozenset(declared_properties)
        self.notes: list[str] = []
        self._stages: list[StageSpec] = []
        self._heights: list[int] = [1]  # h_0 = 1
        self._wden: list[int] = [1]  # w_n = 1 / _wden[n]
        self._hsets: list[IntSet] = []
        self._hdiffs: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # filled on demand
        self._maxdesc: list[int] = [0]  # max D(I, n) for I the base of C_0

    # -- materialization ---------------------------------------------------

    @property
    def stages_built(self) -> int:
        return len(self._stages)

    def materialize(self, n: int) -> "RankOneSpec":
        """Ensure stages 0..n-1 (hence heights h_0..h_n) exist."""
        self.budget.check("max_stage", n, "stage {}")
        while len(self._stages) < n:
            m = len(self._stages)
            stage = self.builder(m, self)
            if not isinstance(stage, StageSpec):
                raise TypeError("builder must return a StageSpec")
            self.check_cut_count(m, stage.r)
            h = self._heights[m]
            hs = []
            acc = 0
            spacers = stage.spacers  # read once: each field read is a descriptor call
            for k in range(stage.r - 1):
                acc += h + spacers[k]
                hs.append(acc)
            h_next = acc + h + spacers[stage.r - 1]
            self.budget.check("max_height_bits", h_next.bit_length(), f"h_{m + 1} of {{}} bits")
            self._stages.append(stage)
            self._heights.append(h_next)
            self._wden.append(self._wden[m] * stage.r)
            hset = (0, *hs)
            if any(b - a < h for a, b in zip(hset, hset[1:])):
                raise AssertionError(f"a gap of H_{m} is below h_{m}={h}")
            self._hsets.append(hset)
            self._maxdesc.append(self._maxdesc[m] + hset[-1])
        return self

    def check_cut_count(self, n: int, r: int) -> int:
        """Return ``r``, the cut count of stage ``n``, once it is within ``max_descendants``.

        Every stage passes this check; gallery builders call it before they
        build a stage's spacers, so an oversized cut costs no memory.
        """
        return self.budget.check("max_descendants", r, f"stage {n} cuts into {{}} subcolumns")

    # -- accessors (auto-materializing, budget checked) --------------------

    def _reach(self, n: int, upto: int) -> None:
        """Reject a negative stage index ``n``, then materialize through ``upto``."""
        if n < 0:
            raise ValueError(f"stage index must be nonnegative, got {n}")
        self.materialize(upto)

    def stage(self, n: int) -> StageSpec:
        if not 0 <= n < len(self._stages):
            self._reach(n, n + 1)
        return self._stages[n]

    def height(self, n: int) -> int:
        """Column height h_n."""
        if not 0 <= n < len(self._heights):
            self._reach(n, n)
        return self._heights[n]

    def width(self, n: int) -> Fraction:
        """Column width w_n = 1 / (r_0 ... r_{n-1}), exact."""
        if not 0 <= n < len(self._wden):
            self._reach(n, n)
        return Fraction(1, self._wden[n])

    def width_denominator(self, n: int) -> int:
        if not 0 <= n < len(self._wden):
            self._reach(n, n)
        return self._wden[n]

    def height_set(self, n: int) -> IntSet:
        """H_n, the copy heights of the base of C_n inside C_{n+1}."""
        if not 0 <= n < len(self._hsets):
            self._reach(n, n + 1)
        return self._hsets[n]

    def height_differences(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The difference multiset of ``H_n``, built once: differences, increasing, and counts.

        ``N(t) = #{(x, y) in H_n x H_n : y - x = t}``.  The keys run from ``-max``
        to ``max``, with ``N(0) = |H_n|`` at the centre and ``N(-t) = N(t)``.
        """
        diffs = self._hdiffs.get(n)
        if diffs is None:
            H = self.height_set(n)
            counts = Counter(starmap(sub, combinations(reversed(H), 2)))
            pos = sorted(counts)
            ns = [*map(counts.__getitem__, pos)]
            keys = (*map(neg, reversed(pos)), 0, *pos)
            diffs = self._hdiffs[n] = keys, (*reversed(ns), len(H), *ns)
        return diffs

    def max_descendant(self, n: int) -> int:
        """max D(I, n) where I is the base level of C_0."""
        if not 0 <= n < len(self._maxdesc):
            self._reach(n, n)
        return self._maxdesc[n]

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def fingerprint(self) -> str:
        """Stable hex digest of the construction's identity.

        Covers the name, builder parameters, and budget, so identical spec
        inputs hash identically across runs.  A spec whose parameters include
        a callable (a gallery rule given as a function) has no stable
        identity and raises :class:`PreconditionError`.
        """
        payload = {
            "name": self.name,
            "params": self.params,
            "budget": self.budget._asdict(),
        }
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=_unfingerprintable
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover
        return f"RankOneSpec({self.name!r}, stages_built={self.stages_built})"


def _unfingerprintable(value: object) -> object:
    raise PreconditionError(f"spec parameter {value!r} cannot be fingerprinted")


def _as_stage(s: StageSpec | tuple[int, Sequence[int]]) -> StageSpec:
    if isinstance(s, StageSpec):
        return s
    try:
        r, spacers = s
    except (TypeError, ValueError):
        raise ValueError(f"a stage must be a pair (r, spacers), got {s!r}") from None
    return StageSpec(r, spacers)


def explicit_spec(
    stages: Sequence[StageSpec | tuple[int, Sequence[int]]],
    *,
    name: str = "explicit",
    budget: Budget | None = None,
    cycle: bool = False,
) -> RankOneSpec:
    """Spec from a hand-written stage list.

    With ``cycle=True`` the list repeats forever; otherwise materializing
    past the end raises :class:`BudgetExceeded`.
    """
    if not isinstance(cycle, bool):
        raise TypeError(f"cycle must be a bool, got {cycle!r}")
    normalized = tuple(_as_stage(s) for s in stages)
    if not normalized:
        raise ValueError("explicit spec needs at least one stage")

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        if n < len(normalized):
            return normalized[n]
        if cycle:
            return normalized[n % len(normalized)]
        raise BudgetExceeded(
            f"explicit spec has {len(normalized)} stages, stage {n} requested"
        )

    params = {
        "kind": "explicit",
        "stages": [[s.r, list(s.spacers)] for s in normalized],
        "cycle": cycle,
    }
    return RankOneSpec(build, name=name, budget=budget, params=params)


def descendant_count(spec: RankOneSpec, i: int, j: int, copies: int = 1) -> int:
    """Size ``copies * r_i * ... * r_{j-1}`` of ``copies`` levels of ``C_i`` refined to ``C_j``.

    Refused as soon as a partial product exceeds ``max_descendants``, before
    any later stage is materialized.
    """
    if j < i:
        raise ValueError(f"need i <= j, got i={i}, j={j}")
    size = copies
    for m in range(i, j):
        size = spec.budget.check("max_descendants", size * spec.stage(m).r, "{}+ descendants")
    return size


def descendant_set(spec: RankOneSpec, i: int, j: int, b: int = 0) -> IntSet:
    """D(I, j): heights of the descendants in C_j of level ``b`` of C_i,
    the translated iterated sum set ``b + H_i + ... + H_{j-1}``."""
    if j < i:
        raise ValueError(f"need i <= j, got i={i}, j={j}")
    if not 0 <= b < spec.height(i):
        raise ValueError(f"level {b} is not a level of C_{i} (h_{i}={spec.height(i)})")
    return _refined(spec, (b,), i, j)


def _refined(spec: RankOneSpec, levels: IntSet, i: int, n: int) -> IntSet:
    """Levels of ``C_i`` listed as levels of ``C_n``: ``levels + H_i + ... + H_{n-1}``.

    The listing is refused by ``max_descendants`` before it starts.  Each gap
    of ``H_m`` is at least ``h_m``, above every level of ``C_m``, so the sum is
    direct and adding ``H_m`` is an ordered concatenation.
    """
    descendant_count(spec, i, n, len(levels))
    for m in range(i, n):
        levels = tuple([h + d for h in spec.height_set(m) for d in levels])
    return levels


def difference_counts(spec: RankOneSpec, i: int, n: int, lo: int, hi: int) -> Counter:
    """Difference counts ``N(t) = #{(x, y) in D x D : y - x = t}`` of ``D = H_i + ... + H_{n-1}``
    in the window ``lo <= t <= hi``.

    ``D`` is the descendant set in ``C_n`` of the base of ``C_i``.  The sum is
    direct, so a pair ``(x, y)`` is one choice of pair per summand, and ``N``
    has the generating polynomial ``prod_m sum_{a, a' in H_m} x^(a - a')``: the
    combinatorial side of the Riesz product formula for rank-one spectral
    measures.  No set is enumerated, and no pair budget applies.  Stages are
    taken top-down, and a partial sum is dropped as soon as the stages below
    it, whose differences stay within ``max H_i + ... + max H_{m-1}``, can no
    longer bring it into the window.  :func:`_difference_product` is the full
    product.
    """
    if n < i:
        raise ValueError(f"need i <= n, got i={i}, n={n}")
    if n == i:
        return Counter({0: 1} if lo <= 0 <= hi else {})
    acc = {0: 1}
    for m in reversed(range(i, n)):
        spread = spec.max_descendant(m) - spec.max_descendant(i)  # max H_i + ... + max H_{m-1}
        acc = _convolve(acc, *spec.height_differences(m), lo - spread, hi + spread)
    return Counter(acc)


def _difference_product(spec: RankOneSpec, i: int, n: int) -> tuple[memoryview | dict, int]:
    """The counts of :func:`difference_counts` at every ``t``, and their total ``|D|^2``.

    ``|D|^2`` passes ``max_pairs`` first, so the product's operands are
    bounded by the budget.  The product is :func:`_full_product`'s, packed
    where it is dense: digits over ``[-spread, spread]`` for
    ``spread = max H_i + ... + max H_{n-1}``, or a dict.
    """
    size = descendant_count(spec, i, n)
    total = spec.budget.check("max_pairs", size**2, "{} pairs")
    spread = spec.max_descendant(n) - spec.max_descendant(i)
    stages = [[spec.height_differences(m)] for m in range(i, n)]
    return _full_product(stages, total, -spread, spread), total


def _full_product(stages: Sequence, total: int, lo: int, hi: int) -> memoryview | dict:
    """The product of the multisets of ``stages``: :func:`_packed_product`'s digits, or a dict.

    Each stage is a list of factors whose product is its multiset, and the
    kernel takes every factor at once.  Where it declines, the dict loop of
    :func:`_convolve` multiplies out each stage on its own, then convolves
    the running product with it, so that a large running product meets each
    stage once.
    """
    digits = _packed_product([f for factors in stages for f in factors], total, lo, hi)
    if digits is not None:
        return digits
    acc = {0: 1}
    for factors in stages:
        step = {0: 1}
        for keys, counts in factors:
            step = _convolve(step, keys, counts)
        acc = _convolve(acc, step.keys(), step.values())
    return acc


def _convolve(
    acc: dict, keys: Sequence, counts: Sequence, lo: int | None = None, hi: int | None = None
) -> dict[int, int]:
    """``acc`` convolved with each of ``keys`` taken ``counts`` times, in ``[lo, hi]`` if given.

    The dict loop, for windows and sparse products.  In a window the ``keys``
    increase, and each ``p`` of ``acc`` pairs only those in ``[lo - p, hi - p]``,
    cut by bisection, with their counts; without one, the whole multiset is
    paired once for every ``p``.
    """
    items = list(zip(keys, counts)) if lo is None else ()
    out: dict[int, int] = {}
    for p, c in acc.items():
        if lo is None:
            ts = items
        else:
            a, b = bisect_left(keys, lo - p), bisect_right(keys, hi - p)
            ts = zip(keys[a:b], counts[a:b])
        for t, e in ts:
            q = p + t
            out[q] = out.get(q, 0) + c * e
    return out


_DIGIT_CODES = {array(c).itemsize: c for c in "BHILQ"}  # digit bytes -> array code, increasing


def _packed_product(steps: Sequence, total: int, lo: int, hi: int) -> memoryview | None:
    """The product of the multisets ``steps`` as the digits of one integer, or ``None``.

    A step is a pair ``(keys, counts)``, the polynomial ``sum_t counts_t x^t``;
    its keys may be negative and in any order.  Kronecker substitution: each
    step becomes the integer whose digits, from its least key up, are its
    counts, and the digits of the product of those integers are the counts
    of the product.  ``total``, the sum of those counts (the product of the
    steps' sums), bounds every digit of every partial product, so a digit of
    ``B`` bytes, the least of 1, 2, 4 and 8 with ``total < 2^(8B)``, never
    carries into the next.  ``lo`` and ``hi`` bound the product's keys; the
    digits come back as a memoryview ``d`` with ``d[t - lo]`` the count of
    ``t``.  The product is taken only when dense, ``total >= 4 * span`` for
    ``span = hi - lo + 1``, so no operand has more than ``total / 4`` digits.
    ``None`` (sparser, or wider than 8 bytes) leaves it to the dict loop.
    """
    span = hi - lo + 1
    if total < 4 * span:
        return None
    width = next((b for b in _DIGIT_CODES if total < 1 << 8 * b), None)
    if width is None:
        return None
    code = _DIGIT_CODES[width]
    prod, base = 1, 0  # the product's digits start at key base
    for keys, counts in steps:
        k0 = min(keys)
        digits = array(code, bytes(width * (max(keys) - k0 + 1)))
        for t, e in zip(keys, counts):
            digits[t - k0] += e
        prod *= int.from_bytes(digits, byteorder)
        base += k0
    prod <<= 8 * width * (base - lo)
    return memoryview(prod.to_bytes(span * width, byteorder)).cast(code)

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
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, repeat, starmap
from operator import add, neg, sub
from sys import byteorder, get_int_max_str_digits
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


def _check_int(what: str, value: int, floor: int | None) -> None:
    """Accept only an int (not a bool) that is at least ``floor``, if one is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{what} must be at least {floor}, got {value}")


def _check_level(spec: RankOneSpec, n: int, h: int, what: str = "height") -> None:
    """Accept only an int ``h``, named ``what``, that is a level of ``C_n``: ``0 <= h < h_n``."""
    _check_int(what, h, 0)
    if h >= spec.height(n):
        raise ValueError(f"{what} {h} is not a level of C_{n} (h_{n}={spec.height(n)})")


def _check_stages(i: int, j: int) -> None:
    """Accept only a stage range ``i..j``: int stages, each at least 0, with ``i <= j``."""
    _check_int("stage index", i, 0)
    _check_int("stage index", j, 0)
    if j < i:
        raise ValueError(f"stage range {i}..{j} is reversed")


def _exact(what: str, value: object) -> Fraction:
    """``value`` as a :class:`Fraction`.  A float or a bool, not an exact rational, is
    refused, and so is a string that divides by 0 or whose decimal exponent ``e`` has
    ``|e| > sys.get_int_max_str_digits()`` (0 is no limit): ``Fraction`` builds ``10**e``."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"{what} must be exact, not a {type(value).__name__}, got {value!r}")
    if isinstance(value, str):
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", value)
        limit = get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"{what} exponent exceeds {limit} in absolute value, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator, got {value!r}") from None


# The ``_make`` of a named tuple whose ``__new__`` validates: namedtuple's own
# ``_make``, and so ``_replace``, builds with ``tuple.__new__`` and skips it.
_validated_make = classmethod(lambda cls, iterable: cls(*iterable))


class Budget(
    namedtuple("Budget", "max_stage max_height_bits max_descendants max_pairs max_iterate")
):
    """Resource limits for lazy materialization and set enumeration.

    What each field bounds is listed in the README; :meth:`check` is where a
    count meets its limit.
    """

    __slots__ = ()
    _make = _validated_make

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

    def check(self, field: str, count: int, what: str, *args: object) -> int:
        """Return ``count`` if it is at most the limit ``field``, else refuse.

        The one comparison of a count with a budget limit.  ``what`` is a
        format template naming the count, filled only on refusal, as
        ``what.format(count, *args)``: ``{}`` or ``{0}`` stands for the count
        and ``{1}``, ``{2}``, ... for ``args``, so a caller in a loop builds no
        message that it does not raise.  The refusal reads
        ``<what> exceeds <field>=<limit>``.
        """
        limit = getattr(self, field)
        if count > limit:
            raise BudgetExceeded(f"{what.format(count, *args)} exceeds {field}={limit}")
        return count

    def power(self, base: int, k: int, name: str, stage: int | None = None) -> int:
        """``base ** k``, refused first when ``k * base.bit_length()``, a bound on its bits, passes
        ``max_height_bits``; the refusal names the base, as ``name_stage`` when a stage is given,
        and the bits, not the power."""
        what = "{1}**{2} of up to {0} bits" if stage is None else "{1}_{3}**{2} of up to {0} bits"
        self.check("max_height_bits", k * base.bit_length(), what, name, k, stage)
        return base**k


class StageSpec(namedtuple("StageSpec", "r spacers")):
    """One cutting stage: cut count ``r`` and spacer counts per subcolumn.

    Every spacer count is a nonnegative int, so each gap ``h + s_k`` of the
    height set, above copy ``k``, is at least the column height ``h``.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, r: int, spacers: Sequence[int]) -> StageSpec:
        _check_int("cut count", r, 2)
        spacers = tuple(spacers)
        if len(spacers) != r:
            raise ValueError(
                f"need one spacer count per subcolumn: r={r}, "
                f"got {len(spacers)} spacer entries"
            )
        if set(map(type, spacers)) != {int} or min(spacers) < 0:  # the loop names the bad one
            for s in spacers:
                _check_int("spacer count", s, 0)
        return tuple.__new__(cls, (r, spacers))

    @property
    def shape(self) -> tuple[int | None, int | None]:
        """``(s, s_0)``: the constant gap ``s`` when ``s_i = s`` for every ``i < r - 1``, the
        run start ``s_0`` when ``s_i = s_0 + i`` there, and ``None`` for a shape the stage
        lacks.  The last spacer is free, so a stage of two cuts has both."""
        r, spacers = self
        s0, steps = spacers[0], set(map(sub, spacers[1 : r - 1], spacers))
        return (s0 if steps <= {0} else None), (s0 if steps <= {1} else None)


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
    _check_int("r", r, 1)
    _check_int("m", m, 1)
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
        self._hsets: list[IntSet] = []  # H_0, H_1, ...: a prefix, listed on first read
        self._hdiffs: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # filled on demand
        self._maxdesc: list[int] = [0]  # max D(I, n) for I the base of C_0

    # -- materialization ---------------------------------------------------

    @property
    def stages_built(self) -> int:
        return len(self._stages)

    def materialize(self, n: int) -> "RankOneSpec":
        """Ensure stages 0..n-1 (hence heights h_0..h_n) exist.

        Each stage costs O(1) big-integer work, in closed form:
        ``h_{m+1} = r_m h_m + sum_k s_{m,k}``, and ``max H_m``, the growth of
        :meth:`max_descendant`, is ``h_{m+1} - h_m - s_{m,r-1}``.  No ``H_m``
        is listed here; :meth:`height_set` lists it when it is first read.
        """
        self.budget.check("max_stage", n, "stage {}")
        while len(self._stages) < n:
            m = len(self._stages)
            stage = self.builder(m, self)
            if not isinstance(stage, StageSpec):
                raise TypeError("builder must return a StageSpec")
            r, spacers = stage  # one unpacking: each field read is a descriptor call
            self.check_cut_count(m, r)
            h = self._heights[m]
            h_next = r * h + sum(spacers)
            self.budget.check("max_height_bits", h_next.bit_length(), "h_{1} of {0} bits", m + 1)
            self._stages.append(stage)
            self._heights.append(h_next)
            self._wden.append(self._wden[m] * r)
            self._maxdesc.append(self._maxdesc[m] + h_next - h - spacers[r - 1])  # + max H_m
        return self

    def check_cut_count(self, n: int, r: int) -> int:
        """Return ``r``, the cut count of stage ``n``, once it is within ``max_descendants``.

        Every stage passes this check; gallery builders call it before they
        build a stage's spacers, so an oversized cut costs no memory.
        """
        return self.budget.check("max_descendants", r, "stage {1} cuts into {0} subcolumns", n)

    # -- accessors (auto-materializing, budget checked) --------------------

    def _reach(self, n: int, upto: int) -> None:
        """Reject a stage index ``n`` that is not an int of at least 0, then build to ``upto``."""
        _check_int("stage index", n, 0)
        self.materialize(upto)

    def stage(self, n: int) -> StageSpec:
        if type(n) is not int or not 0 <= n < len(self._stages):
            self._reach(n, n + 1)
        return self._stages[n]

    def height(self, n: int) -> int:
        """Column height h_n."""
        if type(n) is not int or not 0 <= n < len(self._heights):
            self._reach(n, n)
        return self._heights[n]

    def width(self, n: int) -> Fraction:
        """Column width w_n = 1 / (r_0 ... r_{n-1}), exact."""
        return Fraction(1, self.width_denominator(n))

    def width_denominator(self, n: int) -> int:
        if type(n) is not int or not 0 <= n < len(self._wden):
            self._reach(n, n)
        return self._wden[n]

    def height_set(self, n: int) -> IntSet:
        """H_n, the copy heights of the base of C_n inside C_{n+1}.

        The one place a height set is listed.  The first read of ``H_n``
        lists every ``H_m`` not yet listed, in stage order up to ``n``, and
        keeps them; a later read is one list index.
        """
        if type(n) is not int or not 0 <= n < len(self._hsets):
            self._reach(n, n + 1)
            for m in range(len(self._hsets), n + 1):
                r, spacers = self._stages[m]
                gaps = map(add, repeat(self._heights[m], r - 1), spacers)  # h_m + s_{m,k}
                self._hsets.append(tuple(accumulate(gaps, initial=0)))
        return self._hsets[n]

    def _lift(self, n: int, h: int, x: Fraction, k: int, stage: int) -> tuple[int, int, Fraction]:
        """The point at height ``h``, offset ``x`` of ``C_n``, shifted by ``k`` and addressed at
        the least stage at or after ``n`` and ``stage`` where ``h + k`` is a level.

        The one walk of a point's address, in integers: the offset travels as ``num / den`` of
        the column width, a stage up ``divmod(num * r_n, den)`` picks the cut ``c`` and the new
        numerator with no gcd (the mixed-radix address), and the height gains ``H_n[c]``.  Only
        a lifted point gets a new ``Fraction``.  The tables are read as lists and an accessor
        runs only where one runs out, so stages are built and refused as the accessors would.
        """
        heights, wden, hsets = self._heights, self._wden, self._hsets  # appended to in place
        if n >= stage and 0 <= h + k < (heights[n] if n < len(heights) else self.height(n)):
            return n, h + k, x
        num = x.numerator * (wden[n] if n < len(wden) else self.width_denominator(n))
        den = x.denominator
        while True:
            H = hsets[n] if n < len(hsets) else self.height_set(n)  # which builds h_{n+1}
            c, num = divmod(num * len(H), den)  # |H_n| = r_n
            h += H[c]
            n += 1
            if n >= stage and 0 <= h + k < heights[n]:
                return n, h + k, Fraction(num, den * wden[n])

    def height_differences(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The difference multiset of ``H_n``, built once: differences, increasing, and counts.

        ``N(t) = #{(x, y) in H_n x H_n : y - x = t}``.  The keys run from ``-max``
        to ``max``, with ``N(0) = |H_n|`` at the centre and ``N(-t) = N(t)``.
        """
        diffs = self._hdiffs.get(n)
        if diffs is None or type(n) is not int:
            H = self.height_set(n)
            counts = Counter(starmap(sub, combinations(reversed(H), 2)))
            pos = sorted(counts)
            ns = [*map(counts.__getitem__, pos)]
            keys = (*map(neg, reversed(pos)), 0, *pos)
            diffs = self._hdiffs[n] = keys, (*reversed(ns), len(H), *ns)
        return diffs

    def max_descendant(self, n: int) -> int:
        """max D(I, n) where I is the base level of C_0."""
        if type(n) is not int or not 0 <= n < len(self._maxdesc):
            self._reach(n, n)
        return self._maxdesc[n]

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def fingerprint(self) -> str:
        """Stable hex digest of the construction's identity.

        Covers the name, builder parameters, and budget, so identical spec
        inputs hash identically across runs.  Gallery parameters are plain
        data; a spec given ``params`` that JSON cannot hold, such as a
        callable passed to the constructor directly, has no stable identity
        and raises :class:`PreconditionError`.
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
    _check_int("copies", copies, 0)
    _check_stages(i, j)
    size = copies
    for m in range(i, j):
        size = spec.budget.check("max_descendants", size * spec.stage(m).r, "{}+ descendants")
    return size


def descendant_set(spec: RankOneSpec, i: int, j: int, b: int = 0) -> IntSet:
    """D(I, j): heights of the descendants in C_j of level ``b`` of C_i,
    the translated iterated sum set ``b + H_i + ... + H_{j-1}``."""
    _check_stages(i, j)  # before C_i is built to check the level
    _check_level(spec, i, b, "level")
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


def _tuple_product(spec: RankOneSpec, i: int, j: int, k: int) -> tuple[memoryview | dict, int]:
    """The counts ``N`` of the difference vectors ``(a_l - a_0)_{l >= 1}`` of the k-tuples of
    ``D = H_i + ... + H_{j-1}``, and their total ``|D|^k``, once it passes
    :meth:`Budget.power` and ``max_pairs`` (a refusal counts pairs at ``k = 2``).

    A vector is encoded as ``sum_l (a_l - a_0) W^(l-1)`` in balanced base ``W = 2M + 1``, for
    ``M = max H_i + ... + max H_{j-1}``: every entry lies in ``[-M, M]``, where the encoding
    is injective.  It is linear, so the encoded vectors have the generating polynomial
    ``prod_m prod_l sum_{a in H_m} x^(c_l a)``, ``c = (-C, 1, W, ..., W^(k-2))`` for
    ``C = 1 + W + ... + W^(k-2)``: ``k`` factors per stage, for every ``k``.
    :func:`_packed_product` takes their product, to digits over ``[-C M, C M]``, wherever
    it has at least one tuple per digit, ``|D|^k >= 2 C M + 1``, so the packed integer holds
    at most ``max_pairs`` digits; otherwise (koopman's products, say) the dict loop of
    :func:`_convolve` multiplies out each stage, then convolves the running product with it
    once.

    Digits are sized by ``|D|``.  Lemma: no count of a partial product, in the kernel's
    factor order, exceeds ``|D|``.  Through some factors of stage ``m``, a key is
    ``sum_l (b_l - a_0) W^(l-1)``, with ``a_0`` and each ``b_l`` sums of one height per
    stage, over stages ``i..m`` or ``i..m-1``; each entry lies in ``[-M, M]``, so the key
    fixes the entries, and ``H_i + ... + H_m`` is a direct sum, so the entries and ``a_0``
    fix the tuple: a key counts at most ``|H_i + ... + H_m| <= |D|`` tuples.
    """
    size = descendant_count(spec, i, j)
    total = spec.budget.power(size, k, "|D|")
    spec.budget.check("max_pairs", total, "{} pairs" if k == 2 else "{} tuples")
    M = spec.max_descendant(j) - spec.max_descendant(i)
    powers = [(2 * M + 1) ** l for l in range(k - 1)]
    C = sum(powers)
    Hs = map(spec.height_set, range(i, j))
    stages = [[([c * a for a in H], [1] * len(H)) for c in (-C, *powers)] for H in Hs]
    digits = _packed_product([f for factors in stages for f in factors], total, -C * M, C * M, size)
    if digits is not None:
        return digits, total
    acc = {0: 1}
    for factors in stages:
        step = {0: 1}
        for keys, counts in factors:
            step = _convolve(step, keys, counts)
        acc = _convolve(acc, step.keys(), step.values())
    return acc, total


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


def _packed_product(steps: Sequence, total: int, lo: int, hi: int, peak: int) -> memoryview | None:
    """The product of the multisets ``steps`` as the digits of one integer, or ``None``.

    A step is a pair ``(keys, counts)``, the polynomial ``sum_t counts_t x^t``;
    its keys may be negative and in any order.  Kronecker substitution: each
    step becomes the integer whose digits, from its least key up, are its
    counts, and the digits of the product of those integers are the counts
    of the product.  ``total`` is the sum of those counts (the product of
    the steps' sums).  ``peak``, at most ``total``, bounds every digit of
    every step and of every partial product, so a digit of ``B`` bytes, the
    least of 1, 2, 4 and 8 with ``peak < 2^(8B)``, never carries into the
    next.  ``lo`` and ``hi`` bound the product's keys; the digits come back
    as a memoryview ``d`` with ``d[t - lo]`` the count of ``t``.  The
    product is taken only when it has at least one tuple per digit, ``total
    >= span`` for ``span = hi - lo + 1``, so no operand has more than
    ``total`` digits.  ``None`` (sparser, or wider than 8 bytes) leaves it to
    the dict loop.

    A step goes in as one shifted copy of the running product per key,
    ``sum_t counts_t prod x^(t - k0)``, so it costs its keys times the
    product's width, not its zero digits.
    """
    span = hi - lo + 1
    if total < span:
        return None
    width = next((b for b in _DIGIT_CODES if peak < 1 << 8 * b), None)
    if width is None:
        return None
    prod, base = 1, 0  # the product's digits start at key base
    for keys, counts in steps:
        k0 = min(keys)
        prod = sum(prod * e << 8 * width * (t - k0) for t, e in zip(keys, counts))
        base += k0
    prod <<= 8 * width * (base - lo)
    return memoryview(prod.to_bytes(span * width, byteorder)).cast(_DIGIT_CODES[width])

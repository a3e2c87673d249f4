"""Ready-made rank-one constructions with known certified behavior.

Each function returns a lazily materialized :class:`RankOneSpec` whose
builder recomputes every stage deterministically from the parameters and
the stages below it.  Several recipes call for cut counts that grow
violently (quadratically in the accumulated descendant spread, or worse);
a :class:`Caps` value bounds those counts so the specs stay computable on
a desk.  Capping changes the construction: the capped spec is still a
valid rank-one transformation, but conclusions tied to the uncapped
growth no longer follow, so the cap is recorded on the spec and a
:class:`CapsMakeConstructionUnfaithful` warning is emitted once for each
capped stage, not only the first: :func:`main_wde` built up to ``h_9``
warns at stages 3, 5 and 7.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from rankone.core import (
    Budget,
    CapsMakeConstructionUnfaithful,
    PreconditionError,
    RankOneSpec,
    StageSpec,
    _check_int,
    _separation_bound,
    _validated_make,
    explicit_spec,
)

RSeq = int | Sequence[int]


class Caps(namedtuple("Caps", "max_r")):
    """Desk-scale limits applied to computed cut counts.

    ``max_r=None`` removes the limit; expect astronomically wide stages
    from the adaptive recipes if you do.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, max_r: int | None = 64) -> Caps:
        if max_r is not None:
            _check_int("max_r", max_r, 2)
        return tuple.__new__(cls, (max_r,))


def _rule(
    value: RSeq, extend: str, what: str, floor: int
) -> tuple[Callable[[int], int], int | list[int]]:
    """A stage parameter as its per-stage function and its ``spec.params`` entry.

    An int is the value of every stage.  A sequence is read once and checked
    now; past its end it repeats its last entry or increments it once per
    further stage, so no stage falls below ``floor``.  It is recorded as the
    list of its entries, so an iterator fingerprints like the tuple it yields.
    """
    if extend not in ("repeat", "increment"):
        raise ValueError(f"unknown extend mode {extend!r}")
    if isinstance(value, int):
        _check_int(what, value, floor)
        return (lambda n: value), value
    if not isinstance(value, Iterable):
        raise TypeError(f"{what} rule must be an int or a sequence of ints, got {value!r}")
    seq = tuple(value)
    if not seq:
        raise ValueError(f"{what} sequence must be nonempty")
    for v in seq:
        _check_int(what, v, floor)
    step = 0 if extend == "repeat" else 1
    return (lambda n: seq[n] if n < len(seq) else seq[-1] + step * (n - len(seq) + 1)), list(seq)


# -- plain and shifted staircases ---------------------------------------------


def staircase(
    r: RSeq = (2,),
    *,
    extend: str = "increment",
    name: str = "staircase",
    budget: Budget | None = None,
) -> RankOneSpec:
    """Staircase construction: stage ``n`` stacks ``0, 1, ..., r_n - 1`` spacers.

    The default cut rule grows by one each stage (2, 3, 4, ...), the
    classical choice.
    """
    r_of, r_seq = _rule(r, extend, "cut count", 2)

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        rn = r_of(n)
        return StageSpec.run(rn, 0, 1, rn - 1)

    return RankOneSpec(
        build,
        name=name,
        budget=budget,
        params={"kind": "staircase", "r_seq": r_seq, "extend": extend},
        declared_properties=("strongly-arithmetic",),
    )


def high_staircase(
    r: RSeq,
    z: RSeq,
    *,
    extend: str = "repeat",
    name: str = "high-staircase",
    budget: Budget | None = None,
) -> RankOneSpec:
    """Staircase lifted by a per-stage base offset: spacers ``z_n + m``.

    Cut counts must increase strictly from stage to stage; that growth is
    what the recurring-pattern certificate keys on.  So under the default
    ``extend="repeat"`` the spec is a finite tower of ``len(r)`` stages, one for
    an int ``r``, and the next stage raises PreconditionError.  Under
    ``extend="increment"`` an int ``r`` is read as the rule ``(r,)``, so the
    cut counts run ``r, r + 1, ...``; ``spec.params`` still records the int.
    """
    r_of, r_seq = _rule(r, extend, "cut count", 2)
    if extend == "increment" and isinstance(r, int):
        r_of = lambda n: r + n  # the rule (r,)
    z_of, z_seq = _rule(z, extend, "offset", 0)
    if isinstance(r_seq, list) and any(b <= a for a, b in zip(r_seq, r_seq[1:])):
        raise PreconditionError("cut counts must strictly increase")
    # a repeated tail goes flat, which is caught when that stage is built

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        rn, zn = r_of(n), z_of(n)
        if n > 0 and rn <= spec.stage(n - 1).r:
            raise PreconditionError(
                f"cut counts must strictly increase: r_{n}={rn} after r_{n - 1}={spec.stage(n - 1).r}"
            )
        return StageSpec.run(rn, zn, 1, zn + rn - 1)

    return RankOneSpec(
        build,
        name=name,
        budget=budget,
        params={"kind": "high_staircase", "r_seq": r_seq, "z_seq": z_seq, "extend": extend},
    )


# -- adaptive two-phase recipes -----------------------------------------------


def _min_r_for_pair_bound(n: int, h: int, maxd: int) -> int:
    """Least cut count of stage ``idx = n + 1`` making close index pairs a ``1/(4 idx^2)`` share.

    Close means coordinates within ``m = 2 maxd + 2``, ``maxd`` the descendant
    spread of stage ``idx``: the least ``r >= m`` with
    ``4 idx^2 gap_pair_count(r, m) <= r^2`` (:func:`rankone.core.gap_pair_count`),
    that is ``r^2 - 2ar + 4 idx^2 (m^2 - m) >= 0`` for ``a = 2 idx^2 (2m - 1)``.
    The smaller root is at most ``4 idx^2 (m^2 - m) / a < m < a``, so this
    holds exactly when ``r > a`` and ``(r - a)^2 >= 4D``, where
    ``D = a^2/4 - idx^2 (m^2 - m) >= 7``: from ``r = a + isqrt(4D - 1) + 1``
    on.  The height ``h`` of stage ``n`` is not used; the signature is that
    of an odd-stage rule of :func:`_two_phase`.
    """
    m, idx = 2 * maxd + 2, n + 1
    a = 2 * idx * idx * (2 * m - 1)
    D = idx**4 * (2 * m - 1) ** 2 - idx * idx * (m * m - m)
    return a + math.isqrt(4 * D - 1) + 1


def _capped(r_faithful: int, caps: Caps, spec: RankOneSpec, stage: int) -> int:
    """The cut count of ``stage``: the recipe's, capped by ``caps``, within the budget."""
    if caps.max_r is None or r_faithful <= caps.max_r:
        return spec.check_cut_count(stage, r_faithful)
    note = (
        f"stage {stage}: cut count capped at {caps.max_r} "
        f"(recipe calls for {r_faithful})"
    )
    if note not in spec.notes:
        spec.note(note)
        warnings.warn(
            f"{spec.name}: {note}; conclusions tied to uncapped growth do not follow",
            CapsMakeConstructionUnfaithful,
            stacklevel=3,
        )
    return spec.check_cut_count(stage, caps.max_r)


def _two_phase(
    caps: Caps,
    even: Callable[[int, int, int], tuple[int, int]],
    odd_r: Callable[[int, int, int], int],
    pad: Callable[[int, int], int],
    **spec_args,
) -> RankOneSpec:
    """The doubly-ergodic recipe: spaced copies on even stages, staircase runs on odd ones.

    Even stage ``n`` (height ``h``, descendant spread ``maxd``) cuts into
    ``r`` copies ``gap`` apart, ``(r, gap) = even(n, h, maxd)``.  Odd stage
    ``n + 1`` stacks a staircase run of ``r = odd_r(n, h, maxd_{n+1})``
    subcolumns, capped by ``caps``.  The even stage predicts that count and
    pads its last copy so that ``h_{n+2}``, hence each gap of the odd stage,
    is one past the separation bound
    :func:`rankone.core._separation_bound` or the floor
    ``pad(r_{n+1}, h)``, whichever is larger.  The odd stage takes that
    prediction as its own ``odd_r``: ``maxd_{n+1}`` is ``maxd + (r - 1) gap``.
    """
    predicted: dict[int, int] = {}  # odd stage -> its uncapped odd_r, set by the even stage

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        if n % 2:
            r = _capped(predicted[n], caps, spec, n)
            return StageSpec.run(r, 1, 1, r)  # spacers 1, 2, ..., r
        h, maxd = spec.height(n), spec.max_descendant(n)
        r, gap = even(n, h, maxd)
        maxd_next = maxd + (r - 1) * gap
        r_next = predicted[n + 1] = odd_r(n, h, maxd_next)
        if caps.max_r is not None:
            r_next = min(r_next, caps.max_r)
        h_next = max(_separation_bound(r_next, maxd_next), pad(r_next, h)) + 1
        return StageSpec.run(r, gap - h, 0, h_next - (r - 1) * gap - h)

    tags = (f"caps-max-r-{caps.max_r}",) if caps.max_r is not None else ()
    return RankOneSpec(build, declared_properties=tags, **spec_args)


def main_wde(
    caps: Caps = Caps(),
    *,
    name: str = "alternating-pair-spread",
    budget: Budget | None = None,
) -> RankOneSpec:
    """Alternate wide two-cut stages with pair-spreading staircase stages.

    Even stages cut in two and push the second copy past twice the
    accumulated descendant spread; odd stages cut finely enough that index
    pairs landing close together are a ``1/(4n^2)`` minority, which is the
    engine of the double-ergodicity failure.  The odd cut counts grow
    quadratically in the descendant spread, so ``caps`` matters from
    stage 3 on.
    """
    return _two_phase(
        caps,
        # the gap exceeds h: h_0 = 1, and an odd stage of r >= 2 cuts, height h' and
        # spread maxd' leaves 2 maxd + 2 - h = 2 maxd' + (r - 2) h' + r(r - 3)/2 + 2 > 0
        lambda n, h, maxd: (2, 2 * maxd + 2),
        _min_r_for_pair_bound,
        lambda r_next, h: 0,
        name=name,
        budget=budget,
        params={"kind": "main_wde", "caps": caps._asdict()},
    )


def rigid_wde(
    caps: Caps = Caps(),
    *,
    name: str = "rigid-pair-spread",
    budget: Budget | None = None,
) -> RankOneSpec:
    """Like :func:`main_wde` but with rigidity built into the even stages.

    Even stage ``n`` cuts into ``max(n, 2)`` subcolumns spaced an exact
    doubled height apart, so the shift by that gap maps a ``(r-1)/r``
    fraction of the height set into itself; the fraction climbs to one
    along even stages, giving rigidity in the limit.
    """
    return _two_phase(
        caps,
        lambda n, h, maxd: (max(n, 2), 2 * h),
        _min_r_for_pair_bound,
        lambda r_next, h: 10 * r_next,
        name=name,
        budget=budget,
        params={"kind": "rigid_wde", "caps": caps._asdict()},
    )


def t_q(
    q: int,
    caps: Caps = Caps(),
    *,
    name: str | None = None,
    budget: Budget | None = None,
) -> RankOneSpec:
    """Rigid family with a rational-spectrum flavor controlled by ``q``.

    Even stages cut into exactly ``q`` subcolumns a doubled height apart.
    Odd stages cut fine enough for three requirements at once: the solved
    distance inequality at spread ``4 q h``, the close-pair minority
    bound, and a floor of ``16 q h + 1``; all three are evaluated exactly
    and the largest wins, then ``caps`` applies.  Even-stage padding lifts
    the next height past the triangular spread bound, ten times the next
    cut count, and ten times ``q h``.
    """
    _check_int("q", q, 2)

    def odd_r(n: int, h: int, maxd: int) -> int:
        # solved distance inequality at spread m = 4qh, index = even stage
        m = 4 * q * h
        rad = n**4 * (2 * m - 1) ** 2 - n * n * (2 * m * m - 1)  # >= 2 n^2 (m - 1)^2
        r_dist = 2 * ((2 * m - 1) * n * n + math.isqrt(rad)) + 1
        return max(r_dist, _min_r_for_pair_bound(n, h, maxd), 16 * q * h + 1)

    return _two_phase(
        caps,
        lambda n, h, maxd: (q, 2 * h),
        odd_r,
        lambda r_next, h: max(10 * r_next, 10 * q * h),
        name=name if name is not None else f"doubled-gap-q{q}",
        budget=budget,
        params={"kind": "t_q", "q": q, "caps": caps._asdict()},
    )


# -- spectral examples ----------------------------------------------------------


def koopman(
    caps: Caps = Caps(),
    *,
    name: str = "doubling-spacers",
    budget: Budget | None = None,
) -> RankOneSpec:
    """Power-of-two spacer stacks giving summable overlap decay.

    Stage ``n`` cuts into ``n + 2`` subcolumns with copy heights
    ``0, 2h, 4h, 8h, ..., 2^{n+1} h``, then pads the top so the next
    height is ``(2^{n+2} + 2) h``, keeping every height even.  ``h_n`` has
    about ``n^2/2`` bits (``h_64`` has 2,145), so ``max_stage`` refuses long
    before the bit budget does, and the default cap first bites at stage
    63, where the recipe calls for 65 cuts.
    """

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        h = spec.height(n)
        r = _capped(n + 2, caps, spec, n)
        spacers = [h] + [(2**l - 1) * h for l in range(1, r - 1)]
        spacers.append((2 ** (n + 1) + 1) * h)
        return StageSpec(r, tuple(spacers))

    return RankOneSpec(
        build,
        name=name,
        budget=budget,
        params={"kind": "koopman", "caps": caps._asdict()},
        declared_properties=("all-heights-divisible-by-2",),
    )


def partition_staircase(
    k: int,
    r: RSeq = (2,),
    *,
    extend: str = "increment",
    name: str | None = None,
    budget: Budget | None = None,
) -> RankOneSpec:
    """Staircase variant whose copy heights all share the divisor ``k``.

    Spacer counts grow in steps of ``k`` from a per-stage phase correction
    ``(-h_n) mod k``, so every height-set element is a multiple of ``k``
    while the staircase shape survives.  With ``k = 1`` the correction is 0
    and the stages are those of :func:`staircase` with the same ``r`` and
    ``extend``.
    """
    _check_int("k", k, 1)
    r_of, r_seq = _rule(r, extend, "cut count", 2)

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        rn = r_of(n)
        d = (-spec.height(n)) % k
        return StageSpec.run(rn, d, k, d + k * (rn - 1))

    return RankOneSpec(
        build,
        name=name if name is not None else f"divisible-staircase-{k}",
        budget=budget,
        params={"kind": "partition_staircase", "k": k, "r_seq": r_seq, "extend": extend},
        declared_properties=(
            (f"all-heights-divisible-by-{k}",) if k >= 2 else ()
        ),
    )


def not_eic(
    q: int,
    *,
    name: str | None = None,
    budget: Budget | None = None,
) -> RankOneSpec:
    """Constant ``q``-cut recipe with evenly doubled copy heights.

    Every stage has height set ``{0, 2h, ..., 2(q-1)h}`` and exactly one
    spacer on the last subcolumn, so heights satisfy ``h' = 2qh + 1``.
    The even height sets block weak mixing while the single spacer keeps
    the construction conservative.
    """
    _check_int("q", q, 2)

    def build(n: int, spec: RankOneSpec) -> StageSpec:
        h = spec.height(n)
        return StageSpec.run(q, h, 0, h + 1)

    return RankOneSpec(
        build,
        name=name if name is not None else f"even-gaps-q{q}",
        budget=budget,
        params={"kind": "not_eic", "q": q},
        declared_properties=("all-heights-divisible-by-2",),
    )


# -- spec-file registry -----------------------------------------------------------

_RULE_FIELDS = {"r_seq": ("r", None), "extend": ("extend", None)}
_CAPS_FIELDS = {"max_r": ("caps", Caps)}

#: Builder kinds of a spec file: kind -> (constructor, {field: (keyword, conversion)}).
#: A field's JSON value goes to the constructor keyword, through the conversion
#: if there is one; every default and every check is the constructor's own.
BUILDERS = {
    "staircase": (staircase, _RULE_FIELDS),
    "high_staircase": (high_staircase, {**_RULE_FIELDS, "z_seq": ("z", None)}),
    "main_wde": (main_wde, _CAPS_FIELDS),
    "rigid_wde": (rigid_wde, _CAPS_FIELDS),
    "t_q": (t_q, {"q": ("q", None), **_CAPS_FIELDS}),
    "koopman": (koopman, _CAPS_FIELDS),
    "partition_staircase": (partition_staircase, {"k": ("k", None), **_RULE_FIELDS}),
    "not_eic": (not_eic, {"q": ("q", None)}),
    "explicit": (explicit_spec, {"stages": ("stages", None), "cycle": ("cycle", None)}),
}

"""Finite-stage certificates about rank-one transformations.

Every function here reduces a dynamical question (conservativity of a
Cartesian power, ergodicity, rigidity, partial rigidity, weak mixing,
double ergodicity) to exact counting over descendant sets and height sets
at finitely many stages.  Results come back as exact rationals inside a
:class:`CertificateReport`; nothing is ever rounded.

A report's verdict is always one of a small vocabulary:

- ``"satisfied"`` / ``"satisfied-at-horizon"``: the finite criterion holds
  through the requested horizon.
- ``"refuted-conservativity"`` / ``"refuted-ergodicity"``: every stage
  through the horizon was computed and witnesses the named property
  failing.
- ``"refuted"``: the finite check itself failed on some row.
- ``"inconclusive-at-horizon"``: nothing is contradicted, but the
  criterion did not resolve within the horizon.

Structural preconditions (staircase-shaped stages, and the doubling-spacer
family for the decay check) raise :class:`rankone.core.PreconditionError`
subclasses instead of returning a verdict.  Stage shapes are read once, by
:attr:`rankone.core.StageSpec.shape`, and ``|H_n| = r_n`` needs no listing.

Pair and tuple counts over descendant sets are products of per-stage
generating polynomials (:func:`rankone.core._tuple_product`), taken as
one big integer, by one shifted add per key, wherever the product has
at least one tuple per digit, and read in place, so no pair is listed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, compress, repeat
from operator import countOf
from typing import Callable, Sequence

from rankone.core import (
    BudgetExceeded,
    NotStronglyArithmetic,
    PreconditionError,
    RankOneSpec,
    _check_int,
    _check_stages,
    _exact,
    _gap_tuple_count,
    _separation_bound,
    _tuple_product,
    descendant_count,
)
from rankone.tower import (
    LevelSet,
    _probe_stage,
    least_valid_stage,
    overlap_counts,
    overlap_total,
)


class CertificateReport(
    namedtuple("CertificateReport", "kind horizon verdict rows summary notes", defaults=((),))
):
    """Outcome of one finite-stage certificate computation: ``rows`` is a
    tuple of dicts, ``summary`` a dict and ``notes`` a tuple of strings."""

    __slots__ = ()


# -- conservativity of Cartesian powers --------------------------------------


def rho_bound(spec: RankOneSpec, i: int, j: int, k: int) -> Fraction:
    """Product lower bound for non-shared k-tuples across stages ``i..j-1``.

    Equals the exact probability that ``k`` independent uniform descendant
    choices never agree on a subcolumn index at any stage.
    """
    if type(k) is not int or k < 2:
        _check_int("k", k, 2)
    _check_stages(i, j)
    num = den = 1
    for m in range(i, j):
        p = spec.budget.power(spec.stage(m).r, k - 1, "r", m)
        num, den = num * (p - 1), den * p
    return Fraction(num, den)


def cons_fraction_exact(spec: RankOneSpec, i: int, j: int, k: int) -> Fraction:
    """Exact fraction of k-tuples of descendants with a shifted companion.

    A tuple ``(a_0, ..., a_{k-1})`` counts when some nonzero ``t`` keeps
    every ``a_l - t`` in the descendant set; equivalently, when the set
    ``D`` meets all its translates by the tuple's internal differences in
    at least two points, that is, when its difference vector
    ``(a_l - a_0)_{l >= 1}`` has two or more realizations, as counted by
    :func:`rankone.core._tuple_product`.
    """
    _check_int("k", k, 2)
    N, total = _tuple_product(spec, i, j, k)
    if isinstance(N, dict):
        ones = countOf(N.values(), 1)
    else:  # 1-byte digits are the bytes of the image, counted in C
        ones = N.tobytes().count(1) if N.itemsize == 1 else countOf(N, 1)
    return Fraction(total - ones, total)  # the counts sum to total


def conservativity_sufficient(
    spec: RankOneSpec,
    k: int,
    horizon: int,
    threshold: Fraction = Fraction(1, 1000),
) -> CertificateReport:
    """Drive down the bound on k-tuples that share no subcolumn index.

    The fraction of k-tuples with no shared subcolumn index through stage
    ``m`` is at most the running product of the per-stage factors
    ``1 - 1/r^{k-1}`` of :func:`rho_bound`; ``satisfied`` says that product
    fell below ``threshold`` within the horizon.  That is all the rows
    prove: a bound at one finite stage does not make the power conservative,
    which needs the share of tuples that never return to vanish for every
    set of positive measure.
    """
    _check_int("k", k, 2)
    _check_int("horizon", horizon, 1)
    threshold = _exact("threshold", threshold)
    rows: list[dict] = []
    partial = Fraction(1)
    crossed_at: int | None = None
    for m in range(horizon):
        r = spec.stage(m).r
        factor = rho_bound(spec, m, m + 1, k)
        partial *= factor
        rows.append(
            {"stage": m, "r": r, "factor": factor, "partial_product": partial}
        )
        if partial < threshold:
            crossed_at = m
            break
    verdict = "satisfied" if crossed_at is not None else "inconclusive-at-horizon"
    return CertificateReport(
        kind="conservativity",
        horizon=horizon,
        verdict=verdict,
        rows=tuple(rows),
        summary={
            "k": k,
            "threshold": threshold,
            "product": partial,
            "crossed_at": crossed_at,
        },
    )


def nonconservativity_check(
    spec: RankOneSpec,
    k: int,
    horizon: int,
    floor: Fraction = Fraction(1, 2),
) -> CertificateReport:
    """Certify non-conservativity of the k-fold power at a finite horizon.

    Requires every stage in the horizon to be a staircase run
    (:attr:`rankone.core.StageSpec.shape`).  At stage ``j``, tuples of
    subcolumn indices that spread wider than twice the maximum descendant
    height can never realign, so the fraction of surviving tuples is at
    most the running product of ``1 - |K_j| / r_j^k`` with ``|K_j|`` the
    count of wide tuples.

    The product argument needs each stage's spacer growth to dominate both
    the accumulated descendant spread and the internal triangular offsets;
    rows record that separation check, and the verdict only refutes
    conservativity when every stage passes it and the product stays at or
    above ``floor`` through the horizon.

    The refutation rests on the claim that separated wide tuples never
    realign, and exact counts contradict it: on acceptance criterion 4's
    doubling tower the product is 1/2, yet only 1283/4096 of the pairs of
    descendants of ``C_0`` in ``C_3`` (their distinct differences) have no
    forward return there.
    """
    _check_int("k", k, 2)
    _check_int("horizon", horizon, 1)
    floor = _exact("floor", floor)
    rows: list[dict] = []
    notes: list[str] = []
    partial = Fraction(1)
    all_separated = True
    for j in range(horizon):
        st = spec.stage(j)
        s0 = st.shape[1]
        if s0 is None:
            raise NotStronglyArithmetic(
                f"stage {j} of {spec.name} is not staircase shaped"
            )
        maxd = spec.max_descendant(j)
        g = 2 * maxd
        total, kept = spec.budget.power(st.r, k, "r", j), _gap_tuple_count(st.r, g, k)
        excluded, factor = total - kept, Fraction(kept, total)  # kept's powers are at most r**k
        partial *= factor
        separated = spec.height(j) + s0 > _separation_bound(st.r, maxd)
        if not separated:
            all_separated = False
        rows.append(
            {
                "stage": j,
                "r": st.r,
                "max_descendant": maxd,
                "excluded": excluded,
                "factor": factor,
                "partial_product": partial,
                "separated": separated,
            }
        )
    if not all_separated:
        notes.append(
            "some stage lacks the spacer separation the survival bound needs; "
            "the product is reported but certifies nothing"
        )
    if partial < floor:
        notes.append(f"surviving-tuple product fell below the floor {floor}")
    ok = all_separated and partial >= floor
    return CertificateReport(
        kind="non-conservativity",
        horizon=horizon,
        verdict="refuted-conservativity" if ok else "inconclusive-at-horizon",
        rows=tuple(rows),
        summary={
            "k": k,
            "floor": floor,
            "product": partial,
            "all_separated": all_separated,
        },
        notes=tuple(notes),
    )


def _stage_rows(stages: range, row: Callable, skipped: Callable) -> tuple[list[dict], list[str]]:
    """The row ``row(n)`` of each stage ``n``, built by the caller, and the notes.  A
    count the budget refuses skips its stage: the row is ``skipped(n)`` and the note
    ``stage n skipped: <refusal>``, so no note means every stage was computed."""
    rows: list[dict] = []
    notes: list[str] = []
    for n in stages:
        try:
            rows.append(row(n))
        except BudgetExceeded as e:
            rows.append(skipped(n))
            notes.append(f"stage {n} skipped: {e}")
    return rows, notes


# -- ergodicity ---------------------------------------------------------------


def nonerg_pair_fraction(spec: RankOneSpec, n: int, b: int) -> Fraction:
    """Fraction of descendant pairs whose difference shifted by ``b`` reappears.

    A pair ``(a, a')`` counts when ``(a - a') + b`` is again a difference
    of two descendants, so the count is ``sum_v N(v) [N(v + b) > 0]`` over
    the difference counts ``N`` of :func:`rankone.core._tuple_product` at ``k = 2``,
    whose generating polynomial is ``prod_m sum_{a, a' in H_m} x^(a - a')``.
    Where that product is packed, ``N`` is read in place from its digits;
    it is symmetric, so the sum for ``b`` is the sum for ``|b|``.
    """
    _check_int("b", b, None)
    N, total = _tuple_product(spec, 0, n, 2)
    if isinstance(N, dict):
        good = sum(c for v, c in N.items() if v + b in N)
    else:
        b = abs(b)
        good = sum(compress(N[: len(N) - b], N[b:]))
    return Fraction(good, total)


def nonergodicity_certificate(
    spec: RankOneSpec, b: int, horizon: int
) -> CertificateReport:
    """Track the pair-realignment fraction for a fixed shift across stages.

    When the fraction stays at or below one half at every stage, a
    positive-measure set of pairs never realigns to displacement ``b`` and
    ergodicity of the Cartesian square fails.  The stages through the
    horizon are built first, so a stage the spec cannot build (past
    ``max_stage``, past ``max_height_bits`` or past an explicit spec's end)
    refuses the certificate; a stage whose pairs are over budget is skipped,
    with the refusal as its note, and leaves the verdict inconclusive.
    """
    _check_int("horizon", horizon, 1)
    spec.materialize(horizon)
    rows, notes = _stage_rows(
        range(1, horizon + 1),
        lambda n: {"stage": n, "fraction": nonerg_pair_fraction(spec, n, b), "skipped": False},
        lambda n: {"stage": n, "fraction": None, "skipped": True},
    )
    fractions = [row["fraction"] for row in rows if not row["skipped"]]
    worst = max(fractions, default=None)
    ok = not notes and worst <= Fraction(1, 2)
    return CertificateReport(
        kind="non-ergodicity",
        horizon=horizon,
        verdict="refuted-ergodicity" if ok else "inconclusive-at-horizon",
        rows=tuple(rows),
        summary={
            "b": b,
            "max_fraction": worst,
            "stages_computed": len(fractions),
        },
        notes=tuple(notes),
    )


# -- rigidity and partial rigidity --------------------------------------------


def rigidity_scan(spec: RankOneSpec, n: int) -> tuple[int, Fraction]:
    """Best rigidity shift for stage ``n``: the positive difference of the
    height set maximizing the overlap ratio, smallest shift on ties.

    Two stage shapes (:attr:`rankone.core.StageSpec.shape`) are answered
    from the spacer counts ``s_i`` and the height ``h = h_n``, without the
    difference multiset ``N`` of :meth:`rankone.core.RankOneSpec.height_differences`;
    the gaps of ``H_n`` are ``h + s_i`` for ``i < r - 1``.

    - Constant gap, ``s_i = s`` for ``i < r - 1``: ``H_n = {0, g, ...,
      (r-1)g}`` with ``g = h + s`` and ``N(jg) = r - j``, so the answer is
      ``(g, (r-1)/r)``.
    - Staircase run, ``s_i = s_0 + i``, with ``h + s_0 > floor((r-2)^2 / 4)``:
      the lag-``d`` difference from gap ``i`` is ``d(h+s_0) + d i + d(d-1)/2``,
      increasing in ``i``, and the largest of lag ``d`` is below the least of
      lag ``d+1`` exactly when ``d(r-2-d) < h + s_0``.  The bound makes that
      hold for every ``d``, so each positive difference occurs once and the
      answer is ``(h + s_0, 1/r)``.

    Any other stage reads ``N``.  The ``max_pairs`` check on ``|H_n|^2 = r^2``
    runs first, whatever the shape.
    """
    st, h = spec.stage(n), spec.height(n)
    spec.budget.check("max_pairs", st.r**2, "{} height pairs")
    r, (gap, s0) = st.r, st.shape
    if gap is not None:
        return h + gap, Fraction(r - 1, r)
    if s0 is not None and h + s0 > (r - 2) ** 2 // 4:
        return h + s0, Fraction(1, r)
    shifts, counts = spec.height_differences(n)
    z = len(shifts) // 2  # the centre, t = 0
    best = max(counts[z + 1 :])
    return shifts[counts.index(best, z + 1)], Fraction(best, r)


class AlphaProfile(
    namedtuple(
        "AlphaProfile",
        "stage k_max threshold base_size exceptions sup_outside sup_outside_at ratios",
        defaults=(None,),
    )
):
    """Self-overlap ratios of a refined level set across all small shifts.

    ``exceptions`` holds the ``(k, ratio)`` records above the threshold, and
    ``ratios`` every one when they were stored, else ``None``; every shift
    of ratio 0 shares one ``Fraction(0)``.
    """

    __slots__ = ()


_ShiftRatio = namedtuple("ShiftRatio", "k ratio")


def alpha_type_profile(
    spec: RankOneSpec,
    B: LevelSet,
    k_max: int,
    threshold: Fraction = Fraction(1, 2),
    *,
    store_ratios: bool = False,
) -> AlphaProfile:
    """Profile the partial-rigidity constant of ``B`` over shifts ``1..k_max``.

    Refines ``B`` once, to the least stage where no shift up to ``k_max``
    can wrap, so all ratios are plain difference counts of one descendant
    set.  Shifts whose ratio exceeds ``threshold`` are the exceptional
    returns; the supremum over the rest estimates the set's intrinsic
    overlap constant.  Below a negative threshold every shift is an
    exception, so ``k_max`` is then bounded by ``max_descendants``, as it
    is when ``store_ratios`` lists every ratio.
    """
    _check_int("k_max", k_max, 1)
    threshold = _exact("threshold", threshold)
    if store_ratios or threshold < 0:
        spec.budget.check("max_descendants", k_max, "{} listed ratios")
    s = least_valid_stage(spec, B, k_max)
    size = descendant_count(spec, B.stage, s, len(B.heights))
    spec.budget.check("max_pairs", size**2, "{} pairs")
    N = overlap_counts(spec, B, B, s, range(1, k_max + 1))
    zero = Fraction(0)  # the ratio of every shift outside the support of N
    ratio = {k: Fraction(c, size) for k, c in N.items()}
    # Ratios N(k) / size are compared as integers.  A shift with N(k) = 0 is
    # an exception only below a negative threshold and never raises the
    # supremum, so otherwise the support of N is all there is to visit.
    p, q = threshold.numerator, threshold.denominator
    exceptions: list[_ShiftRatio] = []
    best, sup_at = 0, None
    for k in range(1, k_max + 1) if threshold < 0 else sorted(N):
        c = N.get(k, 0)
        if c * q > p * size:
            exceptions.append(_ShiftRatio(k, ratio.get(k, zero)))
        elif c > best:
            best, sup_at = c, k
    ratios = None
    if store_ratios:  # tuple.__new__ makes each (k, ratio) pair a record in C
        ks = range(1, k_max + 1)
        pairs = zip(ks, map(ratio.get, ks, repeat(zero)))
        ratios = tuple(map(tuple.__new__, repeat(_ShiftRatio), pairs))
    return AlphaProfile(
        stage=s,
        k_max=k_max,
        threshold=threshold,
        base_size=size,
        exceptions=tuple(exceptions),
        sup_outside=Fraction(best, size),
        sup_outside_at=sup_at,
        ratios=ratios,
    )


# -- arithmetic progressions of stacked spacers --------------------------------


def staircase_subset_detect(
    H: Sequence[int], h: int, min_k: int = -1
) -> tuple[int, int, int] | None:
    """The longest maximal staircase-patterned run of a height set, or ``None``.

    The run is returned as ``(a, k, length)``: it starts at ``a`` and, with
    spacer offset ``k``, visits ``a + m(h + k) + m(m+1)/2``; the m-th
    increment is ``h + k + m``.  Only runs of length at least two count,
    and a run is skipped when it extends backward (the longer run with
    offset ``k - 1`` subsumes it, provided that offset is allowed and its
    first step ``h + k`` is not zero, that is, ``d > 1`` below).
    ``min_k`` bounds the offsets searched; the plain staircase pattern
    itself has offset -1.  Ties in length go to the smallest ``a``, then
    the smallest ``k``: runs are scanned in that order and only a strictly
    longer one replaces the best.  Every pair ``(a, e1)`` with ``a < e1``
    is tried, so the scan costs ``|H|^2`` pairs.
    """
    _check_int("h", h, None)
    _check_int("min_k", min_k, None)
    Hs = sorted(set(H))
    for x in Hs:
        _check_int("height", x, None)
    Hset = set(Hs)
    best_a = best_k = None
    best_length = 1
    for a, e1 in combinations(Hs, 2):
        d = e1 - a
        k = d - h - 1
        if k < min_k or (d > 1 and a - h - k in Hset and k - 1 >= min_k):
            continue  # offset out of range, or extends backward: not maximal
        length, nxt = 2, e1
        while nxt + h + k + length in Hset:  # the increment into position `length`
            nxt += h + k + length
            length += 1
        if length > best_length:
            best_a, best_k, best_length = a, k, length
    return None if best_a is None else (best_a, best_k, best_length)


def arithmetic_report(
    spec: RankOneSpec,
    horizon: int,
    tau: Fraction = Fraction(1, 2),
    min_k: int = -1,
) -> CertificateReport:
    """Look for recurring staircase structure across the stages of a spec.

    A stage qualifies when some maximal run covers more than ``tau`` of
    its height set and has length at least three (length-two runs exist in
    almost any set and certify nothing).  The pattern counts as recurring
    when at least two stages qualify and their cut counts strictly
    increase in stage order.  The stages below the horizon are built first,
    so a stage the spec cannot build refuses the report, as it refuses
    :func:`nonergodicity_certificate`; a stage whose height pairs exceed
    ``max_pairs`` is skipped, with the refusal as its note, and leaves the
    verdict inconclusive.

    A staircase-run stage (:attr:`rankone.core.StageSpec.shape`), with
    ``s_i = s_0 + i`` for ``i < r - 1``, is answered from its spacer counts
    and ``h = h_n``: ``H_n = {0, h + s_0, 2(h + s_0) + 1, ...}`` is itself one
    run of length ``r`` from ``a = 0`` with offset ``k = s_0 - 1``.  It covers
    ``H_n``, so no run is longer, and the scan of :func:`staircase_subset_detect`
    meets it first, at ``(a, e1) = (0, H[1])``, so ``(0, s_0 - 1, r)`` is the
    scan's answer unless ``s_0 - 1 < min_k`` puts that pair out of range; only
    such a stage falls back to the scan.  Any other stage is scanned.  The
    ``max_pairs`` check on ``|H_n|^2 = r^2`` runs first, whatever the shape.
    """
    _check_int("horizon", horizon, 1)
    _check_int("min_k", min_k, None)
    tau = _exact("tau", tau)
    spec.materialize(horizon)

    def stage_row(n: int) -> dict:
        st, h = spec.stage(n), spec.height(n)
        spec.budget.check("max_pairs", st.r**2, "{} height pairs")
        r, s0 = st.r, st.shape[1]
        if s0 is not None and min_k <= s0 - 1:
            a, k, length = 0, s0 - 1, r
        else:
            a, k, length = staircase_subset_detect(spec.height_set(n), h, min_k) or (None, None, 0)
        return {
            "stage": n,
            "r": r,
            "skipped": False,
            "best_a": a,
            "best_k": k,
            "best_length": length,
            "fraction": Fraction(length, r),
            "qualifies": length >= 3 and length * tau.denominator > tau.numerator * r,  # > tau
        }

    rows, notes = _stage_rows(
        range(horizon), stage_row, lambda n: {"stage": n, "r": spec.stage(n).r, "skipped": True}
    )
    qualifying = [(row["stage"], row["r"]) for row in rows if row.get("qualifies")]
    increasing = all(b[1] > a[1] for a, b in zip(qualifying, qualifying[1:]))
    ok = not notes and len(qualifying) >= 2 and increasing
    return CertificateReport(
        kind="arithmetic",
        horizon=horizon,
        verdict="satisfied-at-horizon" if ok else "inconclusive-at-horizon",
        rows=tuple(rows),
        summary={
            "tau": tau,
            "min_k": min_k,
            "qualifying_stages": [q[0] for q in qualifying],
            "cut_counts_increase": increasing,
        },
        notes=tuple(notes),
    )


# -- weak mixing and double ergodicity -----------------------------------------


def divisibility_gcd(spec: RankOneSpec, horizon: int) -> tuple[int, str]:
    """Gcd of all nonzero height-set elements through the horizon.

    A gcd ``g >= 2`` makes every return time a multiple of ``g``, which
    kills weak mixing.  The verdict is ``"not-weak-mixing"`` when the spec
    declares all heights divisible by some ``d >= 2`` dividing ``g`` (so
    the pattern provably persists), ``"at-horizon"`` when ``g >= 2`` holds
    with no such declaration, and ``"refuted"`` when ``g == 1``.
    """
    _check_int("horizon", horizon, 1)
    g = 0
    for n in range(horizon):
        for e in spec.height_set(n)[1:]:
            g = math.gcd(g, e)
    if g == 1:
        return 1, "refuted"
    if any(d >= 2 and g % d == 0 for d in _declared_divisors(spec).values()):
        return g, "not-weak-mixing"
    return g, "at-horizon"


def _declared_divisors(spec: RankOneSpec) -> dict[str, int]:
    """Each ``all-heights-divisible-by-<d>`` tag of the spec, mapped to ``d``."""
    out = {}
    for tag in spec.declared_properties:
        if tag.startswith("all-heights-divisible-by-"):
            try:
                out[tag] = int(tag.rsplit("-", 1)[-1])
            except ValueError:
                continue
    return out


def wde_probe(
    spec: RankOneSpec, A: LevelSet, B: LevelSet, n_max: int
) -> int | None:
    """Smallest positive shift moving ``A`` across both itself and ``B``.

    Returns the least ``n <= n_max`` found with both overlap measures
    positive, or None when no shift in range works at the stage probed.

    A returned shift is always a sound certificate: within one column the
    transformation moves whole levels up rigidly, so matching descendant
    heights at any stage witness positive overlap.  Both sets are refined
    to the deepest stage the descendant budget affords, capped at the
    first stage whose column clears the largest probed shift (beyond that
    point no new differences ``<= n_max`` can appear); a None returned
    short of that cap is horizon-bounded evidence only.
    """
    _check_int("n_max", n_max, 1)
    s = _probe_stage(spec, A, B, n_max)
    # The pair budget counts the pairs a walk over the refined sets would
    # touch: first the self pairs, then the cross pairs, within the window.
    # They are totalled before any difference is listed.
    pairs = overlap_total(spec, A, A, s, 1, n_max)
    spec.budget.check("max_pairs", pairs, "{} window pairs")
    if not pairs:
        return None
    pairs += overlap_total(spec, A, B, s, 1, n_max)
    spec.budget.check("max_pairs", pairs, "{} window pairs")
    shifts = range(1, n_max + 1)
    both = (
        overlap_counts(spec, A, A, s, shifts).keys()
        & overlap_counts(spec, A, B, s, shifts).keys()
    )
    return min(both) if both else None


def koopman_decay_check(
    spec: RankOneSpec, B: LevelSet, k_samples: Sequence[int]
) -> CertificateReport:
    """Check the overlap-decay window bound on sampled shifts.

    For the doubling-spacer family, the self-overlap of a level set under
    a shift ``k`` falling in the window ``h_n <= k < h_{n+1}`` is below
    ``2/n`` of the set's measure.  Only meaningful for specs built by that
    recipe, hence the precondition on the builder kind.

    Once a stage ``s`` is valid for a shift ``k``
    (:func:`rankone.tower.least_valid_stage`), ``N_s(k) / |B_s|`` is
    ``mu(T^k B meets B) / mu(B)`` at ``s`` and every later stage, so the
    stage valid for the largest shift serves them all, in one
    :func:`rankone.tower.overlap_counts` walk.  Here ``N_s(k)`` counts the
    levels of ``B_s``, ``B`` refined to ``C_s``, that return under ``k``, and
    the bound is checked in integers, as ``N_s(k) * n < 2 * |B_s|``.
    """
    if spec.params.get("kind") != "koopman":
        raise PreconditionError(
            "decay windows apply only to the doubling-spacer family "
            f"(spec {spec.name!r} was built by {spec.params.get('kind')!r})"
        )
    ks = sorted(set(k_samples))
    for k in ks:
        _check_int("shift", k, None)
    if not ks:
        raise ValueError("need at least one shift to check")
    if ks[0] < spec.height(1):
        raise ValueError(f"shifts must be at least h_1={spec.height(1)}, got {ks[0]}")
    s = least_valid_stage(spec, B, ks[-1])
    size = descendant_count(spec, B.stage, s, len(B.heights))
    N = overlap_counts(spec, B, B, s, ks)
    rows: list[dict] = []
    ok = True
    n, bound = 1, Fraction(2)
    for k in ks:
        while spec.height(n + 1) <= k:
            n += 1
            bound = Fraction(2, n)  # one per window, shared by its rows
        c = N.get(k, 0)
        holds = c * n < 2 * size
        ok = ok and holds
        rows.append({"k": k, "window": n, "ratio": Fraction(c, size), "bound": bound, "ok": holds})
    return CertificateReport(
        kind="koopman-decay",
        horizon=len(ks),
        verdict="satisfied" if ok else "refuted",
        rows=tuple(rows),
        summary={
            "levels": len(B.heights),
            "stage": B.stage,
            "violations": sum(1 for row in rows if not row["ok"]),
        },
    )

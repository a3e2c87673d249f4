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
subclasses instead of returning a verdict.

Pair and tuple counts over descendant sets are products of per-stage
generating polynomials (:func:`rankone.core.difference_counts`), taken as
one big-integer multiply where dense and read in place, so no pair is
listed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import compress
from operator import countOf
from typing import Sequence

from rankone.core import (
    BudgetExceeded,
    IntSet,
    NotStronglyArithmetic,
    PreconditionError,
    RankOneSpec,
    StageSpec,
    _difference_product,
    _gap_tuple_count,
    _separation_bound,
    _full_product,
    descendant_count,
    gap_pair_count,
)
from rankone.tower import (
    LevelSet,
    _probe_stage,
    least_valid_stage,
    measure,
    overlap_counts,
    overlap_total,
    translate_intersection_measure,
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
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    out = Fraction(1)
    for m in range(i, j):
        out *= 1 - Fraction(1, spec.stage(m).r ** (k - 1))
    return out


def cons_fraction_exact(spec: RankOneSpec, i: int, j: int, k: int) -> Fraction:
    """Exact fraction of k-tuples of descendants with a shifted companion.

    A tuple ``(a_0, ..., a_{k-1})`` counts when some nonzero ``t`` keeps
    every ``a_l - t`` in the descendant set; equivalently, when the set
    ``D`` meets all its translates by the tuple's internal differences in
    at least two points, that is, when its difference vector
    ``(a_l - a_0)_{l >= 1}`` has two or more realizations.

    The vector is encoded as ``sum_l (a_l - a_0) W^(l-1)`` in balanced base
    ``W = 2M + 1``, for ``M = max H_i + ... + max H_{j-1}``: every entry lies
    in ``[-M, M]``, where the encoding is injective.  It is linear, so the
    encoded vectors of the tuples of ``D`` have the generating polynomial
    ``prod_m prod_l sum_{a in H_m} x^(c_l a)``, with
    ``c = (-(1 + W + ... + W^(k-2)), 1, W, ..., W^(k-2))``: ``k`` polynomials
    of ``|H_m|`` terms per stage, multiplied as one packed integer where
    dense, once ``|D|^k`` is within ``max_pairs``.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    total = spec.budget.check("max_pairs", descendant_count(spec, i, j) ** k, "{} tuples")
    M = spec.max_descendant(j) - spec.max_descendant(i)
    powers = [(2 * M + 1) ** l for l in range(k - 1)]
    C = sum(powers)  # the encoded vectors lie in [-C * M, C * M]
    stages = []
    for m in range(i, j):
        H = spec.height_set(m)
        ones = [1] * len(H)
        stages.append([([c * a for a in H], ones) for c in (-C, *powers)])
    N = _full_product(stages, total, -C * M, C * M)
    if isinstance(N, dict):
        return Fraction(sum(c for c in N.values() if c >= 2), total)
    return Fraction(total - countOf(N, 1), total)  # the counts sum to total


def conservativity_sufficient(
    spec: RankOneSpec,
    k: int,
    horizon: int,
    threshold: Fraction = Fraction(1, 1000),
) -> CertificateReport:
    """Certify conservativity of the k-fold power by driving the bound down.

    The fraction of k-tuples with no shared subcolumn index through stage
    ``m`` is at most the running product of the per-stage factors
    ``1 - 1/r^{k-1}`` of :func:`rho_bound`; once that product drops below
    ``threshold``, all but a vanishing fraction of orbits return and the
    power is conservative.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
    threshold = Fraction(threshold)
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


def _staircase_first_spacer(stage: StageSpec) -> int | None:
    """First spacer count if the stage is staircase shaped, else None.

    Staircase shaped means consecutive spacer counts grow by exactly one
    on every subcolumn but the last, whose count is unconstrained.
    """
    spacers = stage.spacers
    s0 = spacers[0]
    for m in range(stage.r - 1):
        if spacers[m] != s0 + m:
            return None
    return s0


def nonconservativity_check(
    spec: RankOneSpec,
    k: int,
    horizon: int,
    floor: Fraction = Fraction(1, 2),
) -> CertificateReport:
    """Certify non-conservativity of the k-fold power at a finite horizon.

    Requires every stage in the horizon to be staircase shaped.  At stage
    ``j``, tuples of subcolumn indices that spread wider than twice the
    maximum descendant height can never realign, so the fraction of
    surviving tuples is at most the running product of
    ``1 - |K_j| / r_j^k`` with ``|K_j|`` the count of wide tuples.

    The product argument needs each stage's spacer growth to dominate both
    the accumulated descendant spread and the internal triangular offsets;
    rows record that separation check, and the verdict only refutes
    conservativity when every stage passes it and the product stays at or
    above ``floor`` through the horizon.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
    floor = Fraction(floor)
    rows: list[dict] = []
    notes: list[str] = []
    partial = Fraction(1)
    all_separated = True
    for j in range(horizon):
        st = spec.stage(j)
        s0 = _staircase_first_spacer(st)
        if s0 is None:
            raise NotStronglyArithmetic(
                f"stage {j} of {spec.name} is not staircase shaped"
            )
        maxd = spec.max_descendant(j)
        g = 2 * maxd
        excluded = st.r**k - _gap_tuple_count(st.r, g, k)
        factor = 1 - Fraction(excluded, st.r**k)
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


# -- ergodicity ---------------------------------------------------------------


def nonerg_pair_fraction(spec: RankOneSpec, n: int, b: int) -> Fraction:
    """Fraction of descendant pairs whose difference shifted by ``b`` reappears.

    A pair ``(a, a')`` counts when ``(a - a') + b`` is again a difference
    of two descendants, so the count is ``sum_v N(v) [N(v + b) > 0]`` over
    the difference counts ``N`` of :func:`rankone.core.difference_counts`,
    whose generating polynomial is ``prod_m sum_{a, a' in H_m} x^(a - a')``.
    Where that product is packed, ``N`` is read in place from its digits;
    it is symmetric, so the sum for ``b`` is the sum for ``|b|``.
    """
    N, total = _difference_product(spec, 0, n)
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
    ergodicity of the Cartesian square fails.  A stage over budget is
    skipped, with the refusal as its note, and leaves the verdict
    inconclusive; a horizon past ``max_stage`` is refused outright.
    """
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
    spec.budget.check("max_stage", horizon, "stage {}")
    rows: list[dict] = []
    notes: list[str] = []
    computed = 0
    worst = Fraction(0)
    for n in range(1, horizon + 1):
        try:
            frac = nonerg_pair_fraction(spec, n, b)
        except BudgetExceeded as e:
            rows.append({"stage": n, "fraction": None, "skipped": True})
            notes.append(f"stage {n} skipped: {e}")
            continue
        computed += 1
        worst = max(worst, frac)
        rows.append({"stage": n, "fraction": frac, "skipped": False})
    ok = computed == horizon and worst <= Fraction(1, 2)
    return CertificateReport(
        kind="non-ergodicity",
        horizon=horizon,
        verdict="refuted-ergodicity" if ok else "inconclusive-at-horizon",
        rows=tuple(rows),
        summary={
            "b": b,
            "max_fraction": worst if computed else None,
            "stages_computed": computed,
        },
        notes=tuple(notes),
    )


# -- rigidity and partial rigidity --------------------------------------------


def rigidity_scan(spec: RankOneSpec, n: int) -> tuple[int, Fraction]:
    """Best rigidity shift for stage ``n``: the positive difference of the
    height set maximizing the overlap ratio, smallest shift on ties."""
    H = spec.height_set(n)
    spec.budget.check("max_pairs", len(H) ** 2, "{} height pairs")
    shifts, counts = spec.height_differences(n)
    z = len(shifts) // 2  # the centre, t = 0
    best = max(counts[z + 1 :])
    return shifts[counts.index(best, z + 1)], Fraction(best, len(H))


class AlphaProfile(
    namedtuple(
        "AlphaProfile",
        "stage k_max threshold base_size exceptions sup_outside sup_outside_at ratios",
        defaults=(None,),
    )
):
    """Self-overlap ratios of a refined level set across all small shifts.

    ``exceptions`` holds the ``(k, ratio)`` pairs above the threshold, and
    ``ratios`` every pair when they were stored, else ``None``.
    """

    __slots__ = ()


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
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    threshold = Fraction(threshold)
    every_shift = store_ratios or threshold < 0
    if every_shift:
        spec.budget.check("max_descendants", k_max, "{} listed ratios")
    s = least_valid_stage(spec, B, k_max)
    size = descendant_count(spec, B.stage, s, len(B.heights))
    spec.budget.check("max_pairs", size**2, "{} pairs")
    N = overlap_counts(spec, B, B, s, 1, k_max)
    # Ratios N(k) / size are compared as integers.  A shift with N(k) = 0 is
    # an exception only below a negative threshold and never raises the
    # supremum, so otherwise the support of N is all there is to visit.
    p, q = threshold.numerator, threshold.denominator
    ks = range(1, k_max + 1) if every_shift else sorted(N)
    exceptions: list[tuple[int, Fraction]] = []
    ratios: list[tuple[int, Fraction]] = []
    best, sup_at = 0, None
    for k in ks:
        c = N[k]
        if store_ratios:
            ratios.append((k, Fraction(c, size)))
        if c * q > p * size:
            exceptions.append((k, Fraction(c, size)))
        elif c > best:
            best, sup_at = c, k
    sup_out = Fraction(best, size)
    return AlphaProfile(
        stage=s,
        k_max=k_max,
        threshold=threshold,
        base_size=size,
        exceptions=tuple(exceptions),
        sup_outside=sup_out,
        sup_outside_at=sup_at,
        ratios=tuple(ratios) if store_ratios else None,
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
    offset ``k - 1`` subsumes it, provided that offset is allowed).
    ``min_k`` bounds the offsets searched; the plain staircase pattern
    itself has offset -1.  Ties in length go to the smallest ``a``, then
    the smallest ``k``: runs are scanned in that order and only a strictly
    longer one replaces the best.

    Two cuts skip only pairs ``(a, e1)`` whose run cannot beat the best
    length ``L`` so far, so the answer is the full scan's
    (:func:`rankone.oracle.brute_staircase_subset_detect`).  A run of
    ``L + 1`` needs ``L + 1`` elements at or above ``a``, so the scan stops
    once fewer remain.  With first step ``d = e1 - a`` such a run ends at
    ``a + L d + L(L-1)/2``, so the scan of ``e1`` stops once that passes
    ``max H``: ``d`` grows with ``e1``.  The worst case stays ``|H|^2`` pairs.
    """
    Hs = sorted(set(int(x) for x in H))
    Hset = set(Hs)
    best_a = best_k = None
    best_length = 1
    for i, a in enumerate(Hs):
        if len(Hs) - i <= best_length:
            break
        for e1 in Hs[i + 1 :]:
            d = e1 - a
            if a + best_length * d + best_length * (best_length - 1) // 2 > Hs[-1]:
                break
            k = d - h - 1
            if k < min_k:
                continue
            if a - h - k in Hset and k - 1 >= min_k:
                continue  # extends backward; not maximal
            length = 2
            nxt = e1
            while True:
                step = h + k + length  # increment into position `length`
                if nxt + step in Hset:
                    nxt += step
                    length += 1
                else:
                    break
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
    increase in stage order.  A stage whose height pairs exceed
    ``max_pairs`` is skipped, with the refusal as its note, and leaves the
    verdict inconclusive.
    """
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
    tau = Fraction(tau)
    rows: list[dict] = []
    notes: list[str] = []
    qualifying: list[tuple[int, int]] = []  # (stage, r)
    for n in range(horizon):
        H = spec.height_set(n)
        try:
            spec.budget.check("max_pairs", len(H) ** 2, "{} height pairs")
        except BudgetExceeded as e:
            rows.append({"stage": n, "r": spec.stage(n).r, "skipped": True})
            notes.append(f"stage {n} skipped: {e}")
            continue
        a, k, length = staircase_subset_detect(H, spec.height(n), min_k) or (None, None, 0)
        fraction = Fraction(length, len(H))
        qualifies = length >= 3 and fraction > tau
        r = spec.stage(n).r
        rows.append(
            {
                "stage": n,
                "r": r,
                "skipped": False,
                "best_a": a,
                "best_k": k,
                "best_length": length,
                "fraction": fraction,
                "qualifies": qualifies,
            }
        )
        if qualifies:
            qualifying.append((n, r))
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
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
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
    positive, or None when no shift in range works at the stage probed;
    ``n_max`` below 1 is refused with :class:`ValueError`.

    A returned shift is always a sound certificate: within one column the
    transformation moves whole levels up rigidly, so matching descendant
    heights at any stage witness positive overlap.  Both sets are refined
    to the deepest stage the descendant budget affords, capped at the
    first stage whose column clears the largest probed shift (beyond that
    point no new differences ``<= n_max`` can appear); a None returned
    short of that cap is horizon-bounded evidence only.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
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
    both = (
        overlap_counts(spec, A, A, s, 1, n_max).keys()
        & overlap_counts(spec, A, B, s, 1, n_max).keys()
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
    """
    if spec.params.get("kind") != "koopman":
        raise PreconditionError(
            "decay windows apply only to the doubling-spacer family "
            f"(spec {spec.name!r} was built by {spec.params.get('kind')!r})"
        )
    ks = sorted(set(int(k) for k in k_samples))
    if not ks:
        raise ValueError("need at least one shift to check")
    if ks[0] < spec.height(1):
        raise ValueError(f"shifts must be at least h_1={spec.height(1)}, got {ks[0]}")
    mu = measure(spec, B)
    rows: list[dict] = []
    ok = True
    n = 1
    for k in ks:
        while spec.height(n + 1) <= k:
            n += 1
        ratio = translate_intersection_measure(spec, B, k) / mu
        bound = Fraction(2, n)
        holds = ratio < bound
        ok = ok and holds
        rows.append({"k": k, "window": n, "ratio": ratio, "bound": bound, "ok": holds})
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

"""Certificate computations: counting formulas, verdicts, profiles."""

import inspect
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import analysis, core, gallery, oracle, tower
from rankone.analysis import (
    AlphaProfile,
    CertificateReport,
    alpha_type_profile,
    arithmetic_report,
    cons_fraction_exact,
    conservativity_sufficient,
    divisibility_gcd,
    koopman_decay_check,
    nonconservativity_check,
    nonerg_pair_fraction,
    nonergodicity_certificate,
    rho_bound,
    rigidity_scan,
    staircase_subset_detect,
    wde_probe,
)
from rankone.core import (
    Budget,
    BudgetExceeded,
    NotStronglyArithmetic,
    PreconditionError,
    descendant_count,
    descendant_set,
    explicit_spec,
    gap_pair_count,
)
from rankone.oracle import (
    SplitMix64,
    brute_alpha_type_profile,
    brute_apply_pointwise,
    brute_descendants,
    brute_intersection_measure,
    brute_nonerg_pair_fraction,
    brute_rigidity_scan,
    brute_shared_coordinate_fraction,
    brute_tuple_fraction,
    brute_wde_probe,
    monte_carlo_measure,
    stepwise_orbit_check,
)
from rankone.tower import (
    LevelSet,
    Point,
    apply_pointwise,
    intersection_measure,
    least_valid_stage,
    level_set,
    lift_to,
    measure,
    overlap_counts,
    overlap_total,
    point,
    point_eq,
    point_in,
    project_height,
    refine,
    translate_intersection_measure,
)

from conftest import small_specs

pytestmark = pytest.mark.filterwarnings(
    "ignore::rankone.core.CapsMakeConstructionUnfaithful"
)

TRIPLE = [(3, (0, 1, 2)), (3, (0, 1, 2))]


# -- counting formulas -------------------------------------------------------


def test_gap_pair_count_frozen():
    assert gap_pair_count(5, 2) == 13
    assert gap_pair_count(2, 1) == 2
    assert gap_pair_count(4, 4) == 16


def test_gap_pair_count_range():
    with pytest.raises(ValueError):
        gap_pair_count(3, 0)
    with pytest.raises(ValueError):
        gap_pair_count(3, 4)


@given(r=st.integers(2, 40), data=st.data())
def test_gap_pair_count_brute(r, data):
    m = data.draw(st.integers(1, r))
    brute = sum(1 for i in range(r) for j in range(r) if abs(i - j) < m)
    assert gap_pair_count(r, m) == brute


# -- conservativity ----------------------------------------------------------


def test_rho_bound_frozen():
    sp = explicit_spec([(2, (0, 1)), (2, (0, 1))])
    assert rho_bound(sp, 0, 2, 2) == Fraction(1, 4)
    assert rho_bound(sp, 0, 2, 3) == Fraction(9, 16)


def test_rho_bound_is_a_product_past_the_descendant_budget():
    # 2*3*...*11 descendants is far over max_descendants, but the bound
    # never enumerates them: prod (1 - 1/r) telescopes to 1/11
    assert rho_bound(gallery.staircase(), 0, 10, 2) == Fraction(1, 11)


@pytest.mark.parametrize(
    "call", [rho_bound, cons_fraction_exact, brute_shared_coordinate_fraction, brute_tuple_fraction]
)
def test_a_reversed_stage_range_is_refused(call):
    # rho_bound answered 1 and the coordinate twin 0 over stages 3..1
    with pytest.raises(ValueError, match=r"^stage range 3\.\.1 is reversed$"):
        call(gallery.staircase(), 3, 1, 2)


def test_rho_bound_needs_k2():
    sp = explicit_spec(TRIPLE)
    with pytest.raises(ValueError):
        rho_bound(sp, 0, 2, 1)


def test_cons_fraction_frozen():
    sp = explicit_spec([(3, (0, 1, 2))])
    # D = {0, 1, 3}: differences 1, 2, 3 each once; only 0 repeats
    assert cons_fraction_exact(sp, 0, 1, 2) == Fraction(1, 3)


def test_cons_fraction_matches_brute():
    sp = explicit_spec(TRIPLE)
    for k in (2, 3):
        assert cons_fraction_exact(sp, 0, 2, k) == brute_tuple_fraction(sp, 0, 2, k)


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(max_stages=2, max_r=3), k=st.integers(2, 3))
def test_cons_at_least_shared(spec, k):
    top = len(spec.params["stages"])
    total = 1
    for r, _ in spec.params["stages"]:
        total *= r
    if total**k > 30_000:
        return
    cons = cons_fraction_exact(spec, 0, top, k)
    shared = brute_shared_coordinate_fraction(spec, 0, top, k)
    assert cons >= shared == 1 - rho_bound(spec, 0, top, k)


def test_conservativity_sufficient_report():
    sp = gallery.staircase()
    rep = conservativity_sufficient(sp, 2, 12, Fraction(1, 10))
    assert isinstance(rep, CertificateReport)
    assert rep.kind == "conservativity"
    assert rep.verdict == "satisfied"
    # product of (1 - 1/r) for r = 2,3,... telescopes to 1/(n+2)
    assert rep.summary["crossed_at"] == 9
    prod = Fraction(1)
    for row in rep.rows:
        prod *= 1 - Fraction(1, row["r"])
        assert row["partial_product"] == prod == Fraction(1, row["r"])


def test_conservativity_inconclusive_when_slow():
    sp = explicit_spec([(2, (0, 1))], cycle=True)
    rep = conservativity_sufficient(sp, 2, 5, Fraction(1, 10**9))
    assert rep.verdict == "inconclusive-at-horizon"
    assert rep.summary["crossed_at"] is None


# -- non-conservativity ------------------------------------------------------


def test_noncons_requires_staircase_shape():
    ko = gallery.koopman()
    with pytest.raises(NotStronglyArithmetic):
        nonconservativity_check(ko, 2, 4)


def test_noncons_two_cut_stages_trivially_qualify():
    sp = explicit_spec([(2, (5, 40))], cycle=True)
    nonconservativity_check(sp, 2, 3)  # no exception


def _fast_doubling():
    """Acceptance criterion 4's doubling tower: ``r_n = 2^(n+1)``, staircase runs from ``z_n``."""
    z = [3, 13, 110, 1626, 50132, 3191142, 408388556, 104552444694,
         53531662608812, 54816632339894742]
    return gallery.high_staircase([2 ** (n + 1) for n in range(10)], z)


def test_noncons_refutes_on_fast_doubling():
    rep = nonconservativity_check(_fast_doubling(), 2, 10)
    assert rep.verdict == "refuted-conservativity"
    assert rep.summary["all_separated"] is True
    assert rep.summary["product"] == Fraction(1, 2)
    # the very first stage (r=2, one wide pair out of four) halves the
    # count; every later stage is fully separated with factor 1
    assert rep.rows[0]["factor"] == Fraction(1, 2)
    assert all(row["factor"] == 1 for row in rep.rows[1:])


@pytest.mark.xfail(
    strict=True,
    reason="the refutation's product exceeds the exact forward-escape share (ROADMAP item 22)",
)
def test_noncons_refutation_stays_below_the_exact_escape_share():
    # a pair (a, a') of D x D returns forward within C_3 unless it is the topmost pair
    # with its difference a' - a, so the pairs that escape are the distinct differences
    sp = _fast_doubling()
    rep = nonconservativity_check(sp, 2, 10)
    D = descendant_set(sp, 0, 3)
    escape = Fraction(len({b - a for a in D for b in D}), len(D) ** 2)
    assert len(D) == 64 and round(float(escape), 3) == 0.313
    assert rep.verdict == "refuted-conservativity"
    assert rep.summary["product"] <= escape


def test_noncons_inconclusive_on_plain_staircase():
    rep = nonconservativity_check(gallery.staircase(), 2, 6)
    assert rep.verdict == "inconclusive-at-horizon"
    assert rep.summary["all_separated"] is False


def test_noncons_excluded_count_frozen():
    # ten cuts, spread bound 3, pairs: 100 - (10*1 + 2*sum over gaps) = 42
    z = [3, 13, 110, 1626, 50132]
    r = [2 ** (n + 1) for n in range(5)]
    sp = gallery.high_staircase(r, z)
    rep = nonconservativity_check(sp, 2, 5)
    by_stage = {row["stage"]: row for row in rep.rows}
    assert by_stage[0]["excluded"] == 2


# -- non-ergodicity ----------------------------------------------------------


def test_nonerg_pair_fraction_frozen():
    sp = explicit_spec([(3, (0, 1, 2))])
    # D = {0, 1, 3}, D - D = {0, +-1, +-2, +-3}: shifting by b=1 pushes
    # only the difference 3 (the single pair (3, 0)) out of the set
    assert nonerg_pair_fraction(sp, 1, 0) == 1
    assert nonerg_pair_fraction(sp, 1, 1) == Fraction(8, 9)


def test_nonergodicity_certificate_rows():
    sp = gallery.main_wde()
    rep = nonergodicity_certificate(sp, 1, 3)
    assert rep.kind == "non-ergodicity"
    fr = [row["fraction"] for row in rep.rows if not row["skipped"]]
    assert fr == [0, Fraction(39, 392), Fraction(39, 392)]
    assert all(f <= Fraction(1, 2) for f in fr)
    assert rep.verdict == "refuted-ergodicity"


def test_nonergodicity_skips_over_budget_stages():
    sp = gallery.main_wde()
    rep = nonergodicity_certificate(sp, 1, 5)
    skipped = [row["stage"] for row in rep.rows if row["skipped"]]
    assert skipped == [4, 5], "stages 4 and 5 are over the pair budget and must be skipped"
    # stages 1-3 stay at or below one half, but a refutation needs every stage
    assert rep.verdict == "inconclusive-at-horizon"
    assert rep.notes == (
        "stage 4 skipped: 115605504 pairs exceeds max_pairs=10000000",
        "stage 5 skipped: 462422016 pairs exceeds max_pairs=10000000",
    )


def test_nonergodicity_horizon_is_bounded_by_max_stage():
    sp = gallery.staircase(budget=Budget(max_stage=4))
    rep = nonergodicity_certificate(sp, 1, 4)
    assert [row["stage"] for row in rep.rows] == [1, 2, 3, 4]
    assert not any(row["skipped"] for row in rep.rows)
    with pytest.raises(BudgetExceeded, match="^stage 5 exceeds max_stage=4$"):
        nonergodicity_certificate(sp, 1, 5)


def test_a_stage_the_spec_cannot_build_refuses_both_certificates():
    # nonerg reported stages 3 and 4 of a two-stage spec as budget skips
    sp = explicit_spec([(2, (0, 1)), (3, (0, 1, 2))])
    assert not nonergodicity_certificate(sp, 1, 2).notes
    assert not arithmetic_report(sp, 2).notes
    with pytest.raises(BudgetExceeded, match="^explicit spec has 2 stages, stage 2 requested$"):
        nonergodicity_certificate(sp, 1, 4)
    with pytest.raises(BudgetExceeded, match="^explicit spec has 2 stages, stage 2 requested$"):
        arithmetic_report(sp, 4)


# -- rigidity and alpha ------------------------------------------------------


def test_rigidity_scan_prefers_smallest_shift():
    sp = gallery.t_q(2, gallery.Caps(max_r=6))
    a, ratio = rigidity_scan(sp, 2)
    assert (a, ratio) == (2 * sp.height(2), Fraction(1, 2))


def test_rigidity_scan_rigid_wde_increases():
    sp = gallery.rigid_wde(gallery.Caps(max_r=64))
    ratios = [rigidity_scan(sp, n)[1] for n in (2, 4, 6)]
    assert ratios == [Fraction(1, 2), Fraction(3, 4), Fraction(5, 6)]
    assert ratios == sorted(ratios)


@pytest.mark.parametrize(
    "sp",
    [gallery.t_q(q, gallery.Caps(max_r=64)) for q in (2, 3, 4)]
    + [gallery.rigid_wde(gallery.Caps(max_r=64))],
    ids=["t_q2", "t_q3", "t_q4", "rigid_wde"],
)
def test_rigidity_scan_answers_gallery_stages_in_closed_form(sp):
    for n in range(30):
        got = rigidity_scan(sp, n)
        if n < 7:
            assert got == brute_rigidity_scan(sp, n)
    assert sp._hdiffs == {}


def test_rigidity_scan_falls_back_on_other_stage_shapes():
    sp = gallery.koopman()
    rigidity_scan(sp, 2)
    assert list(sp._hdiffs) == [2]


def test_rigidity_scan_refuses_a_closed_form_stage_over_max_pairs():
    sp = gallery.t_q(3, gallery.Caps(max_r=64), budget=Budget(max_pairs=4095))
    assert sp.stage(1).r == 64
    with pytest.raises(BudgetExceeded, match="^4096 height pairs exceeds max_pairs=4095$"):
        rigidity_scan(sp, 1)


def test_alpha_profile_frozen():
    sp = gallery.t_q(2, gallery.Caps(max_r=6))
    B = level_set(sp, 2, (0,))
    prof = alpha_type_profile(sp, B, sp.height(4))
    assert isinstance(prof, AlphaProfile)
    assert prof.exceptions == ()
    assert prof.sup_outside == Fraction(1, 2)
    assert prof.sup_outside_at == 774
    assert prof.ratios is None


def test_alpha_profile_stores_ratios_on_request():
    sp = gallery.staircase()
    B = level_set(sp, 1, (0,))
    prof = alpha_type_profile(sp, B, 10, store_ratios=True)
    assert prof.ratios is not None and len(prof.ratios) == 10
    assert [k for k, _ in prof.ratios] == list(range(1, 11))
    assert all(0 <= x <= 1 for _, x in prof.ratios)


def test_alpha_profile_below_a_negative_threshold_lists_at_most_max_descendants():
    # every shift is an exception, so k_max counts the listed rows
    sp = explicit_spec([(2, (0, 1000))], cycle=True, budget=Budget(max_descendants=50))
    B = level_set(sp, 0, (0,))
    prof = alpha_type_profile(sp, B, 50, Fraction(-1, 2))
    assert [k for k, _ in prof.exceptions] == list(range(1, 51))
    with pytest.raises(BudgetExceeded, match="^51 listed ratios exceeds max_descendants=50$"):
        alpha_type_profile(sp, B, 51, Fraction(-1, 2))
    # at threshold 0 only the returning shift is listed
    assert alpha_type_profile(sp, B, 51, 0).exceptions == ((1, Fraction(1, 2)),)


# -- staircase detection -----------------------------------------------------


def test_staircase_subset_detect_full_run():
    # increments 13, 14, 15 over h = 12: the m-th step is h + k + m with
    # m starting at 1, so this is the k = 0 chain
    H = (0, 13, 27, 42)
    assert staircase_subset_detect(H, 12) == (0, 0, 4)


def test_staircase_subset_detect_min_k():
    # increments 12, 13, 14 form the k = -1 chain; raising the floor to
    # k = 0 leaves only its tail, which re-reads as a shorter k = 0 run
    H = (0, 12, 25, 39)
    assert staircase_subset_detect(H, 12) == (0, -1, 4)
    assert staircase_subset_detect(H, 12, min_k=0) == (12, 0, 3)


def test_staircase_subset_detect_keeps_a_unit_first_step():
    # a first step d = 1 means h + k = 0, so the backward extension would
    # step onto a itself; it subsumes nothing, and a lower floor keeps the run
    H = (0, 1, 3, 6)
    assert staircase_subset_detect(H, 1, min_k=-2) == (0, -1, 4)


@st.composite
def run_sets(draw):
    """An unsorted height set with repeats and ``h >= 0``, often holding
    planted runs, and the runs it plants as ``(start, offset, length)``."""
    h = draw(st.integers(0, 6))
    H = draw(st.lists(st.integers(0, 80), max_size=14))
    planted = []
    for _ in range(draw(st.integers(0, 3))):
        x = start = draw(st.integers(0, 40))
        k = draw(st.integers(-h, 3))  # the first step h + k + 1 stays positive
        length = draw(st.integers(2, 7))
        for m in range(length):
            H.append(x)
            x += h + k + m + 1
        planted.append((start, k, length))
    if H:
        H += draw(st.lists(st.sampled_from(H), max_size=4))
    return draw(st.permutations(H)), h, planted


@settings(max_examples=300, deadline=None)
@given(case=run_sets(), min_k=st.integers(-4, 2))
def test_staircase_subset_detect_finds_a_run_as_long_as_every_planted_one(case, min_k):
    # a run skipped because it extends backward is covered by a longer run
    # whose offset is lower by one, so no planted run in range is longer
    H, h, planted = case
    longest = max((length for _, k, length in planted if k >= min_k), default=0)
    found = staircase_subset_detect(H, h, min_k)
    if found is None:
        assert longest == 0
        return
    a, k, length = found
    assert k >= min_k
    assert length >= max(2, longest)
    assert all(a + m * (h + k) + m * (m + 1) // 2 in H for m in range(length))


def test_arithmetic_report_verdicts():
    assert arithmetic_report(gallery.staircase(), 6).verdict == "satisfied-at-horizon"
    hi = gallery.high_staircase((3, 4, 5, 6, 7), (1,))
    assert arithmetic_report(hi, 5).verdict == "satisfied-at-horizon"
    assert arithmetic_report(gallery.not_eic(2), 5).verdict == "inconclusive-at-horizon"
    # constant cut counts never qualify as growing structure
    flat = gallery.staircase((4,), extend="repeat")
    assert arithmetic_report(flat, 5).verdict == "inconclusive-at-horizon"


def test_arithmetic_report_skipped_stage_is_inconclusive():
    # stages 1-8 qualify, but stages 9-19 are over the pair budget
    rep = arithmetic_report(gallery.staircase(budget=Budget(max_pairs=100)), 20)
    assert rep.verdict == "inconclusive-at-horizon"
    assert rep.summary["qualifying_stages"] == list(range(1, 9))
    assert [row["stage"] for row in rep.rows if row["skipped"]] == list(range(9, 20))
    assert rep.notes[0] == "stage 9 skipped: 121 height pairs exceeds max_pairs=100"
    assert len(rep.notes) == 11


@st.composite
def mixed_stage_lists(draw):
    """Stages that are staircase runs with ``s_0 <= 3``, constant gaps, of two
    cuts, or none of these; the last spacer of each is free.

    Stage 0 has ``h = 1``, so a staircase-shaped stage 0 with ``s_0 = 0``
    has the first step ``h + s_0 = 1``, whose backward extension would be a
    zero step.
    """
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["staircase", "constant gap", "two cuts", "other"]))
        if shape == "staircase":
            s0 = draw(st.integers(0, 3))
            spacers = [*range(s0, s0 + draw(st.integers(2, 6)) - 1), draw(st.integers(0, 3))]
        elif shape == "constant gap":
            s = draw(st.integers(0, 3))
            spacers = [s] * (draw(st.integers(2, 6)) - 1) + [draw(st.integers(0, 3))]
        elif shape == "two cuts":
            spacers = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
        else:
            spacers = draw(st.lists(st.integers(0, 4), min_size=2, max_size=6))
        stages.append((len(spacers), spacers))
    return stages


@settings(max_examples=300, deadline=None)
@given(
    stages=mixed_stage_lists(),
    min_k=st.integers(-4, 2),
    tau=st.sampled_from([Fraction(1, 2), Fraction(1, 5)]),
    max_pairs=st.one_of(st.just(10**7), st.integers(4, 36)),
)
@example(stages=[(3, [0, 1, 0])], min_k=-2, tau=Fraction(1, 2), max_pairs=10**7)
@example(stages=[(3, [0, 1, 0]), (3, [2, 0, 0])], min_k=-1, tau=Fraction(1, 2), max_pairs=8)
def test_arithmetic_report_matches_twin_stage_by_stage(stages, min_k, tau, max_pairs):
    # staircase-shaped stages are read from their spacers, the rest scanned;
    # both agree with the full scan, and both are skipped by |H|^2 alike
    spec = explicit_spec(stages, budget=Budget(max_pairs=max_pairs))
    rep = arithmetic_report(spec, len(stages), tau, min_k)
    notes = []
    for n, row in enumerate(rep.rows):
        H, h = spec.height_set(n), spec.height(n)
        pairs = len(H) ** 2
        if pairs > max_pairs:
            assert row == {"stage": n, "r": len(H), "skipped": True}
            notes.append(f"stage {n} skipped: {pairs} height pairs exceeds max_pairs={max_pairs}")
            continue
        a, k, length = staircase_subset_detect(H, h, min_k) or (None, None, 0)
        fraction = Fraction(length, len(H))
        assert (row["best_a"], row["best_k"], row["best_length"]) == (a, k, length)
        assert row["fraction"] == fraction
        assert row["qualifies"] == (length >= 3 and fraction > tau)
    assert list(rep.notes) == notes


@settings(max_examples=200, deadline=None)
@given(stages=mixed_stage_lists(), max_pairs=st.one_of(st.just(10**7), st.integers(4, 36)))
@example(stages=[(4, [0, 1, 2, 0])], max_pairs=10**7)  # h + s_0 = 1 = floor((4-2)^2 / 4)
def test_rigidity_scan_matches_twin_stage_by_stage(stages, max_pairs):
    # constant gaps and runs past the bound are read from their spacers, the
    # rest from the difference multiset; both agree with the twin, and both
    # are refused by r^2 alike
    spec = explicit_spec(stages, budget=Budget(max_pairs=max_pairs))
    for n, (r, spacers) in enumerate(stages):
        if r * r > max_pairs:
            message = f"^{r * r} height pairs exceeds max_pairs={max_pairs}$"
            with pytest.raises(BudgetExceeded, match=message):
                rigidity_scan(spec, n)
            continue
        assert rigidity_scan(spec, n) == brute_rigidity_scan(spec, n)
        head, s0 = spacers[: r - 1], spacers[0]
        run = head == [*range(s0, s0 + r - 1)]
        closed = head == [s0] * (r - 1) or (run and spec.height(n) + s0 > (r - 2) ** 2 // 4)
        assert (n in spec._hdiffs) != closed


def _arithmetic_rows(spec, horizon, min_k):
    rep = arithmetic_report(spec, horizon, min_k=min_k)
    keys = ("best_a", "best_k", "best_length", "fraction", "qualifies")
    return [tuple(row[key] for key in keys) for row in rep.rows]


@settings(max_examples=200, deadline=None)
@given(stages=mixed_stage_lists(), min_k=st.integers(-4, -1))
@example(stages=[(4, [0, 1, 2, 0])], min_k=-2)  # H_0 = (0, 1, 3, 6) with h = 1
def test_arithmetic_rows_do_not_move_below_offset_minus_one(stages, min_k):
    """Every difference of ``H_n`` is at least ``h_n``, so no pair has an
    offset below -1, and a lower ``min_k`` reaches no other run."""
    spec = explicit_spec(stages)
    assert _arithmetic_rows(spec, len(stages), min_k) == _arithmetic_rows(spec, len(stages), -1)


def test_arithmetic_rows_on_the_staircase_do_not_move_below_offset_minus_one():
    # staircase stage 0 has h + s_0 = 1
    sp = gallery.staircase()
    assert _arithmetic_rows(sp, 3, -2) == _arithmetic_rows(sp, 3, -1)


def test_arithmetic_report_scale_canary():
    # 150 staircase stages, each height set one whole run, which is read
    # from the spacer counts; a scan of every pair costs |H|^2 per stage
    rep = arithmetic_report(gallery.staircase(budget=Budget(max_stage=150)), 150)
    assert rep.verdict == "satisfied-at-horizon"
    assert rep.summary["qualifying_stages"] == list(range(1, 150))
    assert all(
        (row["best_a"], row["best_k"], row["best_length"]) == (0, -1, row["r"])
        for row in rep.rows
    )


# -- divisibility and probes -------------------------------------------------


def test_divisibility_gcd_cases():
    from rankone.core import RankOneSpec, StageSpec

    assert divisibility_gcd(gallery.koopman(), 6) == (2, "not-weak-mixing")
    assert divisibility_gcd(gallery.staircase(), 5) == (1, "refuted")

    # all heights even but nothing declared: the pattern holds at the
    # horizon without a certificate that it persists
    def build(n, spec):
        return StageSpec(2, (1, 3) if n == 0 else (0, 2))

    undeclared = RankOneSpec(build, name="even-heights")
    g, verdict = divisibility_gcd(undeclared, 4)
    assert g == 2 and verdict == "at-horizon"


def test_wde_probe_finds_and_respects_horizon():
    sp = gallery.staircase(3)
    A = level_set(sp, 1, (0,))
    B = level_set(sp, 1, (1,))
    n = wde_probe(sp, A, B, sp.height(2))
    assert n is not None and 1 <= n <= sp.height(2)
    with pytest.raises(ValueError, match=r"^n_max must be at least 1, got 0$"):
        wde_probe(sp, A, B, 0)


def test_wde_probe_certifies_positivity():
    from rankone.tower import intersection_measure

    sp = gallery.staircase()
    A = level_set(sp, 2, (3,))
    B = level_set(sp, 2, (7,))
    n = wde_probe(sp, A, B, sp.height(3))
    assert n is not None
    assert intersection_measure(sp, A, A, n) > 0
    assert intersection_measure(sp, A, B, n) > 0


def test_koopman_decay_check():
    ko = gallery.koopman()
    B = level_set(ko, 1, (0,))
    ks = [ko.height(3), ko.height(3) + 12, ko.height(4) - 6]
    rep = koopman_decay_check(ko, B, ks)
    assert rep.verdict == "satisfied"
    assert all(row["ratio"] < row["bound"] for row in rep.rows)


def test_koopman_decay_requires_family():
    sp = gallery.staircase()
    with pytest.raises(PreconditionError):
        koopman_decay_check(sp, level_set(sp, 1, (0,)), [10])


def test_koopman_decay_rejects_small_shifts():
    ko = gallery.koopman()
    with pytest.raises(ValueError):
        koopman_decay_check(ko, level_set(ko, 1, (0,)), [1])


def test_koopman_decay_needs_a_shift():
    ko = gallery.koopman()
    with pytest.raises(ValueError, match="^need at least one shift to check$"):
        koopman_decay_check(ko, level_set(ko, 1, (0,)), [])


def test_koopman_decay_refuses_a_fractional_shift():
    ko = gallery.koopman()
    k = ko.height(2) + 0.9  # was read as h_2
    with pytest.raises(TypeError, match=f"^shift must be an int, got {k}$"):
        koopman_decay_check(ko, level_set(ko, 1, (0,)), [ko.height(2), k])


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(args, message, id=f"{case}staircase_subset_detect")
        for case, args, message in [
            ("", ((0, 1.5, 3), 1), "height must be an int, got 1.5"),  # was read as (0, 1, 3)
            ("h-", ((0, 1, 3, 6), 1.5), "h must be an int, got 1.5"),  # gave (1, -0.5, 3)
            ("min_k-", ((0, 1, 3, 6), 1, -1.5), "min_k must be an int, got -1.5"),
        ]
    ],
)
def test_staircase_subset_detect_refuses_a_fractional_height(args, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        staircase_subset_detect(*args)


# -- integer arguments and exact powers -----------------------------------------

_STAIR = gallery.staircase()
_LEVEL = level_set(_STAIR, 1, (0,))

# Each integer argument of a certificate, measure or twin entry point: its
# name, its floor (None for a shift, which may be negative) and the entry
# called with the argument's value.
_GATED = {
    "rho_bound": ("k", 2, lambda v: rho_bound(_STAIR, 0, 2, v)),
    "cons_fraction_exact": ("k", 2, lambda v: cons_fraction_exact(_STAIR, 0, 2, v)),
    "conservativity_sufficient-k": ("k", 2, lambda v: conservativity_sufficient(_STAIR, v, 3)),
    "conservativity_sufficient": ("horizon", 1, lambda v: conservativity_sufficient(_STAIR, 2, v)),
    "nonconservativity_check-k": ("k", 2, lambda v: nonconservativity_check(_STAIR, v, 3)),
    "nonconservativity_check": ("horizon", 1, lambda v: nonconservativity_check(_STAIR, 2, v)),
    "nonergodicity_certificate": ("horizon", 1, lambda v: nonergodicity_certificate(_STAIR, 1, v)),
    "arithmetic_report": ("horizon", 1, lambda v: arithmetic_report(_STAIR, v)),
    "arithmetic_report-min_k": ("min_k", None, lambda v: arithmetic_report(_STAIR, 3, min_k=v)),
    "divisibility_gcd": ("horizon", 1, lambda v: divisibility_gcd(_STAIR, v)),
    "alpha_type_profile": ("k_max", 1, lambda v: alpha_type_profile(_STAIR, _LEVEL, v)),
    "brute_alpha_type_profile": ("k_max", 1, lambda v: brute_alpha_type_profile(_STAIR, _LEVEL, v)),
    "wde_probe": ("n_max", 1, lambda v: wde_probe(_STAIR, _LEVEL, _LEVEL, v)),
    "brute_wde_probe": ("n_max", 1, lambda v: brute_wde_probe(_STAIR, _LEVEL, _LEVEL, v)),
    "brute_tuple_fraction": ("k", 2, lambda v: brute_tuple_fraction(_STAIR, 0, 2, v)),
    "brute_shared_coordinate_fraction": (
        "k", 2, lambda v: brute_shared_coordinate_fraction(_STAIR, 0, 2, v)
    ),
    "monte_carlo_measure": ("samples", 1000, lambda v: monte_carlo_measure(_STAIR, _LEVEL, 1, v, 0)),
    "nonerg_pair_fraction": ("b", None, lambda v: nonerg_pair_fraction(_STAIR, 2, v)),
    "brute_nonerg_pair_fraction": ("b", None, lambda v: brute_nonerg_pair_fraction(_STAIR, 2, v)),
    "intersection_measure": ("k", None, lambda v: intersection_measure(_STAIR, _LEVEL, _LEVEL, v)),
    "translate_intersection_measure": (
        "k", None, lambda v: translate_intersection_measure(_STAIR, _LEVEL, v)
    ),
    "brute_intersection_measure": (
        "k", None, lambda v: brute_intersection_measure(_STAIR, _LEVEL, _LEVEL, v)
    ),
    "monte_carlo_measure-k": ("k", None, lambda v: monte_carlo_measure(_STAIR, _LEVEL, v, 1000, 0)),
    "apply_pointwise": ("k", None, lambda v: apply_pointwise(_STAIR, point(_STAIR, 2, 3, 0), v)),
    "lift_to": ("stage index", 0, lambda v: lift_to(_STAIR, point(_STAIR, 2, 3, 0), v)),
    "brute_apply_pointwise": (
        "stage index", 0, lambda v: brute_apply_pointwise(_STAIR, point(_STAIR, 2, 3, 0), 0, v)
    ),
    "least_valid_stage": ("k", None, lambda v: least_valid_stage(_STAIR, _LEVEL, v)),
    "overlap_counts": ("shift", None, lambda v: overlap_counts(_STAIR, _LEVEL, _LEVEL, 3, (0, v))),
    "overlap_total-lo": ("lo", None, lambda v: overlap_total(_STAIR, _LEVEL, _LEVEL, 3, v, 3)),
    "overlap_total-hi": ("hi", None, lambda v: overlap_total(_STAIR, _LEVEL, _LEVEL, 3, 0, v)),
    "descendant_count": ("copies", 0, lambda v: descendant_count(_STAIR, 0, 2, v)),
    "descendant_set": ("level", 0, lambda v: descendant_set(_STAIR, 0, 2, v)),
    "brute_descendants": ("level", 0, lambda v: brute_descendants(_STAIR, 0, 2, v)),
    "next_below": ("n", 1, lambda v: SplitMix64(1).next_below(v)),
    "SplitMix64": ("seed", None, lambda v: SplitMix64(v)),
    "gap_pair_count-r": ("r", 1, lambda v: gap_pair_count(v, 1)),
    "gap_pair_count-m": ("m", 1, lambda v: gap_pair_count(10, v)),  # gave 19.25 at 1.5
    "project_height": ("height", 0, lambda v: project_height(_STAIR, 2, v, 0)),
}


@pytest.mark.parametrize("name, floor, call", list(_GATED.values()), ids=list(_GATED))
def test_integer_arguments_pass_one_gate(name, floor, call):
    """Every integer argument goes through :func:`rankone.core._check_int`: a
    rational or a bool is refused by type, a value below the floor by value."""
    for bad in (1.5, Fraction(3, 2), True):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an int, got {bad!r}')}$"):
            call(bad)
    if floor is not None:
        with pytest.raises(ValueError, match=f"^{name} must be at least {floor}, got {floor - 1}$"):
            call(floor - 1)


_BUILT = gallery.staircase().materialize(4)
# Each stage-range entry and twin, called on the range i..j of a built spec.
_RANGES = {
    "descendant_set": lambda i, j: descendant_set(_BUILT, i, j),
    "brute_descendants": lambda i, j: brute_descendants(_BUILT, i, j),  # gave (0, 3, 7) at i=True
    "rho_bound": lambda i, j: rho_bound(_BUILT, i, j, 3),
    "brute_shared_coordinate_fraction": (  # gave 1/2 at i=True
        lambda i, j: brute_shared_coordinate_fraction(_BUILT, i, j, 3)
    ),
    "project_height": lambda i, j: project_height(_BUILT, j, 0, i),  # n..stage; gave 0 at j=True
    "lift_to": lambda i, j: lift_to(_BUILT, point(_BUILT, i, 0, 0), j),  # p.stage..n
}
_BAD_RANGES = {
    "i-bool": (True, 3, TypeError, "stage index must be an int, got True"),
    "i-float": (1.0, 3, TypeError, "stage index must be an int, got 1.0"),
    "i-negative": (-1, 3, ValueError, "stage index must be at least 0, got -1"),
    "i-past-max_stage": (70, 1, ValueError, "stage range 70..1 is reversed"),  # before any build
    "j-bool": (0, True, TypeError, "stage index must be an int, got True"),
    "j-float": (0, 2.0, TypeError, "stage index must be an int, got 2.0"),
    "j-negative": (0, -2, ValueError, "stage index must be at least 0, got -2"),
    "reversed": (3, 1, ValueError, "stage range 3..1 is reversed"),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in _RANGES
        for case in _BAD_RANGES
        if not (entry == "lift_to" and case.startswith("i-"))  # a Point checks its own stage
    ],
)
def test_a_stage_range_passes_one_gate(entry, case):
    """Every stage-range entry, and its twin, refuses a bad range through
    :func:`rankone.core._check_stages`, with one message, on built stages too."""
    i, j, error, message = _BAD_RANGES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _RANGES[entry](i, j)


def test_a_height_past_its_column_has_no_projection():
    # h = 100 projected to None and h = -1 to -9, where h_2 = 12
    with pytest.raises(ValueError, match=r"^height 12 is not a level of C_2 \(h_2=12\)$"):
        project_height(_STAIR, 2, 12, 0)
    assert project_height(_STAIR, 2, 11, 0) is None  # the top spacer of C_2


# Each fast path that reads a level set, and its twin, on a set past its
# column: C_0 of the staircase has the one level 0.
_BAD = LevelSet(0, (5,))
_KOOP = gallery.koopman()
_PAST_COLUMN = {
    "measure": lambda B: measure(_STAIR, B),
    "refine": lambda B: refine(_STAIR, B, 2),
    "refine-same-stage": lambda B: refine(_STAIR, B, 0),
    "point_in": lambda B: point_in(_STAIR, point(_STAIR, 0, 0, 0), B),
    "least_valid_stage": lambda B: least_valid_stage(_STAIR, B, 0),
    "overlap_counts": lambda B: overlap_counts(_STAIR, _LEVEL, B, 3, (1,)),
    "overlap_total": lambda B: overlap_total(_STAIR, B, _LEVEL, 3, 1, 1),
    "translate_intersection_measure": lambda B: translate_intersection_measure(_STAIR, B, 0),
    "intersection_measure": lambda B: intersection_measure(_STAIR, B, B, 1),
    "intersection_measure-B": lambda B: intersection_measure(_STAIR, _LEVEL, B, 1),
    "brute_intersection_measure": lambda B: brute_intersection_measure(_STAIR, B, B, 1),
    "brute_intersection_measure-B": lambda B: brute_intersection_measure(_STAIR, _LEVEL, B, 1),
    "monte_carlo_measure": lambda B: monte_carlo_measure(_STAIR, B, 0, 1000, 0),
    "alpha_type_profile": lambda B: alpha_type_profile(_STAIR, B, 3),
    "brute_alpha_type_profile": lambda B: brute_alpha_type_profile(_STAIR, B, 3),
    "wde_probe": lambda B: wde_probe(_STAIR, B, B, 5),
    "wde_probe-B": lambda B: wde_probe(_STAIR, _LEVEL, B, 1),  # no self pair; was None
    "brute_wde_probe": lambda B: brute_wde_probe(_STAIR, B, B, 5),
    "brute_wde_probe-B": lambda B: brute_wde_probe(_STAIR, _LEVEL, B, 1),
    "koopman_decay_check": lambda B: koopman_decay_check(_KOOP, B, [_KOOP.height(1)]),
}


@pytest.mark.parametrize("call", list(_PAST_COLUMN.values()), ids=list(_PAST_COLUMN))
def test_level_sets_past_their_column_are_refused_alike(call):
    """Translated measures answered 1 and 1/2, and profiles and probes their
    values, where the twins refused."""
    with pytest.raises(ValueError, match=r"^height 5 is not a level of C_0 \(h_0=1\)$"):
        call(_BAD)


# Each routine that reads a point, and its twin, on a point past its column:
# a height past ``C_0`` (one level) or an offset past ``w_1 = 1/2``.
_GOOD = Point(2, 3, 0)
_POINT_PAST_COLUMN = {
    "point": lambda p: point(_STAIR, *p),
    "lift_to": lambda p: lift_to(_STAIR, p, 3),  # an IndexError for the offset
    "point_eq": lambda p: point_eq(_STAIR, p, _GOOD),
    "point_eq-q": lambda p: point_eq(_STAIR, _GOOD, p),
    "point_in": lambda p: point_in(_STAIR, p, _LEVEL),
    "brute_apply_pointwise": lambda p: brute_apply_pointwise(_STAIR, p, 0),  # was Point(2, 5, 0)
    "stepwise_orbit_check": lambda p: stepwise_orbit_check(_STAIR, p, 1),
}
# Readers of a point that do not check it, each with its reason.
_TRUSTS_ITS_POINT = {"apply_pointwise": "the per-map path: a check there cost a map 25%"}


@pytest.mark.parametrize("call", list(_POINT_PAST_COLUMN.values()), ids=list(_POINT_PAST_COLUMN))
@pytest.mark.parametrize(
    "bad, message",
    [
        (Point(0, 5, 0), r"^height 5 is not a level of C_0 \(h_0=1\)$"),
        (Point(1, 0, Fraction(5, 6)), r"^offset 5/6 out of range for C_1 \(w=1/2\)$"),
    ],
    ids=["height", "offset"],
)
def test_points_past_their_column_are_refused_alike(call, bad, message):
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize(
    "kind, table",
    [("LevelSet", _PAST_COLUMN), ("Point", {**_POINT_PAST_COLUMN, **_TRUSTS_ITS_POINT})],
    ids=["set", "point"],
)
def test_every_reader_of_a_level_set_or_point_is_tabled(kind, table):
    """Each public function of ``core``, ``tower``, ``analysis`` and ``oracle``
    with a parameter annotated ``kind`` has an entry in ``table``; the
    annotations are strings, each module importing ``annotations``."""
    tabled = {name.split("-")[0] for name in table}
    readers = {
        name
        for module in (core, tower, analysis, oracle)
        for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
        if any(q.annotation == kind for q in inspect.signature(f).parameters.values())
    }
    assert readers and readers - tabled == set()


# Each rational argument of a certificate or twin: its name and the entry
# called with the argument's value.
_EXACT = {
    "conservativity_sufficient": (
        "threshold", lambda v: conservativity_sufficient(_STAIR, 2, 3, v)
    ),
    "nonconservativity_check": ("floor", lambda v: nonconservativity_check(_STAIR, 2, 3, v)),
    "alpha_type_profile": ("threshold", lambda v: alpha_type_profile(_STAIR, _LEVEL, 3, v)),
    "brute_alpha_type_profile": (
        "threshold", lambda v: brute_alpha_type_profile(_STAIR, _LEVEL, 3, v)
    ),
    "arithmetic_report": ("tau", lambda v: arithmetic_report(_STAIR, 3, v)),
}


@pytest.mark.parametrize("name, call", list(_EXACT.values()), ids=list(_EXACT))
def test_rational_arguments_pass_one_gate(name, call):
    """A float or a bool is refused by type, where a threshold of 0.001 was
    read as 1152921504606847/1152921504606846976; a string is parsed exactly,
    but not ``1/0`` (a bare ``ZeroDivisionError``) or ``1e-5000``, whose power
    of ten ``Fraction`` built in full."""
    for bad in (0.001, True):
        kind = type(bad).__name__
        with pytest.raises(TypeError, match=f"^{name} must be exact, not a {kind}, got {bad!r}$"):
            call(bad)
    assert call("1/1000") == call(Fraction(1, 1000))
    for bad in ("1/0", "1e-5000"):
        with pytest.raises(ValueError, match=f"^{name} .*, got {bad!r}$"):
            call(bad)


def test_a_fractional_shift_certifies_nothing():
    # b = 1.5 was read as a shift that realigns no pair, and refuted ergodicity
    sp = explicit_spec([(3, (0, 5, 9)), (2, (1, 40))], cycle=True)
    rep = nonergodicity_certificate(sp, 1, 3)
    assert rep.verdict == "inconclusive-at-horizon"
    assert [row["fraction"] for row in rep.rows] == [Fraction(2, 3), Fraction(2, 3), Fraction(58, 81)]
    with pytest.raises(TypeError, match=r"^b must be an int, got 1\.5$"):
        nonergodicity_certificate(sp, 1.5, 3)
    # the measures returned 0, and the map a point at height 10.5
    for call in (
        lambda: translate_intersection_measure(_STAIR, _LEVEL, 7.5),
        lambda: monte_carlo_measure(_STAIR, _LEVEL, 7.5, 1000, 0),
        lambda: apply_pointwise(_STAIR, point(_STAIR, 2, 3, 0), 7.5),
    ):
        with pytest.raises(TypeError, match=r"^k must be an int, got 7\.5$"):
            call()


# r_0 = 2 has 2 bits and |D| = r_0 r_1 = 6 has 3
_R0 = "r_0**999999 of up to 1999998"
_D = "|D|**1000000 of up to 3000000"


@pytest.mark.parametrize(
    "call, refusal",
    [
        pytest.param(lambda k: rho_bound(_STAIR, 0, 2, k), _R0, id="rho_bound"),
        pytest.param(lambda k: conservativity_sufficient(_STAIR, k, 3), _R0, id="conservativity_sufficient"),
        pytest.param(
            lambda k: nonconservativity_check(_STAIR, k, 3), "r_0**1000000 of up to 2000000",
            id="nonconservativity_check",
        ),
        pytest.param(lambda k: cons_fraction_exact(_STAIR, 0, 2, k), _D, id="cons_fraction_exact"),
        pytest.param(lambda k: brute_tuple_fraction(_STAIR, 0, 2, k), _D, id="brute_tuple_fraction"),
        pytest.param(
            lambda k: brute_shared_coordinate_fraction(_STAIR, 0, 2, k), _D,
            id="brute_shared_coordinate_fraction",
        ),
    ],
)
def test_exact_powers_are_refused_by_their_bits_before_they_are_formed(call, refusal):
    with pytest.raises(BudgetExceeded) as stop:
        call(10**6)
    assert str(stop.value) == f"{refusal} bits exceeds max_height_bits=100000"


def test_koopman_decay_check_walks_only_near_its_shifts():
    """200 shifts over the wide window ``[h_5, h_6)`` share one stage; each
    partial sum of that walk is kept only near some shift.  Walked as the
    whole window from the least shift to the greatest, the peak was about
    40 MB; pruned, about 0.1 MB."""
    ko = gallery.koopman()
    B = level_set(ko, 1, (0,))
    rng = random.Random(5)
    ks = [rng.randrange(ko.height(5), ko.height(6)) for _ in range(200)]
    tracemalloc.start()
    try:
        rep = koopman_decay_check(ko, B, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "satisfied"
    assert peak < 1_000_000


def test_koopman_decay_check_refuses_a_far_shift():
    """The stage clearing ``10**22`` holds more descendants than the budget
    allows, and the check refuses it before any shift is counted."""
    ko = gallery.koopman()
    B = level_set(ko, 1, (0,))
    refusal = r"^1814400\+ descendants exceeds max_descendants=200000$"
    with pytest.raises(BudgetExceeded, match=refusal):
        koopman_decay_check(ko, B, [ko.height(3), 10**22])

@st.composite
def decay_inputs(draw):
    """A koopman spec under a small random cap, 1-4 levels of ``C_1`` or
    ``C_2``, and 2-30 shifts in ``[h_1, h_5)``, one of them repeated, from
    windows ``[h_w, h_{w+1})`` drawn so that their least valid stages differ.
    A shift is often a copy height of ``H_w``, where the overlap peaks: under
    ``max_r=2``, ``2 h_4`` returns half of a set, which meets the bound
    ``2/4`` and refutes the check."""
    spec = gallery.koopman(gallery.Caps(max_r=draw(st.one_of(st.integers(2, 8), st.just(64)))))
    stage = draw(st.integers(1, 2))
    levels = draw(st.lists(st.integers(0, spec.height(stage) - 1), min_size=1, max_size=4))
    B = level_set(spec, stage, levels)

    def shift(w):
        copy = st.sampled_from(spec.height_set(w)[1:])  # each in [h_w, h_{w+1})
        return draw(st.one_of(st.integers(spec.height(w), spec.height(w + 1) - 1), copy))

    ks = [shift(1), shift(4)]
    ks += [shift(draw(st.integers(1, 4))) for _ in range(draw(st.integers(0, 27)))]
    ks.append(draw(st.sampled_from(ks)))
    return spec, B, draw(st.permutations(ks))


@settings(max_examples=20, deadline=None)
@given(inputs=decay_inputs())
def test_koopman_decay_check_walks_once(inputs):
    """Shifts spanning two least valid stages are all counted in one walk, at
    the stage valid for the largest."""
    spec, B, ks = inputs
    stages = []

    def counted(spec, A, B, n, ks):
        stages.append(n)
        return overlap_counts(spec, A, B, n, ks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "overlap_counts", counted)
        koopman_decay_check(spec, B, ks)
    assert stages == [least_valid_stage(spec, B, max(ks))]


@settings(max_examples=40, deadline=None)
@given(inputs=decay_inputs())
def test_koopman_decay_check_matches_per_shift_measures(inputs):
    """Each row against ``mu(T^k B meets B) / mu(B)`` measured shift by shift,
    and by set lookups where the refined set is small."""
    spec, B, ks = inputs
    rep = koopman_decay_check(spec, B, ks)
    assert [row["k"] for row in rep.rows] == sorted(set(ks))
    assert len({least_valid_stage(spec, B, k) for k in ks}) >= 2
    mu = measure(spec, B)
    for row in rep.rows:
        k = row["k"]
        n = max(w for w in range(1, 6) if spec.height(w) <= k)
        exact = translate_intersection_measure(spec, B, k)
        assert exact == brute_intersection_measure(spec, B, B, k)
        assert row["window"] == n
        assert row["bound"] == Fraction(2, n)
        assert row["ratio"] == exact / mu
        assert row["ok"] == (exact / mu < Fraction(2, n))
    violations = sum(1 for row in rep.rows if not row["ok"])
    assert rep.summary["violations"] == violations
    assert rep.verdict == ("refuted" if violations else "satisfied")
    assert rep.horizon == len(set(ks))

"""Certificate computations: counting formulas, verdicts, profiles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import gallery
from rankone.analysis import (
    AlphaProfile,
    CertificateReport,
    alpha_type_profile,
    arithmetic_report,
    cons_fraction_exact,
    conservativity_sufficient,
    divisibility_gcd,
    gap_pair_count,
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
    explicit_spec,
)
from rankone.oracle import (
    brute_shared_coordinate_fraction,
    brute_staircase_subset_detect,
    brute_tuple_fraction,
)
from rankone.tower import level_set

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


def test_noncons_refutes_on_fast_doubling():
    z = [3, 13, 110, 1626, 50132, 3191142, 408388556, 104552444694,
         53531662608812, 54816632339894742]
    r = [2 ** (n + 1) for n in range(10)]
    sp = gallery.high_staircase(r, z)
    rep = nonconservativity_check(sp, 2, 10)
    assert rep.verdict == "refuted-conservativity"
    assert rep.summary["all_separated"] is True
    assert rep.summary["product"] == Fraction(1, 2)
    # the very first stage (r=2, one wide pair out of four) halves the
    # count; every later stage is fully separated with factor 1
    assert rep.rows[0]["factor"] == Fraction(1, 2)
    assert all(row["factor"] == 1 for row in rep.rows[1:])


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


@st.composite
def run_sets(draw):
    """An unsorted height set with repeats and ``h >= 0``, often holding planted runs."""
    h = draw(st.integers(0, 6))
    H = draw(st.lists(st.integers(0, 80), max_size=14))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.integers(0, 40))
        k = draw(st.integers(-h, 3))  # the first step h + k + 1 stays positive
        for m in range(draw(st.integers(2, 7))):
            H.append(x)
            x += h + k + m + 1
    if H:
        H += draw(st.lists(st.sampled_from(H), max_size=4))
    return draw(st.permutations(H)), h


@settings(max_examples=300, deadline=None)
@given(case=run_sets(), min_k=st.integers(-4, 2))
def test_staircase_subset_detect_matches_twin(case, min_k):
    H, h = case
    assert staircase_subset_detect(H, h, min_k) == brute_staircase_subset_detect(H, h, min_k)


def test_staircase_subset_detect_matches_twin_on_staircase_stages():
    spec = gallery.staircase()
    for n in range(60):
        H, h = spec.height_set(n), spec.height(n)
        assert staircase_subset_detect(H, h) == brute_staircase_subset_detect(H, h)


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


def test_arithmetic_report_scale_canary():
    # 150 staircase stages, each height set one whole run, which the search
    # finds from its first pair; a scan of every pair costs |H|^2 per stage
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
    with pytest.raises(ValueError, match=r"^need n_max >= 1, got 0$"):
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

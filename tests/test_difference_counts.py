"""Difference counts of descendant sets against explicit pair enumeration.

``core.difference_counts`` convolves per-stage difference multisets instead
of listing pairs.  It is checked here against a plain ``Counter`` of pair
differences over sets unfolded by ``oracle.brute_descendants``, and every
certificate routine built on it is checked against its ``oracle.brute_*``
twin, both for the value and for raising :class:`BudgetExceeded` on the
same inputs under small random budgets.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankone import analysis, gallery, oracle, tower
from rankone.core import (
    Budget,
    BudgetExceeded,
    descendant_count,
    difference_counts,
    explicit_spec,
)

from conftest import product_of_cuts, stage_lists


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceeded:
        return BudgetExceeded


@st.composite
def budgeted_specs(draw):
    """A cycled explicit tower under a small random budget.

    Limits are often tiny, so that a count landing just over or under a
    limit is common.  The last subcolumn of a stage usually gets spacers,
    so that the least stage clearing a shift exists.
    """
    stages = [
        (r, spacers[:-1] + (spacers[-1] + draw(st.integers(0, 3)),))
        for r, spacers in draw(stage_lists(max_stages=3, max_r=4))
    ]
    budget = Budget(
        max_stage=draw(st.integers(1, 16)),
        max_descendants=draw(st.one_of(st.integers(4, 40), st.integers(4, 1000))),
        max_pairs=draw(st.one_of(st.integers(1, 200), st.integers(1, 30_000))),
    )
    return explicit_spec(stages, cycle=True, budget=budget)


@st.composite
def level_sets(draw, spec, max_stage=3):
    """Levels of one of the first columns, read off an unbudgeted copy of ``spec``."""
    stage = draw(st.integers(0, max_stage))
    free = explicit_spec(spec.params["stages"], cycle=True)
    h = free.height(stage)
    heights = draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=4))
    return tower.level_set(free, stage, heights)


@settings(max_examples=80, deadline=None)
@given(stages=stage_lists(max_stages=3, max_r=4), data=st.data())
def test_difference_counts_match_pair_counts(stages, data):
    spec = explicit_spec(stages)
    top = len(stages)
    i = data.draw(st.integers(0, top))
    n = data.draw(st.integers(i, top))
    D = oracle.brute_descendants(spec, i, n, 0)
    ref = Counter(y - x for x in D for y in D)
    assert difference_counts(spec, i, n) == ref
    span = spec.height(n)
    lo = data.draw(st.integers(-span - 2, span + 2))
    hi = data.draw(st.integers(-span - 2, span + 2))  # lo > hi is an empty window
    window = Counter({t: c for t, c in ref.items() if lo <= t <= hi})
    assert difference_counts(spec, i, n, lo, hi) == window


def test_difference_counts_needs_both_window_ends():
    spec = explicit_spec([(3, (0, 1, 2))])
    with pytest.raises(ValueError):
        difference_counts(spec, 0, 1, lo=1)


@settings(max_examples=60, deadline=None)
@given(
    stages=stage_lists(max_stages=3, max_r=4),
    limit=st.integers(4, 300),  # at least every cut count, so stages materialize
    copies=st.integers(1, 5),
    data=st.data(),
)
def test_descendant_count_is_the_descendant_budget(stages, limit, copies, data):
    i = data.draw(st.integers(0, 3))
    j = data.draw(st.integers(i, 6))
    size = copies * product_of_cuts(explicit_spec(stages, cycle=True), i, j)
    spec = explicit_spec(stages, cycle=True, budget=Budget(max_descendants=limit))
    got = _outcome(descendant_count, spec, i, j, copies)
    assert got == (BudgetExceeded if j > i and size > limit else size)


@settings(max_examples=60, deadline=None)
@given(spec=budgeted_specs(), n=st.integers(0, 5), b=st.integers(-30, 30))
def test_nonerg_pair_fraction_matches_twin(spec, n, b):
    assert _outcome(analysis.nonerg_pair_fraction, spec, n, b) == _outcome(
        oracle.brute_nonerg_pair_fraction, spec, n, b
    )


@settings(max_examples=100, deadline=None)
@given(spec=budgeted_specs(), k=st.integers(2, 3), data=st.data())
def test_cons_fraction_matches_twin(spec, k, data):
    i = data.draw(st.integers(0, 2))
    j = data.draw(st.integers(i, i + 2))
    assert _outcome(analysis.cons_fraction_exact, spec, i, j, k) == _outcome(
        oracle.brute_cons_fraction, spec, i, j, k
    )


@settings(max_examples=60, deadline=None)
@given(spec=budgeted_specs(), n=st.integers(0, 5))
def test_rigidity_scan_matches_twin(spec, n):
    assert _outcome(analysis.rigidity_scan, spec, n) == _outcome(
        oracle.brute_rigidity_scan, spec, n
    )


@settings(max_examples=120, deadline=None)
@given(
    spec=budgeted_specs(),
    k_max=st.integers(1, 60),
    threshold=st.one_of(
        st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(1, 2)]),
        st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=12),
    ),
    store_ratios=st.booleans(),
    data=st.data(),
)
def test_alpha_type_profile_matches_twin(spec, k_max, threshold, store_ratios, data):
    B = data.draw(level_sets(spec))
    args = (spec, B, k_max, threshold)
    assert _outcome(
        analysis.alpha_type_profile, *args, store_ratios=store_ratios
    ) == _outcome(oracle.brute_alpha_type_profile, *args, store_ratios=store_ratios)


@settings(max_examples=120, deadline=None)
@given(spec=budgeted_specs(), n_max=st.integers(-1, 80), data=st.data())
def test_wde_probe_matches_twin(spec, n_max, data):
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    assert _outcome(analysis.wde_probe, spec, A, B, n_max) == _outcome(
        oracle.brute_wde_probe, spec, A, B, n_max
    )


@settings(max_examples=100, deadline=None)
@given(spec=budgeted_specs(), data=st.data())
def test_overlap_counts_and_total_match_pair_counts(spec, data):
    """Both against pairs listed over the refined sets, and both refusing the
    same descendant budgets."""
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    n = data.draw(st.integers(max(A.stage, B.stage), 5))
    free = explicit_spec(spec.params["stages"], cycle=True)
    for X in (A, B):
        assume(len(X.heights) * product_of_cuts(free, X.stage, n) <= 400)
    span = free.height(n)
    lo = data.draw(st.integers(-span - 2, span + 2))
    hi = data.draw(st.integers(-span - 2, span + 2))  # lo > hi is an empty window
    counts = _outcome(tower.overlap_counts, spec, A, B, n, lo, hi)
    total = _outcome(tower.overlap_total, spec, A, B, n, lo, hi)
    if counts is BudgetExceeded:
        assert total is BudgetExceeded
        return
    DA, DB = tower.refine(free, A, n).heights, tower.refine(free, B, n).heights
    ref = Counter(y - x for x in DA for y in DB if lo <= y - x <= hi)
    assert counts == ref
    assert total == sum(ref.values())


def test_overlap_total_at_the_common_stage_builds_no_stage():
    """With ``n`` the common stage there is nothing to convolve, so a budget
    that cannot build that stage does not refuse the count."""
    spec = explicit_spec([(2, (1, 1))], cycle=True, budget=Budget(max_stage=1))
    A = tower.LevelSet(3, (0,))
    assert tower.overlap_counts(spec, A, A, 3, 0, 0) == Counter({0: 1})
    assert tower.overlap_total(spec, A, A, 3, 0, 0) == 1


@settings(max_examples=80, deadline=None)
@given(
    spec=budgeted_specs(),
    n_max=st.integers(1, 40),
    slack=st.sampled_from([-1, 0]),
    data=st.data(),
)
def test_wde_pair_budget_is_the_walked_pair_count(spec, n_max, slack, data):
    """With ``max_pairs`` just below or at the pairs the window walk touches,
    self pairs then cross pairs, exactly the first budget refuses."""
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    stages = spec.params["stages"]
    free = explicit_spec(stages, cycle=True)
    try:
        s = max(A.stage, B.stage, tower.least_valid_stage(free, A, n_max))
    except BudgetExceeded:  # no spacers: no column ever clears the shift
        assume(False)
    for X in (A, B):
        assume(len(X.heights) * product_of_cuts(free, X.stage, s) <= 400)
    DA, DB = tower.refine(free, A, s).heights, tower.refine(free, B, s).heights
    own = sum(1 for x in DA for y in DA if 0 < y - x <= n_max)
    cross = sum(1 for x in DA for y in DB if 0 < y - x <= n_max)
    pairs = own + cross if own else 0
    assume(pairs + slack >= 1)
    budgeted = explicit_spec(stages, cycle=True, budget=Budget(max_pairs=pairs + slack))
    got = _outcome(analysis.wde_probe, budgeted, A, B, n_max)
    assert got == _outcome(oracle.brute_wde_probe, budgeted, A, B, n_max)
    assert (got is BudgetExceeded) == (slack < 0)


@pytest.mark.parametrize("probe", [analysis.wde_probe, oracle.brute_wde_probe])
def test_wde_probe_reads_a_set_the_same_at_any_stage(probe):
    """Level 0 of ``C_0`` and its descendants in ``C_2`` are one set, so both
    are probed at the same stage: each set's levels are counted at the
    stage the two sets share, however the set is written."""
    spec = gallery.staircase()
    B = tower.level_set(spec, 2, (7,))
    A0 = tower.base_level(spec, 0)
    A2 = tower.refine(spec, A0, 2)
    assert A2.heights == (0, 1, 3, 4, 7, 8)
    assert probe(spec, A0, B, 54) == probe(spec, A2, B, 54) == 3


@pytest.mark.filterwarnings("ignore::rankone.core.CapsMakeConstructionUnfaithful")
def test_wde_probe_refuses_before_counting_differences(monkeypatch):
    """The differences of ``main_wde`` almost never collide, so its counts hold
    about one key per window pair: over the pair budget, none may be built."""
    spec = gallery.main_wde(budget=Budget(max_pairs=1000))
    A = tower.base_level(spec, 0)
    n_max = spec.height(3)  # millions of window pairs at the probed stage
    assert _outcome(oracle.brute_wde_probe, spec, A, A, n_max) is BudgetExceeded

    def refuse(*args):
        pytest.fail("differences counted past the pair budget")

    monkeypatch.setattr(analysis, "overlap_counts", refuse)
    with pytest.raises(BudgetExceeded, match="window pairs exceeds max_pairs=1000"):
        analysis.wde_probe(spec, A, A, n_max)


@settings(max_examples=80, deadline=None)
@given(spec=budgeted_specs(), k=st.integers(-40, 40), data=st.data())
def test_intersection_measures_match_twin(spec, k, data):
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    assert _outcome(tower.translate_intersection_measure, spec, B, k) == _outcome(
        oracle.brute_intersection_measure, spec, B, B, k
    )
    assert _outcome(tower.intersection_measure, spec, A, B, k) == _outcome(
        oracle.brute_intersection_measure, spec, A, B, k
    )


@given(stages=stage_lists(), n=st.integers(0, 3))
def test_height_differences_are_built_once_and_read_only(stages, n):
    spec = explicit_spec(stages, cycle=True)
    diffs = spec.height_differences(n)
    shifts, counts = diffs
    H = spec.height_set(n)
    assert list(shifts) == sorted(shifts)
    assert dict(zip(shifts, counts)) == Counter(y - x for x in H for y in H if y >= x)
    assert spec.height_differences(n) is diffs
    with pytest.raises(TypeError):
        counts[0] = 0

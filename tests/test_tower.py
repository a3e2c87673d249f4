"""Level sets, points, refinement, and exact overlap measures."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankone import gallery, tower
from rankone.core import BudgetExceeded, RankOneSpec, explicit_spec
from rankone.oracle import brute_descendants
from rankone.tower import (
    LevelSet,
    Point,
    apply_pointwise,
    intersection_measure,
    least_valid_stage,
    level_set,
    lift_to,
    measure,
    point,
    point_eq,
    point_in,
    project_height,
    refine,
    translate_intersection_measure,
)

from conftest import small_specs, stage_lists

TRIPLE = [(3, (0, 1, 2)), (3, (0, 1, 2)), (3, (0, 1, 2))]


@pytest.fixture
def sp():
    return explicit_spec(TRIPLE)


def test_level_set_validation(sp):
    with pytest.raises(ValueError):
        level_set(sp, 1, ())
    with pytest.raises(ValueError):
        level_set(sp, 1, (0, 6))  # h_1 = 6, top height is 5
    with pytest.raises(ValueError):
        LevelSet(1, (3, 1))  # raw constructor wants sorted heights
    with pytest.raises(ValueError):
        LevelSet(1, (-1, 0))
    # the checked constructor sorts and dedups for you
    B = level_set(sp, 1, (5, 2, 0, 2))
    assert B.stage == 1 and B.heights == (0, 2, 5)


def test_measure(sp):
    assert measure(sp, level_set(sp, 0, (0,))) == 1
    assert measure(sp, level_set(sp, 1, (0,))) == Fraction(1, 3)
    assert measure(sp, level_set(sp, 1, (0, 1, 2))) == 1
    assert measure(sp, level_set(sp, 2, (7,))) == Fraction(1, 9)


def test_refine_cardinality_and_measure(sp):
    B = level_set(sp, 1, (0, 5))
    R = refine(sp, B, 3)
    assert R.stage == 3
    assert len(R.heights) == 2 * 3 * 3
    assert measure(sp, R) == measure(sp, B)
    # refined heights are exactly the union of per-level descendant shifts
    assert set(R.heights) >= {0 + h for h in sp.height_set(1)}


def test_refine_identity_and_errors(sp):
    B = level_set(sp, 1, (0,))
    assert refine(sp, B, 1) is B
    with pytest.raises(ValueError):
        refine(sp, B, 0)


def test_refine_multilevel_no_late_binding(sp):
    # descendants of distinct levels interleave; a collapsed stream loses them
    B = level_set(sp, 1, (0, 3))
    R = refine(sp, B, 2)
    assert R.heights == (0, 3, 6, 9, 13, 16)


def test_point_constructor_coerces_the_offset():
    # the map returns an unlifted point's offset as it is, so it must be a Fraction
    x = Point(0, 0, 0).offset
    assert x == Fraction(0) and type(x) is Fraction


def test_level_sets_are_exact_where_they_enter():
    sp = gallery.staircase()
    with pytest.raises(TypeError, match="^height must be an int, got True$"):
        level_set(sp, 2, (2.7, True))  # was read as heights (1, 2)
    with pytest.raises(TypeError, match="^height must be an int, got 2.7$"):
        LevelSet(2, (2.7,))
    with pytest.raises(TypeError, match="^stage index must be an int, got 1.0$"):
        LevelSet(1.0, (0,))
    with pytest.raises(ValueError, match="^stage index must be at least 0, got -1$"):
        LevelSet(-1, (0,))  # a stage reads as a stage index wherever it enters
    raw = LevelSet(1, (0, 1, 2, 50))  # C_1 has 3 levels
    with pytest.raises(ValueError, match=r"^height 50 is not a level of C_1 \(h_1=3\)$"):
        measure(sp, raw)  # was 2
    for n in (2, 1):  # the identity was returned unchecked
        with pytest.raises(ValueError, match=r"^height 50 is not a level of C_1 \(h_1=3\)$"):
            refine(sp, raw, n)


def test_points_are_exact_where_they_enter():
    sp = gallery.staircase()
    with pytest.raises(TypeError, match="^height must be an int, got 0.5$"):
        Point(0, 0.5, 0)
    with pytest.raises(TypeError, match="^stage index must be an int, got True$"):
        Point(True, 0, 0)
    with pytest.raises(TypeError, match="^offset must be exact, not a float"):
        Point(1, 0, 0.25)
    with pytest.raises(ValueError, match="^offset must be nonnegative, got -1/4$"):
        Point(1, 0, "-1/4")
    with pytest.raises(TypeError, match="^offset must be exact, not a float"):
        point(sp, 1, 0, 0.1)  # was kept as a 55-bit dyadic
    assert point(sp, 1, 0, "1/10") == point(sp, 1, 0, Fraction(1, 10)) == Point(1, 0, "1/10")
    assert point(sp, 1, 0, 0).offset == 0


@settings(max_examples=60, deadline=None)
@given(stages=stage_lists(), data=st.data())
def test_unchecked_images_are_valid_points_and_level_sets(stages, data):
    """:func:`apply_pointwise` and :func:`refine` build their results unchecked;
    each is what the checked constructor gives."""
    spec = explicit_spec(stages, cycle=True)
    stage = data.draw(st.integers(0, 2))
    h = data.draw(st.integers(0, spec.height(stage) - 1))
    x = data.draw(st.integers(0, 96)) * spec.width(stage) / 97
    k = data.draw(st.integers(-2 * spec.height(stage), 2 * spec.height(stage)))
    try:
        q = apply_pointwise(spec, point(spec, stage, h, x), k)
    except BudgetExceeded:
        assume(False)
    assert point(spec, *q) == q and type(q.offset) is Fraction
    R = refine(spec, level_set(spec, stage, (h,)), stage + 2)
    assert level_set(spec, R.stage, R.heights) == R


def test_lift_walks_cuts(sp):
    # offset in the middle third of the base goes to the second cut copy
    p = point(sp, 0, 0, Fraction(1, 2))
    q = lift_to(sp, p, p.stage + 1)
    assert q.stage == 1
    assert q.height == sp.height_set(0)[1]
    assert q.offset == Fraction(1, 2) - Fraction(1, 3)


def test_lifted_maps_read_built_tables_without_accessor_calls(monkeypatch):
    spec = gallery.staircase()
    spec.height_set(6)  # builds h_0..h_7 and lists H_0..H_6
    h2, h4 = spec.height(2), spec.height(4)
    maps = [
        (point(spec, 2, h, spec.width(2) * Fraction(2 * h + 1, 2 * h2)), k)
        for h in range(h2)
        for k in (-h - 1, h4 - h, 7)
    ]
    calls = []
    for name in ("height", "height_set", "width_denominator"):
        method = getattr(RankOneSpec, name)
        counted = lambda self, n, name=name, method=method: calls.append(name) or method(self, n)
        monkeypatch.setattr(RankOneSpec, name, counted)
    stages = [apply_pointwise(spec, p, k).stage for p, k in maps]
    assert calls == [] and stages.count(2) < len(maps) // 2 and max(stages) <= 6


def test_lift_to_preserves_identity(sp):
    p = point(sp, 0, 0, Fraction(1, 7))
    q = lift_to(sp, p, 3)
    assert q.stage == 3
    assert point_eq(sp, p, q)


def test_point_eq_distinguishes(sp):
    a = point(sp, 1, 0, Fraction(1, 9))
    b = point(sp, 1, 0, Fraction(2, 9))
    assert not point_eq(sp, a, b)
    assert point_eq(sp, a, a)


def test_project_height(sp):
    # every stage-1 descendant of base projects back to base
    for d in sp.height_set(1):
        assert project_height(sp, 2, d, 1) == 0
    # a spacer level of C_2 projects to nothing in C_1
    spacer_found = False
    for h in range(sp.height(2)):
        if project_height(sp, 2, h, 1) is None:
            spacer_found = True
    assert spacer_found


def test_point_in(sp):
    B = level_set(sp, 1, (0,))
    p = point(sp, 2, sp.height_set(1)[2], Fraction(1, 100))
    assert point_in(sp, p, B)
    q = point(sp, 2, 1, Fraction(1, 100))
    assert not point_in(sp, q, B)


def test_apply_pointwise_small(sp):
    p = point(sp, 1, 0, Fraction(1, 100))
    q = apply_pointwise(sp, p, 3)
    assert q.height == 3 or q.stage > 1  # within column it is a plain shift
    r = apply_pointwise(sp, q, -3)
    assert point_eq(sp, p, r)


def test_apply_pointwise_budget():
    # a point at the very top edge needs ever deeper stages to move up
    sp2 = explicit_spec([(2, (0, 0))], cycle=True)
    top = point(sp2, 0, 0, Fraction(0))
    with pytest.raises(BudgetExceeded):
        apply_pointwise(sp2, top, -1)  # nothing below the base, ever


def test_least_valid_stage_monotone():
    sp = explicit_spec(TRIPLE, cycle=True)
    B = level_set(sp, 1, (0,))
    s1 = least_valid_stage(sp, B, 1)
    s2 = least_valid_stage(sp, B, 40)
    assert s1 <= s2
    assert sp.height(s2) > 40


def test_translate_intersection_frozen(sp):
    # base of C_0 inside the triple tower: D - D contains 1 twice, 2 once
    B = level_set(sp, 0, (0,))
    assert translate_intersection_measure(sp, B, 2) == Fraction(1, 3)
    assert translate_intersection_measure(sp, B, 0) == measure(sp, B)


def test_translate_symmetric():
    sp = explicit_spec(TRIPLE, cycle=True)
    B = level_set(sp, 1, (0, 2))
    for k in (1, 2, 5, 9):
        assert translate_intersection_measure(
            sp, B, k
        ) == translate_intersection_measure(sp, B, -k)


def test_intersection_measure_disjoint_levels(sp):
    A = level_set(sp, 1, (0,))
    B = level_set(sp, 1, (1,))
    assert intersection_measure(sp, A, B, 0) == 0
    # shifting A up one level lands exactly on B
    assert intersection_measure(sp, A, B, 1) == measure(sp, A)


def test_intersection_asymmetric_direction(sp):
    A = level_set(sp, 1, (0,))
    B = level_set(sp, 1, (3,))
    # the whole of A shifts up onto B
    assert intersection_measure(sp, A, B, 3) == measure(sp, A)
    # downward only the copies of A that sit above height 3 contribute:
    # descendants {0, 6, 13} shifted to {-3, 3, 10} meet {3, 9, 16} once
    assert intersection_measure(sp, A, B, -3) == Fraction(1, 9)


def test_intersection_measure_reads_each_distinct_set_once(sp, monkeypatch):
    # the clearing stage is read once per distinct set, not once per argument
    calls = []

    def counted(spec, B, k):
        calls.append(B)
        return least_valid_stage(spec, B, k)

    monkeypatch.setattr(tower, "least_valid_stage", counted)
    A = level_set(sp, 1, (0,))
    B = level_set(sp, 1, (3,))
    translate_intersection_measure(sp, A, 2)
    assert calls == [A]
    calls.clear()
    intersection_measure(sp, A, B, 3)
    assert sorted(calls, key=lambda X: X.heights) == [A, B]


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(max_stages=3), data=st.data())
def test_refine_preserves_measure(spec, data):
    top = len(spec.params["stages"])
    stage = data.draw(st.integers(0, top - 1))
    h = spec.height(stage)
    k = data.draw(st.integers(1, min(h, 5)))
    heights = tuple(sorted(data.draw(
        st.sets(st.integers(0, h - 1), min_size=k, max_size=k)
    )))
    B = level_set(spec, stage, heights)
    R = refine(spec, B, top)
    assert measure(spec, R) == measure(spec, B)
    assert len(R.heights) == len(set(R.heights))


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(max_stages=3), data=st.data())
def test_refine_matches_brute_unfolding(spec, data):
    top = len(spec.params["stages"])
    stage = data.draw(st.integers(0, top))
    n = data.draw(st.integers(stage, top))
    h = spec.height(stage)
    heights = data.draw(st.sets(st.integers(0, h - 1), min_size=min(h, 2), max_size=6))
    B = level_set(spec, stage, heights)
    union = set()
    for b in B.heights:
        union.update(brute_descendants(spec, stage, n, b))
    assert refine(spec, B, n).heights == tuple(sorted(union))


@settings(max_examples=30, deadline=None)
@given(stages=stage_lists(max_stages=2), data=st.data())
def test_translate_measure_is_shift_invariant(stages, data):
    # mu(T^k B cap B) computed forward equals backward; cycle the stage
    # list so a wrap-free stage exists.  The top gap h_n - maxD grows by
    # the LAST subcolumn's spacer count only, so that count must be
    # positive somewhere in the cycle or big shifts never fit
    assume(any(spacers[-1] > 0 for _, spacers in stages))
    spec = explicit_spec(stages, cycle=True)
    B = level_set(spec, len(stages), (0,))
    k = data.draw(st.integers(-8, 8))
    assert translate_intersection_measure(
        spec, B, k
    ) == translate_intersection_measure(spec, B, -k)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_apply_pointwise_composes(data):
    spec = gallery.staircase()
    h2 = spec.height(2)
    height = data.draw(st.integers(0, h2 - 1))
    # prime denominator: a refined offset can then never land exactly on
    # a subcolumn edge, whose backward orbit would lift without bound
    num = data.draw(st.integers(1, 126))
    p = point(spec, 2, height, Fraction(num, 127) * spec.width(2))
    j = data.draw(st.integers(-20, 20))
    k = data.draw(st.integers(-20, 20))
    q = apply_pointwise(spec, apply_pointwise(spec, p, j), k)
    r = apply_pointwise(spec, p, j + k)
    assert point_eq(spec, q, r)

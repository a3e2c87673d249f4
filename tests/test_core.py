"""Exact tower arithmetic: stage recurrences, sum sets, descendant sets."""

import pickle
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import gallery
from rankone.analysis import rho_bound
from rankone.core import (
    Budget,
    BudgetExceeded,
    PreconditionError,
    RankOneError,
    RankOneSpec,
    StageSpec,
    _exact,
    _tuple_product,
    descendant_count,
    descendant_set,
    explicit_spec,
    sum_is_direct,
    sum_set,
)
from rankone.gallery import Caps
from rankone.oracle import brute_descendants
from rankone.tower import LevelSet, Point, level_set, project_height, refine

from conftest import product_of_cuts, small_specs, stage_lists

TRIPLE = [(3, (0, 1, 2)), (3, (0, 1, 2))]


def test_exact_bounds_a_decimal_exponent_by_the_int_digit_limit():
    assert _exact("t", "1e-4300") == Fraction(1, 10**4300)
    assert _exact("t", "-2.5E+3") == -2500
    for bad in ("1e-5000", "1e5000", " 1e-4_301 "):
        with pytest.raises(ValueError, match=f"^t exponent exceeds 4300 .*, got {bad!r}$"):
            _exact("t", bad)
    with pytest.raises(ValueError, match="^t has a zero denominator, got '1/0'$"):
        _exact("t", "1/0")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit, as for int
    try:
        assert _exact("t", "1e-5000") == Fraction(1, 10**5000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_stage_spec_validation():
    with pytest.raises(ValueError):
        StageSpec(1, (0,))
    with pytest.raises(ValueError):
        StageSpec(2, (0,))  # needs r spacers
    with pytest.raises(ValueError):
        StageSpec(2, (0, -1))
    s = StageSpec(3, (0, 1, 2))
    assert s.r == 3 and s.spacers == (0, 1, 2)


@st.composite
def shaped_spacers(draw):
    """``(r, spacers)`` with ``r`` in 2..8 whose first ``r - 1`` spacers are a
    constant gap, a staircase run or anything, and whose last spacer is free."""
    r, s0 = draw(st.integers(2, 8)), draw(st.integers(0, 5))
    head = draw(
        st.sampled_from([[s0] * (r - 1), [*range(s0, s0 + r - 1)]])
        | st.lists(st.integers(0, 5), min_size=r - 1, max_size=r - 1)
    )
    return r, (*head, draw(st.integers(0, 9)))


@settings(max_examples=300)
@given(stage=shaped_spacers())
@example(stage=(2, (5, 40)))
def test_stage_shape_matches_a_brute_classification(stage):
    r, spacers = stage
    s0 = spacers[0]
    gap = s0 if all(spacers[i] == s0 for i in range(r - 1)) else None
    run = s0 if all(spacers[i] == s0 + i for i in range(r - 1)) else None
    s = StageSpec(r, spacers)
    assert s.shape == (gap, run)
    assert s._asdict() == {"r": r, "spacers": spacers}  # a property, not a field


def test_height_recurrence_small():
    sp = explicit_spec(TRIPLE)
    assert [sp.height(n) for n in range(3)] == [1, 6, 21]
    assert sp.width(0) == 1
    assert sp.width(1) == Fraction(1, 3)
    assert sp.width(2) == Fraction(1, 9)
    assert sp.width_denominator(2) == 9


def test_height_set_cardinality_and_order():
    sp = explicit_spec(TRIPLE)
    assert sp.height_set(0) == (0, 1, 3)
    assert sp.height_set(1) == (0, 6, 13)
    assert len(sp.height_set(0)) == sp.stage(0).r
    assert sp.max_descendant(1) == 3
    assert sp.max_descendant(2) == 16


def test_descendant_set_frozen_example():
    sp = explicit_spec(TRIPLE)
    assert descendant_set(sp, 0, 2) == (0, 1, 3, 6, 7, 9, 13, 14, 16)
    # shifting the start level shifts every descendant
    assert descendant_set(sp, 1, 2, 4) == tuple(
        4 + d for d in descendant_set(sp, 1, 2)
    )


def test_descendant_set_empty_range_is_base():
    sp = explicit_spec(TRIPLE)
    assert descendant_set(sp, 1, 1, 4) == (4,)


def test_descendant_base_must_be_an_int():
    sp = explicit_spec(TRIPLE)
    with pytest.raises(TypeError, match="^level must be an int, got 0.5$"):
        descendant_set(sp, 0, 2, 0.5)  # was (0.5, 1.5, ...)


def test_descendant_base_out_of_range():
    sp = explicit_spec(TRIPLE)
    with pytest.raises(ValueError):
        descendant_set(sp, 0, 1, 1)  # h_0 = 1, so only b = 0
    with pytest.raises(ValueError):
        descendant_set(sp, 1, 0)


def test_sum_set_known():
    assert sum_set((0, 1), (0, 10)) == (0, 1, 10, 11)
    assert sum_set((0, 1), (0, 1)) == (0, 1, 2)  # collision collapses
    assert sum_set((), (0, 1)) == ()


def test_sum_is_direct():
    assert sum_is_direct([(0, 2), (0, 1)])
    assert not sum_is_direct([(0, 1), (0, 1)])
    assert sum_is_direct([])


@given(
    a=st.lists(st.integers(0, 200), min_size=0, max_size=12, unique=True),
    b=st.lists(st.integers(0, 200), min_size=0, max_size=12, unique=True),
)
def test_sum_set_matches_brute(a, b):
    got = sum_set(tuple(sorted(a)), tuple(sorted(b)))
    want = tuple(sorted({x + y for x in a for y in b}))
    assert got == want
    assert all(p < q for p, q in zip(got, got[1:]))


@given(
    a=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True),
    b=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True),
    c=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True),
)
def test_sum_set_commutative_associative(a, b, c):
    a, b, c = tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(c))
    assert sum_set(a, b) == sum_set(b, a)
    assert sum_set(sum_set(a, b), c) == sum_set(a, sum_set(b, c))


@settings(max_examples=60, deadline=None)
@given(spec=small_specs())
def test_tower_invariants(spec):
    top = len(spec.params["stages"])
    for n in range(top + 1):
        H = spec.height_set(n) if n < top else None
        if H is not None:
            assert len(H) == spec.stage(n).r
            assert H[0] == 0
            assert all(p < q for p, q in zip(H, H[1:]))
        # the deepest descendant of the base stays inside the column
        assert spec.max_descendant(n) < spec.height(n)
        assert spec.width(n) == Fraction(1, product_of_cuts(spec, 0, n))


@settings(max_examples=60, deadline=None)
@given(spec=small_specs())
def test_height_recurrence_matches_definition(spec):
    top = len(spec.params["stages"])
    for n in range(top):
        st_ = spec.stage(n)
        assert spec.height(n + 1) == st_.r * spec.height(n) + sum(st_.spacers)


@settings(max_examples=60, deadline=None)
@given(spec=small_specs())
def test_closed_form_stages_match_unfolding_and_listed_height_sets(spec):
    """``h_n`` and ``max_descendant`` come in closed form; the literal unfolding
    of the oracle and the listed ``H_n`` check them, and ``H_n`` read deepest
    first matches ``H_n`` read in stage order."""
    top = len(spec.params["stages"])
    fresh = explicit_spec(spec.params["stages"])
    deepest_first = [fresh.height_set(n) for n in reversed(range(top))][::-1]
    for n in range(top + 1):
        assert max(brute_descendants(spec, 0, n)) == spec.max_descendant(n)
    for n in range(top):
        H = spec.height_set(n)
        assert spec.height(n + 1) == H[-1] + spec.height(n) + spec.stage(n).spacers[-1]
        assert deepest_first[n] == H


def test_heights_and_spread_list_no_height_set():
    """One listed ``H_0`` of 150,000 copy heights takes over 1.2 MB in
    pointers alone; ``h_3`` and ``max_descendant(3)`` take none of it."""
    r = 150_000
    spec = explicit_spec([(r, [0] * (r - 1) + [1])], cycle=True)
    tracemalloc.start()
    try:
        assert spec.height(3) == r * (r * (r + 1) + 1) + 1
        assert spec.max_descendant(3) == (r - 1) * (1 + (r + 1) + r * (r + 1) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec._hsets == []
    assert peak < 100_000


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(max_stages=3))
def test_descendant_chain_rule(spec):
    # D(I, j) built in one shot equals the two-step composition
    top = len(spec.params["stages"])
    whole = descendant_set(spec, 0, top)
    step = set()
    for d in descendant_set(spec, 0, 1):
        step.update(descendant_set(spec, 1, top, d))
    assert whole == tuple(sorted(step))


def test_explicit_spec_cycle():
    sp = explicit_spec([(2, (0, 1))], cycle=True)
    assert sp.height(5) == sp.height(4) * 2 + 1
    nocycle = explicit_spec([(2, (0, 1))])
    with pytest.raises(BudgetExceeded):
        nocycle.stage(1)


def test_explicit_spec_takes_stage_specs_as_they_are():
    stages = [StageSpec(2, (0, 1)), (3, [0, 1, 2])]
    sp = explicit_spec(stages)
    assert sp.stage(0) is stages[0]
    assert sp.stage(1) == StageSpec(3, (0, 1, 2))
    assert sp.params == explicit_spec([(2, (0, 1)), (3, (0, 1, 2))]).params


def test_budget_stage_cap():
    sp = explicit_spec([(2, (0, 0))], cycle=True, budget=Budget(max_stage=3))
    sp.height(3)
    with pytest.raises(BudgetExceeded):
        sp.height(4)


def test_budget_height_bits():
    sp = explicit_spec([(2, (0, 0))], cycle=True, budget=Budget(max_height_bits=10))
    with pytest.raises(BudgetExceeded):
        sp.height(12)


def test_budget_descendants():
    sp = explicit_spec([(4, (0, 1, 2, 3))], cycle=True)
    with pytest.raises(BudgetExceeded):
        descendant_set(sp, 0, 12)


def test_is_direct_sum_on_towers():
    # spacer gaps keep descendant sets collision free for honest towers
    sp = explicit_spec(TRIPLE)
    assert len(descendant_set(sp, 0, 2)) == product_of_cuts(sp, 0, 2) == 9
    assert len(descendant_set(sp, 1, 2)) == product_of_cuts(sp, 1, 2) == 3
    zero = explicit_spec([(2, (0, 0)), (2, (0, 0)), (2, (0, 0))])
    assert len(descendant_set(zero, 0, 3)) == product_of_cuts(zero, 0, 3) == 8


@pytest.mark.parametrize(
    "value, bad, good",
    [
        pytest.param(Budget(), {"max_pairs": -1}, {"max_pairs": 5}, id="Budget"),
        pytest.param(
            StageSpec(3, (0, 1, 2)), {"spacers": (0, -1, 2)}, {"spacers": [2, 1, 0]}, id="StageSpec"
        ),
        pytest.param(Caps(), {"max_r": 1}, {"max_r": None}, id="Caps"),
        pytest.param(LevelSet(2, (0, 5)), {"heights": (5, 0)}, {"heights": [1, 5]}, id="LevelSet"),
        pytest.param(Point(0, 0, Fraction(0)), {"offset": "x"}, {"offset": "1/4"}, id="Point"),
    ],
)
def test_replace_validates_like_the_constructor(value, bad, good):
    # namedtuple's _replace builds through _make, which must not skip __new__
    cls = type(value)
    with pytest.raises(Exception) as refused:
        cls(**{**value._asdict(), **bad})
    with pytest.raises(refused.type, match=f"^{re.escape(str(refused.value))}$"):
        value._replace(**bad)
    out = value._replace(**good)
    expected = cls(**{**value._asdict(), **good})
    assert type(out) is cls and out == expected
    assert list(map(type, out)) == list(map(type, expected))  # converted fields too
    back = pickle.loads(pickle.dumps(out))
    assert type(back) is cls and back == out


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"max_pairs": "x"}, TypeError),
        ({"max_stage": 2.0}, TypeError),
        ({"max_descendants": True}, TypeError),
        ({"max_stage": -1}, ValueError),
        ({"max_height_bits": 0}, ValueError),
        ({"max_iterate": 0}, ValueError),
    ],
)
def test_budget_validation(fields, error):
    with pytest.raises(error):
        Budget(**fields)


def test_budget_allows_stage_zero():
    assert Budget(max_stage=0).max_stage == 0


@pytest.mark.parametrize("field", Budget._fields)
def test_budget_check_passes_the_limit_and_refuses_one_more(field):
    budget = Budget(**{field: 7})
    assert budget.check(field, 7, "{} things") == 7
    with pytest.raises(BudgetExceeded, match=f"^8 things exceeds {field}=7$"):
        budget.check(field, 8, "{} things")
    assert budget.check(field, 7, "stage {1} of {2}: {0} things", 3, "C") == 7
    with pytest.raises(BudgetExceeded, match=f"^stage 3 of C: 8 things exceeds {field}=7$"):
        budget.check(field, 8, "stage {1} of {2}: {0} things", 3, "C")


def test_cut_count_refusal_reads_stage_and_count():
    spec = explicit_spec([(2, (0, 0)), (9, (0,) * 9)], budget=Budget(max_descendants=8))
    with pytest.raises(BudgetExceeded) as stop:
        spec.height(2)
    assert str(stop.value) == "stage 1 cuts into 9 subcolumns exceeds max_descendants=8"


def test_height_bits_refusal_reads_stage_and_bits():
    spec = explicit_spec([(2, (0, 0))], cycle=True, budget=Budget(max_height_bits=3))
    assert spec.height(2) == 4
    with pytest.raises(BudgetExceeded) as stop:
        spec.height(3)
    assert str(stop.value) == "h_3 of 4 bits exceeds max_height_bits=3"


@pytest.mark.parametrize("stages", [[(2,)], [3], [(2, (0, 0), 1)], []])
def test_explicit_spec_rejects_malformed_stages(stages):
    with pytest.raises(ValueError):
        explicit_spec(stages)


def test_spec_refuses_a_non_str_name():
    with pytest.raises(TypeError, match="^spec name must be a string, got 3$"):
        RankOneSpec(lambda n, spec: StageSpec(2, (0, 0)), name=3)


def test_builder_must_return_a_stage_spec():
    sp = RankOneSpec(lambda n, spec: (2, (0, 0)))
    with pytest.raises(TypeError, match="^builder must return a StageSpec$"):
        sp.stage(0)


def test_fingerprint_stability():
    a = explicit_spec(TRIPLE, name="x")
    b = explicit_spec(TRIPLE, name="x")
    assert a.fingerprint() == b.fingerprint()
    c = explicit_spec(TRIPLE, name="x", budget=Budget(max_stage=10))
    assert c.fingerprint() != a.fingerprint()
    d = explicit_spec(TRIPLE, name="y")
    assert d.fingerprint() != a.fingerprint()


def test_fingerprint_refuses_callable_parameters():
    # gallery rules are data; only a direct ``params`` can hold a callable
    direct = RankOneSpec(lambda n, spec: StageSpec(2, (0, 0)), params={"rule": lambda n: 2})
    with pytest.raises(PreconditionError):
        direct.fingerprint()
    assert gallery.staircase(2).fingerprint() != gallery.staircase(5).fingerprint()


ACCESSORS = [
    "stage", "height", "width", "width_denominator", "height_set", "height_differences",
    "max_descendant",
]


@pytest.mark.parametrize("accessor", ACCESSORS)
def test_negative_stage_index_is_rejected(accessor):
    sp = explicit_spec(TRIPLE, cycle=True)
    with pytest.raises(ValueError):
        getattr(sp, accessor)(-1)
    sp.materialize(4)  # a negative index must not wrap to the last stage
    with pytest.raises(ValueError):
        getattr(sp, accessor)(-1)


@pytest.mark.parametrize("accessor", ACCESSORS)
@pytest.mark.parametrize("bad", [True, False, 1.0])
def test_accessors_refuse_a_non_int_stage_index_on_built_stages(accessor, bad):
    # height(True) gave h_1, width(False) gave 1 and stage(1.0) failed on list indexing
    sp = gallery.staircase().materialize(4)
    sp.height_differences(1)  # a cached N(t) is not read for True either
    with pytest.raises(TypeError, match=f"^stage index must be an int, got {bad!r}$"):
        getattr(sp, accessor)(bad)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda sp: descendant_count(sp, 0, 2.0), 2.0),  # raised from range
        (lambda sp: descendant_count(sp, True, 2), True),
        (lambda sp: descendant_set(sp, True, 2, 0), True),  # gave (0, 3, 7)
        (lambda sp: _tuple_product(sp, 0, False, 2), False),
        (lambda sp: refine(sp, level_set(sp, 1, (0,)), True), True),  # gave the set unchanged
        (lambda sp: refine(sp, level_set(sp, 1, (0,)), 2.0), 2.0),
        (lambda sp: rho_bound(sp, False, True, 2), False),  # gave 1/2
        (lambda sp: rho_bound(sp, 0, 2.0, 2), 2.0),
        (lambda sp: project_height(sp, 2, 5, True), True),  # gave 2
        (lambda sp: project_height(sp, 2, 5, 0.0), 0.0),
    ],
    ids=[
        "descendant_count-j", "descendant_count-i", "descendant_set", "tuple_product",
        "refine-bool", "refine-float", "rho_bound-bool", "rho_bound-float",
        "project_height-bool", "project_height-float",
    ],
)
def test_stage_indices_pass_the_int_gate(call, bad):
    """Every stage argument is an int, not a bool or a float read as one, also
    where the stages it names are built."""
    with pytest.raises(TypeError, match=f"^stage index must be an int, got {bad!r}$"):
        call(gallery.staircase().materialize(3))


def test_notes_dedup():
    sp = explicit_spec(TRIPLE)
    sp.note("same")
    sp.note("same")
    sp.note("other")
    assert sp.notes == ["same", "other"]


def test_exception_taxonomy():
    assert issubclass(BudgetExceeded, RankOneError)
    assert issubclass(PreconditionError, RankOneError)

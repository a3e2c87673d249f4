"""Exact tower arithmetic: stage recurrences, sum sets, descendant sets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.core import (
    Budget,
    BudgetExceeded,
    PreconditionError,
    RankOneError,
    StageSpec,
    descendant_set,
    explicit_spec,
    sum_is_direct,
    sum_set,
)

from conftest import product_of_cuts, small_specs, stage_lists

TRIPLE = [(3, (0, 1, 2)), (3, (0, 1, 2))]


def test_stage_spec_validation():
    with pytest.raises(ValueError):
        StageSpec(1, (0,))
    with pytest.raises(ValueError):
        StageSpec(2, (0,))  # needs r spacers
    with pytest.raises(ValueError):
        StageSpec(2, (0, -1))
    s = StageSpec(3, (0, 1, 2))
    assert s.r == 3 and s.spacers == (0, 1, 2)


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


def test_materialize_rejects_a_gap_below_the_height():
    # StageSpec validation forbids negative spacers; a forged one must
    # still be caught where the height set is built
    bad = tuple.__new__(StageSpec, (2, (-1, 0)))
    sp = explicit_spec([(2, (0, 0)), bad])
    sp.height(1)
    with pytest.raises(AssertionError):
        sp.height(2)


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


@pytest.mark.parametrize("stages", [[(2,)], [3], [(2, (0, 0), 1)]])
def test_explicit_spec_rejects_malformed_stages(stages):
    with pytest.raises(ValueError):
        explicit_spec(stages)


def test_fingerprint_stability():
    a = explicit_spec(TRIPLE, name="x")
    b = explicit_spec(TRIPLE, name="x")
    assert a.fingerprint() == b.fingerprint()
    c = explicit_spec(TRIPLE, name="x", budget=Budget(max_stage=10))
    assert c.fingerprint() != a.fingerprint()
    d = explicit_spec(TRIPLE, name="y")
    assert d.fingerprint() != a.fingerprint()


def test_fingerprint_refuses_callable_parameters():
    from rankone import gallery

    with pytest.raises(PreconditionError):
        gallery.staircase(lambda n: 2).fingerprint()
    assert gallery.staircase(2).fingerprint() != gallery.staircase(5).fingerprint()


@pytest.mark.parametrize(
    "accessor",
    ["stage", "height", "width", "width_denominator", "height_set", "max_descendant"],
)
def test_negative_stage_index_is_rejected(accessor):
    sp = explicit_spec(TRIPLE, cycle=True)
    with pytest.raises(ValueError):
        getattr(sp, accessor)(-1)
    sp.materialize(4)  # a negative index must not wrap to the last stage
    with pytest.raises(ValueError):
        getattr(sp, accessor)(-1)


def test_notes_dedup():
    sp = explicit_spec(TRIPLE)
    sp.note("same")
    sp.note("same")
    sp.note("other")
    assert sp.notes == ["same", "other"]


def test_exception_taxonomy():
    assert issubclass(BudgetExceeded, RankOneError)
    assert issubclass(PreconditionError, RankOneError)

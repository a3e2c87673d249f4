"""Independent cross-checks: brute-force unfolding, sampling, orbit stepping."""

import bisect
import math
import tracemalloc
from array import array
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import gallery
from rankone.core import Budget, BudgetExceeded, descendant_set, explicit_spec, sum_set
from rankone.oracle import (
    _BLOCK,
    SplitMix64,
    _cut_lanes,
    _lanes,
    _low_halves,
    brute_apply_pointwise,
    brute_descendants,
    brute_shared_coordinate_fraction,
    brute_tuple_fraction,
    monte_carlo_measure,
    stepwise_orbit_check,
)
from rankone.tower import (
    LevelSet,
    Point,
    apply_pointwise,
    level_set,
    lift_to,
    measure,
    point,
    point_eq,
    point_in,
    translate_intersection_measure,
)
from rankone import analysis, oracle

from conftest import product_of_cuts, small_specs, stage_lists

TRIPLE = [(3, (0, 1, 2)), (3, (0, 1, 2))]


def test_brute_descendants_frozen():
    sp = explicit_spec(TRIPLE)
    assert brute_descendants(sp, 0, 2) == (0, 1, 3, 6, 7, 9, 13, 14, 16)


@settings(max_examples=60, deadline=None)
@given(spec=small_specs(max_stages=3), data=st.data())
def test_brute_descendants_match_closed_form(spec, data):
    top = len(spec.params["stages"])
    i = data.draw(st.integers(0, top - 1))
    j = data.draw(st.integers(i, top))
    b = data.draw(st.integers(0, spec.height(i) - 1))
    assert brute_descendants(spec, i, j, b) == descendant_set(spec, i, j, b)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda sp: brute_descendants(sp, 0, 9),
            r"brute unfolding of C_9 needs \d+ cells, limit is 1000000",
        ),
        (
            lambda sp: brute_tuple_fraction(sp, 0, 5, 2),  # |D| = 720
            "brute tuple scan needs ~373248000 operations, limit is 100000000",
        ),
        (
            lambda sp: brute_shared_coordinate_fraction(sp, 0, 5, 3),
            r"brute coordinate scan over 720\^3 tuples exceeds 100000000",
        ),
    ],
    ids=["cells", "tuple-operations", "coordinate-operations"],
)
def test_brute_scans_refuse_past_their_limits(call, message):
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        call(gallery.staircase())


def test_brute_tuple_fraction_matches_exact():
    sp = explicit_spec(TRIPLE)
    got = brute_tuple_fraction(sp, 0, 2, 2)
    assert got == analysis.cons_fraction_exact(sp, 0, 2, 2)


@settings(max_examples=60, deadline=None)
@given(spec=small_specs(), data=st.data())
def test_tower_sums_are_always_direct(spec, data):
    # descendant_set concatenates shifted copies on the strength of the
    # direct-sum lemma; the merging, deduplicating sum_set is the reference
    top = len(spec.params["stages"])
    for i in range(top + 1):
        for j in range(i, top + 1):
            b = data.draw(st.integers(0, spec.height(i) - 1))
            D = descendant_set(spec, i, j, b)
            assert all(x < y for x, y in zip(D, D[1:]))
            assert len(D) == product_of_cuts(spec, i, j)
            ref = (b,)
            for m in range(i, j):
                ref = sum_set(ref, spec.height_set(m))
            assert D == ref


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(max_stages=2, max_r=3), k=st.integers(2, 3))
def test_shared_fraction_complements_rho(spec, k):
    top = len(spec.params["stages"])
    total = 1
    for r, _ in spec.params["stages"]:
        total *= r
    if total**k > 30_000:
        return
    rho = analysis.rho_bound(spec, 0, top, k)
    assert 1 - rho == brute_shared_coordinate_fraction(spec, 0, top, k)


def test_splitmix_reference_stream():
    # first outputs of the well-known 64-bit mix for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == 0xE220A8397B1DCDAF


def test_splitmix_below_and_unit():
    rng = SplitMix64(42)
    vals = [rng.next_below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) == 10


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2 * _BLOCK])
def test_splitmix_block_is_single_draws(seed, n):
    # the lanes the Monte Carlo sampler mixes a block of draws in
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert rng._mix(n)[0::2].tolist() == [ref.next_u64() for _ in range(n)]
    assert rng.next_u64() == ref.next_u64()


def test_splitmix_block_and_single_draws_interleave():
    rng, ref = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
    got = []
    for n in (3, 0, 1, 2 * _BLOCK, 5):
        got += rng._mix(n)[0::2].tolist()
        got.append(rng.next_u64())
        got.append(rng.next_below(7))
    want = []
    for n in (3, 0, 1, 2 * _BLOCK, 5):
        want += [ref.next_u64() for _ in range(n)]
        want.append(ref.next_u64())
        want.append(ref.next_below(7))
    assert got == want


def test_cut_lanes_never_carry_across_lanes():
    # a cut count of 2^64 or more cannot be materialized (a stage lists one
    # spacer count per cut), so r stops at the widest a lane holds
    rng = SplitMix64(3)
    us = array("Q", [0, 1, 2**63, 2**64 - 1, *(rng.next_u64() for _ in range(7))])
    for r in (2, 3, 2**32 + 1, 2**64 - 1):
        cuts, packed = _cut_lanes(_lanes(us), r, _low_halves(len(us)), len(us))
        assert cuts == [u * r >> 64 for u in us]
        assert packed == _lanes(array("Q", [u * r % (1 << 64) for u in us]))


def test_monte_carlo_exact_zero():
    ko = gallery.koopman()
    est, err = monte_carlo_measure(ko, level_set(ko, 1, (0,)), 3, 1000, seed=5)
    assert est == 0 and err == 0


def test_monte_carlo_requires_samples():
    sp = explicit_spec(TRIPLE, cycle=True)
    with pytest.raises(ValueError):
        monte_carlo_measure(sp, level_set(sp, 1, (0,)), 1, 10, seed=1)


def test_monte_carlo_three_sigma():
    sp = gallery.staircase()
    B = level_set(sp, 1, (0,))
    exact = translate_intersection_measure(sp, B, 4)
    est, err = monte_carlo_measure(sp, B, 4, 20_000, seed=99)
    p = float(exact / measure(sp, B))
    sigma = float(measure(sp, B)) * math.sqrt(p * (1 - p) / 20_000)
    assert abs(float(est - exact)) <= 3 * sigma
    assert err == pytest.approx(
        float(measure(sp, B))
        * math.sqrt(float(est / measure(sp, B)) * (1 - float(est / measure(sp, B))) / 20_000),
        rel=1e-9,
    )


def test_stepwise_orbit_frozen():
    sp = gallery.staircase()
    p = point(sp, 1, 0, Fraction(1, 100))
    for k in (-7, -1, 0, 1, 5, 23):
        assert stepwise_orbit_check(sp, p, k)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stepwise_orbit_random(data):
    sp = gallery.koopman()
    h = data.draw(st.integers(0, sp.height(2) - 1))
    # prime-denominator offsets never refine onto a subcolumn edge
    num = data.draw(st.integers(1, 126))
    p = point(sp, 2, h, Fraction(num, 127) * sp.width(2))
    k = data.draw(st.integers(-30, 30))
    assert stepwise_orbit_check(sp, p, k)


def test_stepwise_orbit_steps_are_budgeted():
    sp = explicit_spec(TRIPLE, cycle=True, budget=Budget(max_iterate=5))
    p = point(sp, 1, 0, Fraction(1, 100))
    assert stepwise_orbit_check(sp, p, -5)
    with pytest.raises(BudgetExceeded, match="6 orbit steps exceeds max_iterate=5"):
        stepwise_orbit_check(sp, p, -6)


def test_monte_carlo_samples_are_budgeted():
    sp = explicit_spec(TRIPLE, cycle=True, budget=Budget(max_iterate=1000))
    B = level_set(sp, 1, (0,))
    monte_carlo_measure(sp, B, 1, 1000, seed=1)
    with pytest.raises(BudgetExceeded, match="1001 samples exceeds max_iterate=1000"):
        monte_carlo_measure(sp, B, 1, 1001, seed=1)


@pytest.mark.filterwarnings("ignore::rankone.core.CapsMakeConstructionUnfaithful")
def test_monte_carlo_estimates_are_pinned():
    # the rows of acceptance criterion 9 at 2000 samples: any change in the
    # order or use of the random draws moves these
    stair, koop = gallery.staircase(), gallery.koopman()
    tq = gallery.t_q(2, gallery.Caps(max_r=6))
    triple = explicit_spec(TRIPLE, cycle=True)
    matrix = [
        (stair, level_set(stair, 1, (0,)), 4),
        (stair, level_set(stair, 2, (0, 5)), 7),
        (koop, level_set(koop, 1, (0,)), 2 * koop.height(1)),
        (tq, level_set(tq, 2, (0, 3)), 2 * tq.height(2)),
        (triple, level_set(triple, 1, (0, 3)), 7),
    ]
    got = [monte_carlo_measure(spec, B, k, 2000, 99 + i) for i, (spec, B, k) in enumerate(matrix)]
    assert got == [
        (Fraction(691, 4000), 0.005316598419102199),
        (Fraction(1, 24), 0.0024650332429581733),
        (Fraction(673, 2000), 0.00524489037063693),
        (Fraction(67, 800), 0.00186336668872948),
        (Fraction(179, 750), 0.007146654228844898),
    ]


def test_monte_carlo_memory_does_not_grow_with_samples():
    sp = gallery.staircase()
    B = level_set(sp, 2, (0, 5))
    monte_carlo_measure(sp, B, 7, 1000, seed=1)  # stages and generator constants built

    def peak(samples):
        tracemalloc.start()
        try:
            monte_carlo_measure(sp, B, 7, samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(50_000) <= 2 * peak(1000)


def _twin_estimate(spec, B, k, samples, seed):
    """``monte_carlo_measure``'s estimate one sample at a time, through the public API."""
    rng = SplitMix64(seed)
    hits = 0
    for _ in range(samples):
        h = B.heights[rng.next_below(len(B.heights))]
        x = Fraction(rng.next_u64(), 1 << 64) * spec.width(B.stage)
        hits += point_in(spec, apply_pointwise(spec, point(spec, B.stage, h, x), k), B)
    return measure(spec, B) * Fraction(hits, samples)


def _criterion_9_sets(budget):
    """The spec and level set of each row of acceptance criterion 9, under ``budget``."""
    stair, koop = gallery.staircase(budget=budget), gallery.koopman(budget=budget)
    tq = gallery.t_q(2, gallery.Caps(max_r=6), budget=budget)
    triple = explicit_spec(TRIPLE, cycle=True, budget=budget)
    return [
        (stair, (1, (0,))),
        (stair, (2, (0, 5))),
        (koop, (1, (0,))),
        (tq, (2, (0, 3))),
        (triple, (1, (0, 3))),
    ]


@pytest.mark.filterwarnings("ignore::rankone.core.CapsMakeConstructionUnfaithful")
@settings(max_examples=40, deadline=None)
@given(
    row=st.integers(0, 4),
    max_stage=st.none() | st.integers(2, 5),
    samples=st.sampled_from([1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]),
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_monte_carlo_matches_pointwise_twin(row, max_stage, samples, seed, data):
    # blocks walk every sample to the deepest stopping stage of the block;
    # the hits, so the estimates, must be those of the walk one point at a time
    budget = Budget() if max_stage is None else Budget(max_stage=max_stage)
    spec, (stage, levels) = _criterion_9_sets(budget)[row]
    B = level_set(spec, stage, levels)
    h = spec.height(stage + 1) if max_stage is None or stage < max_stage else spec.height(stage)
    k = data.draw(st.just(0) | st.integers(-h, h))
    got = _outcome(lambda: monte_carlo_measure(spec, B, k, samples, seed)[0])
    assert got == _outcome(_twin_estimate, spec, B, k, samples, seed)


@pytest.mark.filterwarnings("ignore::rankone.core.CapsMakeConstructionUnfaithful")
def test_monte_carlo_projects_each_distinct_height_once(monkeypatch):
    # the rows of acceptance criterion 9 at 2000 samples: a block of about
    # 1000 samples ends on 3 to 54 distinct heights, where projecting every
    # sample would take 14,000 bisections
    rows = _criterion_9_sets(Budget())
    shifts = [4, 7, 2 * rows[2][0].height(1), 2 * rows[3][0].height(2), 7]
    calls = []

    def counted(a, x):
        calls.append(x)
        return bisect.bisect_right(a, x)

    monkeypatch.setattr(oracle, "bisect", SimpleNamespace(bisect_right=counted))
    for i, ((spec, (stage, levels)), k) in enumerate(zip(rows, shifts)):
        monte_carlo_measure(spec, level_set(spec, stage, levels), k, 2000, 99 + i)
    assert 0 < len(calls) <= 360


# Deep walks whose blocks end on nearly as many distinct heights as samples:
# (builder, stage, levels, n, sign) with k = sign * h_n.
_DEEP_WALKS = {
    "staircase-up": (gallery.staircase, 2, (0, 5), 5, 1),
    "staircase-down": (gallery.staircase, 1, (0,), 4, -1),
    "koopman-down": (gallery.koopman, 1, (0,), 3, -1),
}


@pytest.mark.parametrize("walk", list(_DEEP_WALKS.values()), ids=list(_DEEP_WALKS))
def test_monte_carlo_matches_its_twin_on_deep_walks(walk):
    # the hypothesis twin draws |k| <= h_{s+1}, which seldom reaches this
    build, stage, levels, n, sign = walk
    spec = build()
    B = level_set(spec, stage, levels)
    k = sign * spec.height(n)
    assert monte_carlo_measure(spec, B, k, 1000, 0)[0] == _twin_estimate(spec, B, k, 1000, 0)


def test_monte_carlo_refuses_a_level_set_past_its_column_before_drawing(monkeypatch):
    # checked after sampling, the refusal would wait 1.4 s for 10^6 samples
    def no_draws(self, n):
        raise AssertionError("drew before checking the level set")

    monkeypatch.setattr(SplitMix64, "_mix", no_draws)
    with pytest.raises(ValueError, match=r"^height 100 is not a level of C_1 \(h_1=3\)$"):
        monte_carlo_measure(gallery.staircase(), LevelSet(1, (0, 100)), 1, 1_000_000, 0)


def test_monte_carlo_refuses_as_its_twin():
    sp = gallery.staircase(budget=Budget(max_stage=2))
    B = level_set(sp, 1, (0,))
    want = ("refused", "stage 3 exceeds max_stage=2")
    assert _outcome(monte_carlo_measure, sp, B, sp.height(2), 1000, 0) == want
    assert _outcome(_twin_estimate, sp, B, sp.height(2), 1000, 0) == want


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded as e:
        return ("refused", str(e))


@st.composite
def unit_offsets(draw, edge_den: int):
    """A fraction in [0, 1) with a prime, dyadic, arbitrary or cut-edge denominator."""
    den = draw(
        st.sampled_from([127, 8191, 1 << 64, edge_den])
        | st.integers(2, 63).map(lambda e: 1 << e)
        | st.integers(1, 10**12)
    )
    return Fraction(draw(st.integers(0, den - 1)), den)


@settings(max_examples=150, deadline=None)
@given(stages=stage_lists(max_stages=3, max_r=4, max_spacer=3), data=st.data())
def test_pointwise_map_matches_fraction_twin(stages, data):
    # backward orbits from a cut edge and forward ones from the top of a
    # spacer-free last subcolumn never resolve: a small max_stage turns them
    # into refusals, which both sides must raise on the same inputs
    top = data.draw(st.integers(3, 7))
    spec = explicit_spec(stages, cycle=True, budget=Budget(max_stage=top))
    reach = spec.height(3)

    def draw_point():
        stage = data.draw(st.integers(0, 2))
        h = data.draw(st.integers(0, spec.height(stage) - 1))
        frac = data.draw(unit_offsets(spec.width_denominator(3)))
        return point(spec, stage, h, frac * spec.width(stage))

    p, q = draw_point(), draw_point()
    # a shift that stays in p's column takes the map's no-lift path
    stay = st.integers(-p.height, spec.height(p.stage) - 1 - p.height)
    k = data.draw(st.just(0) | stay | st.integers(-reach, reach))
    assert _image(apply_pointwise, spec, p, k) == _image(brute_apply_pointwise, spec, p, k)
    n = data.draw(st.just(p.stage) | st.integers(p.stage + 1, top + 1))
    assert _image(lift_to, spec, p, n) == _image(brute_apply_pointwise, spec, p, 0, n)
    m = max(p.stage, q.stage)
    same = brute_apply_pointwise(spec, p, 0, m) == brute_apply_pointwise(spec, q, 0, m)
    assert point_eq(spec, p, q) == same
    # the same point under a deeper address, whose offset has another denominator
    deeper = brute_apply_pointwise(spec, p, 0, min(n, top))
    assert point_eq(spec, p, deeper) and point_eq(spec, deeper, p)
    assert point_eq(spec, p, brute_apply_pointwise(spec, p, 0, m))


def _image(fn, *args):
    """The repr of a map's image, or its refusal; an image offset is always a ``Fraction``."""
    out = _outcome(fn, *args)
    assert not isinstance(out, Point) or type(out.offset) is Fraction
    return repr(out)

"""Independent cross-checks: brute-force unfolding, sampling, orbit stepping."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import gallery
from rankone.core import descendant_set, explicit_spec, sum_set
from rankone.oracle import (
    SplitMix64,
    brute_descendants,
    brute_shared_coordinate_fraction,
    brute_tuple_fraction,
    monte_carlo_measure,
    stepwise_orbit_check,
)
from rankone.tower import (
    level_set,
    measure,
    point,
    translate_intersection_measure,
)
from rankone import analysis

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
    u = SplitMix64(42).next_unit()
    assert 0 <= u < 1 and isinstance(u, Fraction)


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

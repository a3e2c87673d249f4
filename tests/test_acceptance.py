"""Acceptance gate: one test per release criterion.

Every test prints a single PASS/FAIL line (visible under ``pytest -s``)
and asserts the same condition, so the -v report carries one verdict per
criterion.  All comparisons are exact rational arithmetic unless the
criterion is statistical, in which case the tolerance is stated inline.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rankone import analysis, gallery, oracle, tower
from rankone.core import descendant_set, explicit_spec, gap_pair_count, sum_is_direct

SRC = Path(__file__).resolve().parents[1] / "src"  # on the PYTHONPATH of CLI child processes

pytestmark = pytest.mark.filterwarnings(
    "ignore::rankone.core.CapsMakeConstructionUnfaithful"
)

# ten-stage doubling family: cut counts 2^(n+1) with offsets chosen so each
# stage's spacer run clears the previous descendant spread
DOUBLING_Z = (
    3,
    13,
    110,
    1626,
    50132,
    3191142,
    408388556,
    104552444694,
    53531662608812,
    54816632339894742,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num:02d} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_counting_identities():
    ok = True
    for r in range(1, 129):
        hist = [0] * r
        for i in range(r):
            for j in range(r):
                hist[abs(i - j)] += 1
        running = 0
        for m in range(1, r + 1):
            running += hist[m - 1]
            ok = ok and gap_pair_count(r, m) == running

    checked = 0
    for a in range(61):
        for b in range(61):
            lim = min(a, b)
            for c in range(-lim + 1, lim):
                if c >= 0:
                    sa = sum(range(a + 1, a + c + 1))
                    sb = sum(range(b + 1, b + c + 1))
                else:
                    sa = sum(range(a, a + c, -1))
                    sb = sum(range(b, b + c, -1))
                got = abs(c) * abs(a - b)
                ok = ok and got == abs(sa - sb)
                if a != b and c != 0:
                    ok = ok and got >= abs(c)
                checked += 1
    _verdict(
        1,
        ok,
        f"pair counts exact for r <= 128; run gaps exact on {checked} cases (tolerance 0)",
    )


def test_criterion_02_descendants_match_brute_force():
    rng = random.Random(20260818)
    done = 0
    ok = True
    while done < 50:
        stages = []
        for _ in range(rng.randint(2, 4)):
            r = rng.randint(2, 4)
            stages.append((r, tuple(rng.randint(0, 6) for _ in range(r))))
        spec = explicit_spec(stages)
        top = len(stages)
        size = 1
        for r, _ in stages:
            size *= r
        if spec.height(top) > 100_000 or size > 2000:
            continue
        i = rng.randint(0, top - 1)
        b = rng.randint(0, spec.height(i) - 1)
        ok = ok and descendant_set(spec, i, top, b) == oracle.brute_descendants(
            spec, i, top, b
        )
        done += 1

    # constructed collisions and non-collisions
    ok = ok and not sum_is_direct([(0, 1), (0, 1)])
    ok = ok and not sum_is_direct([(0, 3), (0, 1, 2, 3)])
    ok = ok and sum_is_direct([(0, 1), (0, 2)])
    ok = ok and sum_is_direct([(0, 1, 2), (0, 3, 6)])
    _verdict(2, ok, "descendant sets equal literal unfolding on 50 random towers (tolerance 0)")


def test_criterion_03_tuple_recurrence_bound():
    rng = random.Random(20260819)
    cases = 0
    ok = True
    while cases < 26:
        stages = []
        for _ in range(rng.randint(2, 3)):
            r = rng.randint(2, 4)
            stages.append((r, tuple(rng.randint(0, 5) for _ in range(r))))
        spec = explicit_spec(stages)
        top = len(stages)
        size = 1
        for r, _ in stages:
            size *= r
        k = rng.choice((2, 3))
        if size**k > 30_000:
            continue
        shared = 1 - analysis.rho_bound(spec, 0, top, k)
        ok = ok and shared == oracle.brute_shared_coordinate_fraction(spec, 0, top, k)
        ok = ok and analysis.cons_fraction_exact(spec, 0, top, k) >= shared
        cases += 1
    _verdict(3, ok, f"shared-tuple fraction exact on {cases} random cases (tolerance 0)")


def test_criterion_04_conservativity_verdicts():
    rep = analysis.conservativity_sufficient(
        gallery.main_wde(), 2, 40, Fraction(1, 1000)
    )
    ok = rep.verdict == "satisfied" and rep.summary["crossed_at"] == 18

    doubling = gallery.high_staircase(
        tuple(2 ** (n + 1) for n in range(10)), DOUBLING_Z
    )
    rep2 = analysis.nonconservativity_check(doubling, 2, 10)
    ok = ok and rep2.verdict == "refuted-conservativity"
    ok = ok and rep2.summary["product"] >= Fraction(1, 2)
    _verdict(
        4,
        ok,
        "square power recurrent for the flagship tower; doubling tower keeps "
        f"escape product {rep2.summary['product']} >= 1/2",
    )


def test_criterion_05_pair_realignment_stays_rare():
    ok = True
    details = []
    for label, spec in (
        ("flagship", gallery.main_wde()),
        ("q2-family", gallery.t_q(2, gallery.Caps(max_r=64))),
    ):
        n, size = 1, spec.stage(0).r
        worst = Fraction(0)
        while size <= 3000:
            frac = analysis.nonerg_pair_fraction(spec, n, 1)
            worst = max(worst, frac)
            ok = ok and frac <= Fraction(1, 2)
            n += 1
            size *= spec.stage(n - 1).r
        details.append(f"{label} worst {worst} over stages 1..{n - 1}")
    _verdict(5, ok, "offset-pair fraction <= 1/2: " + "; ".join(details))


def test_criterion_06_partial_rigidity_ratios():
    ok = True
    for q in (2, 3, 4):
        spec = gallery.t_q(q, gallery.Caps(max_r=64))
        want = Fraction(q - 1, q)
        for n in (0, 2, 4, 6):
            a, ratio = analysis.rigidity_scan(spec, n)
            ok = ok and a == 2 * spec.height(n) and ratio == want
            base = tower.level_set(spec, n, (0,))
            overlap = tower.translate_intersection_measure(spec, base, a)
            ok = ok and overlap >= want * tower.measure(spec, base)

    ratios = [
        analysis.rigidity_scan(gallery.rigid_wde(gallery.Caps(max_r=64)), n)[1]
        for n in (2, 4, 6)
    ]
    ok = ok and ratios == [Fraction(1, 2), Fraction(3, 4), Fraction(5, 6)]
    ok = ok and all(x < y for x, y in zip(ratios, ratios[1:]))
    _verdict(
        6,
        ok,
        "even-stage return ratio exactly (q-1)/q for q in 2..4; rigid family "
        "ratios increase toward 1 (tolerance 0)",
    )


def test_criterion_07_alpha_tail_profile():
    spec = gallery.t_q(2, gallery.Caps(max_r=6))
    B = tower.level_set(spec, 2, (0,))
    prof = analysis.alpha_type_profile(spec, B, spec.height(4))
    ok = prof.exceptions == ()
    ok = ok and prof.sup_outside <= Fraction(1, 2)
    _verdict(
        7,
        ok,
        f"all shifts to {spec.height(4)} outside {len(prof.exceptions)} exceptions "
        f"stay <= 1/2 (sup {prof.sup_outside} at k={prof.sup_outside_at})",
    )


def test_criterion_08_overlap_decay_and_divisibility():
    spec = gallery.koopman()
    rng = oracle.SplitMix64(20260818)
    h3, h4 = spec.height(3), spec.height(4)
    ks = [h3 + rng.next_below(h4 - h3) for _ in range(200)]
    rep = analysis.koopman_decay_check(spec, tower.level_set(spec, 1, (0,)), ks)
    ok = rep.verdict == "satisfied"
    ok = ok and all(row["ratio"] < row["bound"] for row in rep.rows)

    gcd, verdict = analysis.divisibility_gcd(spec, 6)
    ok = ok and gcd == 2 and verdict == "not-weak-mixing"
    _verdict(
        8,
        ok,
        "overlap ratio below 2/n on 200 sampled shifts (exact comparisons); "
        "height gcd 2 refutes weak mixing",
    )


def test_criterion_09_orbit_and_sampling_consistency():
    specs = [
        gallery.staircase(),
        gallery.koopman(),
        gallery.t_q(2, gallery.Caps(max_r=6)),
    ]
    rng = oracle.SplitMix64(1234)
    ok = True
    points = 0
    for spec in specs:
        for _ in range(34):
            stage = 2 + rng.next_below(2)
            h = rng.next_below(spec.height(stage))
            # prime denominator: the offset never lands exactly on a
            # subcolumn edge, so backward orbits stay affordable
            off = spec.width(stage) * Fraction(1 + rng.next_below(126), 127)
            p = tower.point(spec, stage, h, off)
            k = rng.next_below(101) - 50
            ok = ok and oracle.stepwise_orbit_check(spec, p, k)
            points += 1

    stair, koop, tq = specs
    triple = explicit_spec([(3, (0, 1, 2)), (3, (0, 1, 2))], cycle=True)
    matrix = [
        (stair, tower.level_set(stair, 1, (0,)), 4),
        (stair, tower.level_set(stair, 2, (0, 5)), 7),
        (koop, tower.level_set(koop, 1, (0,)), 2 * koop.height(1)),
        (tq, tower.level_set(tq, 2, (0, 3)), 2 * tq.height(2)),
        (triple, tower.level_set(triple, 1, (0, 3)), 7),
    ]
    worst_sigma = 0.0
    for i, (spec, B, k) in enumerate(matrix):
        exact = tower.translate_intersection_measure(spec, B, k)
        est, err = oracle.monte_carlo_measure(spec, B, k, 100_000, 99 + i)
        ok = ok and abs(est - exact) <= 3 * err
        worst_sigma = max(worst_sigma, float(abs(est - exact) / err))
    _verdict(
        9,
        ok,
        f"{points} seeded orbits step-consistent; 5 sampled measures within "
        f"3 sigma of exact (worst {worst_sigma:.2f} sigma, 100000 samples each)",
    )


def test_criterion_10_moving_shift_evidence():
    stair = gallery.staircase()
    rng = oracle.SplitMix64(7)
    found = 0
    for _ in range(20):
        x, y = rng.next_below(12), rng.next_below(12)
        A = tower.level_set(stair, 2, (x,))
        B = tower.level_set(stair, 2, (y,))
        if analysis.wde_probe(stair, A, B, stair.height(3)) is not None:
            found += 1
    ok = found == 20

    tau = Fraction(1, 2)
    hs = gallery.high_staircase((3, 4, 5), (1,), extend="increment")
    ok = ok and analysis.arithmetic_report(stair, 20, tau).verdict == "satisfied-at-horizon"
    ok = ok and analysis.arithmetic_report(hs, 20, tau).verdict == "satisfied-at-horizon"
    ok = (
        ok
        and analysis.arithmetic_report(gallery.not_eic(2), 12, tau).verdict
        == "inconclusive-at-horizon"
    )
    _verdict(
        10,
        ok,
        f"moving shift found for {found}/20 random level pairs; staircase "
        "pattern reports split as expected",
    )


def test_criterion_11_cli_byte_determinism(tmp_path):
    spec_path = tmp_path / "det.json"
    spec_path.write_text(
        json.dumps({"name": "det", "builder": {"kind": "koopman", "max_r": 16}}),
        encoding="utf-8",
    )
    argv = [
        sys.executable,
        "-m",
        "rankone.cli",
        "koopman",
        "--spec",
        str(spec_path),
        "--stage",
        "1",
        "--samples",
        "40",
        "--kmin",
        "60",
        "--kmax",
        "600",
        "--seed",
        "5",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    runs = [subprocess.run(argv, capture_output=True, check=True, env=env) for _ in range(2)]
    ok = runs[0].stdout == runs[1].stdout and runs[0].stdout.startswith(b"{")
    _verdict(
        11,
        ok,
        f"repeated seeded CLI runs emit byte-identical JSON ({len(runs[0].stdout)} bytes)",
    )

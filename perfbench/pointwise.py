"""pointwise: seeded points and shifts through ``tower.apply_pointwise``, plus
``oracle.stepwise_orbit_check`` and ``oracle.monte_carlo_measure`` on the
criterion-9 matrix of level sets.

Integer point addresses and the ``point_in`` set rebuild act here; pair loops
and sum sets are bypassed.  The inputs mix the two properties that set the
cost of ``Fraction`` arithmetic and lifting: offset denominators (prime 127,
as in criterion 9, against dyadic 2^-64, as in Monte Carlo sampling) and
shift sizes (|k| <= 50, which needs 0-1 lifts, against |k| up to h_5, which
needs several).
"""

from __future__ import annotations

import math
import random
import time
import warnings
from fractions import Fraction

from rankone import core, explicit_spec, gallery, oracle, tower
from rankone.core import BudgetExceeded

from common import budget, digest, median

warnings.simplefilter("ignore", core.CapsMakeConstructionUnfaithful)

POINTS_PER_CLASS = 100
# One op is a batch of this many maps from the shuffled list.  A single map
# takes 4 us with no lift and 8 us with one, so per-map quantiles jump between
# those two clusters from seed to seed; batch times do not.
BATCH = 20
ORBITS_PER_SPEC = 4
MC_SAMPLES = 2000
# Five standard errors: the check runs on every run of every seed, and at
# three a correct program would fail about one run in seventy.
MC_SIGMAS = 5


def make_specs():
    b = budget()
    return (
        gallery.staircase(budget=b),
        gallery.koopman(budget=b),
        gallery.t_q(2, gallery.Caps(max_r=6), budget=b),
        explicit_spec([(3, (0, 1, 2)), (3, (0, 1, 2))], cycle=True, budget=b),
    )


def mc_matrix(specs):
    """(spec, level set, shift) rows of acceptance criterion 9."""
    stair, koop, tq, triple = specs
    return [
        (stair, tower.level_set(stair, 1, (0,)), 4),
        (stair, tower.level_set(stair, 2, (0, 5)), 7),
        (koop, tower.level_set(koop, 1, (0,)), 2 * koop.height(1)),
        (tq, tower.level_set(tq, 2, (0, 3)), 2 * tq.height(2)),
        (triple, tower.level_set(triple, 1, (0, 3)), 7),
    ]


def make_maps(specs, rng: random.Random):
    """Seeded (spec, point, shift) inputs, 4 classes per spec, shuffled; and
    the orbit-check inputs, drawn from the prime-offset small-shift class.

    Dyadic offsets can sit on a subcolumn edge at every stage, where a
    backward orbit never resolves, so their shifts are nonnegative.
    """
    maps, orbits = [], []
    for spec in specs[:3]:
        h5 = spec.height(5)
        for prime in (True, False):
            for big in (False, True):
                group = []
                for _ in range(POINTS_PER_CLASS):
                    stage = 2 + rng.randrange(2)
                    h = rng.randrange(spec.height(stage))
                    if prime:
                        frac = Fraction(1 + rng.randrange(126), 127)
                    else:
                        frac = Fraction(rng.getrandbits(64), 1 << 64)
                    reach = h5 if big else 50
                    k = rng.randint(-reach if prime else 0, reach)
                    p = tower.point(spec, stage, h, spec.width(stage) * frac)
                    group.append((spec, p, k))
                maps.extend(group)
                if prime and not big:
                    orbits.extend(group[:ORBITS_PER_SPEC])
    rng.shuffle(maps)
    return maps, orbits


def reference_image(spec, p, k):
    """The k-step image computed from the stage specs alone, without ``tower``."""
    n, h, x = p.stage, p.height, p.offset
    while not 0 <= h + k < spec.height(n):
        st = spec.stage(n)
        w = Fraction(1, spec.width_denominator(n + 1))
        c = int(x // w)
        h += c * spec.height(n) + sum(st.spacers[:c])
        x -= c * w
        n += 1
    return (n, h + k, x)


def _key(q):
    return None if q is None else (q.stage, q.height, q.offset)


class Workload:
    name = "pointwise"

    def __init__(self, seed: int, refs: dict) -> None:
        self.refs = refs["pointwise"]
        rng = random.Random(seed)
        self.specs = make_specs()
        self.maps, self.orbits = make_maps(self.specs, rng)
        self.matrix = [
            (spec, B, k, rng.getrandbits(64)) for spec, B, k in mc_matrix(self.specs)
        ]
        self.expected = None
        self.map_s: list[float] = []
        self.mc_s: list[float] = []

    def run_pass(self, cal):
        """One pass: scaled pass seconds, scaled seconds per batch of maps, answers."""
        (times, answers), dt, f = cal(self._pass)
        batches = [sum(times[i : i + BATCH]) * f for i in range(0, len(times), BATCH)]
        return dt * f, batches, answers

    def _pass(self):
        clock = time.perf_counter
        apply = tower.apply_pointwise
        times, images = [], []
        for spec, p, k in self.maps:
            t0 = clock()
            try:
                q = apply(spec, p, k)
            except BudgetExceeded:
                q = None
            times.append(clock() - t0)
            images.append(q)
        self.map_s.append(sum(times))
        orbits = [oracle.stepwise_orbit_check(spec, p, k) for spec, p, k in self.orbits]
        t0 = clock()
        mc = [
            oracle.monte_carlo_measure(spec, B, k, MC_SAMPLES, s)[0]
            for spec, B, k, s in self.matrix
        ]
        self.mc_s.append(clock() - t0)
        return times, (images, orbits, mc)

    def _expected(self):
        exact = [tower.translate_intersection_measure(spec, B, k) for spec, B, k, _ in self.matrix]
        want = [Fraction(x) for x in self.refs["exact"]]
        images = [reference_image(spec, p, k) for spec, p, k in self.maps]
        return exact, want, digest(images)

    def check(self, answers) -> tuple[int, int]:
        """Images against the reference implementation (by digest, then one by
        one), stepwise orbits, exact measures against the references, and each
        Monte Carlo estimate within MC_SIGMAS standard errors of the exact value."""
        if self.expected is None:
            self.expected = self._expected()
        exact, want, image_digest = self.expected
        images, orbits, mc = answers
        failed = 0
        got = [_key(q) for q in images]
        if digest(got) != image_digest:
            ref = [reference_image(spec, p, k) for spec, p, k in self.maps]
            failed += sum(1 for a, b in zip(got, ref) if a != b)
        failed += orbits.count(False)
        for (spec, B, k, _), est, ex, w in zip(self.matrix, mc, exact, want):
            mu = tower.measure(spec, B)
            p = ex / mu
            sigma = float(mu) * math.sqrt(float(p * (1 - p)) / MC_SAMPLES)
            if ex != w or abs(float(est - ex)) > MC_SIGMAS * sigma:
                failed += 1
        return len(images) + len(orbits) + len(mc), failed

    def discard_last(self) -> None:
        """Drop the last pass from the rates (used after a traced pass)."""
        self.map_s.pop()
        self.mc_s.pop()

    def lifts(self, answers) -> int:
        return sum(q.stage - p.stage for (_, p, _), q in zip(self.maps, answers[0]) if q)

    def maps_per_s(self) -> float:
        return len(self.maps) / median(self.map_s)

    def mc_samples_per_s(self) -> float:
        return MC_SAMPLES * len(self.matrix) / median(self.mc_s)

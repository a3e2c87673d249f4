"""certify: in-process certificate jobs on fresh gallery specs.

This is where the O(|D|^2) pair loops of ``analysis`` and the sum-set and
refinement enumeration of ``core``/``tower`` act; it touches no point
arithmetic and starts no process.  The spec families differ in how much work
their difference sets share: staircase has many distinct differences, ``t_q``
few with large multiplicities, koopman is sparse with huge heights.

*Fixed* jobs are within the pinned budget and are timed as repeated passes.
*Reach* jobs push past the budget; each runs once per run and counts the
stages it computes whose answer equals the stored reference.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from rankone import analysis, core, gallery, tower
from rankone.core import BudgetExceeded

from common import DOUBLING_R, DOUBLING_Z, budget, digest, enc

warnings.simplefilter("ignore", core.CapsMakeConstructionUnfaithful)


@dataclass
class Job:
    name: str
    specs: Callable[[dict | None], tuple]  # budget fields -> fresh specs
    run: Callable  # (*specs) -> JSON-able answer
    pairs: Callable | None = None  # (*specs) -> pair-loop inputs over height sets


def _stair(b):
    return (gallery.staircase(budget=budget(b)),)


def _koopman(b):
    return (gallery.koopman(budget=budget(b)),)


def _tq(q, max_r):
    return lambda b: (gallery.t_q(q, gallery.Caps(max_r=max_r), budget=budget(b)),)


def _main(b):
    return (gallery.main_wde(budget=budget(b)),)


def _profile(p):
    return [p.stage, p.base_size, enc(p.exceptions), str(p.sup_outside), p.sup_outside_at]


def _nonerg_rows(rep):
    return {row["stage"]: str(row["fraction"]) for row in rep.rows if not row["skipped"]}


def _descendants(spec):
    D = core.descendant_set(spec, 0, 7)
    return [len(D), digest(D)]


def _alpha_tq(spec):
    B = tower.level_set(spec, 2, (0,))
    return _profile(analysis.alpha_type_profile(spec, B, spec.height(4)))


def _rigidity(*specs):
    return [[enc(analysis.rigidity_scan(s, n)) for n in range(7)] for s in specs]


def _rigidity_pairs(*specs):
    return sum(s.stage(n).r ** 2 for s in specs for n in range(7))


def _arithmetic(spec):
    rep = analysis.arithmetic_report(spec, 60)
    return [rep.verdict, rep.summary["qualifying_stages"]]


def _arithmetic_pairs(spec):
    return sum(spec.stage(n).r ** 2 for n in range(60))


def _wde(spec):
    A = tower.level_set(spec, 2, (3,))
    B = tower.level_set(spec, 2, (7,))
    return analysis.wde_probe(spec, A, B, 54)


def _doubling(b):
    return (gallery.high_staircase(DOUBLING_R, DOUBLING_Z, budget=budget(b)),)


def _cons(spec):
    rep = analysis.conservativity_sufficient(spec, 2, 40, Fraction(1, 1000))
    return [rep.verdict, rep.summary["crossed_at"]]


def _noncons(spec):
    rep = analysis.nonconservativity_check(spec, 2, 10)
    return [rep.verdict, str(rep.summary["product"])]


def koopman_shifts(seed: int) -> list[int]:
    """200 shifts in the window h_3 <= k < h_4 of the koopman family."""
    spec = _koopman(None)[0]
    h3, h4 = spec.height(3), spec.height(4)
    rng = random.Random(seed)
    return [h3 + rng.randrange(h4 - h3) for _ in range(200)]


def fixed_jobs(seed: int) -> list[Job]:
    ks = koopman_shifts(seed)

    def decay(spec):
        rep = analysis.koopman_decay_check(spec, tower.level_set(spec, 1, (0,)), ks)
        return [rep.verdict, rep.summary["violations"]]

    jobs = [
        Job("descendant_set.staircase.0-7", _stair, _descendants),
        Job(
            "nonergodicity.staircase.b1.h5",
            _stair,
            lambda s: _nonerg_rows(analysis.nonergodicity_certificate(s, 1, 5)),
        ),
        Job(
            "alpha.koopman.s1.k40000",
            _koopman,
            lambda s: _profile(
                analysis.alpha_type_profile(s, tower.level_set(s, 1, (0,)), 40_000)
            ),
        ),
        Job("alpha.t_q2.s2.kh4", _tq(2, 6), _alpha_tq),
        Job(
            "rigidity.t_q234.s0-6",
            lambda b: _tq(2, 64)(b) + _tq(3, 64)(b) + _tq(4, 64)(b),
            _rigidity,
            _rigidity_pairs,
        ),
        Job("arithmetic.staircase.h60", _stair, _arithmetic, _arithmetic_pairs),
        Job("wde.staircase.a3.b7.n54", _stair, _wde),
        Job(
            "cons_fraction.staircase.0-3.k3",
            _stair,
            lambda s: str(analysis.cons_fraction_exact(s, 0, 3, 3)),
        ),
        Job("rho_bound.staircase.0-7", _stair, lambda s: str(analysis.rho_bound(s, 0, 7, 2))),
        Job("koopman_decay.s1.200", _koopman, decay),
        Job("conservativity.main_wde.k2.h40", _main, _cons),
        Job("nonconservativity.doubling.k2.h10", _doubling, _noncons),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


# -- reach jobs: stage -> answer, None where the budget refused the stage ------


def _reach_nonerg(spec_fn, horizon):
    def run(b):
        rep = analysis.nonergodicity_certificate(spec_fn(b)[0], 1, horizon)
        rows = _nonerg_rows(rep)
        return {n: rows.get(n) for n in range(1, horizon + 1)}

    return run


def _reach_each(spec_fn, keys, fn):
    def run(b):
        spec = spec_fn(b)[0]
        out = {}
        for key in keys:
            try:
                out[key] = fn(spec, key)
            except BudgetExceeded:
                out[key] = None
        return out

    return run


REACH = {
    "nonergodicity.staircase.b1.h6": _reach_nonerg(_stair, 6),
    "nonergodicity.main_wde.b1.h5": _reach_nonerg(_main, 5),
    "cons_fraction.main_wde.k2.j1-5": _reach_each(
        _main, range(1, 6), lambda s, j: str(analysis.cons_fraction_exact(s, 0, j, 2))
    ),
    "rho_bound.staircase.k2.j5-10": _reach_each(
        _stair, range(5, 11), lambda s, j: str(analysis.rho_bound(s, 0, j, 2))
    ),
    "alpha.staircase.s2.k10-30": _reach_each(
        _stair,
        (10, 20, 30),
        lambda s, k: _profile(analysis.alpha_type_profile(s, tower.level_set(s, 2, (0,)), k)),
    ),
}


def _attempt(job, specs):
    try:
        return job.run(*specs)
    except BudgetExceeded:
        return BudgetExceeded


class Workload:
    name = "certify"

    def __init__(self, seed: int, refs: dict) -> None:
        self.refs = refs["certify"]
        self.jobs = fixed_jobs(seed)
        self.live_specs: list[tuple] = []

    def run_pass(self, cal):
        """One pass over the fixed jobs, each calibrated on its own: scaled pass
        seconds, scaled per-job seconds, answers."""
        times, answers, self.live_specs = [], [], []
        for job in self.jobs:
            specs = job.specs(None)
            ans, dt, f = cal(lambda: _attempt(job, specs))
            times.append(dt * f)
            answers.append(ans)
            self.live_specs.append(specs)
        return sum(times), times, answers

    def check(self, answers) -> tuple[int, int]:
        """A fixed job fails when over budget or when its answer is not the reference."""
        fixed = self.refs["fixed"]
        failed = sum(
            1
            for job, ans in zip(self.jobs, answers)
            if ans is BudgetExceeded or enc(ans) != fixed[job.name]
        )
        return len(answers), failed

    def traced_extras(self) -> dict:
        """Materialize fresh copies of the last pass's specs to the depth each reached."""
        stages = 0
        seconds = 0.0
        pairs = 0
        for job, specs in zip(self.jobs, self.live_specs):
            for spec, fresh in zip(specs, job.specs(None)):
                depth = spec.stages_built
                t0 = time.perf_counter()
                fresh.materialize(depth)
                seconds += time.perf_counter() - t0
                stages += depth
            if job.pairs is not None:
                pairs += job.pairs(*specs)
        return {"core.materialize.s": seconds, "core.stages_built": stages, "pairs": pairs}

    def reach(self) -> dict:
        """Run every reach job once under the pinned budget."""
        reached = attempted = failed = 0
        t0 = time.perf_counter()
        for name, run in REACH.items():
            ref = self.refs["reach"][name]
            got = enc(run(None))
            for key, want in ref.items():
                attempted += 1
                ans = got.get(key)
                if ans is None:
                    continue
                if ans == want:
                    reached += 1
                else:
                    failed += 1
        return {
            "reach.s": time.perf_counter() - t0,
            "reached": reached,
            "attempted": attempted,
            "failed": failed,
        }

"""rankone benchmark: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``certify``: in-process certificate jobs on fresh gallery specs, plus the
  reach jobs that push past the pinned budget;
- ``pointwise``: seeded points and shifts through the pointwise map, orbit
  checks and Monte Carlo measures;
- ``cli``: sequential ``python -m rankone.cli`` processes.

Each run sets up (several times; the median is ``setup_s``), then repeats
passes over the workload's fixed operation list for ``--seconds`` seconds,
checks every answer against ``perfbench/refs.json`` or an independent
reference computation, and prints one JSON object as its last line.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  Metric definitions are in ``E2E`` and ``LAYER`` below.

Every time is wall time scaled to a reference host speed: a fixed
stdlib-only kernel (``common.calib_kernel``) runs after each timed step, and
the step's time is multiplied by ``common.CALIB_REF_S`` over the mean of the
kernel times on either side of it.  The kernel does not touch rankone.  The
info line carries the unscaled pass time and the kernel's median time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

import clirun
from common import CALIB_REF_S, SRC, WORK, calib_kernel, load_refs, median, quantile, src_size
from spans import WRAPPED, Tracer

# name -> unit.  Every workload reports every metric; "op" and "pass" mean:
#   certify   op = one fixed certificate job (12 a pass), pass = all fixed jobs once
#   pointwise op = a batch of 20 apply_pointwise images (60 a pass), pass = all
#                  maps, orbit checks and Monte Carlo estimates once
#   cli       op = one small-output invocation (14 a pass), pass = every
#                  invocation once
# Op quantiles are taken within each pass, then the median over passes: the
# ops of a pass are distinct jobs or commands, and a quantile of all samples
# pooled lands on the gap between two of them.
E2E = {
    "setup_s": "s",  # median of 9 set-ups: fresh interpreter importing rankone, inputs, references, spec files
    "pass_s": "s",  # median wall time of one pass
    "op_ms_p50": "ms",  # median over passes of the median op time in a pass
    "op_ms_p90": "ms",  # median over passes of the p90 op time in a pass
    "peak_rss_mb": "MB",  # ru_maxrss of this process, or of its largest child for cli
}

LAYER = {
    "core.materialize.s": "s",
    "core.stages_built": "count",
    "core.descendant_set.s": "s",
    "core.descendant_set.calls": "count",
    "core.descendant_set.elems": "count",
    "core.sum_set.s": "s",
    "core.sum_set.elems": "count",
    "tower.refine.s": "s",
    "tower.refine.levels": "count",
    "tower.translate_intersection_measure.s": "s",
    "tower.translate_intersection_measure.calls": "count",
    "tower.least_valid_stage.s": "s",
    "tower.apply_pointwise.s": "s",
    "tower.apply_pointwise.calls": "count",
    "tower.point_in.s": "s",
    "tower.point_in.calls": "count",
    "tower.lifts": "count",
    "tower.maps_per_s": "1/s",
    "analysis.nonerg_pair_fraction.self_s": "s",
    "analysis.alpha_type_profile.self_s": "s",
    "analysis.rigidity_scan.self_s": "s",
    "analysis.wde_probe.self_s": "s",
    "analysis.arithmetic_report.self_s": "s",
    "analysis.cons_fraction_exact.self_s": "s",
    "analysis.rho_bound.self_s": "s",
    "analysis.koopman_decay_check.self_s": "s",
    "analysis.pair_inputs": "count",
    "analysis.ok_ratio": "ratio",
    "analysis.stages_reached": "count",
    "reach.s": "s",
    "oracle.monte_carlo_measure.s": "s",
    "oracle.stepwise_orbit_check.s": "s",
    "oracle.samples": "count",
    "oracle.mc_samples_per_s": "1/s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_spec.ms": "ms",
    "cli.main.ms": "ms",
    "cli.process_overhead_ms": "ms",
    "cli.stdout_bytes": "count",
    "cli.large_ms_p50": "ms",
    "host.calib_ms": "ms",
    "src.lines": "count",
    "src.public_names": "count",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}

WORKLOADS = ("certify", "pointwise", "cli")
IMPORT_CODE = "import rankone.analysis, rankone.cli, rankone.gallery, rankone.oracle, rankone.tower"


def _modules():
    """Workload modules; imported late because they import rankone."""
    import certify
    import pointwise

    return {"certify": certify, "pointwise": pointwise, "cli": clirun}


class Calibrated:
    """Runs steps with a calibration kernel after each one and scales each
    step's wall time by CALIB_REF_S over the mean of the kernel times on
    either side of it."""

    def __init__(self) -> None:
        self.samples = [calib_kernel()]

    def __call__(self, fn):
        """(result, raw seconds, scale factor) of one step."""
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.samples.append(calib_kernel())
        return out, dt, CALIB_REF_S / ((self.samples[-2] + self.samples[-1]) / 2)

    def run_factor(self) -> float:
        return CALIB_REF_S / median(self.samples)


def set_up(name: str, seed: int, refs: dict | None, cal: Calibrated, reps: int = 9):
    """Median scaled seconds of ``reps`` set-ups, and the last set-up's workload.

    A set-up is a fresh interpreter importing rankone, plus input generation,
    loading the references and writing spec files in this process."""
    env = clirun.child_env()
    maker = _modules()[name].Workload

    def once():
        subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True)
        return maker(seed, refs if refs is not None else load_refs())

    times = []
    for _ in range(reps):
        w, dt, f = cal(once)
        times.append(dt * f)
    return median(times), w


class Counts:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run(name: str, seed: int, seconds: float, trace: bool, refs=None, table=None):
    """Run one workload; returns (result line, extra information)."""
    cal = Calibrated()
    setup_s, w = set_up(name, seed, refs, cal)
    counts = Counts()
    info: dict = {"workload": name, "seed": seed}
    reach = None
    if name == "certify":
        reach = w.reach()
        counts.add(reach["attempted"], reach["failed"])
        info["stages_reached"] = reach["reached"]
    if trace:
        metrics = _traced(w, seconds, counts, cal, table, info, reach)
        units = LAYER
    else:
        metrics = _timed(w, seconds, counts, cal, info)
        metrics["setup_s"] = setup_s
        units = E2E
        info["named"] = _named(w, metrics, counts, info, cal.run_factor())
    info["host.calib_ms"] = median(cal.samples) * 1000
    line = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return line, info


def _timed(w, seconds, counts, cal, info) -> dict:
    """Untraced passes for ``seconds``: the end-to-end metrics but set-up."""
    passes: list[float] = []
    p50: list[float] = []
    p90: list[float] = []
    ops = 0
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        pass_s, op_times, answers = w.run_pass(cal)
        passes.append(pass_s)
        p50.append(median(op_times))
        p90.append(quantile(op_times, 9))
        ops += len(op_times)
        counts.add(*w.check(answers))
        if time.perf_counter() >= deadline:
            break
    info.update(passes=len(passes), ops=ops, unscaled_pass_s=median(passes) / cal.run_factor())
    if w.name == "cli":
        rss = w.peak_rss_mb()
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "pass_s": median(passes),
        "op_ms_p50": median(p50) * 1000,
        "op_ms_p90": median(p90) * 1000,
        "peak_rss_mb": rss,
    }


def _named(w, metrics, counts, info, F) -> dict:
    """Each workload's own end-to-end figures (certify_s, maps_per_s,
    cli_small_ms_p50, ...), for the info line."""
    named = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "fail_ratio": (counts.failed / counts.attempted, "ratio"),
    }
    if w.name == "certify":
        named["certify_s"] = (metrics["pass_s"], "s")
        named["stages_reached"] = (info["stages_reached"], "count")
    elif w.name == "pointwise":
        named["maps_per_s"] = (w.maps_per_s() / F, "1/s")
        named["mc_samples_per_s"] = (w.mc_samples_per_s() / F, "1/s")
    else:
        named["cli_small_ms_p50"] = (metrics["op_ms_p50"], "ms")
        named["cli_small_ms_p90"] = (metrics["op_ms_p90"], "ms")
        named["cli_large_ms_p50"] = (median(w.large_ms), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def _traced(w, seconds, counts, cal, table, info, reach) -> dict:
    """Alternate untraced and traced passes; per-layer values are per traced
    pass, and a layer the workload does not touch reads 0.

    For cli a pass is ``cli.main`` called in this process for every
    invocation, and each iteration also runs the processes once."""
    import certify
    import pointwise
    from rankone import cli

    tracer = Tracer(table)
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    extras: list[dict] = []
    process_s: list[float] = []
    fixed = Counts()
    is_cli = w.name == "cli"

    def one_pass():
        """Scaled seconds and answers of one pass."""
        if is_cli:
            answers, dt, f = cal(lambda: w.in_process_pass(cli))
            return dt * f, answers
        pass_s, _, answers = w.run_pass(cal)
        return pass_s, answers

    deadline = time.perf_counter() + seconds
    while True:
        if is_cli:
            pass_s, _, answers = w.run_pass(cal)
            process_s.append(pass_s)
            counts.add(*w.check(answers))
            stdout_bytes = w.stdout_bytes(answers)
        gc.collect()
        pass_s, answers = one_pass()
        untraced.append(pass_s)
        counts.add(*w.check(answers))
        gc.collect()
        lo = tracer.mark()
        tracer.job = len(traced)
        tracer.install((certify, pointwise, clirun))
        try:
            pass_s, answers = one_pass()
        finally:
            tracer.uninstall()
        traced.append(pass_s)
        summaries.append(tracer.summary(lo, tracer.mark()))
        checked = w.check(answers)
        counts.add(*checked)
        if w.name == "certify":
            fixed.add(*checked)
            extras.append(w.traced_extras())
        elif w.name == "pointwise":
            w.discard_last()
            extras.append({"tower.lifts": w.lifts(answers)})
        if time.perf_counter() >= deadline and len(traced) >= 2:
            break
    tracer.dump(WORK / f"spans-{w.name}.jsonl")
    F = cal.run_factor()

    def per_pass(name, field="s"):
        """Median over traced passes of a summed time, scaled by the run's factor."""
        return median([s[name][field] if name in s else 0 for s in summaries]) * F

    def count(name, field):
        return summaries[0][name][field] if name in summaries[0] else 0

    layer = {f"{q}.s": per_pass(q) for q in WRAPPED if not q.startswith(("analysis.", "cli."))}
    layer.update({f"{q}.self_s": per_pass(q, "self_s") for q in WRAPPED if q.startswith("analysis.")})
    for q in ("core.descendant_set", "core.sum_set"):
        layer[f"{q}.elems"] = count(q, "size")
    layer["tower.refine.levels"] = count("tower.refine", "size")
    for q in ("core.descendant_set", "tower.translate_intersection_measure",
              "tower.apply_pointwise", "tower.point_in"):
        layer[f"{q}.calls"] = count(q, "calls")
    layer["analysis.pair_inputs"] = summaries[0]["analysis.pair_inputs"]
    for key in extras[0] if extras else ():
        values = [e[key] for e in extras]
        layer[key] = median(values) * F if key.endswith(".s") else values[0]
    layer["analysis.pair_inputs"] += layer.pop("pairs", 0)
    if reach is not None:
        layer["analysis.stages_reached"] = reach["reached"]
        layer["reach.s"] = reach["reach.s"] * F
        layer["analysis.ok_ratio"] = (fixed.attempted - fixed.failed + reach["reached"]) / (
            fixed.attempted + reach["attempted"]
        )
    if w.name == "pointwise":
        layer["oracle.samples"] = pointwise.MC_SAMPLES * len(w.matrix)
        layer["tower.maps_per_s"] = w.maps_per_s() / F
        layer["oracle.mc_samples_per_s"] = w.mc_samples_per_s() / F
    if is_cli:
        n = w.invocations
        interp = clirun.interpreter_ms("pass", w.env) * F
        layer["cli.interp_ms"] = interp
        layer["cli.import_ms"] = clirun.interpreter_ms("import rankone.cli", w.env) * F - interp
        layer["cli.load_spec.ms"] = per_pass("cli.load_spec") * 1000 / n
        main_ms = median(untraced) * 1000 / n
        layer["cli.main.ms"] = main_ms
        layer["cli.process_overhead_ms"] = median(process_s) * 1000 / n - main_ms
        layer["cli.stdout_bytes"] = stdout_bytes
        layer["cli.large_ms_p50"] = median(w.large_ms)
    layer["src.lines"], layer["src.public_names"] = src_size()
    layer["trace.overhead_s"] = median(traced) - median(untraced)
    layer["host.calib_ms"] = median(cal.samples) * 1000
    layer["fail_ratio"] = counts.failed / max(counts.attempted, 1)
    info.update(
        absent=tracer.absent,
        passes=len(traced),
        untraced_pass_s=median(untraced),
        traced_pass_s=median(traced),
    )
    return {k: layer.get(k, 0) for k in LAYER}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankone" / "__init__.py").is_file():
        print(f"error: no rankone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so the calibration kernel
    # and the timed work share a core's speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    line, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

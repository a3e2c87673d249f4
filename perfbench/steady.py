"""Steadiness report: run one workload N times, each with another seed, and
print for every metric the median, the quartiles, (q3 - q1)/median and
(max - min)/median, with the bound from BENCHMARK.json and host.calib_ms.

    python3 perfbench/steady.py --workload certify --runs 10 --seconds 30

A metric is marked steady when (q3 - q1)/median is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(x[6:]) for x in lines if x.startswith("info: ")), {})
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range_share": (max(values) - min(values)) / med if med else 0.0,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="steadiness report for one workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    calib: list[float] = []
    failed = 0
    for i in range(args.runs):
        line, info = one_run(args.workload, args.first_seed + i, args.seconds, args.trace)
        failed += line["failed"]
        calib.append(info.get("host.calib_ms", 0.0))
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1} seed {args.first_seed + i}: failed {line['failed']}/{line['attempted']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in line["metrics"].items()), flush=True)

    report = {"workload": args.workload, "runs": args.runs, "failed": failed, "metrics": {}}
    c = spread(calib)
    print(f"host.calib_ms median {c['median']:.4g} q1 {c['q1']:.4g} q3 {c['q3']:.4g} "
          f"iqr/med {c['iqr_share']:.3f} range/med {c['range_share']:.3f}")
    for name, vals in values.items():
        s = spread(vals)
        bound = bounds.get(name)
        s["bound"] = bound
        s["steady"] = bound is None or s["iqr_share"] < bound / 3
        report["metrics"][name] = s
        print(f"{name:>44} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"iqr/med {s['iqr_share']:.3f} range/med {s['range_share']:.3f} bound {bound} "
              f"{'ok' if s['steady'] else 'UNSTEADY'}")
    report["host.calib_ms"] = c
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, in one process:

1. every workload, one pass each, passes its checks and reports every metric
   named in BENCHMARK.json with its unit;
2. a planted wrong reference makes each workload report failures;
3. a traced run whose wrapper table lacks ``core.sum_set`` still passes and
   reports that metric absent.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys

from common import ROOT, SRC

sys.path.insert(0, str(SRC))

import run  # noqa: E402
import spans  # noqa: E402
from common import load_refs  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"{'ok' if ok else 'FAILED'}: {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.E2E and layer == run.LAYER, "BENCHMARK.json names and units match run.py")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload list matches")

    refs = load_refs()
    for name in run.WORKLOADS:
        line, _ = run.run(name, 1, 0, False, refs)
        got = {k: m["unit"] for k, m in line["metrics"].items()}
        expect(line["failed"] == 0 and line["attempted"] > 0 and got == e2e,
               f"{name}: one pass, {line['attempted']} checked, every metric reported")

    planted = copy.deepcopy(refs)
    first = next(iter(planted["certify"]["fixed"]))
    planted["certify"]["fixed"][first] = "wrong"
    planted["pointwise"]["exact"][0] = "1/3"
    planted["cli"]["describe.staircase"]["sha256"] = "0" * 64
    for name in run.WORKLOADS:
        line, _ = run.run(name, 1, 0, False, planted)
        expect(line["failed"] > 0 and not line["correct"],
               f"{name}: planted wrong reference gives fail_ratio "
               f"{line['failed'] / line['attempted']:.4f} > 0")

    table = {k: v for k, v in spans.WRAPPED.items() if k != "core.sum_set"}
    line, info = run.run("certify", 1, 0, True, refs, table)
    metrics = line["metrics"]
    expect(
        line["failed"] == 0
        and "core.sum_set" in info["absent"]
        and metrics["core.sum_set.s"]["value"] == 0
        and metrics["core.descendant_set.elems"]["value"] > 0,
        "traced run without core.sum_set passes and reports it absent",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

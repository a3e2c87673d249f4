"""Compute perfbench/refs.json, the stored answers every run is checked against.

    python3 perfbench/make_refs.py

Fixed certify jobs use the pinned budget.  Reach stages are computed with a
raised budget; a stage that the raised budget still refuses (too large to
compute in a few minutes) is left out and never counted.  CLI references are
exit codes and stdout bytes.  The answers do not depend on the seed; the
seed given here only fixes the koopman shifts, whose verdict is the same for
every seed.  Takes several minutes.
"""

from __future__ import annotations

import json
import sys
import time

from common import REFS_PATH, SRC, enc

sys.path.insert(0, str(SRC))

import certify  # noqa: E402
import clirun  # noqa: E402
import pointwise  # noqa: E402
from rankone import tower  # noqa: E402

# Beyond these limits today's pair loops need gigabytes (main_wde stage 4 has
# 1.2e8 pairs), so such stages get no reference and are never counted.
RAISED_BUDGET = {
    "max_stage": 64,
    "max_height_bits": 100_000,
    "max_descendants": 10**7,
    "max_pairs": 5 * 10**7,
}


def main() -> int:
    refs: dict = {"certify": {"fixed": {}, "reach": {}}, "pointwise": {}, "cli": {}}
    for job in certify.fixed_jobs(0):
        refs["certify"]["fixed"][job.name] = enc(job.run(*job.specs(None)))
    for name, run in certify.REACH.items():
        t0 = time.perf_counter()
        got = enc(run(RAISED_BUDGET))
        refs["certify"]["reach"][name] = {k: v for k, v in got.items() if v is not None}
        print(f"reach {name}: {sorted(refs['certify']['reach'][name])} "
              f"in {time.perf_counter() - t0:.1f} s", file=sys.stderr)

    specs = pointwise.make_specs()
    refs["pointwise"]["exact"] = [
        str(tower.translate_intersection_measure(spec, B, k))
        for spec, B, k in pointwise.mc_matrix(specs)
    ]

    paths = clirun.write_spec_files()
    env = clirun.child_env()
    for cmd in clirun.SMALL + clirun.LARGE:
        _, code, out = clirun.run_process(clirun.argv_for(cmd, paths), env)
        if code != cmd[3]:
            raise SystemExit(f"{cmd[0]}: exit {code}, expected {cmd[3]}")
        refs["cli"][cmd[0]] = clirun.fingerprint(code, out)

    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

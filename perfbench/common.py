"""Pieces shared by the workloads: pinned budget, answer encoding, statistics,
the host calibration kernel, the reference file and source-size counts."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFS_PATH = HERE / "refs.json"

# Today's defaults for the four CLI-settable Budget fields, written out so a
# later change of defaults cannot move a metric.  Budget.max_iterate is left
# out on purpose: nothing reads it.
PINNED_BUDGET = {
    "max_stage": 64,
    "max_height_bits": 100_000,
    "max_descendants": 200_000,
    "max_pairs": 10_000_000,
}

# Ten-stage doubling family of acceptance criterion 4.
DOUBLING_R = tuple(2 ** (n + 1) for n in range(10))
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


def budget(fields: dict | None = None):
    from rankone.core import Budget

    return Budget(**(fields or PINNED_BUDGET))


def enc(v):
    """JSON image of an answer: fractions as 'p/q', tuples as lists."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [enc(x) for x in v]
    if isinstance(v, dict):
        return {str(k): enc(x) for k, x in v.items()}
    return v


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
        h.update(b",")
    return h.hexdigest()


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def median(xs):
    return statistics.median(xs)


def quantile(xs, q: int, n: int = 10):
    """The q-th of the n-quantiles of xs (statistics.quantiles, exclusive)."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=n)[q - 1]


# Time metrics are wall times scaled to a host on which calib_kernel() takes
# this long.  On a two-core host shared with other tenants a process ran up to
# 1.7x slower for seconds at a time, which moved raw wall times by 25-35%
# between runs; the kernel, run between timed steps in the same process, slows
# by the same factor and cancels it (scaled times moved by 2-6%).
CALIB_REF_S = 0.030


def calib_kernel() -> float:
    """Seconds for a fixed stdlib-only Fraction/dict kernel; machine drift shows here."""
    t0 = time.perf_counter()
    table: dict[int, Fraction] = {}
    for i in range(1, 6000):
        x = Fraction(i, 127) + Fraction(1, i + 1)
        table[x.numerator % 4099] = x * x
    return time.perf_counter() - t0


def src_size() -> tuple[int, int]:
    """Lines under src/rankone and the count of public names the modules define."""
    import importlib

    lines = 0
    names = 0
    for path in sorted((SRC / "rankone").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
        modname = "rankone" if path.stem == "__init__" else f"rankone.{path.stem}"
        mod = importlib.import_module(modname)
        names += sum(
            1
            for n, v in vars(mod).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == modname
        )
    return lines, names

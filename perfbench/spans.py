"""Traced mode: wrap public functions of rankone from outside and record spans.

Modules import functions by name (``from rankone.tower import refine``), so a
wrapper replaces the binding in every loaded ``rankone`` module and in the
benchmark's own modules.  A function missing from the program is reported
absent, never an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# qualified name -> size of a call's work, taken from its result (or None)
WRAPPED = {
    "core.descendant_set": len,
    "core.sum_set": len,
    "core.is_direct_sum": None,
    "tower.refine": lambda out: len(out.heights),
    "tower.translate_intersection_measure": None,
    "tower.least_valid_stage": None,
    "tower.apply_pointwise": None,
    "tower.point_in": None,
    "analysis.nonerg_pair_fraction": None,
    "analysis.alpha_type_profile": None,
    "analysis.rigidity_scan": None,
    "analysis.wde_probe": None,
    "analysis.arithmetic_report": None,
    "analysis.cons_fraction_exact": None,
    "analysis.rho_bound": None,
    "analysis.koopman_decay_check": None,
    "oracle.monte_carlo_measure": None,
    "oracle.stepwise_orbit_check": None,
    "cli.load_spec": None,
    "cli.main": None,
}

# Functions whose result sets are the inputs of analysis pair loops.
PAIR_SOURCES = ("core.descendant_set", "tower.refine")

NAME, START, END, PARENT, JOB, SIZE = range(6)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job id, size].
    The runner sets ``job`` to the traced pass's number."""

    def __init__(self, table: dict | None = None) -> None:
        self.table = dict(WRAPPED if table is None else table)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, size):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(out)
            return out

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Patch every binding of each table entry; entries the program or the
        table lacks are listed in ``absent``."""
        mods = [m for n, m in list(sys.modules.items()) if n.startswith("rankone") and m]
        mods += list(extra_modules)
        absent = set(WRAPPED) - set(self.table)
        for qual, size in self.table.items():
            modname, fname = qual.split(".")
            original = getattr(sys.modules.get(f"rankone.{modname}"), fname, None)
            if original is None:
                absent.add(qual)
                continue
            wrapped = self._wrap(qual, original, size)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, val))
                        setattr(mod, attr, wrapped)
        self.absent = sorted(absent)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def summary(self, lo: int, hi: int) -> dict:
        """Per-name totals over spans[lo:hi]: seconds, self seconds, calls, sizes,
        and the summed squared sizes of pair-loop inputs under analysis spans."""
        child = defaultdict(float)
        for rec in self.spans[lo:hi]:
            if rec[PARENT] >= lo:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "size": 0})
        pair_inputs = 0
        for i in range(lo, hi):
            rec = self.spans[i]
            d = rec[END] - rec[START]
            agg = out[rec[NAME]]
            agg["s"] += d
            agg["self_s"] += d - child[i]
            agg["calls"] += 1
            agg["size"] += rec[SIZE]
            parent = rec[PARENT]
            if (
                rec[NAME] in PAIR_SOURCES
                and parent >= lo
                and self.spans[parent][NAME].startswith("analysis.")
            ):
                pair_inputs += rec[SIZE] ** 2
        result = dict(out)
        result["analysis.pair_inputs"] = pair_inputs
        return result

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

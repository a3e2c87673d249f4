"""The certify benchmark's answers, checked on every test run.

``perfbench/certify.py`` holds fixed certificate jobs and reach jobs whose
answers ``perfbench/refs.json`` pins.  One untimed pass of the fixed jobs and
one run of the reach jobs take well under a second, so a change to the
counting kernels that moves a benchmark answer fails here, not only when the
benchmark runs.  The benchmark files are imported, never changed.
"""

import importlib
import pathlib
import sys
import warnings

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _untimed(fn):
    """A calibrator that only runs the step: (answer, seconds, scale)."""
    return fn(), 0.0, 1.0


def test_certify_answers_match_the_references(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [name for name in ("certify", "common") if name not in sys.modules]
    try:
        # certify silences the caps warning at import; keep that filter here
        with warnings.catch_warnings():
            certify = importlib.import_module("certify")
            common = importlib.import_module("common")
            w = certify.Workload(seed=1, refs=common.load_refs())
            _, _, answers = w.run_pass(_untimed)
            attempted, failed = w.check(answers)
            reach = w.reach()
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert attempted == len(w.jobs) > 0
    assert failed == 0, [
        (job.name, ans) for job, ans in zip(w.jobs, answers)
        if common.enc(ans) != w.refs["fixed"][job.name]
    ]
    assert reach["failed"] == 0
    assert reach["reached"] > 0

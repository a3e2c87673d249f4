"""The benchmark's answers, checked on every test run.

``perfbench/refs.json`` pins the answers of every workload: the fixed
certificate jobs and reach jobs of ``perfbench/certify.py``, the pointwise
images, orbit checks and Monte Carlo estimates of ``perfbench/pointwise.py``,
and the exit code and stdout bytes of each command of ``perfbench/clirun.py``.
One untimed pass of each takes well under a second, so a change that moves a
benchmark answer fails here, not only when the benchmark runs.  The benchmark
files are imported, never changed.
"""

import contextlib
import importlib
import pathlib
import sys
import warnings

from rankone import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _untimed(fn):
    """A calibrator that only runs the step: (answer, seconds, scale)."""
    return fn(), 0.0, 1.0


@contextlib.contextmanager
def _perfbench(monkeypatch, *names):
    """The named perfbench modules, imported with their warning filters kept
    here and dropped from ``sys.modules`` afterwards if they were not loaded."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [name for name in (*names, "common") if name not in sys.modules]
    try:
        with warnings.catch_warnings():
            yield [importlib.import_module(name) for name in (*names, "common")]
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


def test_certify_answers_match_the_references(monkeypatch):
    with _perfbench(monkeypatch, "certify") as (certify, common):
        w = certify.Workload(seed=1, refs=common.load_refs())
        _, _, answers = w.run_pass(_untimed)
        attempted, failed = w.check(answers)
        reach = w.reach()
    assert attempted == len(w.jobs) > 0
    assert failed == 0, [
        (job.name, ans) for job, ans in zip(w.jobs, answers)
        if common.enc(ans) != w.refs["fixed"][job.name]
    ]
    assert reach["failed"] == 0
    assert reach["reached"] > 0


def test_pointwise_answers_match_the_references(monkeypatch):
    with _perfbench(monkeypatch, "pointwise") as (pointwise, common):
        w = pointwise.Workload(seed=1, refs=common.load_refs())
        _, _, answers = w.run_pass(_untimed)
        attempted, failed = w.check(answers)
    assert attempted == len(w.maps) + len(w.orbits) + len(w.matrix) > 0
    assert failed == 0


def test_cli_answers_match_the_references(monkeypatch, tmp_path):
    with _perfbench(monkeypatch, "clirun") as (clirun, common):
        refs = common.load_refs()["cli"]
        paths = clirun.write_spec_files(tmp_path)
        showwarning = warnings.showwarning  # cli.main replaces it
        got = {}
        try:
            for cmd in clirun.SMALL + clirun.LARGE:
                code, out = clirun.run_in_process(cli.main, clirun.argv_for(cmd, paths))
                got[cmd[0]] = clirun.fingerprint(code, out)
        finally:
            warnings.showwarning = showwarning
    assert len(got) == len(clirun.SMALL) + len(clirun.LARGE) > 0
    assert {name: fp for name, fp in got.items() if fp != refs[name]} == {}

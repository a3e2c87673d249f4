"""End-to-end tests for the command-line front end.

Most tests drive ``cli.main`` in-process and read stdout/stderr through
capsys; a few run real subprocesses, to confirm the output is
byte-identical across interpreter runs, that small commands load no
certificate module, and that a closed stdout ends a run quietly.
"""

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import inspect
import json
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import analysis, cli, core, gallery
from rankone.core import Budget

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"  # on the PYTHONPATH of CLI child processes


STAIR = {"name": "stair", "builder": {"kind": "staircase"}}
TRIPLE = {
    "name": "triple",
    "builder": {
        "kind": "explicit",
        "stages": [[3, [0, 1, 2]], [3, [0, 1, 2]]],
        "cycle": True,
    },
}
KOOP = {"name": "koop", "builder": {"kind": "koopman", "max_r": 16}}
TQ2 = {"name": "tq2", "builder": {"kind": "t_q", "q": 2, "max_r": 6}}
MAIN_WDE = {
    "name": "mw",
    "builder": {"kind": "main_wde", "max_r": 64},
    "max_stage": 24,
    "budget": {"max_height_bits": 200000},
}
DOUBLING = {
    "name": "doubling",
    "builder": {
        "kind": "high_staircase",
        "r_seq": [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        "z_seq": [
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
        ],
    },
    "budget": {"max_height_bits": 200000},
}


@pytest.fixture(autouse=True)
def _isolate_warning_hooks():
    # each test sees the cap warnings afresh: filters and the record of
    # warnings already shown are reset around it
    with warnings.catch_warnings():
        yield


@pytest.fixture()
def specfile(tmp_path):
    def write(data, name="spec.json"):
        p = tmp_path / name
        p.write_text(json.dumps(data), encoding="utf-8")
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- happy path ----------------------------------------------------------------


def test_describe_reports_stage_table(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(capsys, "describe", "--spec", path, "-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "describe"
    assert payload["spec"]["name"] == "stair"
    rows = payload["rows"]
    assert len(rows) == 4
    assert [row["r"] for row in rows] == [2, 3, 4, 5]
    assert [row["h"] for row in rows] == [1, 3, 12, 54]
    assert all(row["max_descendant"] < row["h"] for row in rows[1:])


def test_heights_frozen_values(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(capsys, "heights", "--spec", path, "--stage", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["h"] == 12
    assert payload["result"]["heights"] == [0, 12, 25, 39]


def test_measure_self_and_cross(specfile, capsys):
    path = specfile(TRIPLE)
    code, out, _ = run_cli(
        capsys, "measure", "--spec", path, "--stage", "1", "--levels", "0", "--k", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["quantity"] == "self-overlap"
    assert payload["result"]["measure"] == "1/3"

    code, out, _ = run_cli(
        capsys,
        "measure",
        "--spec",
        path,
        "--stage",
        "1",
        "--levels",
        "0",
        "--k",
        "3",
        "--other-levels",
        "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["quantity"] == "shifted-intersection"
    assert payload["result"]["measure"] == "1/3"

    code, out, _ = run_cli(
        capsys,
        "measure",
        "--spec",
        path,
        "--stage",
        "1",
        "--levels",
        "0",
        "--k",
        "-3",
        "--other-levels",
        "3",
    )
    assert code == 0
    assert json.loads(out)["result"]["measure"] == "1/9"


def test_measure_other_stage_needs_other_levels(specfile, capsys):
    path = specfile(STAIR)
    argv = ["measure", "--spec", path, "--stage", "2", "--levels", "0", "--k", "7"]
    code, out, err = run_cli(capsys, *argv, "--other-stage", "3")
    assert (code, out) == (4, "")
    assert err == "precondition failed: --other-stage needs --other-levels\n"
    code, out, _ = run_cli(capsys, *argv, "--other-stage", "3", "--other-levels", "0")
    assert code == 0
    assert json.loads(out)["result"]["quantity"] == "shifted-intersection"


def test_check_cons_crossing(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(
        capsys,
        "check-cons",
        "--spec",
        path,
        "--k",
        "2",
        "--horizon",
        "12",
        "--threshold",
        "1/10",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "satisfied"
    assert report["summary"]["crossed_at"] == 9
    # rows stop once the product crosses the threshold
    assert len(report["rows"]) == 10


def test_check_noncons_verdict_depends_on_floor(specfile, capsys):
    path = specfile(DOUBLING)
    code, out, _ = run_cli(
        capsys, "check-noncons", "--spec", path, "--k", "2", "--horizon", "4"
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "refuted-conservativity"
    assert report["summary"]["product"] == "1/2"

    # an unreachable floor flips the verdict but still exits 0
    code, out, _ = run_cli(
        capsys,
        "check-noncons",
        "--spec",
        path,
        "--k",
        "2",
        "--horizon",
        "4",
        "--floor",
        "3/4",
    )
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "inconclusive-at-horizon"


@pytest.mark.filterwarnings("ignore::rankone.core.CapsMakeConstructionUnfaithful")
def test_rigidity_frozen(specfile, capsys):
    path = specfile(TQ2)
    spec = gallery.t_q(2, gallery.Caps(max_r=6))
    code, out, _ = run_cli(capsys, "rigidity", "--spec", path, "--stage", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["best_shift"] == 2 * spec.height(2)
    assert payload["result"]["ratio"] == "1/2"


def test_alpha_dump_rows(specfile, capsys):
    path = specfile(TQ2)
    code, out, _ = run_cli(
        capsys,
        "alpha",
        "--spec",
        path,
        "--stage",
        "1",
        "--kmax",
        "50",
        "--dump",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 50
    assert payload["rows"][0]["k"] == 1
    assert all("ratio" in row for row in payload["rows"])


def test_arithmetic_smoke(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(
        capsys, "arithmetic", "--spec", path, "--horizon", "20", "--min-k", "0"
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["kind"] == "arithmetic"
    assert report["verdict"] in ("satisfied-at-horizon", "inconclusive-at-horizon")


def test_divisibility_on_partitioned_heights(specfile, capsys):
    path = specfile({"name": "p3", "builder": {"kind": "partition_staircase", "k": 3}})
    code, out, _ = run_cli(capsys, "divisibility", "--spec", path, "--horizon", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["gcd"] % 3 == 0
    assert payload["result"]["verdict"] == "not-weak-mixing"


def test_wde_matches_library(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(
        capsys,
        "wde",
        "--spec",
        path,
        "--a-stage",
        "2",
        "--a-levels",
        "3",
        "--b-stage",
        "2",
        "--b-levels",
        "7",
        "--nmax",
        "54",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["found"] is True
    n = payload["result"]["first_shift"]
    assert 1 <= n <= 54

    from rankone import tower

    spec = gallery.staircase()
    A = tower.level_set(spec, 2, (3,))
    B = tower.level_set(spec, 2, (7,))
    assert analysis.wde_probe(spec, A, B, 54) == n


def test_koopman_explicit_shifts(specfile, capsys):
    path = specfile(KOOP)
    spec = gallery.koopman(gallery.Caps(max_r=16))
    h1 = spec.height(1)
    code, out, _ = run_cli(
        capsys,
        "koopman",
        "--spec",
        path,
        "--stage",
        "1",
        "--k",
        f"{h1},{h1 + 1},{h1 + 2}",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["kind"] == "koopman-decay"
    assert report["verdict"] == "satisfied"
    assert len(report["rows"]) == 3


def test_koopman_draws_its_shifts_without_the_lane_mixer(specfile, capsys):
    # the lanes of SplitMix64._mix serve the Monte Carlo sampler alone
    from rankone import oracle

    oracle._generator_lanes.cache_clear()
    code, out, _ = run_cli(
        capsys, "koopman", "--spec", specfile(KOOP), "--stage", "1",
        "--samples", "40", "--kmin", "60", "--kmax", "600", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out)["inputs"]["shifts"] == 40
    assert oracle._generator_lanes.cache_info().currsize == 0


# -- oracle subcommands ----------------------------------------------------------


def test_oracle_descendants_agrees(specfile, capsys):
    path = specfile(TRIPLE)
    code, out, _ = run_cli(
        capsys, "oracle", "descendants", "--spec", path, "--i", "0", "--j", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "oracle-descendants"
    assert payload["result"]["agrees_with_exact"] is True
    assert payload["result"]["descendants"] == [0, 1, 3, 6, 7, 9, 13, 14, 16]


def test_oracle_tuples_agrees(specfile, capsys):
    path = specfile(TRIPLE)
    code, out, _ = run_cli(
        capsys, "oracle", "tuples", "--spec", path, "--i", "0", "--j", "2", "--k", "2"
    )
    assert code == 0
    assert json.loads(out)["result"]["agrees"] is True


def test_oracle_mc_reports_error_bars(specfile, capsys):
    path = specfile(TRIPLE)
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "mc",
        "--spec",
        path,
        "--stage",
        "1",
        "--levels",
        "0",
        "--k",
        "0",
        "--samples",
        "2000",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["exact"] == "1/3"
    for key in ("estimate", "stderr", "abs_error"):
        assert key in payload["result"]


def test_oracle_orbit_agrees(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "orbit",
        "--spec",
        path,
        "--stage",
        "1",
        "--height",
        "0",
        "--offset",
        "1/100",
        "--k",
        "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["agrees"] is True
    assert payload["result"]["image_stage"] >= 1


# -- output formats ---------------------------------------------------------------


def test_json_deterministic_in_process(specfile, capsys):
    path = specfile(MAIN_WDE)
    args = ("check-nonerg", "--spec", path, "--b", "1", "--horizon", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    json.loads(out1)


def test_json_deterministic_across_processes(specfile, capsys):
    path = specfile(STAIR)
    argv = [
        sys.executable,
        "-m",
        "rankone.cli",
        "describe",
        "--spec",
        path,
        "-n",
        "6",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    _, inproc, _ = run_cli(capsys, "describe", "--spec", path, "-n", "6")
    assert first.stdout.decode() == inproc


def test_csv_nonerg_rows(specfile, capsys):
    path = specfile(MAIN_WDE)
    code, out, _ = run_cli(
        capsys,
        "check-nonerg",
        "--spec",
        path,
        "--b",
        "1",
        "--horizon",
        "3",
        "--format",
        "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["stage", "fraction", "skipped"]
    assert [row[1] for row in rows[1:]] == ["0", "39/392", "39/392"]


def test_csv_descendant_rows(specfile, capsys):
    path = specfile(TRIPLE)
    code, out, _ = run_cli(
        capsys,
        "descendants",
        "--spec",
        path,
        "--i",
        "0",
        "--j",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "height"]
    assert [row[1] for row in rows[1:]] == list("013679") + ["13", "14", "16"]


def test_csv_without_rows_is_empty(specfile, capsys):
    path = specfile(TRIPLE)
    code, out, _ = run_cli(
        capsys,
        "measure",
        "--spec",
        path,
        "--stage",
        "1",
        "--levels",
        "0",
        "--k",
        "0",
        "--format",
        "csv",
    )
    assert code == 0
    assert out == ""


def test_csv_header_has_every_key_of_the_rows(specfile, capsys):
    """A skipped first stage has fewer keys than the stages after it; their
    columns still reach the header, and the skipped row leaves them empty."""
    spec = {
        "builder": {"kind": "explicit", "stages": [[3, [0, 1, 2]], [2, [0, 1]]], "cycle": True},
        "budget": {"max_pairs": 5},
    }
    argv = ["arithmetic", "--spec", specfile(spec), "--horizon", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    json_rows = json.loads(out)["report"]["rows"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows == [
        ["stage", "r", "skipped", "best_a", "best_k", "best_length", "fraction", "qualifies"],
        ["0", "3", "True", "", "", "", "", ""],
        ["1", "2", "False", "0", "-1", "2", "1", "False"],
    ]
    assert sorted(rows[0]) == sorted(json_rows[1])


def test_text_format(specfile, capsys):
    path = specfile(STAIR)
    code, out, _ = run_cli(capsys, "describe", "--spec", path, "--format", "text")
    assert code == 0
    assert "command: describe" in out
    assert "spec: stair" in out

    path = specfile(TRIPLE, name="triple.json")
    code, out, _ = run_cli(
        capsys,
        "measure",
        "--spec",
        path,
        "--stage",
        "1",
        "--levels",
        "0",
        "--k",
        "0",
        "--format",
        "text",
    )
    assert code == 0
    assert "measure: 1/3" in out

    # a list of records prints one "k: p/q" per item
    path = specfile(STAIR)
    argv = ["--stage", "1", "--kmax", "12", "--threshold", "1/10", "--format", "text"]
    code, out, _ = run_cli(capsys, "alpha", "--spec", path, *argv)
    assert code == 0
    assert "exceptions: 3: 1/3 4: 1/3 7: 5/12 9: 11/60 10: 11/60 11: 7/60 12: 103/360\n" in out
    assert "rows:" not in out


def test_text_format_counts_the_rows_of_every_payload(specfile, capsys):
    path = specfile(STAIR)
    argv = ["alpha", "--spec", path, "--stage", "1", "--kmax", "12", "--format", "text"]
    _, plain, _ = run_cli(capsys, *argv)
    code, dumped, _ = run_cli(capsys, *argv, "--dump")
    assert code == 0
    assert dumped == plain + "rows: 12\n"
    _, out, _ = run_cli(capsys, "describe", "--spec", path, "-n", "5", "--format", "text")
    assert out.endswith("rows: 5\n")
    _, out, _ = run_cli(capsys, "check-nonerg", "--spec", path, "--b", "1", "--horizon", "3",
                        "--format", "text")
    assert "max_fraction: " in out and "\nrows: 3\n" in out


def test_big_integers_pass_through_as_strings(specfile, capsys):
    spec = gallery.staircase()
    stage = 1
    while spec.height(stage) < 1 << 53:
        stage += 1
    path = specfile(STAIR)
    code, out, _ = run_cli(capsys, "heights", "--spec", path, "--stage", str(stage))
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["result"]["h"], str)
    assert int(payload["result"]["h"]) == spec.height(stage)
    assert isinstance(payload["result"]["heights"][-1], str)

    code, out, _ = run_cli(capsys, "heights", "--spec", path, "--stage", "3")
    assert isinstance(json.loads(out)["result"]["h"], int)


def test_integers_past_the_digit_limit_print_in_full(tmp_path, capsys):
    # 10**4299 has 4300 digits, the most a spec file may hold; the heights
    # it spaces out have more than Python's default int-to-str limit allows
    big = "1" + "0" * 4299
    path = tmp_path / "big.json"
    path.write_text(
        '{"builder": {"kind": "explicit", "stages": [[2, [0, %s]]], "cycle": true}}' % big,
        encoding="utf-8",
    )
    spec = core.explicit_spec([(2, (0, 10**4299))], cycle=True)
    top = str(Decimal(spec.height_set(6)[-1]))  # Decimal prints without the limit
    assert len(top) > 4300
    limit = sys.get_int_max_str_digits()
    for fmt in ("json", "csv", "text"):
        code, out, err = run_cli(
            capsys, "heights", "--spec", str(path), "--stage", "6", "--format", fmt
        )
        assert (code, err) == (0, "")
        assert top in out
        assert sys.get_int_max_str_digits() == limit

    # an integer past the limit in the spec file itself is still a bad spec
    path.write_text(path.read_text(encoding="utf-8").replace(big, big + "0"), encoding="utf-8")
    code, _, err = run_cli(capsys, "heights", "--spec", str(path), "--stage", "6")
    assert code == 2
    assert err.startswith("spec error:")
    assert sys.get_int_max_str_digits() == limit


# One invocation per leaf subcommand, and the "inputs" block it echoes.
_COMMANDS = [
    pytest.param(STAIR, ["describe", "-n", "3"], {"stages": 3}, id="describe"),
    pytest.param(STAIR, ["heights", "--stage", "2"], {"stage": 2}, id="heights"),
    pytest.param(
        TRIPLE, ["descendants", "--i", "0", "--j", "2"], {"i": 0, "j": 2, "b": 0}, id="descendants"
    ),
    pytest.param(
        TRIPLE,
        ["measure", "--stage", "1", "--levels", "0", "--k", "1"],
        {"stage": 1, "levels": [0], "k": 1, "other_stage": None, "other_levels": None},
        id="measure",
    ),
    pytest.param(
        STAIR,
        ["check-cons", "--k", "2", "--horizon", "6"],
        {"k": 2, "horizon": 6, "threshold": "1/1000"},
        id="check-cons",
    ),
    pytest.param(
        DOUBLING,
        ["check-noncons", "--k", "2", "--horizon", "4"],
        {"k": 2, "horizon": 4, "floor": "1/2"},
        id="check-noncons",
    ),
    pytest.param(
        STAIR, ["check-nonerg", "--b", "1", "--horizon", "3"], {"b": 1, "horizon": 3}, id="check-nonerg"
    ),
    pytest.param(TQ2, ["rigidity", "--stage", "2"], {"stage": 2}, id="rigidity"),
    pytest.param(
        STAIR,
        ["alpha", "--stage", "1", "--kmax", "12", "--threshold", "1/10", "--dump"],
        {"stage": 1, "levels": [0], "kmax": 12, "threshold": "1/10"},
        id="alpha",
    ),
    pytest.param(
        STAIR,
        ["arithmetic", "--horizon", "6"],
        {"horizon": 6, "tau": "1/2", "min_k": -1},
        id="arithmetic",
    ),
    pytest.param(KOOP, ["divisibility", "--horizon", "4"], {"horizon": 4}, id="divisibility"),
    pytest.param(
        STAIR,
        ["wde", "--a-stage", "2", "--a-levels", "3", "--b-stage", "2", "--b-levels", "7,8",
         "--nmax", "54"],
        {"a_stage": 2, "a_levels": [3], "b_stage": 2, "b_levels": [7, 8], "nmax": 54},
        id="wde",
    ),
    pytest.param(
        KOOP,
        ["koopman", "--stage", "1", "--samples", "5", "--kmin", "60", "--kmax", "600",
         "--seed", "5"],
        {"stage": 1, "levels": [0], "shifts": 5, "seed": 5},
        id="koopman",
    ),
    pytest.param(
        TRIPLE,
        ["oracle", "descendants", "--i", "1", "--j", "2", "--b", "1"],
        {"i": 1, "j": 2, "b": 1},
        id="oracle-descendants",
    ),
    pytest.param(
        TRIPLE,
        ["oracle", "tuples", "--i", "0", "--j", "2", "--k", "2"],
        {"i": 0, "j": 2, "k": 2},
        id="oracle-tuples",
    ),
    pytest.param(
        TRIPLE,
        ["oracle", "mc", "--stage", "1", "--k", "1", "--samples", "1000"],
        {"stage": 1, "levels": [0], "k": 1, "samples": 1000, "seed": 0},
        id="oracle-mc",
    ),
    pytest.param(
        STAIR,
        ["oracle", "orbit", "--stage", "1", "--height", "0", "--offset", "1/100", "--k", "5"],
        {"stage": 1, "height": 0, "offset": "1/100", "k": 5},
        id="oracle-orbit",
    ),
]


@pytest.mark.parametrize("data, argv, inputs", _COMMANDS)
def test_every_command_echoes_its_inputs(data, argv, inputs, specfile, capsys):
    path = specfile(data)
    code, out, _ = run_cli(capsys, *argv, "--spec", path)
    assert code == 0
    assert json.loads(out)["inputs"] == inputs
    for fmt in ("csv", "text"):
        code, _, _ = run_cli(capsys, *argv, "--spec", path, "--format", fmt)
        assert code == 0


@pytest.mark.parametrize("data, argv, inputs", _COMMANDS)
def test_csv_and_text_print_rationals_as_p_q(data, argv, inputs, specfile, capsys):
    path = specfile(data)
    for fmt in ("csv", "text"):
        _, out, _ = run_cli(capsys, *argv, "--spec", path, "--format", fmt)
        assert "Fraction(" not in out



# -- golden stdout bytes -------------------------------------------------------------

# Every leaf subcommand (the table above), plus the runs that reach other
# branches: a measure of two sets, alpha without --dump, a non-ergodicity
# certificate with skipped stages, a probe whose A is written at stage 0, and
# one refusal each for exit codes 3 and 4.
_GOLDEN = [(p.id, *p.values[:2]) for p in _COMMANDS] + [
    ("measure-other", TRIPLE,
     ["measure", "--stage", "1", "--levels", "0", "--k", "1", "--other-levels", "1,2"]),
    ("alpha-nodump", STAIR, ["alpha", "--stage", "1", "--kmax", "12", "--threshold", "1/10"]),
    ("check-nonerg-skips", MAIN_WDE, ["check-nonerg", "--b", "1", "--horizon", "5"]),
    ("wde-a-stage-0", STAIR,
     ["wde", "--a-stage", "0", "--a-levels", "0", "--b-stage", "2", "--b-levels", "7",
      "--nmax", "54"]),
    ("exit-3", STAIR, ["descendants", "--i", "0", "--j", "9", "--max-descendants", "1000"]),
    ("exit-4", KOOP, ["check-noncons", "--k", "2", "--horizon", "4"]),
]

# name -> (exit code, sha256 of the exit code and stdout in json, csv and text).
# A change that means to move CLI bytes updates this literal in the commit that
# regenerates perfbench/refs.json; any other change leaves it as it is.
GOLDEN_DIGESTS = {
    "describe": (0, "3f7f6a3ecab62d5d4357e8a67a1426b1a44693fd18235cddfe6d8e299a7404f4"),
    "heights": (0, "31ef9fe7241c0f7523b667e9742cbbd9949e1bf21e7613c2da9e6a42da287343"),
    "descendants": (0, "87c2ccfb74d76930e4459651423b0b317094732a1e5c48bb9d0ebfa1af479086"),
    "measure": (0, "1ae724d0fbb7b136e963e73198d723734a1bee1caa96e19149a14fca79a2ec20"),
    "check-cons": (0, "b017dc1b501f2451f561b830e59dab60a6e6373a1813335941ec6b1528f72942"),
    "check-noncons": (0, "ae1b59e2dab393d2562cb1d48ca0da45f512f59cc8062723e67af1738911d760"),
    "check-nonerg": (0, "04592989bd0c322646442d5d91437c7e75f7beb6bf3061e17bb6cc95016f2926"),
    "rigidity": (0, "3ae0476e9c84a22ccbb106032ec8119502219d76b8c64d1b08dc3cc3ea252494"),
    "alpha": (0, "c24a4c29e2f15c6a25de3c56f872ac225713db038a5293756ad89fb0f8e1e3fa"),
    "arithmetic": (0, "03bd50540da86a833df7c6f8b9ee81bee45143dc773180aed5ffddadf361b998"),
    "divisibility": (0, "140c78c4f28eef049a7b55368bab232ab2491532fdfbde2e9a40cccfb73cc6b1"),
    "wde": (0, "49ee7e9ccdbdee04b4f0f08622e94afd661101b57759abee61ceefb3aa8b66f4"),
    "koopman": (0, "2aa7a3be771fde68978f9dd7abba5b00032ef83208d7f0f33fc555a6bbdc3401"),
    "oracle-descendants": (0, "97523ad0f0579eb5946c9631b260f81c3bb61ceb6e1e3c6387e21b5122a8e2de"),
    "oracle-tuples": (0, "e6b835f54e859940bad47e45fb661ef83ef7d3406fbd0a58b1114cc4297c9379"),
    "oracle-mc": (0, "e3866bccdb21394ddd2988368688eb5a835d97068dd2b320b5e5bc5fd806cdaa"),
    "oracle-orbit": (0, "4fd2c76e93cc182ca3ba2365076ac4539c17555bd7c7e70c2e27e30a4d51304c"),
    "measure-other": (0, "4301f4d9dd859bdac89046b2bc303be1a189b24bb98dfb8a55b35a49a33813b0"),
    "alpha-nodump": (0, "42cdd15b165b96ef05a5aa4ebaea8e05fa5f66cd5ea28ba6012f0c4849c63888"),
    "check-nonerg-skips": (0, "4ff671f98d06966ac8a5e31f80cb4362483bf5d5fe28ef9f44e18dc741e25cac"),
    "wde-a-stage-0": (0, "5d8d7e47e3e1805cb7a4e82103fbd55c803c45661d18548f99ad5a5c556930bc"),
    "exit-3": (3, "c8a39165b15e80657356f69e0c3832204163135179890449fff3e790cafd5cb6"),
    "exit-4": (4, "5e2af60de19158a8dd6431c02a8434f1fea022915ff909d59aadc247b4947350"),
}


def test_golden_cli_digests(specfile, capsys):
    digests = {}
    for name, data, argv in _GOLDEN:
        path = specfile(data)
        h = hashlib.sha256()
        for fmt in ("json", "csv", "text"):
            code, out, _ = run_cli(capsys, *argv, "--spec", path, "--format", fmt)
            h.update(f"{fmt} {code}\n{out}\0".encode())
        digests[name] = (code, h.hexdigest())
    assert digests == GOLDEN_DIGESTS


# -- the JSON writer -----------------------------------------------------------------

# cli._emit writes JSON in one pass over the raw payload; the JSON image built
# by _jsonable and printed by json.dumps is the oracle it must match byte for
# byte.  Long outputs are compared as lists of lines: pytest explains a
# mismatch of two long strings by a diff that can take minutes.


def _jsonable(v):
    """The JSON image of a payload, every scalar by ``cli._leaf``."""
    x = cli._leaf(v)
    if x is not cli._BRANCH:
        return x
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if hasattr(v, "_fields"):  # a record, before the tuples it also is
        return {f: _jsonable(x) for f, x in zip(v._fields, v)}
    return [_jsonable(x) for x in v]


def _json_oracle(v) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(_jsonable(v), indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _oracle_writer(v, out) -> None:
    out.write(_json_oracle(v))


def _written(v) -> str:
    out = io.StringIO()
    cli._emit(v, "json", out)
    return out.getvalue()


_EDGE_INTS = [2**53 - 1, 2**53, 10**4400 + 7]  # the last past the default digit limit
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.tuples(st.sampled_from([1, -1]), st.integers(0, 2)).map(lambda s: s[0] * _EDGE_INTS[s[1]]),
    st.fractions(),
    st.integers(-5, 5).map(Fraction),  # whole: printed "3", not "3/1"
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
    st.text(),
    st.sampled_from(["é", "\x00\t\n\x1f\x7f", " ", "😀", "%s", '"\\']),
)
_keys = st.one_of(
    st.text(max_size=3),
    st.sampled_from(["1", "%", "%s", "a%%b", "é"]),
    st.integers(-2, 2),  # 1 and "1" collide after str()
)


@st.composite
def _row_lists(draw, values):
    """Rows that share one key set, now and then one with other keys."""
    keys = draw(st.lists(_keys, min_size=1, max_size=4))
    rows = draw(st.lists(st.fixed_dictionaries({k: values for k in keys}), max_size=6))
    if rows and draw(st.booleans()):
        odd = dict(rows[0])
        odd[draw(_keys)] = draw(values)
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


_payloads = st.recursive(
    _scalars,
    lambda values: st.one_of(
        st.lists(values, max_size=5),
        st.lists(values, max_size=5).map(tuple),
        st.dictionaries(_keys, values, max_size=5),
        _row_lists(values),
        st.builds(
            analysis.CertificateReport,
            kind=st.text(max_size=5),
            horizon=st.integers(),
            verdict=st.text(max_size=5),
            rows=_row_lists(values).map(tuple),
            summary=st.dictionaries(_keys, values, max_size=3),
            notes=st.lists(st.text(max_size=5), max_size=2).map(tuple),
        ),
    ),
    max_leaves=30,
)


_EDGES_53 = [2**53 - 1, 2**53, -(2**53 - 1), -(2**53)]
_Row = namedtuple("Row", "ratio k")  # fields out of key order
_OtherRow = namedtuple("OtherRow", "ratio z")


@st.composite
def _typed_lists(draw):
    """A long list of one scalar type, or of records with such columns: ints
    at the 53-bit edges, bools among ints, one ``Fraction`` object repeated
    among distinct ones equal to it or not, strings."""
    n = draw(st.sampled_from([4095, 4096, 4097, 9000]) | st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def column():
        kind = draw(st.sampled_from(["int", "int-edge", "bool", "fraction", "str"]))
        small = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
        if kind == "int":
            pool = draw(st.lists(st.integers(-(2**53) + 1, 2**53 - 1), min_size=1, max_size=5))
        elif kind == "int-edge":
            pool = [*small, draw(st.sampled_from(_EDGES_53))]
        elif kind == "bool":
            pool = [*small, draw(st.booleans())]
        elif kind == "fraction":
            shared = draw(st.fractions())
            pool = [shared] * 4 + [Fraction(shared), *draw(st.lists(st.fractions(), max_size=3))]
        else:
            pool = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4))
        values = rng.choices(pool, k=n)
        values[rng.randrange(n)] = pool[-1]  # the odd one is there at least once
        return values

    if draw(st.booleans()):
        return column()
    rows = list(map(_Row, column(), column()))
    if draw(st.booleans()):  # one record of another type
        i = rng.randrange(n)
        rows[i] = _OtherRow(*rows[i])
    return tuple(rows) if draw(st.booleans()) else rows


@settings(max_examples=200, deadline=None)
@given(v=_payloads | _typed_lists())
def test_json_writer_matches_the_json_image(v):
    assert _written(v).split("\n") == _json_oracle(v).split("\n")


@pytest.mark.parametrize("n", [4095, 4096, 4097, 9000])
@pytest.mark.parametrize(
    "odd",
    [None, 0, 4096, -1],
    ids=["uniform", "odd-first", "odd-at-batch", "odd-last"],
)
def test_json_writer_matches_on_long_lists(n, odd):
    rows = [{"k": i, "ratio": Fraction(i, 7), "big": 2**53 + i} for i in range(n)]
    scalars = [Fraction(i, 3) for i in range(n)]
    if odd is not None:
        odd %= n
        rows[odd] = {"k": [odd, {"x": None}], "ratio": "%"}
        scalars[odd] = {"nested": [scalars[odd]]}
    v = {"rows": rows, "result": {"scalars": scalars, "empty": [], "n": n}}
    assert _written(v).split("\n") == _json_oracle(v).split("\n")


def test_integers_are_strings_from_2_to_the_53():
    for n in (2**53 - 1, -(2**53 - 1)):
        assert _jsonable(n) == n
        assert _written(n) == f"{n}\n"
    for n in (2**53, -(2**53)):
        assert _jsonable(n) == str(n)
        assert _written(n) == f'"{n}"\n'


def test_json_writer_refuses_a_value_with_no_json_image():
    with pytest.raises(TypeError, match="^cannot serialize complex$"):
        _written({"result": {"z": 1j}})


def test_json_writer_matches_a_real_report():
    rep = analysis.nonergodicity_certificate(gallery.staircase(), 1, 3)
    assert _written({"report": rep}) == _json_oracle({"report": rep})


def _both_paths(monkeypatch, capsys, argv) -> tuple[tuple, tuple]:
    """(exit code, stdout lines) of a run, then of a run printing the JSON image."""
    code, out, _ = run_cli(capsys, *argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_write_json", _oracle_writer)
        old_code, old_out, _ = run_cli(capsys, *argv)
    return (code, out.split("\n")), (old_code, old_out.split("\n"))


def test_golden_commands_write_what_the_json_image_prints(specfile, monkeypatch, capsys):
    for _, data, argv in _GOLDEN:
        new, old = _both_paths(monkeypatch, capsys, [*argv, "--spec", specfile(data)])
        assert new == old, argv


def test_benchmark_large_commands_write_what_the_json_image_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    fresh = [name for name in ("clirun", "common") if name not in sys.modules]
    try:
        clirun = importlib.import_module("clirun")
        paths = clirun.write_spec_files(tmp_path)
        for cmd in clirun.LARGE:
            new, old = _both_paths(monkeypatch, capsys, clirun.argv_for(cmd, paths))
            assert new[0] == 0
            assert new == old, cmd[0]
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


class _ByteCount:
    def __init__(self) -> None:
        self.n = 0

    def write(self, text: str) -> None:
        self.n += len(text)

    def flush(self) -> None:
        pass


def test_json_writer_streams_long_lists():
    rows = [{"k": k, "ratio": Fraction(k, 7)} for k in range(100_000)]
    sink = _ByteCount()
    tracemalloc.start()
    try:
        cli._emit({"rows": rows}, "json", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one string of the whole document, or a JSON image of the rows, takes
    # tens of megabytes here
    assert sink.n > 5_000_000
    assert peak < 2_000_000


def test_alpha_dump_holds_few_bytes_per_row(specfile):
    """The profile shares one zero ratio and the writer builds no object per
    row: a dict per row and a ``Fraction`` per shift took over 300 bytes a row."""
    kmax = 40_000
    argv = ["alpha", "--spec", specfile({"builder": {"kind": "koopman"}}),
            "--stage", "1", "--kmax", str(kmax), "--dump"]
    sink = _ByteCount()
    with contextlib.redirect_stdout(_ByteCount()):
        assert cli.main(argv) == 0  # imports and first-call caches out of the count
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.n > 40 * kmax
    assert peak <= 160 * kmax


# -- process boundaries ----------------------------------------------------------------

_CERTIFICATE_MODULES = ("rankone.analysis", "rankone.tower", "rankone.oracle", "csv", "traceback")


def test_small_commands_import_no_certificate_module(specfile):
    """Nor does any command import ``dataclasses`` or ``inspect``, whose
    import alone costs about 10 ms per process, and ``oracle orbit`` loads
    ``oracle`` and ``tower`` but not ``analysis``."""
    path = specfile(STAIR)
    code = f"""
import contextlib, io, sys
import rankone.gallery
print(sorted(m for m in {_CERTIFICATE_MODULES!r} if m in sys.modules))
from rankone import cli
for argv in (["describe", "-n", "4"], ["heights", "--stage", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--spec", {path!r}]) == 0
print(sorted(m for m in {_CERTIFICATE_MODULES!r} if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["oracle", "orbit", "--stage", "2", "--height", "5", "--k", "3",
                     "--spec", {path!r}]) == 0
print(sorted(m for m in {_CERTIFICATE_MODULES!r} if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check-nonerg", "--b", "1", "--horizon", "4", "--spec", {path!r}]) == 0
print(sorted(m for m in ("dataclasses", "inspect", "rankone.analysis") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (
        "[]\n[]\n['rankone.oracle', 'rankone.tower']\n['rankone.analysis']\n"
    )


def test_main_restores_the_warning_hook(specfile, capsys):
    hook = warnings.showwarning
    code, _, err = run_cli(capsys, "describe", "--spec", specfile(MAIN_WDE), "-n", "5")
    assert code == 0
    assert warnings.showwarning is hook
    assert err.startswith("warning: mw: stage 3: cut count capped at 64")
    with pytest.raises(SystemExit):
        cli.main(["nosuch"])
    assert warnings.showwarning is hook


# -- the parser of the invoked subcommand ---------------------------------------------


@pytest.mark.parametrize("words", list(cli._COMMANDS), ids=" ".join)
def test_one_subcommand_parser_prints_the_full_parsers_help(words, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lazy = cli.build_parser(list(words))
    assert f"{{{words[0]}}}" in lazy.format_usage()  # the only choice
    outputs = []
    for parser in (lazy, cli.build_parser()):
        with pytest.raises(SystemExit) as stop:
            parser.parse_args([*words, "--help"])
        outputs.append((stop.value.code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].out.startswith(f"usage: rankone {' '.join(words)} [-h] --spec SPEC")


# sha256 of "<exit code>\n<stdout>\0<stderr>" for argv that stop in the
# parser, printed at 80 columns by the one parser of all subcommands
_PARSER_STOPS = {
    (): "16a7e3f6ecf33205",
    ("--help",): "cc9ee1cd145685c8",
    ("nosuch",): "b63a69276b093ddf",
    ("oracle",): "43317f71add2d8ea",
    ("oracle", "nosuch"): "0e5eb12c908b3b5d",
    ("describe",): "41b51ba8140913c8",
    ("describe", "-h"): "7246c0c741726ba8",
    ("oracle", "mc", "-h"): "b6da420817133780",
    ("describe", "--spec", "x", "extra"): "2131dfa0acf27fcc",
    ("oracle", "mc", "--spec", "x", "--k", "1", "extra"): "352c4e02b1e3f9d6",
    ("wde", "--spec", "x"): "9aa57c4faf0ca38b",
    ("alpha", "--spec", "x", "--kmax", "1", "--stage", "0", "--levels", "1,x"): "0f8d20206b70034f",
    ("check-cons", "--spec", "x", "--k", "2", "--horizon", "1", "--threshold", "1/0"): "2893f5f01029ea67",
    # a power of ten past the int digit limit, which Fraction built in full
    ("check-cons", "--spec", "x", "--k", "2", "--horizon", "1", "--threshold", "1e-5000"): (
        "8c0a98ec8e5162d2"
    ),
}


def _parser_stop(capsys, run, argv):
    with pytest.raises(SystemExit) as stop:
        run(list(argv))
    cap = capsys.readouterr()
    return f"{stop.value.code}\n{cap.out}\0{cap.err}"


@pytest.mark.parametrize("argv", list(_PARSER_STOPS), ids=" ".join)
def test_parser_stops_print_what_the_full_parser_prints(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = _parser_stop(capsys, cli.main, argv)
    assert text == _parser_stop(capsys, cli.build_parser().parse_args, argv)
    if sys.version_info[:2] == (3, 11):  # argparse's wording and layout vary by version
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == _PARSER_STOPS[argv]


@pytest.mark.parametrize(
    "argv, unbuffered, read",
    [
        # 337 kB of JSON, far more than a pipe holds, cut after 100 bytes
        (["descendants", "--i", "0", "--j", "6"], "1", 100),
        (["descendants", "--i", "0", "--j", "6"], "", 100),
        # a few lines that wait in stdout's buffer until the flush at the end
        (["describe", "-n", "3"], "", 0),
    ],
    ids=["large-unbuffered", "large-buffered", "small-buffered"],
)
def test_closed_stdout_ends_quietly(argv, unbuffered, read, specfile):
    argv = [sys.executable, "-m", "rankone.cli", *argv, "--spec", specfile(STAIR)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert len(head) == read
    assert err == b""


def test_fingerprint_consistent_across_commands(specfile, capsys):
    path = specfile(STAIR)
    _, out1, _ = run_cli(capsys, "describe", "--spec", path, "-n", "3")
    _, out2, _ = run_cli(capsys, "heights", "--spec", path, "--stage", "2")
    fp1 = json.loads(out1)["spec"]["fingerprint"]
    fp2 = json.loads(out2)["spec"]["fingerprint"]
    assert fp1 == fp2


def test_cap_warnings_print_one_line_to_stderr(specfile, capsys):
    path = specfile(TQ2)
    code, out, err = run_cli(capsys, "describe", "--spec", path, "-n", "3")
    assert code == 0
    warning_lines = [ln for ln in err.splitlines() if ln]
    assert warning_lines
    assert all(ln.startswith("warning:") for ln in warning_lines)
    json.loads(out)


# -- exit codes --------------------------------------------------------------------


def test_wde_below_one_shift_exits_4(specfile, capsys):
    code, out, err = run_cli(
        capsys, "wde", "--spec", specfile(STAIR), "--a-stage", "2", "--a-levels", "3",
        "--b-stage", "2", "--b-levels", "7", "--nmax", "0",
    )
    assert (code, out, err) == (4, "", "precondition failed: n_max must be at least 1, got 0\n")


def test_missing_spec_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "describe", "--spec", "/nonexistent/x.json")
    assert code == 2
    assert "spec error" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "describe", "--spec", str(p))
    assert code == 2
    assert "not valid JSON" in err


def test_unknown_builder_field_exits_2(specfile, capsys):
    path = specfile({"builder": {"kind": "staircase", "bogus": 1}})
    code, _, err = run_cli(capsys, "describe", "--spec", path)
    assert code == 2
    assert "bogus" in err


def test_unknown_builder_kind_exits_2(specfile, capsys):
    path = specfile({"builder": {"kind": "mystery"}})
    code, _, err = run_cli(capsys, "describe", "--spec", path)
    assert code == 2
    assert "mystery" in err


def test_unknown_top_level_key_exits_2(specfile, capsys):
    path = specfile({"builder": {"kind": "staircase"}, "extra": True})
    code, _, err = run_cli(capsys, "describe", "--spec", path)
    assert code == 2
    assert "extra" in err


def test_bad_builder_parameters_exit_2(specfile, capsys):
    path = specfile({"builder": {"kind": "staircase", "r_seq": [1]}})
    code, _, err = run_cli(capsys, "describe", "--spec", path)
    assert code == 2
    assert "spec error" in err


@pytest.mark.parametrize(
    "data",
    [
        {"builder": {"kind": "staircase"}, "budget": {"max_pairs": "x"}},
        {"builder": {"kind": "staircase"}, "max_stage": -1},
        {"builder": {"kind": "staircase"}, "budget": [1]},
        {"builder": {"kind": "explicit", "stages": [[2]]}},
        {"builder": {"kind": "explicit"}},
        {"builder": {"kind": "t_q", "q": 2.5}},
        {"builder": {"kind": "not_eic", "q": 2.5}},
        {"builder": {"kind": "main_wde", "max_r": 2.5}},
        {"builder": {"kind": "explicit", "stages": [[2.0, [0, 0]]]}},
        {"builder": {"kind": []}},
        {"builder": {"kind": "explicit", "stages": [[2, [0, 0]]], "cycle": "false"}},
        {"builder": {"kind": "staircase", "r_seq": [2.9]}},
        {"builder": {"kind": "explicit", "stages": [[2, "12"]], "cycle": True}},
        {"name": ["x"], "builder": {"kind": "staircase"}},
        {"name": "x\ud800", "builder": {"kind": "staircase"}},
        [{"builder": {"kind": "staircase"}}],
    ],
    ids=[
        "budget-not-int",
        "negative-max-stage",
        "budget-not-object",
        "explicit-stage-shape",
        "explicit-no-stages",
        "t_q-float-q",
        "not_eic-float-q",
        "main_wde-float-max_r",
        "explicit-float-r",
        "kind-not-string",
        "cycle-not-bool",
        "float-r_seq",
        "spacers-string",
        "name-not-string",
        "name-lone-surrogate",
        "spec-not-object",
    ],
)
def test_invalid_spec_values_exit_2(data, specfile, capsys):
    path = specfile(data)
    code, _, err = run_cli(capsys, "describe", "--spec", path, "-n", "3")
    assert code == 2
    assert "spec error" in err


def test_name_with_a_newline_cannot_forge_a_summary_line(specfile, capsys):
    path = specfile({"name": "x\nverdict: satisfied", "builder": {"kind": "staircase"}})
    argv = ("check-nonerg", "--spec", path, "--b", "1", "--horizon", "2", "--format", "text")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("spec error: ") and "control character" in err


@pytest.mark.parametrize(
    "data",
    [{"name": "x"}, {"builder": "staircase"}],
    ids=["builder-missing", "builder-not-object"],
)
def test_spec_needs_a_builder_object(data, specfile, capsys):
    code, _, err = run_cli(capsys, "describe", "--spec", specfile(data), "-n", "3")
    assert code == 2
    assert err == 'spec error: spec file needs a "builder" object\n'


def test_spec_nested_past_the_parser_depth_exits_2(tmp_path, capsys):
    """Written as text: ``json.dumps`` of so deep a value recurses too."""
    path = tmp_path / "spec.json"
    path.write_text('{"builder": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    code, _, err = run_cli(capsys, "describe", "--spec", str(path), "-n", "3")
    assert code == 2
    assert err.startswith("spec error: ") and "not valid JSON" in err


def test_usage_error_exits_2(specfile):
    with pytest.raises(SystemExit) as exc:
        cli.main(["describe"])  # --spec is required
    assert exc.value.code == 2


def test_descendant_budget_exits_3(specfile, capsys):
    path = specfile(STAIR)
    code, _, err = run_cli(
        capsys,
        "descendants",
        "--spec",
        path,
        "--i",
        "0",
        "--j",
        "9",
        "--max-descendants",
        "1000",
    )
    assert code == 3
    assert "budget exceeded" in err


def test_alpha_dump_lists_at_most_max_descendants_rows(specfile, capsys):
    path = specfile(KOOP)
    argv = ["alpha", "--spec", path, "--stage", "1", "--max-descendants", "40"]
    code, _, _ = run_cli(capsys, *argv, "--kmax", "41")
    assert code == 0
    code, _, err = run_cli(capsys, *argv, "--kmax", "41", "--dump")
    assert code == 3
    assert "41 listed ratios exceeds max_descendants=40" in err
    code, out, _ = run_cli(capsys, *argv, "--kmax", "40", "--dump")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 40


def test_stage_budget_flag_exits_3(specfile, capsys):
    path = specfile(STAIR)
    code, _, err = run_cli(
        capsys, "heights", "--spec", path, "--stage", "5", "--max-stage", "2"
    )
    assert code == 3
    assert "budget exceeded" in err


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (
            ["orbit", "--stage", "2", "--height", "5", "--offset", "1/100", "--k", "100000000"],
            "100000000 orbit steps exceeds max_iterate=1000000",
        ),
        (
            ["mc", "--stage", "1", "--levels", "0", "--k", "4", "--samples", "1000001"],
            "1000001 samples exceeds max_iterate=1000000",
        ),
    ],
)
def test_oracle_loops_refuse_past_max_iterate_before_any_work(argv, refusal, specfile, capsys):
    path = specfile(STAIR)
    code, out, err = run_cli(capsys, "oracle", argv[0], "--spec", path, *argv[1:])
    assert code == 3
    assert out == ""
    assert refusal in err


# A spec whose one level returns at shift 1 only: below a negative threshold
# every other shift up to --kmax is an exception too.
WIDE_GAP = {"builder": {"kind": "explicit", "stages": [[2, [0, 10**15]]], "cycle": True}}


@pytest.mark.parametrize(
    "data, argv, refusal",
    [
        pytest.param(
            STAIR, ["check-nonerg", "--b", "1", "--horizon", "65"],
            "stage 65 exceeds max_stage=64", id="check-nonerg-past-max-stage",
        ),
        pytest.param(
            WIDE_GAP, ["alpha", "--stage", "0", "--threshold=-1/2", "--kmax", "200001"],
            "200001 listed ratios exceeds max_descendants=200000", id="alpha-negative-threshold",
        ),
        pytest.param(
            KOOP, ["koopman", "--stage", "1", "--samples", "1000001", "--kmin", "60", "--kmax", "61"],
            "1000001 samples exceeds max_iterate=1000000", id="koopman-samples",
        ),
        pytest.param(
            STAIR, ["check-cons", "--k", "1000000", "--horizon", "3"],
            "r_0**999999 of up to 1999998 bits exceeds max_height_bits=100000", id="check-cons-power",
        ),
        pytest.param(
            STAIR, ["check-noncons", "--k", "1000000", "--horizon", "3"],
            "r_0**1000000 of up to 2000000 bits exceeds max_height_bits=100000",
            id="check-noncons-power",
        ),
    ],
)
def test_loops_sized_by_a_flag_refuse_before_any_work(data, argv, refusal, specfile, capsys):
    code, out, err = run_cli(capsys, *argv, "--spec", specfile(data))
    assert code == 3
    assert out == ""
    assert err == f"budget exceeded: {refusal}\n"


def test_shape_precondition_exits_4(specfile, capsys):
    path = specfile(KOOP)
    code, _, err = run_cli(
        capsys, "check-noncons", "--spec", path, "--k", "2", "--horizon", "4"
    )
    assert code == 4
    assert "precondition failed" in err


def test_bad_level_exits_4(specfile, capsys):
    path = specfile(TRIPLE)
    code, _, err = run_cli(
        capsys, "measure", "--spec", path, "--stage", "1", "--levels", "9", "--k", "0"
    )
    assert code == 4
    assert "precondition failed" in err


@pytest.mark.parametrize(
    "argv",
    [("rigidity", "--stage", "-1"), ("heights", "--stage", "-2"), ("describe", "-n", "-3")],
    ids=["rigidity", "heights", "describe"],
)
def test_negative_stage_exits_4(argv, specfile, capsys):
    path = specfile(STAIR)
    code, out, err = run_cli(capsys, argv[0], "--spec", path, *argv[1:])
    assert code == 4
    assert out == ""
    assert "precondition failed" in err


def test_negative_stage_count_names_the_floor(specfile, capsys):
    code, out, err = run_cli(capsys, "describe", "--spec", specfile(STAIR), "-n", "-3")
    assert (code, out) == (4, "")
    assert err == "precondition failed: stage count must be at least 0, got -3\n"


def test_koopman_far_shift_exits_3(specfile, capsys):
    path = specfile({"builder": {"kind": "koopman"}})
    h3 = gallery.koopman().height(3)
    code, out, err = run_cli(
        capsys, "koopman", "--spec", path, "--stage", "1", "--k", f"{h3},{10**22}"
    )
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: 1814400+ descendants exceeds max_descendants=200000\n"


@pytest.mark.parametrize(
    "data, argv, refusal",
    [
        pytest.param(
            KOOP, ["koopman", "--stage", "1", "--kmin", "60", "--kmax", "60"], "need kmin < kmax",
            id="koopman-empty-shift-range",
        ),
        pytest.param(
            KOOP, ["koopman", "--stage", "1", "--samples", "0", "--kmin", "60", "--kmax", "600"],
            "samples must be at least 1, got 0",
            id="koopman-no-samples",
        ),
        pytest.param(
            {"builder": {"kind": "high_staircase", "r_seq": [3, 4], "z_seq": [1]}},
            ["describe", "-n", "3"], "cut counts must strictly increase: r_2=4 after r_1=4",
            id="high_staircase-past-its-stages",
        ),
    ],
)
def test_preconditions_exit_4_with_their_reason(data, argv, refusal, specfile, capsys):
    code, out, err = run_cli(capsys, *argv, "--spec", specfile(data))
    assert (code, out, err) == (4, "", f"precondition failed: {refusal}\n")


def test_koopman_without_shifts_exits_4(specfile, capsys):
    path = specfile(KOOP)
    code, _, err = run_cli(capsys, "koopman", "--spec", path, "--stage", "1")
    assert code == 4
    assert "precondition failed" in err


# -- cut counts over budget -----------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [
        {"kind": "staircase", "r_seq": [3_000_000]},
        {"kind": "high_staircase", "r_seq": [3_000_000], "z_seq": [0]},
        {"kind": "partition_staircase", "k": 1, "r_seq": [3_000_000]},
        {"kind": "t_q", "q": 3_000_000},
        {"kind": "not_eic", "q": 3_000_000},
    ],
    ids=lambda b: b["kind"],
)
def test_large_cut_count_refused_before_spacers_are_built(builder, specfile, capsys):
    path = specfile({"builder": builder})
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "describe", "--spec", path, "-n", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "stage 0 cuts into 3000000 subcolumns" in err
    assert peak < 4_000_000


@pytest.mark.parametrize("kind", ["main_wde", "rigid_wde", "t_q"])
def test_uncapped_odd_stage_refused_before_spacers_are_built(kind, specfile, capsys):
    # uncapped, stage 3 calls for about 3e7 subcolumns: refuse without listing them
    builder = {"kind": kind, "max_r": None, **({"q": 2} if kind == "t_q" else {})}
    path = specfile({"builder": builder})
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "describe", "--spec", path, "-n", "4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "stage 3 cuts into" in err
    assert peak < 4_000_000


# -- spec loading across the whole gallery ------------------------------------------

# one spec-file builder per kind, giving every field the kind takes
EVERY_FIELD = {
    "staircase": {"r_seq": [3, 4], "extend": "repeat"},
    "high_staircase": {"r_seq": [3, 4], "z_seq": [1], "extend": "increment"},
    "main_wde": {"max_r": 64},
    "rigid_wde": {"max_r": 64},
    "t_q": {"q": 2, "max_r": 6},
    "koopman": {"max_r": 16},
    "partition_staircase": {"k": 3, "r_seq": [2], "extend": "increment"},
    "not_eic": {"q": 2},
    "explicit": {"stages": [[3, [0, 1, 2]], [3, [0, 1, 2]]], "cycle": True},
}


def test_every_field_case_covers_its_kind():
    assert set(EVERY_FIELD) == set(gallery.BUILDERS)
    for kind, fields in EVERY_FIELD.items():
        assert set(fields) == set(gallery.BUILDERS[kind][1]), kind


# each kind with every field, under the staircase id "staircase-seq"; the bare
# staircase, which loads the defaults of every field; and an explicit spec that
# takes the default cycle and is described up to its last stage
_LOAD_CASES = [
    pytest.param(kind, EVERY_FIELD[kind], id=kind + ("-seq" if kind == "staircase" else ""))
    for kind in sorted(gallery.BUILDERS)
] + [
    pytest.param("staircase", {}, id="staircase"),
    pytest.param("explicit", {"stages": [[3, [0, 1, 2]], [3, [0, 1, 2]]]}, id="explicit-no-cycle"),
]


@pytest.mark.parametrize("kind, fields", _LOAD_CASES)
def test_every_builder_kind_loads(kind, fields, specfile, capsys):
    path = specfile({"builder": {"kind": kind, **fields}})
    code, out, _ = run_cli(capsys, "describe", "--spec", path, "-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    assert payload["spec"]["builder"]["kind"] == kind


@pytest.mark.parametrize("kind", sorted(gallery.BUILDERS))
def test_nameless_spec_file_takes_the_constructor_name(kind, specfile):
    path = specfile({"builder": {"kind": kind, **EVERY_FIELD[kind]}})
    loaded = cli.load_spec(path, argparse.Namespace())
    make, fields = gallery.BUILDERS[kind]
    kwargs = {}
    for field, value in EVERY_FIELD[kind].items():
        keyword, convert = fields[field]
        kwargs[keyword] = value if convert is None else convert(value)
    direct = make(**kwargs)
    assert loaded.name == direct.name
    assert loaded.fingerprint() == direct.fingerprint()



@pytest.mark.parametrize("name", [None, 5], ids=["null", "int"])
@pytest.mark.parametrize("kind", sorted(gallery.BUILDERS))
def test_spec_name_must_be_a_string(kind, name, specfile, capsys):
    path = specfile({"name": name, "builder": {"kind": kind, **EVERY_FIELD[kind]}})
    code, out, err = run_cli(capsys, "describe", "--spec", path, "-n", "1")
    assert code == 2
    assert out == ""
    assert err == f'spec error: "name" must be a string, got {name!r}\n'


def test_readme_lists_the_registered_kinds():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Spec files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    assert [kind for kind, _ in rows] == sorted(gallery.BUILDERS)
    for kind, cell in rows:
        build, fields = gallery.BUILDERS[kind]
        params = inspect.signature(build).parameters
        required = {f for f, (kw, _) in fields.items() if params[kw].default is params[kw].empty}
        assert sorted(re.findall(r"`(\w+)`", cell)) == sorted(fields), kind
        assert set(re.findall(r"\*\*`(\w+)`\*\*", cell)) == required, kind


# -- fuzzed spec files ----------------------------------------------------------------

_FIELDS = sorted({f for _, fields in gallery.BUILDERS.values() for f in fields})
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)
# cut counts up to 6 and 2**70 go over the budgets the fuzz runs under
_small = st.integers(-1, 6) | st.just(2**70)
_stage_lists = st.lists(st.tuples(_small, st.lists(_small, max_size=4)).map(list), max_size=3)
# short names, lone surrogates among them (``st.text`` leaves category Cs out)
_names = st.text(st.characters(exclude_categories=()), max_size=3)
_values = st.one_of(
    _small,
    st.lists(_small, max_size=3),
    _stage_lists,
    st.sampled_from(["repeat", "increment"]),
    _json,
)


def _rarely(draw) -> bool:
    return draw(st.integers(1, 10)) == 10


@st.composite
def spec_files(draw):
    """Spec files mostly of the right shape, with values of any JSON type."""
    kind = draw(st.sampled_from(sorted(gallery.BUILDERS)))
    own = st.sampled_from(sorted(gallery.BUILDERS[kind][1]))
    builder = {"kind": draw(_json) if _rarely(draw) else kind}
    builder.update(draw(st.dictionaries(own, _values, max_size=3)))
    if _rarely(draw):
        builder[draw(st.sampled_from([*_FIELDS, "bogus"]))] = draw(_values)
    data = {"builder": draw(_json) if _rarely(draw) else builder}
    tops = st.sampled_from(["name", "max_stage", "budget"] + ["extra"] * _rarely(draw))
    data.update(draw(st.dictionaries(tops, _values | _names, max_size=2)))
    return draw(_json) if _rarely(draw) else data


# integers at the edges of every flag's range, and level lists of them
_edge_ints = st.sampled_from([-3, -1, 0, 1, 2, 3, 5, 64, 1000, 10**6, 2**64, 10**30])
_arg_values = {
    int: _edge_ints.map(str),
    cli._int_list: st.lists(_edge_ints | st.integers(0, 12), max_size=3).map(
        lambda xs: ",".join(map(str, xs))
    ),
    cli._fraction: st.sampled_from(["0", "1/2", "-1/2", "1/1000", "3", "x"]),
}


@st.composite
def command_lines(draw):
    """One subcommand of ``cli._COMMANDS`` in one of the three formats, with
    values for its own arguments: every required one, and each other one half
    the time."""
    words = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [*words, f"--format={draw(st.sampled_from(['json', 'csv', 'text']))}"]
    for flags, kwargs in cli._COMMANDS[words][2]:
        if kwargs.get("required") or draw(st.booleans()):
            if kwargs.get("action") == "store_true":
                argv.append(flags[-1])
            else:  # "--flag=value", so a value may start with "-"
                argv.append(f"{flags[-1]}={draw(_arg_values[kwargs['type']])}")
    return argv


@settings(max_examples=100, deadline=None)
@given(
    data=st.sampled_from([STAIR, TRIPLE, KOOP, TQ2, MAIN_WDE, DOUBLING]) | spec_files(),
    argv=command_lines(),
)
@example(data=STAIR, argv=["check-cons", "--k=1000000", "--horizon=3"])
@example(data=STAIR, argv=["check-noncons", "--k=1000000", "--horizon=3"])
@example(  # a lone surrogate has no UTF-8, so no text summary naming it can be written
    data={"name": "x\ud800", "builder": {"kind": "staircase"}},
    argv=["describe", "--format=text", "--stages=2"],
)
def test_fuzzed_spec_files_keep_the_exit_code_contract(data, argv, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [*argv, "--spec", str(path), "--max-stage", "6",
            "--max-descendants", "5", "--max-pairs", "50", "--max-height-bits", "64"]
    runs = []
    for _ in range(2):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # encodes as stdout does
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), _alarm(4.0):
            try:
                code = cli.main(argv)
            except SystemExit as stop:  # the parser refuses a value
                code = stop.code
        assert code in (0, 2, 3, 4)
        assert time.perf_counter() - start < 2.0
        out.flush()
        runs.append(out.buffer.getvalue())
    assert runs[0] == runs[1]


@contextlib.contextmanager
def _alarm(seconds: float):
    """Raise :class:`TimeoutError` in the block once ``seconds`` of wall-clock
    time pass, so a run that would not end fails (``cli.main`` exits 1)."""

    def overdue(signum, frame):
        raise TimeoutError(f"past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

"""cli: sequential ``python -m rankone.cli`` processes on spec files written at
set-up.  This is what a shell user waits for: interpreter start, the import of
``rankone.cli``, spec loading and, for large outputs, JSON emission.

Small-output commands include three refusals with exit codes 2 (bad spec),
3 (over budget) and 4 (precondition).  Large-output commands load emission
(``_jsonable``, ``json.dump``) rather than compute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

from common import DOUBLING_R, DOUBLING_Z, PINNED_BUDGET, ROOT, SRC, WORK, median

_BUDGET = {k: v for k, v in PINNED_BUDGET.items() if k != "max_stage"}

SPEC_FILES = {
    "staircase": {"builder": {"kind": "staircase"}},
    "main_wde": {"builder": {"kind": "main_wde"}},
    "koopman": {"builder": {"kind": "koopman"}},
    "koopman16": {"builder": {"kind": "koopman", "max_r": 16}},
    "t_q2": {"builder": {"kind": "t_q", "q": 2, "max_r": 64}},
    "doubling": {
        "builder": {
            "kind": "high_staircase",
            "r_seq": list(DOUBLING_R),
            "z_seq": list(DOUBLING_Z),
            "extend": "increment",
        },
        "budget": {**_BUDGET, "max_height_bits": 200_000},
    },
    "bad": {"builder": {"kind": "no_such_builder"}},
}

# (name, spec file, arguments after the spec, expected exit code)
SMALL = [
    ("describe.staircase", "staircase", ["describe", "-n", "8"], 0),
    ("describe.doubling.n24", "doubling", ["describe", "-n", "24"], 0),
    ("heights.staircase.5", "staircase", ["heights", "--stage", "5"], 0),
    ("heights.koopman.3", "koopman", ["heights", "--stage", "3"], 0),
    ("check-cons.main_wde", "main_wde", ["check-cons", "--k", "2", "--horizon", "40"], 0),
    ("check-noncons.doubling", "doubling", ["check-noncons", "--k", "2", "--horizon", "10"], 0),
    ("check-nonerg.staircase.h4", "staircase", ["check-nonerg", "--b", "1", "--horizon", "4"], 0),
    ("divisibility.koopman", "koopman", ["divisibility", "--horizon", "6"], 0),
    ("measure.staircase", "staircase", ["measure", "--stage", "2", "--levels", "0,5", "--k", "7"], 0),
    ("rigidity.t_q2.4", "t_q2", ["rigidity", "--stage", "4"], 0),
    (
        "koopman.samples40",
        "koopman16",
        ["koopman", "--stage", "1", "--samples", "40", "--kmin", "60", "--kmax", "600", "--seed", "5"],
        0,
    ),
    ("refuse.bad-spec", "bad", ["describe"], 2),
    ("refuse.over-budget", "staircase", ["descendants", "--i", "0", "--j", "8"], 3),
    (
        "refuse.precondition",
        "staircase",
        ["oracle", "orbit", "--stage", "2", "--height", "5", "--offset", "3/11", "--k", "-9"],
        4,
    ),
]

LARGE = [
    ("descendants.staircase.0-6", "staircase", ["descendants", "--i", "0", "--j", "6"], 0),
    ("alpha.koopman.dump", "koopman", ["alpha", "--stage", "1", "--kmax", "40000", "--dump"], 0),
]


def write_spec_files(workdir=WORK) -> dict:
    specdir = workdir / "specs"
    specdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, body in SPEC_FILES.items():
        data = {"name": name, "max_stage": PINNED_BUDGET["max_stage"], "budget": dict(_BUDGET)}
        data.update(body)
        path = specdir / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        paths[name] = path
    return paths


def argv_for(cmd, paths) -> list[str]:
    _, spec, args, _ = cmd
    words = list(args)
    # the subcommand (and oracle sub-subcommand) come before --spec
    cut = 2 if words[0] == "oracle" else 1
    return words[:cut] + ["--spec", str(paths[spec])] + words[cut:]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, env) -> tuple[float, int, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def fingerprint(code: int, out: bytes) -> dict:
    return {"exit": code, "bytes": len(out), "sha256": hashlib.sha256(out).hexdigest()}


def run_in_process(main, argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


def interpreter_ms(code: str, env, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return median(times) * 1000


class Workload:
    name = "cli"

    def __init__(self, seed: int, refs: dict) -> None:
        self.refs = refs["cli"]
        self.paths = write_spec_files()
        self.env = child_env()
        rng = random.Random(seed)
        self.small = [(c, argv_for(c, self.paths)) for c in SMALL]
        self.large = [(c, argv_for(c, self.paths)) for c in LARGE]
        rng.shuffle(self.small)
        rng.shuffle(self.large)
        self.large_ms: list[float] = []

    def run_pass(self, cal):
        """Every small and large invocation once, each calibrated on its own
        (processes are too short for one factor per pass to follow the host).
        Returns scaled pass seconds, small-invocation seconds, answers."""
        small, answers = [], []
        total = 0.0
        for i, (cmd, argv) in enumerate(self.small + self.large):
            (_, code, out), dt, f = cal(lambda: run_process(argv, self.env))
            total += dt * f
            if i < len(self.small):
                small.append(dt * f)
            else:
                self.large_ms.append(dt * f * 1000)
            answers.append((cmd[0], code, out))
        return total, small, answers

    def check(self, answers) -> tuple[int, int]:
        """Each invocation's exit code and stdout bytes against the references."""
        failed = sum(1 for name, code, out in answers if fingerprint(code, out) != self.refs[name])
        return len(answers), failed

    def stdout_bytes(self, answers) -> int:
        return sum(len(out) for _, _, out in answers)

    def in_process_pass(self, cli) -> list:
        """Call ``cli.main`` in this process for every invocation, stdout captured."""
        answers = []
        for cmd, argv in self.small + self.large:
            code, out = run_in_process(cli.main, argv)
            answers.append((cmd[0], code, out))
        return answers

    @property
    def invocations(self) -> int:
        return len(self.small) + len(self.large)

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

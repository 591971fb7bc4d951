"""Workload definitions, seeded input generation and the child-process runner.

Every workload is a fixed sequence of `fewdist` CLI commands run one at a
time: a closed loop with a single client. Point-set workloads build their
inputs with `fewdist construct` and then apply a seeded point order and a
seeded signed permutation of the coordinates. Both are isometries that keep
every coordinate exactly representable, so every verdict is seed-invariant
while the program still sees a different input per seed. The catalog
workload takes only (d, s), so the seed does not change it.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

# Point sets a workload can use: the `fewdist construct` arguments for each.
POINT_SETS = {
    "j20_3": ("johnson", "-d", "20", "-s", "3"),
    "j16_4": ("johnson", "-d", "16", "-s", "4"),
    "e8": ("e8_roots",),
    "hc8": ("hypercube", "-d", "8"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    point_sets: tuple[str, ...]
    # Verdict commands; "{key}" stands for the seeded point file of POINT_SETS[key].
    commands: tuple[tuple[str, ...], ...]


# Two workloads, so that each run can measure two passes in about a minute
# within the time a full check allows. Why each exists is stated in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pointsets",
            ("j20_3", "j16_4", "e8", "hc8"),
            (
                ("ratios", "{j20_3}", "--all"),
                ("certify", "{j20_3}", "--setting", "all"),
                ("ratios", "{j16_4}", "--all"),
                ("ratios", "{e8}", "--all"),
                ("certify", "{e8}", "--setting", "all"),
                ("ratios", "{hc8}", "--all"),
                ("certify", "{hc8}", "--setting", "all"),
            ),
        ),
        Workload(
            "catalog",
            (),
            tuple(
                ("enumerate", "-d", str(d), "-s", str(s), "--realize")
                for d, s in ((10, 3), (4, 4), (3, 5))
            ),
        ),
    )
}


def setup_commands(workload: Workload, workdir: Path) -> list[tuple[list[str], Path]]:
    """The set-up commands (argv, stdout file): point-set construction, or for
    a workload without point sets its commands without --realize."""
    if not workload.point_sets:
        return [
            ([a for a in command if a != "--realize"], workdir / f"setup{pos}.out")
            for pos, command in enumerate(workload.commands)
        ]
    return [
        (["construct", *POINT_SETS[key], "-o", str(workdir / f"{key}.raw.json")], workdir / f"{key}.construct.out")
        for key in workload.point_sets
    ]


def write_seeded_inputs(workload: Workload, workdir: Path, seed: int) -> dict[str, Path]:
    """Write one seeded point file per point set; returns key -> path."""
    paths = {}
    for key in workload.point_sets:
        payload = json.loads((workdir / f"{key}.raw.json").read_text())
        points = payload["points"]
        rng = random.Random(f"{seed}/{key}")
        order = list(range(len(points)))
        rng.shuffle(order)
        dim = len(points[0])
        cols = list(range(dim))
        rng.shuffle(cols)
        signs = [rng.choice((1.0, -1.0)) for _ in cols]
        # "+ 0.0" turns the -0.0 a sign flip makes of 0.0 back into 0.0.
        moved = [[signs[c] * points[i][cols[c]] + 0.0 for c in range(dim)] for i in order]
        path = workdir / f"{key}.json"
        path.write_text(json.dumps({"dimension": dim, "points": moved}))
        paths[key] = path
    return paths


def verdict_argvs(workload: Workload, inputs: dict[str, Path]) -> list[list[str]]:
    return [
        [str(inputs[a[1:-1]]) if a.startswith("{") else a for a in command]
        for command in workload.commands
    ]


def work_dir(name: str) -> tempfile.TemporaryDirectory:
    """A fresh directory in the checkout, removed on exit: the benchmark reads
    and writes only inside its checkout."""
    return tempfile.TemporaryDirectory(prefix=f".fewdist-bench-{name}-", dir=ROOT)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    wall_s: float
    maxrss_mib: float
    returncode: int
    stdout: str
    stderr: str
    # Wall time of each stretch the child ran between pauses; they sum to wall_s.
    slices: tuple[float, ...] = ()


def run_child(argv: list[str], out_path: Path, env: dict[str, str], pause_every=None, on_pause=None) -> ChildResult:
    """Run `python -m fewdist argv` with stdout to out_path.

    With pause_every, the child is stopped after each pause_every seconds of
    running, on_pause() is called while it is stopped, and then it continues.
    wall_s counts only the time it ran.
    """
    return _spawn(["-m", "fewdist", *argv], tuple(argv), out_path, env, pause_every, on_pause)


def run_probe(out_path: Path, env: dict[str, str]) -> ChildResult:
    """Run the calibration probe, probe.py, once."""
    return _spawn([str(PROBE)], ("probe",), out_path, env)


def _spawn(args, argv, out_path: Path, env, pause_every=None, on_pause=None) -> ChildResult:
    """Run `python args` with stdout to out_path.

    The child is reaped with os.wait4, so ru_maxrss is this child's own peak.
    RUSAGE_CHILDREN would give the maximum over every child reaped so far.
    Linux starts a child's ru_maxrss at its parent's peak RSS, so the caller
    must stay smaller than the children it measures.
    """
    err_path = out_path.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            status, usage, slices = _wait_in_slices(proc.pid, start, pause_every, on_pause)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=argv,
        wall_s=sum(slices),
        maxrss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        slices=tuple(slices),
    )


def _wait_in_slices(pid: int, start: float, pause_every, on_pause):
    """Reap the child started at `start`, stopping it after each pause_every
    seconds of running to call on_pause(). Returns its wait status, its
    resource usage and the length of each stretch it ran."""
    slices = []
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            exited, _, _ = select.select([pidfd], [], [], pause_every)
            if not exited:
                os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            slices.append(time.perf_counter() - start)
            if not os.WIFSTOPPED(status):
                return status, usage, slices
            on_pause()
            start = time.perf_counter()
            os.kill(pid, signal.SIGCONT)
    finally:
        os.close(pidfd)

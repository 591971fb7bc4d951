"""fewdist benchmark: fixed CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root. With --trace 0 each workload's commands run as
`python -m fewdist` child processes, one at a time, in passes until the next
pass would overrun --seconds (at least one pass); their times are scaled by
the calibration probe (see ScaledClock) and the last stdout line holds the
end-to-end metrics. With --trace 1 the same commands run in this process
through fewdist.cli.run, once untraced and then traced in passes, and the last
line holds the per-layer metrics. `--workload all` runs every workload both
ways and prints every metric by name with its unit. Metric names and units
come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child (they inherit
# the environment); a larger count than the CPUs available only adds contention.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    if not os.environ.get(_var, "").isdigit() or not 1 <= int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    child_env,
    run_child,
    run_probe,
    setup_commands,
    verdict_argvs,
    work_dir,
    write_seeded_inputs,
)

SETUP_REPEATS = 3
# Times are reported at the speed at which the calibration probe takes this long.
PROBE_REF_S = 0.25
# A timed command is paused after each stretch this long, to run the probe.
PAUSE_EVERY_S = 1.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, stale reference, failed set-up)."""


class ScaledClock:
    """Runs timed commands and scales their wall time by a calibration probe.

    The probe (probe.py) runs before the first command, after each one, and
    while a command is paused after each PAUSE_EVERY_S of running. Each
    running stretch is scaled by PROBE_REF_S over the mean of the probe times
    just before and just after it, and a command's scaled time is the sum.
    The shared machine's speed drifts by tens of percent within seconds; the
    probe slows with it, so the scaled time keeps the program's own cost and
    drops most of the drift.
    """

    def __init__(self, workdir: Path, env):
        self.workdir, self.env = workdir, env
        self.probe_s: list[float] = []
        self.last = self._probe()

    def _probe(self) -> float:
        result = run_probe(self.workdir / "probe.out", self.env)
        if result.returncode != 0:
            raise BenchError(f"the calibration probe failed: {result.stderr.strip()}")
        self.probe_s.append(result.wall_s)
        return result.wall_s

    def run(self, argv, out: Path):
        """Run one fewdist command; returns its result and its scaled time."""
        probes = [self.last]
        result = run_child(argv, out, self.env, PAUSE_EVERY_S, lambda: probes.append(self._probe()))
        probes.append(self._probe())
        self.last = probes[-1]
        scaled = sum(
            wall * PROBE_REF_S * 2 / (before + after)
            for wall, before, after in zip(result.slices, probes, probes[1:])
        )
        return result, scaled


def metric_units(spec: dict) -> tuple[dict[str, str], dict[str, str]]:
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def env_stamp(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "fewdist").glob("*.py"))),
    }


def references(workload: Workload) -> list[dict]:
    entry = checks.load_reference()["workloads"].get(workload.name)
    if entry is None or [tuple(c["argv"]) for c in entry["commands"]] != list(workload.commands):
        raise BenchError(f"reference.json does not match workload {workload.name}; re-record it")
    return entry["commands"]


def set_up(workload: Workload, workdir: Path, seed: int, env) -> tuple[dict, dict[str, Path]]:
    """Run the set-up commands SETUP_REPEATS times; returns the median scaled
    and raw times and the seeded input files."""
    clock = ScaledClock(workdir, env)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        scaled.append(0.0)
        raw.append(0.0)
        for argv, out in setup_commands(workload, workdir):
            result, result_scaled = clock.run(argv, out)
            if result.returncode != 0:
                raise BenchError(f"set-up `fewdist {' '.join(argv)}` failed: {result.stderr.strip()}")
            scaled[-1] += result_scaled
            raw[-1] += result.wall_s
    times = {"setup_s": statistics.median(scaled), "setup_raw_s": statistics.median(raw)}
    return times, write_seeded_inputs(workload, workdir, seed)


def _more_passes(start: float, pass_elapsed: list[float], seconds: float) -> bool:
    return time.perf_counter() - start + statistics.median(pass_elapsed) <= seconds


def run_untraced(argvs, refs, seconds, workdir, env, setup):
    tally = checks.Tally()
    elapsed, raw_walls, walls, rss, rates = [], [], [], [], []
    command_walls = [[] for _ in argvs]
    start = time.perf_counter()
    clock = ScaledClock(workdir, env)
    while True:
        pass_start = time.perf_counter()
        pass_tally = checks.Tally()
        pass_raw, pass_wall, pass_rss = 0.0, 0.0, 0.0
        for pos, argv in enumerate(argvs):
            result, scaled = clock.run(argv, workdir / f"cmd{pos}.out")
            pass_tally.add(checks.check_command(argv, result.returncode, result.stdout, refs[pos]))
            command_walls[pos].append(result.wall_s)
            pass_raw += result.wall_s
            pass_wall += scaled
            pass_rss = max(pass_rss, result.maxrss_mib)
        tally.add(pass_tally)
        elapsed.append(time.perf_counter() - pass_start)
        raw_walls.append(pass_raw)
        walls.append(pass_wall)
        rss.append(pass_rss)
        rates.append(pass_tally.decided / pass_wall)
        if not _more_passes(start, elapsed, seconds):
            break
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_ref_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(rss),
        "decided_fraction": tally.decided / tally.attempted,
        "decided_per_ref_s": statistics.median(rates),
    }
    # A child's ru_maxrss starts from its parent's peak RSS at fork time, so
    # this process must stay smaller than every child it measures.
    own_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if own_mib >= min(rss):
        raise BenchError(f"the benchmark's own {own_mib:.1f} MiB peak masks the children's peak RSS")
    by_command = {
        " ".join(Path(a).name for a in argv): statistics.median(times)
        for argv, times in zip(argvs, command_walls)
    }
    timings = {
        "setup_raw_s": setup["setup_raw_s"],
        "probe_quartiles_s": statistics.quantiles(clock.probe_s, n=4),
        "pass_wall_s": raw_walls,
        "pass_wall_ref_s": walls,
        "command_wall_s": by_command,
    }
    return tally, metrics, timings


def import_fewdist():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fewdist

    if Path(fewdist.__file__).resolve().parent != SRC / "fewdist":
        raise BenchError(f"imported fewdist from {fewdist.__file__}, not from {SRC}")


def run_traced(argvs, refs, seconds, inputs):
    import_fewdist()
    import tracing

    tally = checks.Tally()

    def check(results):
        for pos, r in enumerate(results):
            tally.add(checks.check_command(r.argv, r.returncode, r.stdout, refs[pos]))

    # Each iteration pairs an untraced pass with a traced one, so that the
    # overhead figure compares passes run close together.
    samples, walls = [], []
    start = time.perf_counter()
    while True:
        plain = tracing.run_pass(argvs)
        check(plain)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = tracing.run_pass(argvs)
        check(traced)
        for p, t in zip(plain, traced):
            # The traced output must carry the same checked fields as the untraced one.
            if p.returncode != t.returncode or checks.extract(p.argv, p.stdout) != checks.extract(t.argv, t.stdout):
                tally.failed += 1
        plain_wall = sum(r.wall_s for r in plain)
        traced_wall = sum(r.wall_s for r in traced)
        walls.append(plain_wall + traced_wall)
        sample = tracing.layer_metrics(tracer)
        sample["cli.trace_overhead_s"] = (traced_wall - plain_wall) / len(argvs)
        for sub in ("ratios", "certify", "enumerate"):
            sample[f"cli.{sub}_s"] = float(sum(r.wall_s for r in plain if r.argv[0] == sub))
        samples.append(sample)
        if not _more_passes(start, walls, seconds):
            break
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    metrics["pointset.load_peak_mib"] = tracing.load_peak_mib(inputs.values())
    tally.failed = min(tally.failed, tally.attempted)
    return tally, metrics, {"pass_wall_s": walls}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns the result object and per-pass and per-command wall times."""
    if not (SRC / "fewdist" / "cli.py").is_file():
        raise BenchError(f"no fewdist sources under {SRC}")
    workload = WORKLOADS[name]
    refs = references(workload)
    env = child_env()
    with work_dir(name) as tmp:
        workdir = Path(tmp)
        setup, inputs = set_up(workload, workdir, seed, env)
        argvs = verdict_argvs(workload, inputs)
        if trace:
            tally, metrics, timings = run_traced(argvs, refs, seconds, inputs)
        else:
            tally, metrics, timings = run_untraced(argvs, refs, seconds, workdir, env, setup)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, timings


def with_units(metrics: dict, units: dict[str, str]) -> dict:
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The environment stamp imports numpy, so it is taken after the runs:
    # see the peak RSS note in run_untraced.
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        end_units, layer_units = metric_units(spec)
        if args.workload != "all":
            result, timings = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            result["metrics"] = with_units(result["metrics"], layer_units if args.trace else end_units)
            print(json.dumps({"env": env_stamp(args.seed), "workload": args.workload, **timings}))
            print(json.dumps(result))
            return 0
        return run_all(args, end_units, layer_units)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def run_all(args, end_units, layer_units) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace, units in ((False, end_units), (True, layer_units)):
        print("\n" + ("per-layer metrics (traced run)" if trace else "end-to-end metrics (untraced run)"))
        for name in WORKLOADS:
            result, timings = run_workload(name, args.seed, args.seconds, trace)
            metrics = with_units(result["metrics"], units)
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} passes={len(timings['pass_wall_s'])}")
            for metric, entry in metrics.items():
                print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
                summary["metrics"][f"{name}:{metric}"] = entry
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    print(json.dumps({"env": env_stamp(args.seed)}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

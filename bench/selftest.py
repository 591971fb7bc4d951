"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that two seeds give different inputs but the same verdicts, both
matching reference.json, on the antipodal-small commands (e8_roots and
hypercube(8) from the pointsets workload), and that the tracer reaches calls made
across fewdist modules and restores every original function afterwards.
Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import checks
from workloads import (
    SRC,
    WORKLOADS,
    Workload,
    child_env,
    run_child,
    setup_commands,
    verdict_argvs,
    work_dir,
    write_seeded_inputs,
)

SMALL = ("e8", "hc8")
WORKLOAD = Workload(
    "antipodal-small",
    SMALL,
    tuple(c for c in WORKLOADS["pointsets"].commands if c[1] in {f"{{{key}}}" for key in SMALL}),
)


def verdicts_for_seed(seed: int, workdir) -> tuple[list, bytes, checks.Tally]:
    env = child_env()
    for argv, path in setup_commands(WORKLOAD, workdir):
        assert run_child(argv, path, env).returncode == 0, argv
    inputs = write_seeded_inputs(WORKLOAD, workdir, seed)
    refs = [
        c
        for c in checks.load_reference()["workloads"]["pointsets"]["commands"]
        if tuple(c["argv"]) in WORKLOAD.commands
    ]
    ops, tally = [], checks.Tally()
    for pos, argv in enumerate(verdict_argvs(WORKLOAD, inputs)):
        result = run_child(argv, workdir / "out.json", env)
        ops.append((result.returncode, checks.extract(argv, result.stdout)))
        tally.add(checks.check_command(argv, result.returncode, result.stdout, refs[pos]))
    raw = b"".join(inputs[key].read_bytes() for key in WORKLOAD.point_sets)
    return ops, raw, tally


def check_seeds(workdir) -> list[str]:
    ops0, raw0, tally0 = verdicts_for_seed(0, workdir)
    ops1, raw1, tally1 = verdicts_for_seed(1, workdir)
    problems = []
    if raw0 == raw1:
        problems.append("seeds 0 and 1 wrote identical point files")
    if ops0 != ops1:
        problems.append("seeds 0 and 1 gave different verdicts")
    for seed, tally in ((0, tally0), (1, tally1)):
        if tally.failed or not tally.attempted:
            problems.append(f"seed {seed}: {tally.failed} of {tally.attempted} operations failed")
    return problems


def check_tracer(workdir) -> list[str]:
    sys.path.insert(0, str(SRC))
    import fewdist.certificate
    import tracing

    inputs = write_seeded_inputs(WORKLOAD, workdir, 0)
    original = fewdist.certificate.distance_profile
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        patched = fewdist.certificate.distance_profile is not original
        tracing.run_pass([["certify", str(inputs["e8"]), "--setting", "euclidean"]])
    problems = []
    if not patched:
        problems.append("certificate's own reference to distance_profile was not wrapped")
    if tracer.stats["pointset.distance_profile"].calls == 0:
        problems.append("no distance_profile call was traced from certificate")
    if tracer.stats["cli.run"].calls != 1:
        problems.append("cli.run was not traced exactly once")
    if fewdist.certificate.distance_profile is not original:
        problems.append("distance_profile was not restored")
    return problems


def main() -> int:
    with work_dir("selftest") as tmp:
        workdir = Path(tmp)
        problems = check_seeds(workdir) + check_tracer(workdir)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

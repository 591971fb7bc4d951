"""Record reference.json: the checked fields of every workload command's output.

    python3 bench/record_reference.py

Run from the repository root at a commit whose outputs are trusted. The
reference keeps only the fields checks.py compares, so outputs that gain new
keys still pass. Verdicts do not depend on the seed (selftest.py checks
that), so the inputs are written at one fixed seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS, child_env, run_child, setup_commands, verdict_argvs, work_dir, write_seeded_inputs

SEED = 0


def record() -> dict:
    env = child_env()
    out = {"workloads": {}}
    with work_dir("reference") as tmp:
        workdir = Path(tmp)
        for name, workload in WORKLOADS.items():
            for argv, path in setup_commands(workload, workdir):
                if run_child(argv, path, env).returncode != 0:
                    sys.exit(f"set-up `fewdist {' '.join(argv)}` failed")
            inputs = write_seeded_inputs(workload, workdir, SEED)
            commands = []
            for template, argv in zip(workload.commands, verdict_argvs(workload, inputs)):
                result = run_child(argv, workdir / "out.json", env)
                ops = checks.extract(argv, result.stdout)
                if ops is None:
                    sys.exit(f"`fewdist {' '.join(argv)}` printed no valid JSON: {result.stderr}")
                commands.append({"argv": list(template), "exit": result.returncode, "ops": ops})
                print(f"{name}: {' '.join(template)} -> exit {result.returncode}, {len(ops)} ops", file=sys.stderr)
            out["workloads"][name] = {"commands": commands}
    return out


def to_text(reference: dict) -> str:
    """JSON with one operation per line, so a re-recorded reference diffs by operation."""
    workloads = []
    for name, entry in reference["workloads"].items():
        commands = []
        for command in entry["commands"]:
            ops = ",\n".join("    " + json.dumps(op) for op in command["ops"])
            commands.append(
                f'   {{"argv": {json.dumps(command["argv"])}, "exit": {command["exit"]}, "ops": [\n{ops}\n   ]}}'
            )
        workloads.append(f'  {json.dumps(name)}: {{"commands": [\n' + ",\n".join(commands) + "\n  ]}")
    return '{"workloads": {\n' + ",\n".join(workloads) + "\n}}\n"


def main() -> None:
    checks.REFERENCE_PATH.write_text(to_text(record()))


if __name__ == "__main__":
    main()

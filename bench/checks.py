"""Output checks against the reference recorded in reference.json.

Outputs are compared field by field, never byte for byte, so keys added to
the CLI JSON later still pass. An operation is one ratio report, one
certificate verdict or one catalog tuple. It fails when it is
missing, when a checked field differs from the reference, or when its
command exits with another code than the reference's. An operation is
decided when it passes and, for a catalog tuple, ends `realized` or
`unrealizable`; a `newton_failed` tuple passes but is undecided.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
ROUND_TRIP_TOL = 1e-8
STATUSES = ("realized", "unrealizable", "newton_failed")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _ratio_ops(payload: dict) -> list[dict]:
    rational = payload.get("rational_inner_products")
    ops = []
    for report in payload["reports"]:
        op = {
            key: report[key]
            for key in ("setting", "rounded_k", "all_integral", "all_within_bound", "hypothesis_met")
        }
        if report["setting"].startswith("antipodal"):
            op["rational_inner_products"] = rational and rational["values"]
        ops.append(op)
    return ops


def _verdict_ops(payload: dict) -> list[dict]:
    keys = ("setting", "class_index", "rank", "zero_multiplicity", "k_rounded", "all_passed")
    return [{key: v[key] for key in keys} for v in payload["verdicts"]]


def _catalog_ops(payload: dict) -> list[dict]:
    return [{"k": e["k"], "status": e["status"]} for e in payload["entries"]]


EXTRACTORS = {
    "ratios": _ratio_ops,
    "certify": _verdict_ops,
    "enumerate": _catalog_ops,
}


def extract(argv, stdout: str) -> list[dict] | None:
    """The checked fields of each operation in one command's output, or None
    when the output is not the JSON document the command should print."""
    try:
        return EXTRACTORS[argv[0]](json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def forward_k(t: list[float]) -> list[float]:
    """K_i(t) = prod_{j != i} t_j / (t_j - t_i) with t_s = 1, written out
    independently of fewdist.inverse."""
    full = list(t) + [1.0]
    out = []
    for i, ti in enumerate(t):
        k = 1.0
        for j, tj in enumerate(full):
            if j != i:
                k *= tj / (tj - ti)
        out.append(k)
    return out


def _tuple_ok(entry: dict, reference_status: str) -> bool:
    try:
        return _tuple_checks(entry, reference_status)
    except (KeyError, TypeError, ZeroDivisionError):
        return False


def _tuple_checks(entry: dict, reference_status: str) -> bool:
    status = entry.get("status")
    if status not in STATUSES:
        return False
    if entry.get("k_last") != 1 - sum(entry["k"]):
        return False
    if reference_status == "realized" and status == "unrealizable":
        return False
    if status != "realized":
        return True
    t = entry.get("t")
    if not isinstance(t, list) or len(t) != len(entry["k"]):
        return False
    full = [0.0, *t, 1.0]
    if any(not a < b for a, b in zip(full, full[1:])):
        return False
    return max(abs(a - b) for a, b in zip(forward_k(t), entry["k"])) <= ROUND_TRIP_TOL


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    decided: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.decided += other.decided


def check_command(argv, returncode: int, stdout: str, reference: dict) -> Tally:
    """Tally one command's operations against its reference entry, which holds
    the expected exit code and the expected operations."""
    expected = reference["ops"]
    if returncode != reference["exit"]:
        return Tally(attempted=len(expected), failed=len(expected))
    if argv[0] == "enumerate":
        return _check_catalog(stdout, expected)
    got = extract(argv, stdout)
    if got is None:
        return Tally(attempted=len(expected), failed=len(expected))
    tally = Tally(attempted=max(len(expected), len(got)))
    for pos in range(tally.attempted):
        if pos < len(expected) and pos < len(got) and got[pos] == expected[pos]:
            tally.decided += 1
        else:
            tally.failed += 1
    return tally


def _check_catalog(stdout: str, expected: list[dict]) -> Tally:
    try:
        payload = json.loads(stdout)
        entries = {tuple(e["k"]): e for e in payload["entries"]}
        total = payload["counts"]["total"]
    except (ValueError, KeyError, TypeError):
        return Tally(attempted=len(expected), failed=len(expected))
    reference = {tuple(e["k"]): e["status"] for e in expected}
    extra = len(entries.keys() - reference.keys())
    tally = Tally(attempted=len(reference) + extra, failed=extra)
    if total != len(reference) or len(payload["entries"]) != total:
        tally.failed += 1
    for k, reference_status in reference.items():
        entry = entries.get(k)
        if entry is None or not _tuple_ok(entry, reference_status):
            tally.failed += 1
        elif entry["status"] != "newton_failed":
            tally.decided += 1
    tally.failed = min(tally.failed, tally.attempted)
    return tally

"""Exhaustive catalogs of admissible integer ratio tuples and their realization.

For a given (d, s) the integrality theorem confines the ratio tuple of any
large euclidean s-distance set to a finite box: each k_i is a nonzero integer
of sign (-1)**(i-1) with |k_i| <= U(N), and the induced k_s = 1 - sum(k_i)
obeys the same constraints. Enumerating the box and inverting each tuple back
to normalized squared distances yields the complete list of candidate
distance systems.

Realizing a catalog decides each tuple by the roots of its power-sum system
(fewdist.powersum.solve_power_sums), whose roots in D are exactly the tuple's
preimages:

- realized: the system has a root in D, and Newton (invert_K, from its own
  starts or else from that root) confirms it; `t` and `residual` are
  Newton's;
- unrealizable: k_1 = 1, or every homotopy path was accounted for and none
  ends in D; `margin` is then the distance from the nearest nonsingular root
  outside D to the closure of D, absent when every root is singular or at
  infinity;
- newton_failed: the homotopy left the tuple undecided (a path failed, two
  paths merged, or an endpoint could not be placed inside or outside D),
  and multistart Newton, its fallback, did not converge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .bounds import TheoremContext, theorem_context
from .defaults import DEFAULT_BOX_CAP
from .errors import BoxOverflowError, ParameterError
from .inverse import forward_K, invert_K
from .powersum import solve_power_sums


@dataclass(frozen=True)
class TupleEntry:
    k: tuple[int, ...]
    k_last: int
    # raw | realized (a root in D, confirmed by Newton: t, residual) |
    # unrealizable (k_1 = 1, or no homotopy path ends in D: margin, the
    # distance from D of the nearest nonsingular root, when one exists) |
    # newton_failed (homotopy undecided and its Newton fallback failed)
    status: str
    t: tuple[float, ...] | None = None
    residual: float | None = None
    note: str | None = None
    margin: float | None = None

    def to_dict(self) -> dict:
        out = {"k": list(self.k), "k_last": self.k_last, "status": self.status}
        if self.t is not None:
            out["t"] = [float(v) for v in self.t]
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.note is not None:
            out["note"] = self.note
        if self.margin is not None:
            out["margin"] = float(self.margin)
        return out


@dataclass(frozen=True)
class CandidateCatalog:
    d: int
    s: int
    context: TheoremContext
    stage: str  # enumerated | realized
    entries: tuple[TupleEntry, ...]

    def counts(self) -> dict:
        out = {"total": len(self.entries)}
        for status in ("realized", "unrealizable", "newton_failed"):
            count = sum(1 for e in self.entries if e.status == status)
            if self.stage == "realized":
                out[status] = count
        return out

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "context": self.context.to_dict(),
            "stage": self.stage,
            "counts": self.counts(),
            "entries": [e.to_dict() for e in self.entries],
        }


def enumerate_tuples(d: int, s: int, cap: int = DEFAULT_BOX_CAP) -> CandidateCatalog:
    """All sign- and bound-admissible integer tuples (k_1..k_{s-1}), in
    ascending lexicographic order."""
    if s < 2:
        raise ParameterError(f"enumeration needs s >= 2, got {s}")
    context = theorem_context("euclidean", d, s)
    bound = context.ratio_bound
    box = bound ** (s - 1)
    if box > cap:
        raise BoxOverflowError(
            f"enumeration box holds {box} tuples, above the cap of {cap}; "
            "raise the cap explicitly to proceed"
        )
    axes = []
    for i in range(s - 1):
        if i % 2 == 0:
            axes.append(range(1, bound + 1))
        else:
            axes.append(range(-bound, 0))
    want_positive_last = (s - 1) % 2 == 0
    entries = []
    for combo in itertools.product(*axes):
        k_last = 1 - sum(combo)
        if k_last == 0 or abs(k_last) > bound:
            continue
        if (k_last > 0) != want_positive_last:
            continue
        entries.append(TupleEntry(k=tuple(combo), k_last=k_last, status="raw"))
    return CandidateCatalog(d=d, s=s, context=context, stage="enumerated", entries=tuple(entries))


def realize_catalog(
    catalog: CandidateCatalog,
    tol_res: float = 1e-10,
    round_trip_tol: float = 1e-8,
) -> CandidateCatalog:
    """Decide every tuple; statuses become realized / unrealizable / newton_failed.

    k_1 = 1 is provably outside the image of the forward map (every factor of
    K_1 exceeds 1 strictly on the open domain), so those tuples are labeled
    unrealizable without solving anything. Every other tuple goes to
    solve_power_sums:
    - with a root in D, it is inverted by invert_K exactly as before and,
      should Newton fail from its own starts, by Newton from that root; it
      is realized when the forward map returns k within round_trip_tol;
    - with every path accounted for and none ending in D, it is
      unrealizable, with a note and the margin of the nearest nonsingular
      root outside D;
    - otherwise multistart Newton decides it as before: realized, or
      newton_failed with its best residual.
    """
    hard = [entry.k for entry in catalog.entries if entry.k[0] > 1]
    solutions = dict(zip(hard, solve_power_sums(hard)))
    realized = []
    for entry in catalog.entries:
        if entry.k[0] <= 1:
            realized.append(
                replace(
                    entry,
                    status="unrealizable",
                    note="K_1 > 1 strictly on the domain; k_1 = 1 has no preimage",
                )
            )
            continue
        solution = solutions[entry.k]
        if solution.complete and not solution.roots:
            note = (
                "every root of the power-sum system lies outside D"
                if solution.margin is not None
                else "every root of the power-sum system is singular or at infinity"
            )
            realized.append(
                replace(entry, status="unrealizable", note=note, margin=solution.margin)
            )
            continue
        result = invert_K(entry.k, tol_res=tol_res)
        if not _round_trips(result, entry.k, round_trip_tol) and solution.roots:
            result = invert_K(entry.k, tol_res=tol_res, starts=solution.roots)
        if _round_trips(result, entry.k, round_trip_tol):
            realized.append(replace(entry, status="realized", t=result.t, residual=result.residual))
            continue
        realized.append(
            replace(
                entry,
                status="newton_failed",
                residual=result.residual,
                note=f"no start converged below {tol_res}",
            )
        )
    return CandidateCatalog(
        d=catalog.d, s=catalog.s, context=catalog.context, stage="realized", entries=tuple(realized)
    )


def _round_trips(result, k, tol: float) -> bool:
    if not result.success:
        return False
    return float(np.max(np.abs(forward_K(result.t) - np.asarray(k, float)))) <= tol


def catalog_report(catalog: CandidateCatalog) -> dict:
    """Counts plus the finiteness statement the catalog certifies."""
    counts = catalog.counts()
    note = (
        f"every euclidean {catalog.s}-distance set in R^{catalog.d} with at least "
        f"{catalog.context.cardinality_threshold} points draws its ratio tuple from "
        f"this list of {counts['total']} candidates (bound {catalog.context.ratio_bound})"
    )
    return {
        "d": catalog.d,
        "s": catalog.s,
        "stage": catalog.stage,
        "counts": counts,
        "ratio_bound": catalog.context.ratio_bound,
        "cardinality_threshold": catalog.context.cardinality_threshold,
        "finiteness": note,
    }

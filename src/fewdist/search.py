"""Exhaustive catalogs of admissible integer ratio tuples and their realization.

For a given (d, s) the integrality theorem confines the ratio tuple of any
large euclidean s-distance set to a finite box: each k_i is a nonzero integer
of sign (-1)**(i-1) with |k_i| <= U(N), and the induced k_s = 1 - sum(k_i)
obeys the same constraints. Enumerating the box and inverting each tuple back
to normalized squared distances yields the complete list of candidate
distance systems.

Realizing a catalog decides each tuple by the inversion path of
fewdist.inverse, run on many tuples at once. Newton from the default start
t_i = i/s runs on every tuple with k_1 > 1 in one batch; only the tuples it
leaves go, in one batch, to the power-sum system
(fewdist.powersum.solve_power_sums), whose roots in D are exactly the
tuple's preimages:

- realized: Newton, from the default start or else from a root in D of the
  system, converges and round-trips; `t` and `residual` are Newton's. A
  round trip from the default start is final: the system is not solved for
  that tuple;
- unrealizable: k_1 = 1, or every homotopy path was accounted for and none
  ends in D; `margin` is then the distance from the nearest nonsingular root
  outside D to the closure of D, absent when every root is singular or at
  infinity;
- newton_failed: the homotopy left the tuple undecided (a path failed, two
  paths merged, or an endpoint could not be placed inside or outside D),
  and Newton from the default start and from every root it reported in D
  did not converge.

Only realize_catalog imports numpy and fewdist.inverse, and it imports
the engine only when some tuple is left for it, so listing a catalog loads
none of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .bounds import TheoremContext, theorem_context
from .defaults import DEFAULT_BOX_CAP
from .errors import BoxOverflowError, ParameterError


@dataclass(frozen=True)
class TupleEntry:
    k: tuple[int, ...]
    k_last: int
    # raw | realized (Newton round-tripped from the default start, tried on
    # every tuple first, or else from a root in D: t, residual) |
    # unrealizable (k_1 = 1, or no homotopy path ends in D: margin, the
    # distance from D of the nearest nonsingular root, when one exists) |
    # newton_failed (homotopy undecided and Newton did not converge)
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
        if self.stage == "realized":
            for status in ("realized", "unrealizable", "newton_failed"):
                out[status] = sum(1 for e in self.entries if e.status == status)
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

    Newton runs from the default start on every tuple with k_1 > 1 at once;
    a tuple it converges on is realized when the forward map returns k
    within round_trip_tol. The tuples left go to one batched
    solve_power_sums call. A tuple no_preimage decides is unrealizable, with
    its note and margin; every other one takes Newton from the roots in D of
    its solution, and is realized when that round-trips, else newton_failed
    with the best residual.
    """
    import numpy as np

    from .inverse import forward_K, newton_from_default_start, newton_from_roots, no_preimage

    def round_trips(result, k) -> bool:
        return result.success and np.max(np.abs(forward_K(result.t) - k)) <= round_trip_tol

    hard = [entry.k for entry in catalog.entries if entry.k[0] > 1]
    targets = np.array(hard, dtype=float).reshape(len(hard), catalog.s - 1)
    firsts = dict(zip(hard, newton_from_default_start(targets, tol_res)))
    left = [k for k in hard if not round_trips(firsts[k], k)]
    solutions = {}
    if left:
        from .powersum import solve_power_sums

        solutions = dict(zip(left, solve_power_sums(left)))
    realized = []
    for entry in catalog.entries:
        first = firsts.get(entry.k)
        if first is not None and entry.k not in solutions:
            realized.append(replace(entry, status="realized", t=first.t, residual=first.residual))
            continue
        solution = solutions.get(entry.k)
        note = no_preimage(entry.k, solution)
        if note is not None:
            margin = None if solution is None else solution.margin
            realized.append(replace(entry, status="unrealizable", note=note, margin=margin))
            continue
        k = np.asarray(entry.k, dtype=float)
        result = newton_from_roots(k, solution.roots, first, tol_res)
        if round_trips(result, k):
            realized.append(replace(entry, status="realized", t=result.t, residual=result.residual))
            continue
        note = f"no start converged below {tol_res}"
        realized.append(replace(entry, status="newton_failed", residual=result.residual, note=note))
    return CandidateCatalog(
        d=catalog.d, s=catalog.s, context=catalog.context, stage="realized", entries=tuple(realized)
    )


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

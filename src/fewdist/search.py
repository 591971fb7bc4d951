"""Exhaustive catalogs of admissible integer ratio tuples and their realization.

For a given (d, s) the integrality theorem confines the ratio tuple of any
large euclidean s-distance set to a finite box: each k_i is a nonzero integer
of sign (-1)**(i-1) with |k_i| <= U(N), and the induced k_s = 1 - sum(k_i)
obeys the same constraints. Enumerating the box and inverting each tuple back
to normalized squared distances yields the complete list of candidate
distance systems.

Realizing a catalog decides each tuple by the partial-sum theorem of
fewdist.inverse: a tuple has a preimage exactly when its partial sums
S_a = k_1 + ... + k_a alternate strictly around 1, and then only one.

- unrealizable: some S_a is on the wrong side of 1, an exact integer test;
  the note names the first such a and S_a;
- realized: fewdist.inverse.invert_rows, run once on the other tuples
  (Newton from the default start t_i = i/s, then the continuation on the
  tuples it leaves), converges and round-trips; `t` and `residual` are its;
- newton_failed: it did not, although the tuple has a preimage.

Only realize_catalog imports numpy and fewdist.inverse, so listing a
catalog loads neither.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bounds import TheoremContext, theorem_context
from .defaults import DEFAULT_BOX_CAP
from .errors import BoxOverflowError, ParameterError

ROUND_TRIP_TOL = 1e-8  # how far forward_K of a realized t may land from k


@dataclass(frozen=True)
class TupleEntry:
    k: tuple[int, ...]
    k_last: int
    # raw | realized (t, residual) | unrealizable (note) | newton_failed (residual, note)
    status: str
    t: tuple[float, ...] | None = None
    residual: float | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        out = {"k": list(self.k), "k_last": self.k_last, "status": self.status}
        if self.t is not None:
            out["t"] = [float(v) for v in self.t]
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.note is not None:
            out["note"] = self.note
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
    axes = [range(1, bound + 1) if i % 2 == 0 else range(-bound, 0) for i in range(s - 1)]
    want_positive_last = (s - 1) % 2 == 0
    entries = []
    for combo in itertools.product(*axes):
        k_last = 1 - sum(combo)
        if k_last == 0 or abs(k_last) > bound or (k_last > 0) != want_positive_last:
            continue
        entries.append(TupleEntry(k=tuple(combo), k_last=k_last, status="raw"))
    return CandidateCatalog(d=d, s=s, context=context, stage="enumerated", entries=tuple(entries))


def realize_catalog(catalog: CandidateCatalog) -> CandidateCatalog:
    """Decide every tuple; statuses become realized / unrealizable / newton_failed.

    A tuple outside P (no_preimage) is unrealizable. invert_rows inverts the
    others in one call; a tuple is realized when it converged and the
    forward map returns k within ROUND_TRIP_TOL, else newton_failed with
    its residual.
    """
    import numpy as np

    from .inverse import DEFAULT_TOL_RES, forward_K, invert_rows, no_preimage

    notes = [no_preimage(entry.k) for entry in catalog.entries]
    inside = [entry.k for entry, note in zip(catalog.entries, notes) if note is None]
    targets = np.array(inside, dtype=float)
    results = invert_rows(targets)
    # _newton keeps every iterate PROJECT_GAP inside D, where forward_K accepts it.
    errors = np.max(np.abs(forward_K([r.t for r in results]) - targets), axis=1) if inside else []
    decided = zip(results, errors)
    entries = []
    for entry, note in zip(catalog.entries, notes):
        status, t, residual = "unrealizable", None, None
        if note is None:
            result, error = next(decided)
            residual = result.residual
            if result.success and error <= ROUND_TRIP_TOL:
                status, t = "realized", result.t
            else:
                status = "newton_failed"
                note = f"the continuation did not converge below {DEFAULT_TOL_RES}"
        entries.append(TupleEntry(entry.k, entry.k_last, status, t, residual, note))
    return CandidateCatalog(
        d=catalog.d, s=catalog.s, context=catalog.context, stage="realized", entries=tuple(entries)
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

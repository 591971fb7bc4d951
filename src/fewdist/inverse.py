"""Forward ratio map on normalized squared distances and its inversion.

Distances are normalized so the largest squared distance is 1; the remaining
s-1 values t_1 < ... < t_{s-1} live in the open simplex
D = { 0 < t_1 < ... < t_{s-1} < 1 }. With t_s = 1 fixed, the forward map is

    K_i(t) = prod_{j != i} t_j / (t_j - t_i),   i = 1..s-1,

the Lagrange basis values L_i(0) on the nodes (t_1, ..., t_{s-1}, 1), as
are the euclidean ratios of fewdist.ratios. They alternate in sign,
K_1 > 0, and sum with K_s to 1. The Jacobian has closed-form entries and
determinant

    det J = (s-1)! * prod_i K_i / (1 - t_i),

which never vanishes on D, so Newton iteration inverts K locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSignError,
    NoSolutionError,
    ParameterError,
    SingularTupleError,
)
from .lagrange import lagrange_weights

DOMAIN_EPS = 1e-12
PROJECT_GAP = 1e-9
DEFAULT_TOL_RES = 1e-10
SPREADS = (0.5, 2.0, 0.25, 4.0, 8.0)


def _check_domain(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("t must be a 1-d sequence with at least one entry")
    full = np.append(arr, 1.0)
    if full[0] <= DOMAIN_EPS:
        raise ParameterError(f"t_1 must exceed {DOMAIN_EPS}")
    if np.min(np.diff(full)) <= DOMAIN_EPS:
        raise ParameterError(f"t must be strictly increasing below 1 with gaps > {DOMAIN_EPS}")
    return arr


def _weights(arr: np.ndarray) -> np.ndarray:
    return np.array(lagrange_weights(arr.tolist() + [1.0], 0.0))


def forward_K(t) -> np.ndarray:
    """K_1..K_{s-1} at t; the sign of K_i is (-1)**(i-1)."""
    return _weights(_check_domain(t))[:-1]


def forward_K_full(t) -> np.ndarray:
    """All s values including K_s; they sum to exactly 1 analytically."""
    return _weights(_check_domain(t))


def jacobian(t) -> np.ndarray:
    """J[i, j] = dK_i/dt_j for i, j = 1..s-1.

    With m_ij = 1/(t_i - t_j): dK_i/dt_i = K_i * sum_{k != i} m_ki and
    dK_i/dt_j = K_i * (t_i/t_j) * m_ij for j != i (t_s = 1 participates in
    the diagonal sum but is not a variable).
    """
    arr = _check_domain(t)
    s1 = arr.size
    full = np.append(arr, 1.0)
    K = _weights(arr)[:-1]
    diff = full[:, None] - full[None, :]
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff  # inv[i, j] = m_ij
    J = K[:, None] * (arr[:, None] / arr[None, :]) * inv[:s1, :s1]
    # Summing each column as a contiguous row adds in the order of the former
    # per-column np.sum, so J is bit for bit what the entry-by-entry loop gave.
    J[np.diag_indices(s1)] = K * np.sum(np.ascontiguousarray(inv.T), axis=1)[:s1]
    return J


def jacobian_det_closed(t) -> float:
    """det J = (s-1)! * prod_i K_i / (1 - t_i), evaluated directly."""
    arr = _check_domain(t)
    K = forward_K(arr)
    det = float(math.factorial(arr.size))
    for ki, ti in zip(K, arr):
        det *= ki / (1.0 - ti)
    return det


def check_sign_pattern(k) -> np.ndarray:
    arr = np.asarray(k, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("k must be a 1-d sequence with at least one entry")
    for i, value in enumerate(arr):
        want_positive = i % 2 == 0
        if value == 0.0 or (value > 0.0) != want_positive:
            raise InvalidSignError(
                f"k[{i + 1}] = {float(value)!r} violates the alternating pattern (-1)**(i-1)"
            )
    return arr


@dataclass(frozen=True)
class InversionResult:
    success: bool
    t: tuple[float, ...]
    residual: float
    iterations: int
    start_index: int
    method: str = "newton"
    branches: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "t": [float(x) for x in self.t],
            "residual": float(self.residual),
            "iterations": self.iterations,
            "start_index": self.start_index,
            "method": self.method,
            "branches": list(self.branches) if self.branches is not None else None,
        }


def _project(t: np.ndarray) -> np.ndarray:
    out = np.clip(t, PROJECT_GAP, 1.0 - PROJECT_GAP)
    for i in range(1, out.size):
        if out[i] < out[i - 1] + PROJECT_GAP:
            out[i] = out[i - 1] + PROJECT_GAP
    if out[-1] > 1.0 - PROJECT_GAP:
        out[-1] = 1.0 - PROJECT_GAP
        for i in range(out.size - 2, -1, -1):
            if out[i] > out[i + 1] - PROJECT_GAP:
                out[i] = out[i + 1] - PROJECT_GAP
    return out


def _starts(s1: int):
    base = np.arange(1, s1 + 1) / (s1 + 1)
    yield base.copy()
    for q in SPREADS:
        yield base**q


def invert_K(
    k_target,
    tol_res: float = DEFAULT_TOL_RES,
    max_iter: int = 100,
    multistart: bool = True,
    starts=None,
) -> InversionResult:
    """Damped Newton inversion of forward_K.

    Tries the default start t_i = i/s and, if needed, five power-law spreads
    of it, or the given starts; each Newton step is halved up to 30 times
    until the residual decreases, and iterates are projected back into the
    open simplex. Returns the best point found with
    success = (residual <= tol_res).
    """
    target = check_sign_pattern(k_target)
    s1 = target.size
    # Residuals are measured relative to the target scale: for large |k| the
    # forward map cannot be evaluated below ~eps * |k| in floats, so an
    # absolute criterion would be unattainable.
    res_scale = max(1.0, float(np.max(np.abs(target))))
    best = None
    for start_index, start in enumerate(_starts(s1) if starts is None else starts):
        if not multistart and start_index > 0:
            break
        t = _project(np.asarray(start, dtype=float))
        residual_vec = forward_K(t) - target
        residual = float(np.max(np.abs(residual_vec))) / res_scale
        iterations = 0
        stalled = 0
        while residual > tol_res and iterations < max_iter and stalled < 3:
            iterations += 1
            J = jacobian(t)
            try:
                step = np.linalg.solve(J, residual_vec)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(J, residual_vec, rcond=None)
            improved = False
            scale = 1.0
            for _ in range(30):
                candidate = _project(t - scale * step)
                cand_vec = forward_K(candidate) - target
                cand_res = float(np.max(np.abs(cand_vec))) / res_scale
                if cand_res < residual:
                    t, residual_vec, residual = candidate, cand_vec, cand_res
                    improved = True
                    break
                scale *= 0.5
            stalled = 0 if improved else stalled + 1
        candidate = InversionResult(
            success=residual <= tol_res,
            t=tuple(float(x) for x in t),
            residual=residual,
            iterations=iterations,
            start_index=start_index,
        )
        if candidate.success:
            return candidate
        if best is None or candidate.residual < best.residual:
            best = candidate
    return best


@dataclass(frozen=True)
class ClosedFormResult:
    t: tuple[float, float]
    branches: tuple[str, str]
    residual: float

    def to_dict(self) -> dict:
        return {
            "t": [float(x) for x in self.t],
            "branches": list(self.branches),
            "residual": float(self.residual),
        }


def invert_s3_closed(k1: float, k2: float) -> ClosedFormResult:
    """Closed-form inversion for s = 3 targets (k1 > 0 > k2).

    t_i = (k_i*(k1+k2-1) + sigma_i*sqrt(k1*k2*(k1+k2-1))) / (k_i*(k1+k2));
    the reference derivation prints '+' for both radicals, but worked targets
    need mixed signs, so all four combinations are tried and validated by a
    forward round trip within 1e-9.
    """
    check_sign_pattern([k1, k2])
    if abs(k1 + k2) < 1e-12:
        raise SingularTupleError(f"k1 + k2 = {k1 + k2!r} is singular; use invert_K")
    radicand = k1 * k2 * (k1 + k2 - 1.0)
    if radicand < 0.0:
        raise NoSolutionError(f"negative radicand {radicand!r}; no real solution")
    root = math.sqrt(radicand)
    shift = k1 + k2 - 1.0
    scale = k1 + k2
    for s1, sign1 in ((1.0, "+"), (-1.0, "-")):
        for s2, sign2 in ((1.0, "+"), (-1.0, "-")):
            t1 = (k1 * shift + s1 * root) / (k1 * scale)
            t2 = (k2 * shift + s2 * root) / (k2 * scale)
            if not (DOMAIN_EPS < t1 < t2 < 1.0 - DOMAIN_EPS):
                continue
            if (t2 - t1) <= DOMAIN_EPS:
                continue
            residual = float(np.max(np.abs(forward_K([t1, t2]) - [k1, k2])))
            if residual <= 1e-9:
                return ClosedFormResult(t=(t1, t2), branches=(sign1, sign2), residual=residual)
    raise NoSolutionError(f"no branch combination inverts ({k1!r}, {k2!r})")


def invert_auto(k_target, tol_res: float = DEFAULT_TOL_RES, max_iter: int = 100) -> InversionResult:
    """Closed form for s = 3 when regular, Newton otherwise or on fallback."""
    target = check_sign_pattern(k_target)
    if target.size == 2:
        try:
            closed = invert_s3_closed(float(target[0]), float(target[1]))
            return InversionResult(
                success=True,
                t=closed.t,
                residual=closed.residual,
                iterations=0,
                start_index=-1,
                method="closed_form",
                branches=closed.branches,
            )
        except (SingularTupleError, NoSolutionError):
            pass
    return invert_K(k_target, tol_res=tol_res, max_iter=max_iter)

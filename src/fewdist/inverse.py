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

Inversion takes one path. Damped Newton runs from the default start
t_i = i/s; if it fails, k has no preimage when k_1 <= 1 (K_1 > 1 strictly on
D) or when the power-sum engine (fewdist.powersum) accounts for every root
and finds none in D; otherwise Newton runs again from each root in D the
engine reports, and a tuple none of them inverts stays undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoSolutionError, ParameterError, SingularTupleError
from .lagrange import DOMAIN_EPS, check_sign_pattern, lagrange_weights

PROJECT_GAP = 1e-9
DEFAULT_TOL_RES = 1e-10
ENGINE_MAX_S = 6  # one tuple's (s-1)! engine paths: 0.3 s at s = 6, gigabytes at s = 8


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


def _newton(target, start, start_index: int, tol_res: float, max_iter: int) -> InversionResult:
    """Damped Newton on forward_K - target from one start: each step is halved
    up to 30 times until the residual decreases, and iterates are projected
    back into the open simplex."""
    # Residuals are measured relative to the target scale: for large |k| the
    # forward map cannot be evaluated below ~eps * |k| in floats, so an
    # absolute criterion would be unattainable.
    res_scale = max(1.0, float(np.max(np.abs(target))))
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
    return InversionResult(
        success=residual <= tol_res,
        t=tuple(float(x) for x in t),
        residual=residual,
        iterations=iterations,
        start_index=start_index,
    )


def no_preimage(k, solution=None) -> str | None:
    """Why k provably has no preimage in D, else None: k_1 <= 1, as K_1 > 1
    strictly on D, or a PowerSumSolution that accounted for every path and
    found no root in D (solution None: the engine was not run)."""
    if k[0] <= 1:
        return "K_1 > 1 strictly on the domain; k_1 = 1 has no preimage"
    if solution is None or not solution.complete or solution.roots:
        return None
    if solution.margin is None:
        return "every root of the power-sum system is singular or at infinity"
    return "every root of the power-sum system lies outside D"


def invert_with(
    target: np.ndarray, solution, tol_res: float = DEFAULT_TOL_RES, max_iter: int = 100
) -> InversionResult:
    """The inversion path for a sign-checked target. A caller that passes a
    PowerSumSolution has applied no_preimage; with None, the engine runs
    (only if s <= ENGINE_MAX_S) when Newton from the default start fails,
    and no_preimage is applied here. Returns the first converged result
    (start_index 0 from the default start, i from the i-th root in D), else
    the default-start attempt with method "no_preimage", else the failed
    attempt of least residual."""
    first = _newton(target, np.arange(1, target.size + 1) / (target.size + 1), 0, tol_res, max_iter)
    if first.success:
        return first
    if solution is None:
        if target.size < ENGINE_MAX_S:
            from .powersum import solve_power_sums  # so a default-start success never loads it
            solution = solve_power_sums([target])[0]
        if no_preimage(target, solution) is not None:
            return replace(first, method="no_preimage")
    best = first
    for start_index, root in enumerate(solution.roots if solution is not None else (), start=1):
        result = _newton(target, root, start_index, tol_res, max_iter)
        if result.success:
            return result
        if result.residual < best.residual:
            best = result
    return best


def invert_K(k_target, tol_res: float = DEFAULT_TOL_RES, max_iter: int = 100) -> InversionResult:
    """invert_with on a sign-checked k_target: success = (residual <= tol_res),
    relative to max(1, max|k|); method "no_preimage" marks a proven none."""
    return invert_with(check_sign_pattern(k_target), None, tol_res, max_iter)


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
    """Closed form for s = 3 when regular, else the inversion path (invert_K)."""
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

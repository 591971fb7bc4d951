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

K is a diffeomorphism of D onto the open polyhedron

    P = { k : (-1)**(a-1) * (S_a - 1) > 0, a = 1..s-1 },  S_a = k_1 + ... + k_a,

so the partial sums of a realizable tuple alternate strictly around 1
(for s = 2, k > 1). Necessity: h = P_f - 1, with P_f the interpolant of the
indicator of the first a nodes, has h(0) = S_a - 1; Rolle places all s - 2
roots of h' in (t_1, t_a) and (t_{a+1}, t_s), which fixes the sign of h(0).
Sufficiency and uniqueness: as t leaves D with K bounded, the nodes tending
to 0 carry total weight 1 and every other cluster weight 0, so some S_a
tends to 1; K is proper onto the convex P and a local diffeomorphism, hence
a bijection (Hadamard-Caccioppoli).

Inversion takes one path. A tuple outside P has no preimage (no_preimage,
an exact test), and no Newton iteration runs on it. On tuples of P,
invert_rows runs damped Newton from the default start t_i = i/s, then, on
each row Newton leaves, follows the segment from K(default start) to k in
the coordinates u_a = log((-1)**(a-1) (S_a - 1)), which map P onto
R^(s-1), so every point of the path has a preimage.

The map, its Jacobian and the projection into D take a leading axis of
points, and forward_K and jacobian are their one-point case. A row's
arithmetic does not depend on the other rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .defaults import DEFAULT_MAX_ITER, DEFAULT_TOL_RES
from .errors import NoSolutionError, ParameterError, SingularTupleError, _valid_tol
from .lagrange import DOMAIN_EPS, check_sign_pattern, lagrange_weights

PROJECT_GAP = 1e-9
BACKTRACK = 0.5 ** np.arange(30)  # the damped step's scales 1, 1/2, ..., 2**-29
FIRST_STEP = 0.125  # the continuation's first step along its path
MIN_STEP = 2.0**-20  # the continuation gives up when its step falls below this
NEWTON_CHUNK = 4096  # rows Newton runs at once; bounds its memory


def _check_domain(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if arr.ndim < 1 or arr.size < 1:
        raise ParameterError("t must be a sequence, or rows of sequences, with at least one entry")
    full = _nodes(arr)
    if np.min(full[..., 0]) <= DOMAIN_EPS:
        raise ParameterError(f"t_1 must exceed {DOMAIN_EPS}")
    if np.min(np.diff(full, axis=-1)) <= DOMAIN_EPS:
        raise ParameterError(f"t must be strictly increasing below 1 with gaps > {DOMAIN_EPS}")
    return arr


def _nodes(t: np.ndarray) -> np.ndarray:
    """The nodes (t, 1) of each row of t."""
    return np.concatenate([t, np.ones((*t.shape[:-1], 1))], axis=-1)


def forward_K(t) -> np.ndarray:
    """K_1..K_{s-1} at t, or at each row of t; the sign of K_i is (-1)**(i-1)."""
    return lagrange_weights(_nodes(_check_domain(t)), 0.0)[..., :-1]


def forward_K_full(t) -> np.ndarray:
    """All s values including K_s; they sum to exactly 1 analytically."""
    return lagrange_weights(_nodes(_check_domain(t)), 0.0)


def jacobian(t) -> np.ndarray:
    """J[i, j] = dK_i/dt_j for i, j = 1..s-1.

    With m_ij = 1/(t_i - t_j): dK_i/dt_i = K_i * sum_{k != i} m_ki and
    dK_i/dt_j = K_i * (t_i/t_j) * m_ij for j != i (t_s = 1 participates in
    the diagonal sum but is not a variable).
    """
    return _jacobian(_check_domain(t))


def _jacobian(t: np.ndarray) -> np.ndarray:
    s1 = t.shape[-1]
    full = _nodes(t)
    K = lagrange_weights(full, 0.0)[..., :-1]
    diff = full[..., :, None] - full[..., None, :]
    diff[..., np.arange(s1 + 1), np.arange(s1 + 1)] = np.inf
    inv = 1.0 / diff  # inv[..., i, j] = m_ij
    J = K[..., :, None] * (t[..., :, None] / t[..., None, :]) * inv[..., :s1, :s1]
    # Summing each column as a contiguous row adds in the order of the former
    # per-column np.sum, so J is bit for bit what the entry-by-entry loop gave.
    column_sums = np.sum(np.ascontiguousarray(np.swapaxes(inv, -1, -2)), axis=-1)
    J[..., np.arange(s1), np.arange(s1)] = K * column_sums[..., :s1]
    return J


def jacobian_det_closed(t) -> float:
    """det J = (s-1)! * prod_i K_i / (1 - t_i), evaluated directly at one point."""
    arr = _check_domain(t)
    if arr.ndim != 1:
        raise ParameterError("t must be one point, a 1-d sequence")
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
    """Each row of t moved into D, with gaps of at least PROJECT_GAP."""
    out = np.clip(t, PROJECT_GAP, 1.0 - PROJECT_GAP)
    for i in range(1, out.shape[-1]):
        floor = out[..., i - 1] + PROJECT_GAP
        out[..., i] = np.where(out[..., i] < floor, floor, out[..., i])
    top = out[..., -1] > 1.0 - PROJECT_GAP
    if np.any(top):
        out[..., -1] = np.where(top, 1.0 - PROJECT_GAP, out[..., -1])
        for i in range(out.shape[-1] - 2, -1, -1):
            ceiling = out[..., i + 1] - PROJECT_GAP
            out[..., i] = np.where(top & (out[..., i] > ceiling), ceiling, out[..., i])
    return out


def _steps(J: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The Newton step J^-1 vec of each row; least squares where LAPACK
    finds J singular."""
    try:
        return np.linalg.solve(J, vec[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) > 1:
            return np.concatenate([_steps(J[i : i + 1], vec[i : i + 1]) for i in range(len(J))])
        return np.linalg.lstsq(J[0], vec[0], rcond=None)[0][None]


def _newton(targets, starts, tol_res: float, max_iter: int):
    """Damped Newton on forward_K - target for each row of targets, of shape
    (T, s-1), from the same row of starts. A step is halved up to 29 times
    until the residual decreases: the full step is tried on every row, the
    shorter scales at once on the rows it fails, and each row takes its first
    improving scale. Iterates are projected back into
    the open simplex. Returns t, residual, iterations and success per row;
    a row's values do not depend on the other rows."""
    # Residuals are measured relative to the target scale: for large |k| the
    # forward map cannot be evaluated below ~eps * |k| in floats, so an
    # absolute criterion would be unattainable.
    targets = np.asarray(targets, dtype=float)
    res_scale = np.fmax(1.0, np.max(np.abs(targets), axis=1))
    t = _project(np.array(starts, dtype=float))
    vec = lagrange_weights(_nodes(t), 0.0)[:, :-1] - targets
    residual = np.max(np.abs(vec), axis=1) / res_scale
    iterations = np.zeros(len(t), dtype=int)
    stalled = np.zeros(len(t), dtype=int)
    while True:
        rows = np.flatnonzero((residual > tol_res) & (iterations < max_iter) & (stalled < 3))
        if not rows.size:
            break
        iterations[rows] += 1
        stalled[rows] += 1
        step = _steps(_jacobian(t[rows]), vec[rows])
        for scales in (BACKTRACK[:1], BACKTRACK[1:]):
            candidates = _project(t[rows, None] - scales[:, None] * step[:, None])
            cand_vec = lagrange_weights(_nodes(candidates), 0.0)[..., :-1] - targets[rows, None]
            cand_res = np.max(np.abs(cand_vec), axis=2) / res_scale[rows, None]
            better = cand_res < residual[rows, None]
            improved = np.any(better, axis=1)
            moved, scale = rows[improved], np.argmax(better, axis=1)[improved]
            t[moved] = candidates[improved, scale]
            vec[moved] = cand_vec[improved, scale]
            residual[moved] = cand_res[improved, scale]
            stalled[moved] = 0
            rows, step = rows[~improved], step[~improved]
    return t, residual, iterations, residual <= tol_res


def _results(t, residual, iterations, success, method: str = "newton") -> list[InversionResult]:
    """One InversionResult per row of _newton's output, started at index 0."""
    return [
        InversionResult(
            success=bool(ok),
            t=tuple(float(x) for x in row),
            residual=float(res),
            iterations=int(its),
            start_index=0,
            method=method,
        )
        for row, res, its, ok in zip(t, residual, iterations, success)
    ]


def _default_start(targets: np.ndarray) -> np.ndarray:
    """t_i = i/s for each row of targets."""
    s = targets.shape[-1] + 1
    return np.broadcast_to(np.arange(1, s) / s, targets.shape)


def no_preimage(k) -> str | None:
    """Why k has no preimage in D, else None: the first a, if any, at which
    the partial sum S_a = k_1 + ... + k_a fails (-1)**(a-1) (S_a - 1) > 0.
    The sums are exact, in integers or in the Fractions of floats."""
    total, sign = 0, 1
    for a, value in enumerate(k, 1):
        total += value if isinstance(value, int) else Fraction(value)
        if sign * (total - 1) <= 0:
            sums = "K_1" if a == 1 else f"K_1 + ... + K_{a}"
            side = ">" if sign > 0 else "<"
            return f"{sums} {side} 1 strictly on the domain; {sums.lower()} = {total} has no preimage"
        sign = -sign
    return None


def _log_sums(k: np.ndarray) -> np.ndarray:
    """u_a = log((-1)**(a-1) (S_a - 1)), coordinates that map P onto R^(s-1)."""
    signs = (-1.0) ** np.arange(k.size)
    return np.log(signs * (np.cumsum(k) - 1.0))


def _from_log_sums(u: np.ndarray) -> np.ndarray:
    signs = (-1.0) ** np.arange(u.size)
    return np.diff(1.0 + signs * np.exp(u), prepend=0.0)


def _continue(target: np.ndarray, tol_res: float, max_iter: int) -> InversionResult:
    """Newton along the segment from K(default start) to the target, a tuple
    of P, in log partial-sum coordinates: each point of the segment has a
    preimage, which _newton corrects to from the last one. A step that does
    not converge is halved, one that does doubles the next. Returns the
    final Newton's result with method "continuation" and every corrector
    iteration counted, or a failure once the step falls below MIN_STEP."""
    t = _default_start(target)
    u0 = _log_sums(lagrange_weights(_nodes(t), 0.0)[:-1])
    direction = _log_sums(target) - u0
    tau, step, total = 0.0, FIRST_STEP, 0
    while step >= MIN_STEP:
        nxt = min(1.0, tau + step)
        k = target if nxt == 1.0 else _from_log_sums(u0 + nxt * direction)
        t_next, residual, iterations, success = _newton(k[None], t[None], tol_res, max_iter)
        total += int(iterations[0])
        if not success[0]:
            step /= 2
            continue
        if nxt == 1.0:
            return _results(t_next, residual, [total], success, "continuation")[0]
        tau, t, step = nxt, t_next[0], 2 * step
    t_last, residual, _, success = _newton(target[None], t[None], tol_res, 0)
    return _results(t_last, residual, [total], success, "continuation")[0]


def invert_rows(
    targets, tol_res: float = DEFAULT_TOL_RES, max_iter: int = DEFAULT_MAX_ITER
) -> list[InversionResult]:
    """Invert each row of targets (T, s-1), sign-checked tuples that
    no_preimage puts in P: Newton from the default start, NEWTON_CHUNK rows
    at a time, then the continuation on each row it leaves. success =
    (residual <= tol_res), relative to max(1, max|k|)."""
    tol_res, max_iter = _valid_tol("tol_res", tol_res), _valid_tol("max_iter", max_iter)
    targets = np.asarray(targets, dtype=float)
    results = []
    for start in range(0, len(targets), NEWTON_CHUNK):
        chunk = targets[start : start + NEWTON_CHUNK]
        results.extend(_results(*_newton(chunk, _default_start(chunk), tol_res, max_iter)))
    return [r if r.success else _continue(k, tol_res, max_iter) for k, r in zip(targets, results)]


def invert_K(k_target, tol_res: float = DEFAULT_TOL_RES, max_iter: int = DEFAULT_MAX_ITER) -> InversionResult:
    """The inversion path for k_target, sign-checked here. A tuple outside P
    gets method "no_preimage": the default start and its residual, with no
    Newton iteration. A tuple in P is inverted by invert_rows."""
    tol_res, max_iter = _valid_tol("tol_res", tol_res), _valid_tol("max_iter", max_iter)
    target = check_sign_pattern(k_target)[None]
    if no_preimage(target[0]) is None:
        return invert_rows(target, tol_res, max_iter)[0]
    t, residual, iterations, _ = _newton(target, _default_start(target), tol_res, 0)
    return _results(t, residual, iterations, [False], "no_preimage")[0]


def invert_s3_closed(k1: float, k2: float) -> InversionResult:
    """Closed-form inversion for s = 3 targets (k1 > 0 > k2).

    With sigma = k1 + k2 - 1, S = k1 + k2 and R = k1*k2*sigma, every t in D
    has sqrt(R) = t1*t2 / ((1-t1)(t2-t1)(1-t2)) and
    t_i = (k_i*sigma + sgn(k_i)*sqrt(R)) / (k_i*S): the branch (+, -) of the
    two radicals. That branch alone is computed, then checked against the
    domain and by a forward round trip within 1e-9. The result has method
    "closed_form", no iterations and start_index -1.
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
    t1 = (k1 * shift + root) / (k1 * scale)
    t2 = (k2 * shift - root) / (k2 * scale)
    if DOMAIN_EPS < t1 < t2 < 1.0 - DOMAIN_EPS and (t2 - t1) > DOMAIN_EPS:
        residual = float(np.max(np.abs(forward_K([t1, t2]) - [k1, k2])))
        if residual <= 1e-9:
            return InversionResult(True, (t1, t2), residual, 0, -1, "closed_form", ("+", "-"))
    raise NoSolutionError(f"the closed form does not invert ({k1!r}, {k2!r})")


def invert_auto(
    k_target, tol_res: float = DEFAULT_TOL_RES, max_iter: int = DEFAULT_MAX_ITER
) -> InversionResult:
    """Closed form for s = 3 tuples of P where it is regular, else invert_K."""
    tol_res, max_iter = _valid_tol("tol_res", tol_res), _valid_tol("max_iter", max_iter)
    target = check_sign_pattern(k_target)
    if target.size == 2 and no_preimage(target) is None:
        try:
            return invert_s3_closed(float(target[0]), float(target[1]))
        except (SingularTupleError, NoSolutionError):
            pass
    return invert_K(k_target, tol_res=tol_res, max_iter=max_iter)

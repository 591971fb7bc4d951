"""All preimages of a ratio tuple at once: the weighted power-sum system.

Because K_i = L_i(0) on the nodes (t, 1) (fewdist.inverse), a tuple k with
k_s = 1 - sum(k_i) has the preimage t exactly when

    F_m(t) = sum_{i<s} k_i t_i^m + k_s = 0,   m = 1..s-1.

Its Jacobian determinant (s-1)! prod_i k_i prod_{i<j} (t_j - t_i) vanishes
exactly where two t_i coincide, so every root in D is simple, and a singular
root, or a root at infinity (where equal coordinates must carry weights
summing to zero), has two coalescing coordinates.

The roots are found by the total-degree homotopy H = (1 - sigma) F +
sigma gamma G from G_m = x_m^m - x_0^m, whose (s-1)! start points are
products of roots of unity; all paths of all tuples are tracked together in
batches. Coordinates are projective (t_i = x_i / x_0) on the fixed patch
a.x = 1, so a path whose t diverges stays bounded. Paths are tracked in
s = -log(sigma), in which a path ending at a singular point approaches it at
a steady pace, by an RK4 predictor and a chord Newton corrector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .inverse import DOMAIN_EPS, check_sign_pattern

HOMOTOPY_GAMMA = complex(math.cos(0.7), math.sin(0.7))  # fixed, so runs repeat exactly
PATH_BATCH = 256  # paths tracked together; bounds the tracker's memory
S_CHECK = 8.0  # sigma = 3.4e-4: paths are compared here and first tried at sigma = 0
S_END = 24.0  # sigma = 3.8e-11: paths not settled at S_CHECK are tried again here
MAX_STEPS = 500
MIN_STEP = (1e-8, 0.05)  # smallest step in s before and after S_CHECK
PREDICT_TOL = 3e-4  # aimed size of the first correction, relative to |x|
CORRECT_TOL = 1e-8  # corrector convergence, relative to |x|
JUMP_TOL = 1e-2  # largest first correction accepted, relative to |x|
ROOT_TOL = 1e-11  # last Newton update at sigma = 0 of a converged root, relative to |x|
COALESCE_TOL = 1e-4  # endpoints with |x_i - x_j| / |x| below this are singular or at infinity
INSIDE = 100.0  # a root in D lies this many estimated errors inside D
SEPARATION_TOL = 1e-6  # paths closer than this at S_CHECK, relative to |x|, have merged


@dataclass(frozen=True)
class PowerSumSolution:
    """The homotopy's verdict on one tuple.

    `roots` are the real roots in D. `margin` is the distance to the closure
    of D of the nearest endpoint outside D whose coordinates do not
    coalesce, None when there is none. `complete` is False when a path
    failed, two paths merged or an endpoint could not be placed, so that a
    root in D may be missing.
    """

    roots: tuple[tuple[float, ...], ...]
    margin: float | None
    complete: bool


def _solve(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X with J X = R for a stack of small matrices, by Gaussian elimination
    with partial pivoting on [J | R]. It is written out in numpy because
    paging in LAPACK's complex routines raises the peak resident memory of
    a catalog run by about 0.4 MiB. A zero pivot makes X non-finite, which
    the callers reject."""
    N = J.shape[1]
    M = np.concatenate([J, R], axis=2)
    rows = np.arange(M.shape[0])
    for k in range(N - 1):
        p = k + np.argmax(np.abs(M[:, k:, k]), axis=1)
        pivot_rows = M[rows, p]
        M[rows, p] = M[:, k]
        M[:, k] = pivot_rows
        M[:, k + 1 :, k:] -= (M[:, k + 1 :, k] / M[:, k, k, None])[:, :, None] * M[:, k, None, k:]
    X = M[:, :, N:]
    for k in range(N - 1, -1, -1):
        X[:, k] -= np.einsum("bj,bjm->bm", M[:, k, k + 1 : N], X[:, k + 1 :])
        X[:, k] /= M[:, k, k, None]
    return X


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("bi,bi->b", v.real, v.real) + np.einsum("bi,bi->b", v.imag, v.imag))


def _coalescence(y: np.ndarray) -> np.ndarray:
    """min |x_i - x_j| / |x| over 1 <= i < j, zero at singular points and
    at infinity."""
    pairs = np.array(list(itertools.combinations(range(1, y.shape[1]), 2)), dtype=int).reshape(-1, 2)
    if not pairs.size:
        return np.full(y.shape[0], np.inf)
    return np.min(np.abs(y[:, pairs[:, 0]] - y[:, pairs[:, 1]]), axis=1) / _norms(y)


class _Homotopy:
    """[H; a.x - 1] and its derivatives for a batch of paths in n + 1
    projective coordinates, with target coefficient rows c = [k_s, k]:
    H_m = (1 - sigma) F_m + sigma gamma G_m, F_m = sum_i c_i x_i^m."""

    def __init__(self, n: int):
        self.patch = np.exp(1j * (0.5 + 1.7 * np.arange(n + 1))) / math.sqrt(n + 1)
        self.rows = np.arange(n)
        self.degree = np.arange(1.0, n + 1)[:, None]

    def start_points(self) -> np.ndarray:
        """The n! roots of G, scaled onto the patch."""
        unity = [np.exp(2j * np.pi * np.arange(m) / m) for m in range(1, self.rows.size + 1)]
        x = np.array([(1.0, *p) for p in itertools.product(*unity)], dtype=complex)
        return x / np.einsum("bi,i->b", x, self.patch)[:, None]

    def powers(self, x):
        """x_i^(m-1) and x_i^m for m = 1..n, each of shape (B, n, n+1)."""
        prev = np.empty((x.shape[0], self.rows.size, x.shape[1]), dtype=complex)
        prev[:, 0] = 1.0
        for m in range(1, self.rows.size):
            prev[:, m] = prev[:, m - 1] * x
        return prev, prev * x[:, None, :]

    def values(self, c, xp):
        """F and G from the powers."""
        m = self.rows
        return np.einsum("bi,bmi->bm", c, xp), xp[:, m, m + 1] - xp[:, :, 0]

    def jacobian(self, c, sigma, prev) -> np.ndarray:
        m = self.rows
        dprev = self.degree * prev
        J = np.empty((prev.shape[0], prev.shape[2], prev.shape[2]), dtype=complex)
        np.multiply(((1.0 - sigma)[:, None] * c)[:, None, :], dprev, out=J[:, :-1])
        g = (sigma * HOMOTOPY_GAMMA)[:, None]
        J[:, m, m + 1] += g * dprev[:, m, m + 1]
        J[:, :-1, 0] -= g * dprev[:, :, 0]
        J[:, -1] = self.patch
        return J

    def velocity(self, c, x, s) -> np.ndarray:
        """dx/ds along the path."""
        sigma = np.exp(-s)
        prev, xp = self.powers(x)
        F, G = self.values(c, xp)
        rhs = np.zeros_like(x)
        rhs[:, :-1] = F - HOMOTOPY_GAMMA * G
        return -sigma[:, None] * _solve(self.jacobian(c, sigma, prev), rhs[..., None])[..., 0]

    def correct(self, c, x, sigma, Jinv=None):
        """Three Newton steps at fixed sigma and the size of each; given an
        inverse Jacobian, chord steps with it."""
        sizes = []
        for _ in range(3):
            prev, xp = self.powers(x)
            F, G = self.values(c, xp)
            r = np.empty_like(x)
            r[:, :-1] = (1.0 - sigma)[:, None] * F + (sigma * HOMOTOPY_GAMMA)[:, None] * G
            r[:, -1] = np.einsum("bi,i->b", x, self.patch) - 1.0
            if Jinv is None:
                dx = _solve(self.jacobian(c, sigma, prev), r[..., None])[..., 0]
            else:
                dx = np.einsum("bij,bj->bi", Jinv, r)
            x = x - dx
            sizes.append(_norms(dx))
        return x, sizes

    def settle(self, c, x):
        """Newton at sigma = 0 from points near the ends of their paths: the
        refined points, an estimate of their remaining error (the geometric
        tail of the last two updates), and which are nonsingular roots."""
        with np.errstate(all="ignore"):
            y, (d1, d2, d3) = self.correct(c, x, np.zeros(x.shape[0]))
            err = d3 / (1.0 - np.where(d2 > 0.0, np.minimum(d3 / d2, 0.99), 0.0))
        lost = ~np.isfinite(y).all(axis=1)
        y[lost], err[lost] = x[lost], np.inf
        scale = 1.0 + _norms(y)
        converged = ~lost & (d1 < JUMP_TOL * scale) & (d3 < ROOT_TOL * scale)
        return y, err, converged & (_coalescence(y) > COALESCE_TOL)


def _track(hom: _Homotopy, c_rows: np.ndarray) -> list[PowerSumSolution]:
    """Track every start point for every coefficient row, PATH_BATCH paths
    at a time, and return each row's verdict.

    A path is settled by Newton at sigma = 0 from S_CHECK if it converges
    there to a nonsingular root, else tracked on to S_END, or to where it
    stalls beyond S_CHECK, and settled from there whatever the outcome. A
    path that stalls before S_CHECK has failed. A row's buffers live only
    while its paths do.
    """
    starts = hom.start_points()
    R, N = starts.shape
    total = c_rows.shape[0] * R
    verdicts: list = [None] * c_rows.shape[0]
    open_rows: dict[int, list] = {}  # row -> [x at S_CHECK, endpoints, errors, paths left]
    pid = np.empty(0, dtype=int)
    x = np.empty((0, N), dtype=complex)
    s, h = np.empty(0), np.empty(0)
    steps = np.empty(0, dtype=int)
    queued = 0
    while queued < total or pid.size:
        if pid.size < PATH_BATCH and queued < total:
            new = np.arange(queued, min(total, queued + PATH_BATCH - pid.size))
            queued += new.size
            for row in range(new[0] // R, new[-1] // R + 1):
                open_rows.setdefault(
                    row, [np.full((R, N), np.nan + 0j), np.full((R, N), np.nan + 0j), np.full(R, np.inf), R]
                )
            pid = np.concatenate([pid, new])
            x = np.concatenate([x, starts[new % R]])
            s = np.concatenate([s, np.zeros(new.size)])
            h = np.concatenate([h, np.full(new.size, 0.2)])
            steps = np.concatenate([steps, np.zeros(new.size, dtype=int)])
        c = c_rows[pid // R]
        goal = np.where(s < S_CHECK, S_CHECK, S_END)
        last = h >= goal - s
        step = np.where(last, goal - s, h)
        with np.errstate(all="ignore"):
            k1 = hom.velocity(c, x, s)
            k2 = hom.velocity(c, x + (0.5 * step)[:, None] * k1, s + 0.5 * step)
            k3 = hom.velocity(c, x + (0.5 * step)[:, None] * k2, s + 0.5 * step)
            k4 = hom.velocity(c, x + step[:, None] * k3, s + step)
            guess = x + (step / 6.0)[:, None] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s_new = np.where(last, goal, s + step)
            sigma = np.exp(-s_new)
            J = hom.jacobian(c, sigma, hom.powers(guess)[0])
            Jinv = _solve(J, np.broadcast_to(np.eye(J.shape[1]), J.shape))
            y, (d1, d2, d3) = hom.correct(c, guess, sigma, Jinv)
            scale = 1.0 + _norms(y)
            ok = (
                np.isfinite(y).all(axis=1)
                & (d1 < JUMP_TOL * scale)
                & ((d2 < 0.5 * d1) | (d2 < CORRECT_TOL * scale))
                & (d3 < CORRECT_TOL * scale)
            )
            factor = np.clip(0.8 * (PREDICT_TOL * scale / d1) ** 0.2, 0.25, 2.0)
        factor = np.where(np.isfinite(factor), factor, 0.25)
        x = np.where(ok[:, None], y, x)
        s = np.where(ok, s_new, s)
        h = step * np.where(ok, factor, np.minimum(factor, 0.5))
        steps += 1
        at_check = ok & last & (goal == S_CHECK)
        for p, point in zip(pid[at_check], x[at_check]):
            open_rows[p // R][0][p % R] = point
        stalled = ~ok & ((h < np.where(s < S_CHECK, *MIN_STEP)) | (steps >= MAX_STEPS))
        final = (ok & last & ~at_check) | (stalled & (s >= S_CHECK))
        done = final | stalled
        if np.any(at_check | final):
            settle = at_check | final
            y, err, root = hom.settle(c[settle], x[settle])
            done[settle] |= root
            ended = root | final[settle]
            for p, point, e in zip(pid[settle][ended], y[ended], err[ended]):
                buffers = open_rows[p // R]
                buffers[1][p % R], buffers[2][p % R] = point, e
        for p in pid[done]:
            buffers = open_rows[p // R]
            buffers[3] -= 1
            if not buffers[3]:
                verdicts[p // R] = _verdict(*buffers[:3])
                del open_rows[p // R]
        keep = ~done
        pid, x, s, h, steps = pid[keep], x[keep], s[keep], h[keep], steps[keep]
    return verdicts


def _distance_to_domain(t: np.ndarray) -> float:
    """Euclidean distance from a complex point to the closure of D: the real
    part is projected by isotonic regression (pool adjacent violators) and
    clipped to [0, 1]."""
    blocks: list[list[float]] = []
    for value in t.real:
        blocks.append([float(value), 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    proj = np.clip(np.concatenate([[v] * int(w) for v, w in blocks]), 0.0, 1.0)
    return float(math.sqrt(float(np.sum(t.imag**2) + np.sum((t.real - proj) ** 2))))


def _verdict(x_check, x_end, err_end) -> PowerSumSolution:
    """Sort one tuple's path endpoints into roots in D and points outside D.

    An endpoint's error is its estimate, but at least CORRECT_TOL relative
    to its size, since rounding alone can leave that much imaginary part on
    a real root. An endpoint is a root in D when it is real and lies inside
    D by more than INSIDE times its error (and by more than DOMAIN_EPS): no
    singular point lies in D, so such a point is a simple root however
    ill-conditioned. It is outside D when it lies that far outside the
    closure of D, or when two of its coordinates coalesce, as at a singular
    point or at infinity, none of which lies in D. The margin comes from
    the endpoints outside D that do not coalesce. A failed path (no
    endpoint), two paths that merged, or an endpoint that is neither
    leaves the tuple incomplete.
    """
    ended = np.isfinite(x_end).all(axis=1)
    complete = bool(ended.all())
    if complete:
        gaps = np.linalg.norm(x_check[:, None, :] - x_check[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        complete = bool(np.all(gaps > SEPARATION_TOL * (1.0 + _norms(x_check))[:, None]))
    y, err = x_end[ended], err_end[ended]
    with np.errstate(all="ignore"):
        t = y[:, 1:] / y[:, :1]
        size = 1.0 + np.max(np.abs(t), axis=1)
        err = INSIDE * np.maximum(err / np.abs(y[:, 0]), CORRECT_TOL) * size
        real = np.max(np.abs(t.imag), axis=1) <= err
        full = np.concatenate([np.zeros((len(t), 1)), t.real, np.ones((len(t), 1))], axis=1)
        inside = real & (np.min(np.diff(full, axis=1), axis=1) > np.maximum(err, DOMAIN_EPS))
    regular = ~inside & (_coalescence(y) > COALESCE_TOL)
    distances = np.array([_distance_to_domain(row) for row in t[regular]])
    if np.any(~(distances > err[regular])):
        complete = False
    kept = t[inside | regular]
    for i in range(len(kept)):
        for j in range(i):
            if np.linalg.norm(kept[i] - kept[j]) <= SEPARATION_TOL * (1.0 + np.linalg.norm(kept[i])):
                complete = False
    return PowerSumSolution(
        roots=tuple(sorted(tuple(float(v) for v in row.real) for row in t[inside])),
        margin=float(distances.min()) if distances.size else None,
        complete=complete,
    )


def solve_power_sums(ks) -> list[PowerSumSolution]:
    """Every preimage in D of each tuple k_1..k_{s-1} (all of one length),
    by the total-degree homotopy on F_m = sum_i k_i t_i^m + k_s."""
    rows = np.array([check_sign_pattern(k) for k in ks], dtype=float)
    if rows.size == 0:
        return []
    c = np.concatenate([1.0 - rows.sum(axis=1, keepdims=True), rows], axis=1)
    return _track(_Homotopy(rows.shape[1]), c / np.max(np.abs(c), axis=1, keepdims=True))

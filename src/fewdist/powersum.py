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

The tracker keeps its batches path-last: a point is an (N, B) array and a
stack of matrices (N, W, B), so every operation runs along contiguous rows
of B paths. A path's arithmetic does not depend on the batch it is in, and
it matches, bit for bit, the batch-first reference kept in the tests: sums
run in the same order, and every complex product keeps its operand order,
since numpy multiplies complex arrays with fused multiply-adds, so that
a * b and b * a can differ in the last bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .lagrange import DOMAIN_EPS, check_sign_pattern

HOMOTOPY_GAMMA = complex(math.cos(0.7), math.sin(0.7))  # fixed, so runs repeat exactly
PATH_BATCH = 768  # paths tracked together; bounds the tracker's memory
SETTLE_BATCH = 192  # paths at S_CHECK or at their end settled together
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
GAP_BLOCK = 2**20  # pairwise endpoint differences a verdict holds at once (16 MiB)


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


def _solve(M: np.ndarray, N: int, T: np.ndarray) -> np.ndarray:
    """X with J X = R for B small systems stored path-last, M = [J | R] of
    shape (N, W, B), by Gaussian elimination with partial pivoting. M must be
    contiguous; it is overwritten, and X is the view M[:, N:]. T is scratch
    space of at least W * B entries.

    Pivot rows are swapped through the flat array, and the entries below a
    pivot, which are never read again, are not updated. The back
    substitution sums by einsum, which rounds each complex product's parts
    separately, as the batch-first reference does. It is written out in
    numpy because paging in LAPACK's complex routines raises the peak
    resident memory of a catalog run by about 0.4 MiB. A zero pivot makes X
    non-finite, which the callers reject."""
    W, B = M.shape[1:]
    flat = M.reshape(-1)
    T = T[: W * B].reshape(W, B)
    row = np.arange(0, W * B, B)[:, None] + np.arange(B)  # flat offsets in row 0
    for k in range(N - 1):
        pivot = row[k:] + k * W * B
        pivot += np.argmax(np.abs(M[k:, k]), axis=0) * (W * B)
        pivot_rows = flat.take(pivot, out=T[: W - k], mode="clip")
        flat[pivot] = M[k, k:]
        M[k, k:] = pivot_rows
        for i, f in enumerate(M[k + 1 :, k] / M[k, k], k + 1):
            np.subtract(M[i, k + 1 :], np.multiply(f, M[k, k + 1 :], out=T[: W - k - 1]), out=M[i, k + 1 :])
    X = M[:, N:]
    for k in range(N - 1, -1, -1):
        if k < N - 1:
            X[k] -= np.einsum("jb,jmb->mb", M[k, k + 1 : N], X[k + 1 :])
        X[k] /= M[k, k]
    return X


def _norms(v: np.ndarray) -> np.ndarray:
    """|v| of each column of an (N, B) array, summed in row order."""
    return np.sqrt(np.einsum("ib,ib->b", v.real, v.real) + np.einsum("ib,ib->b", v.imag, v.imag))


def _coalescence(y: np.ndarray) -> np.ndarray:
    """min |x_i - x_j| / |x| over 1 <= i < j of each column, zero at
    singular points and at infinity."""
    pairs = np.array(list(itertools.combinations(range(1, y.shape[0]), 2)), dtype=int).reshape(-1, 2)
    if not pairs.size:
        return np.full(y.shape[1], np.inf)
    return np.min(np.abs(y[pairs[:, 0]] - y[pairs[:, 1]]), axis=0) / _norms(y)


class _Homotopy:
    """[H; a.x - 1] and its derivatives for a batch of paths in n + 1
    projective coordinates, with target coefficient columns c = [k_s, k]:
    H_m = (1 - sigma) F_m + sigma gamma G_m, F_m = sum_i c_i x_i^m.

    The powers, the augmented matrix and the elimination's scratch space
    live in buffers that are reused from call to call and grow with the
    largest batch seen."""

    def __init__(self, n: int):
        self.patch = np.exp(1j * (0.5 + 1.7 * np.arange(n + 1))) / math.sqrt(n + 1)
        self.n = n
        self.degree = np.arange(1.0, n + 1)[:, None, None]
        self.buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape) -> np.ndarray:
        """A contiguous complex work array of the given shape."""
        size = math.prod(shape)
        if self.buffers.get(name, np.empty(0)).size < size:
            self.buffers[name] = np.empty(size, dtype=complex)
        return self.buffers[name][:size].reshape(shape)

    def start_points(self) -> np.ndarray:
        """The n! roots of G, scaled onto the patch, one per column."""
        unity = [np.exp(2j * np.pi * np.arange(m) / m) for m in range(1, self.n + 1)]
        x = np.array([(1.0, *p) for p in itertools.product(*unity)], dtype=complex)
        return np.ascontiguousarray((x / np.einsum("bi,i->b", x, self.patch)[:, None]).T)

    def powers(self, x) -> np.ndarray:
        """x_i^m for m = 0..n, of shape (n + 1, n + 1, B)."""
        P = self.buffer("P", (self.n + 1, *x.shape))
        P[0] = 1.0
        for m in range(1, self.n + 1):
            np.multiply(P[m - 1], x, out=P[m])
        return P

    def values(self, c, P):
        """F and G from the powers."""
        m = np.arange(1, self.n + 1)
        return np.einsum("ib,mib->mb", c, P[1:]), P[m, m] - P[1:, 0]

    def solve(self, c, sigma, P, rhs) -> np.ndarray:
        """J^-1 rhs at the points whose powers are P, for rhs of shape
        (N, r, B). Row m < n of J is (1 - sigma) c_i (m + 1) x_i^m, plus
        sigma gamma (m + 1) x_(m+1)^m at column m + 1 and minus
        sigma gamma (m + 1) x_0^m at column 0; row n is the patch."""
        n, N, B = self.n, self.n + 1, P.shape[2]
        W = N + rhs.shape[1]
        M = self.buffer("M", (N, W, B))
        J = M[:-1, :N]
        np.multiply(self.degree, P[:-1], out=J)
        above = M.reshape(N * W, B)[1 : n * (W + 1) : W + 1]  # the entries (m, m + 1)
        g = sigma * HOMOTOPY_GAMMA
        g_above, g_first = g * above, g * J[:, 0]
        np.multiply((1.0 - sigma) * c, J, out=J)
        above += g_above
        J[:, 0] -= g_first
        M[-1, :N] = self.patch[:, None]
        M[:, N:] = rhs
        return _solve(M, N, self.buffer("T", (W * B,)))

    def velocity(self, c, x, s) -> np.ndarray:
        """dx/ds along the path."""
        sigma = np.exp(-s)
        P = self.powers(x)
        F, G = self.values(c, P)
        rhs = np.zeros_like(x)
        rhs[:-1] = F - HOMOTOPY_GAMMA * G
        return -sigma * self.solve(c, sigma, P, rhs[:, None])[:, 0]

    def correct(self, c, x, sigma, Jinv=None, P=None):
        """Three Newton steps at fixed sigma and the size of each; given an
        inverse Jacobian, chord steps with it. P, if given, holds the powers
        of x."""
        sizes = []
        a, g = 1.0 - sigma, sigma * HOMOTOPY_GAMMA
        for _ in range(3):
            if P is None:
                P = self.powers(x)
            F, G = self.values(c, P)
            r = np.empty_like(x)
            r[:-1] = a * F + g * G
            r[-1] = np.einsum("ib,i->b", x, self.patch) - 1.0
            if Jinv is None:
                dx = self.solve(c, sigma, P, r[:, None])[:, 0]
            else:
                dx = np.einsum("ijb,jb->ib", Jinv, r)
            x = x - dx
            sizes.append(_norms(dx))
            P = None
        return x, sizes

    def settle(self, c, x):
        """Newton at sigma = 0 from points near the ends of their paths: the
        refined points, an estimate of their remaining error (the geometric
        tail of the last two updates), and which are nonsingular roots."""
        with np.errstate(all="ignore"):
            y, (d1, d2, d3) = self.correct(c, x, np.zeros(x.shape[1]))
            err = d3 / (1.0 - np.where(d2 > 0.0, np.minimum(d3 / d2, 0.99), 0.0))
        lost = ~np.isfinite(y).all(axis=0)
        y[:, lost], err[lost] = x[:, lost], np.inf
        scale = 1.0 + _norms(y)
        converged = ~lost & (d1 < JUMP_TOL * scale) & (d3 < ROOT_TOL * scale)
        return y, err, converged & (_coalescence(y) > COALESCE_TOL)


@dataclass
class _Paths:
    """A batch of paths: ids, points (N, B), times s, steps h, step counts."""

    pid: np.ndarray
    x: np.ndarray
    s: np.ndarray
    h: np.ndarray
    steps: np.ndarray

    @property
    def size(self) -> int:
        return self.pid.size

    def select(self, which) -> _Paths:
        return _Paths(self.pid[which], self.x[:, which], self.s[which], self.h[which], self.steps[which])

    @staticmethod
    def join(parts) -> _Paths:
        return _Paths(*(np.concatenate([getattr(p, f.name) for p in parts], axis=-1) for f in fields(_Paths)))


def _step(hom: _Homotopy, c, p: _Paths):
    """One RK4 prediction and chord correction of every path, in place;
    returns which paths moved and which moved to their goal."""
    x, s, h = p.x, p.s, p.h
    goal = np.where(s < S_CHECK, S_CHECK, S_END)
    last = h >= goal - s
    step = np.where(last, goal - s, h)
    with np.errstate(all="ignore"):
        k = hom.velocity(c, x, s)
        total = k  # k1 + 2 k2 + 2 k3 + k4, added in that order
        k = hom.velocity(c, x + (0.5 * step) * k, s + 0.5 * step)
        total += 2.0 * k
        k = hom.velocity(c, x + (0.5 * step) * k, s + 0.5 * step)
        total += 2.0 * k
        total += hom.velocity(c, x + step * k, s + step)
        guess = x + (step / 6.0) * total
        s_new = np.where(last, goal, s + step)
        sigma = np.exp(-s_new)
        P = hom.powers(guess)
        Jinv = hom.solve(c, sigma, P, np.eye(x.shape[0])[:, :, None])
        y, (d1, d2, d3) = hom.correct(c, guess, sigma, Jinv, P)
        scale = 1.0 + _norms(y)
        ok = (
            np.isfinite(y).all(axis=0)
            & (d1 < JUMP_TOL * scale)
            & ((d2 < 0.5 * d1) | (d2 < CORRECT_TOL * scale))
            & (d3 < CORRECT_TOL * scale)
        )
        factor = np.clip(0.8 * (PREDICT_TOL * scale / d1) ** 0.2, 0.25, 2.0)
    factor = np.where(np.isfinite(factor), factor, 0.25)
    p.x = np.where(ok, y, x)
    p.s = np.where(ok, s_new, s)
    p.h = step * np.where(ok, factor, np.minimum(factor, 0.5))
    p.steps = p.steps + 1
    return ok, ok & last, goal


def _track(hom: _Homotopy, c_rows: np.ndarray) -> list[PowerSumSolution]:
    """Track every start point for every coefficient row, PATH_BATCH paths
    at a time, and return each row's verdict.

    A path is settled by Newton at sigma = 0 from S_CHECK if it converges
    there to a nonsingular root, else tracked on to S_END, or to where it
    stalls beyond S_CHECK, and settled from there whatever the outcome. A
    path that stalls before S_CHECK has failed. Paths to be settled leave
    the batch and are settled together, once SETTLE_BATCH of them, or as
    many as are still being tracked, are waiting; those tracked on rejoin
    the batch ahead of new paths. A row's buffers live only while its paths
    do.
    """
    starts = hom.start_points()
    N, R = starts.shape
    c_cols = np.ascontiguousarray(c_rows.T)
    total = c_rows.shape[0] * R
    verdicts: list = [None] * c_rows.shape[0]
    open_rows: dict[int, list] = {}  # row -> [x at S_CHECK, endpoints, errors, paths left]
    queued = 0

    def queue(count: int) -> _Paths:
        nonlocal queued
        first, queued = queued, min(total, queued + count)
        new = np.arange(first, queued)
        for row in range(first // R, -(-queued // R)):
            open_rows.setdefault(
                row, [np.full((R, N), np.nan + 0j), np.full((R, N), np.nan + 0j), np.full(R, np.inf), R]
            )
        return _Paths(new, starts[:, new % R], np.zeros(new.size), np.full(new.size, 0.2), np.zeros(new.size, int))

    def finish(pids):
        for q in pids:
            buffers = open_rows[q // R]
            buffers[3] -= 1
            if not buffers[3]:
                verdicts[q // R] = _verdict(*buffers[:3])
                del open_rows[q // R]

    active = waiting = queue(0)
    parked: list[tuple[_Paths, np.ndarray]] = []  # (paths, which are at their end)
    while queued < total or active.size or waiting.size or parked:
        room = PATH_BATCH - active.size
        if room > 0 and (waiting.size or queued < total):
            back, waiting = waiting.select(slice(room)), waiting.select(slice(room, None))
            active = _Paths.join([active, back, queue(room - back.size)])
        if active.size:
            ok, arrived, goal = _step(hom, c_cols[:, active.pid // R], active)
            at_check = arrived & (goal == S_CHECK)
            for q, point in zip(active.pid[at_check], active.x[:, at_check].T):
                open_rows[q // R][0][q % R] = point
            stalled = ~ok & ((active.h < np.where(active.s < S_CHECK, *MIN_STEP)) | (active.steps >= MAX_STEPS))
            final = (arrived & ~at_check) | (stalled & (active.s >= S_CHECK))
            park = at_check | final
            if np.any(park):
                parked.append((active.select(park), final[park]))
            finish(active.pid[stalled & ~final])
            active = active.select(~(park | stalled))
        n_parked = sum(paths.size for paths, _ in parked)
        if n_parked and (n_parked >= SETTLE_BATCH or n_parked >= active.size):
            paths = _Paths.join([p for p, _ in parked])
            y, err, root = hom.settle(c_cols[:, paths.pid // R], paths.x)
            ended = root | np.concatenate([f for _, f in parked])
            for q, point, e in zip(paths.pid[ended], y[:, ended].T, err[ended]):
                buffers = open_rows[q // R]
                buffers[1][q % R], buffers[2][q % R] = point, e
            finish(paths.pid[ended])
            waiting = _Paths.join([waiting, paths.select(~ended)])
            parked = []
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


def _gap_rows(x: np.ndarray):
    """The matrix of distances |x_i - x_j| between the rows of x, as blocks
    (lo, rows lo, lo + 1, ... of it). A block takes at most GAP_BLOCK
    coordinate differences, so memory stays bounded for any number of
    paths, and its entries are those of the whole matrix."""
    step = max(1, GAP_BLOCK // max(1, x.size))
    for lo in range(0, len(x), step):
        yield lo, np.linalg.norm(x[lo : lo + step, None, :] - x[None, :, :], axis=2)


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
        limit = SEPARATION_TOL * (1.0 + _norms(x_check.T))
        for lo, gaps in _gap_rows(x_check):
            gaps[np.arange(len(gaps)), np.arange(lo, lo + len(gaps))] = np.inf
            if not np.all(gaps > limit[lo : lo + len(gaps), None]):
                complete = False
                break
    y, err = x_end[ended], err_end[ended]
    with np.errstate(all="ignore"):
        t = y[:, 1:] / y[:, :1]
        size = 1.0 + np.max(np.abs(t), axis=1)
        err = INSIDE * np.maximum(err / np.abs(y[:, 0]), CORRECT_TOL) * size
        real = np.max(np.abs(t.imag), axis=1) <= err
        full = np.concatenate([np.zeros((len(t), 1)), t.real, np.ones((len(t), 1))], axis=1)
        inside = real & (np.min(np.diff(full, axis=1), axis=1) > np.maximum(err, DOMAIN_EPS))
    regular = ~inside & (_coalescence(y.T) > COALESCE_TOL)
    distances = np.array([_distance_to_domain(row) for row in t[regular]])
    if np.any(~(distances > err[regular])):
        complete = False
    kept = t[inside | regular]
    limit = SEPARATION_TOL * (1.0 + np.linalg.norm(kept, axis=1))
    for lo, gaps in _gap_rows(kept):
        if np.any(np.tril(gaps <= limit[lo : lo + len(gaps), None], lo - 1)):
            complete = False
            break
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

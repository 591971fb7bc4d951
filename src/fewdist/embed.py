"""Realizability of squared-distance and Gram matrices, and congruence tests.

A squared-distance matrix C embeds in R^d exactly when its double centering
G = -(1/2) H C H (H = I - J/n) is positive semidefinite of rank at most d;
the spectral square root of G then provides coordinates. Congruence of two
point sets is decided on their distance matrices by a pruned permutation
search, so ambient dimensions are free to differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_TOL_PSD
from .errors import InputError, NumericalError, ParameterError, SizeMismatchError, _valid_tol
from .pointset import PointSet, squared_distance_matrix

DEFAULT_CONGRUENCE_TOL = 1e-8
DEFAULT_NODE_CAP = 10**6


def check_squared_distance_matrix(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("squared-distance matrix must be square")
    if arr.shape[0] < 2:
        raise InputError("squared-distance matrix needs at least 2 rows")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - arr.T)) > 1e-9 * scale:
        raise InputError("squared-distance matrix must be symmetric")
    if np.max(np.abs(np.diag(arr))) > 1e-9 * scale:
        raise InputError("squared-distance matrix must have a zero diagonal")
    off = arr[~np.eye(arr.shape[0], dtype=bool)]
    if np.min(off) <= 0.0:
        raise InputError("off-diagonal squared distances must be positive")
    return (arr + arr.T) / 2.0


def double_center(matrix: np.ndarray) -> np.ndarray:
    """G = -(1/2) * H * C * H with H = I - J/n."""
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    G = -0.5 * (H @ arr @ H)
    return (G + G.T) / 2.0


@dataclass(frozen=True)
class EmbeddingVerdict:
    embeddable: bool
    requested_dimension: int
    minimal_dimension: int
    eigenvalue_slack: float
    realization: PointSet | None
    tol_psd: float

    def to_dict(self) -> dict:
        return {
            "embeddable": self.embeddable,
            "requested_dimension": self.requested_dimension,
            "minimal_dimension": self.minimal_dimension,
            "eigenvalue_slack": float(self.eigenvalue_slack),
            "realization": self.realization.to_dict() if self.realization else None,
        }


def _verdict_from_gram(G: np.ndarray, d: int, tol_psd: float) -> EmbeddingVerdict:
    _valid_tol("tol_psd", tol_psd)
    if d < 0:  # d = 0 stays a verdict: two or more points never fit in R^0
        raise ParameterError(f"d must be >= 0, got {d}")
    try:
        eigvals, eigvecs = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    top = float(eigvals[-1])
    floor = tol_psd * max(top, 0.0)
    psd_ok = float(eigvals[0]) >= -floor
    rank = int(np.count_nonzero(eigvals > floor)) if top > 0.0 else 0
    embeddable = bool(psd_ok and rank <= d)
    realization = None
    if embeddable and rank >= 1:
        idx = np.argsort(eigvals)[::-1][:rank]
        coords = eigvecs[:, idx] * np.sqrt(np.maximum(eigvals[idx], 0.0))
        realization = PointSet(dimension=rank, points=coords)
    return EmbeddingVerdict(
        embeddable=embeddable,
        requested_dimension=d,
        minimal_dimension=rank,
        eigenvalue_slack=float(eigvals[0]),
        realization=realization,
        tol_psd=tol_psd,
    )


def euclidean_embeddable(matrix, d: int, tol_psd: float = DEFAULT_TOL_PSD) -> EmbeddingVerdict:
    """Decide whether a squared-distance matrix is realizable in R^d."""
    arr = check_squared_distance_matrix(matrix)
    return _verdict_from_gram(double_center(arr), d, tol_psd)


def spherical_embeddable(matrix, d: int, tol_psd: float = DEFAULT_TOL_PSD) -> EmbeddingVerdict:
    """Decide whether a Gram matrix with unit diagonal is realizable on S^(d-1)."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("Gram matrix must be square")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    if np.max(np.abs(np.diag(arr) - 1.0)) > 1e-9:
        raise InputError("Gram matrix must have a unit diagonal")
    if np.max(np.abs(arr - arr.T)) > 1e-9:
        raise InputError("Gram matrix must be symmetric")
    return _verdict_from_gram((arr + arr.T) / 2.0, d, tol_psd)


def congruent(
    x: PointSet,
    y: PointSet,
    tol: float = DEFAULT_CONGRUENCE_TOL,
    node_cap: int = DEFAULT_NODE_CAP,
):
    """True/False when a distance-preserving bijection is found/excluded.

    Returns None (inconclusive) only if the backtracking search exceeds
    node_cap nodes. The identity assignment is tried first, so comparing a
    set against a reordering-free realization of itself is immediate.
    """
    _valid_tol("tol", tol)
    if x.n != y.n:
        raise SizeMismatchError(f"point counts differ: {x.n} vs {y.n}")
    dx = squared_distance_matrix(x)
    dy = squared_distance_matrix(y)
    scale = max(1.0, float(np.max(dx)), float(np.max(dy)))
    atol = tol * scale

    if np.max(np.abs(dx - dy)) <= atol:
        return True
    if np.max(np.abs(np.sort(dx, axis=None) - np.sort(dy, axis=None))) > atol:
        return False

    n = x.n
    rows_x = np.sort(dx, axis=1)
    rows_y = np.sort(dy, axis=1)
    candidates = []
    for i in range(n):
        cands = [j for j in range(n) if np.max(np.abs(rows_x[i] - rows_y[j])) <= atol]
        if not cands:
            return False
        candidates.append(cands)

    order = sorted(range(n), key=lambda i: len(candidates[i]))
    assignment = [-1] * n
    used = [False] * n
    nodes = 0

    def backtrack(depth: int):
        nonlocal nodes
        if depth == n:
            return True
        nodes += 1
        if nodes > node_cap:
            return None
        i = order[depth]
        for j in candidates[i]:
            if used[j]:
                continue
            if any(abs(dx[i, p] - dy[j, assignment[p]]) > atol for p in order[:depth]):
                continue
            assignment[i] = j
            used[j] = True
            result = backtrack(depth + 1)
            if result is not False:
                return result
            assignment[i] = -1
            used[j] = False
        return False

    return backtrack(0)

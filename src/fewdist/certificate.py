"""Indicator matrices and the spectral certificate for ratio integrality.

For a class value with index i, the indicator polynomial is the setting's
Lagrange basis polynomial L_i (times x / beta_i in the signed rows; see
bounds.Setting). It evaluates to the ratio k_i on the diagonal and to the
class-i adjacency off it, so M = (F_x(y)) decomposes as k*I + A. Because
the polynomials span a space of dimension at most N_cap, rank(M) <= N_cap,
which pins the spectrum of A and forces k to be a bounded integer once the
set is large enough. The classes are pointset's memoized profile, which the
ratios read too; M and A are read a strip of rows at a time off pair values
computed from the coordinates. The checks are numerical, with measured slacks.
Spectra come from one rule on two views of M: B = Q^T M Q, with Q an
orthonormal basis of the polynomials in the point coordinates that hold
every indicator of a setting, then M itself (Q = I). One walk over the
strips of rows gives B's view of every class of a setting, each strip's
pair values computed once for them all, with each class's decomposition
deviation and companion entry checks; M's view walks one class. On each
view the companion's spectrum is read off the view's own, within a Weyl
bound, and the companion is built only where that leaves a count open. M is
n x n only on M's view; B's holds an l x l sum per class, with no n x n or
n x l array.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .bounds import SETTING_TABLE, TheoremContext, dim_poly_space, setting_row, theorem_context
from .defaults import DEFAULT_TOL_INT
from .errors import InputError, NumericalError, ParameterError, _valid_tol
from .lagrange import lagrange_basis
from .pointset import (
    DEFAULT_TOL,
    DEFAULT_TOL_RANK,
    PointSet,
    _memoized,
    _pair_rows,
    _pair_tiles,
    _tiles,
    antipodal_structure,
    distance_profile,
    inner_product_profile,
)
from .ratios import class_ratios, effective_dimension

DEFAULT_CLUSTER_TOL = 1e-6
# Multiple of n * eps * max|eigenvalue| allowed for eigvalsh's backward error.
EIGVALSH_SLACK = 64

SIGNED_SETTINGS = tuple(name for name, row in SETTING_TABLE.items() if row.signed)


class _OnFirstRead:
    """An IndicatorMatrix field that, left out or None, is compute(im) on
    first read; repr skips it, since reading it there would compute it."""

    def __init__(self, slot, compute):
        self.slot, self.compute = slot, compute

    def __get__(self, im, owner=None):
        if im is not None and im.__dict__[self.slot] is None:
            im.__dict__[self.slot] = self.compute(im)
        return self if im is None else im.__dict__[self.slot]

    def __set__(self, im, value):
        im.__dict__[self.slot] = None if value is self else value  # self: the default


def _deviation(im, rows: slice, block: np.ndarray, adjacency: np.ndarray, out: np.ndarray | None = None):
    """max |M - k*I - A| on M's rows, block (overwritten if no out), and A's."""
    out = np.subtract(block, adjacency, out=block if out is None else out)
    # The adjacency has a zero diagonal, where k is subtracted instead.
    out.flat[rows.start :: im.n + 1] -= im.k_claimed
    return np.max(np.abs(out, out=out))


def _filled(im: IndicatorMatrix) -> np.ndarray:
    """M, filled a strip of rows at a time."""
    m = np.empty((im.n, im.n))
    for rows in _tiles(im.n):
        m[rows] = im._rows(rows)[0]
    return m


@dataclass(frozen=True)
class IndicatorMatrix:
    """M = k*I + A (n x n) for one class index, with the claimed
    decomposition. Left out, adjacency, matrix and max_decomposition_dev come
    on first access from evaluate(rows, strips): M's rows (fresh) and A's,
    off a strip of pair values that it reads into strips unless there."""

    setting: str
    class_index: int
    k_claimed: float
    n_cap: int
    x_size: int
    d_eff: int
    s: int
    n: int
    # (point set, tol) M was read on: it keys the range basis its setting shares.
    source: tuple | None = field(default=None, repr=False)
    evaluate: Callable[[slice, dict], tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False, compare=False)
    adjacency: np.ndarray = field(default=_OnFirstRead("_adjacency", lambda im: np.concatenate(
        [im._rows(rows)[1] for rows in _tiles(im.n)])), repr=False)
    matrix: np.ndarray = field(default=_OnFirstRead("_matrix", _filled), repr=False)
    max_decomposition_dev: float = field(default=_OnFirstRead("_dev", lambda im: float(np.max(
        [_deviation(im, rows, *im._rows(rows)) for rows in _tiles(im.n)]))), repr=False)

    def _rows(self, rows: slice, strips: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        """M[rows] as a fresh array and A[rows], held or evaluated off
        strips, the strips of pair values that the classes of one walk share."""
        m, a = self._matrix, self._adjacency
        if m is None or a is None:
            fresh = self.evaluate(rows, {} if strips is None else strips)
        return (fresh[0] if m is None else np.array(m[rows], float)), (fresh[1] if a is None else a[rows])


def _in_class(pairs: np.ndarray, cuts: np.ndarray, c: int) -> np.ndarray:
    """Whether each pair value is in profile class c (0-based): cuts[c-1] < v <= cuts[c]."""
    low, high = (cuts[c - 1] if c else -np.inf), (cuts[c] if c < len(cuts) else np.inf)
    return (pairs > low) & (pairs <= high)


def indicator_matrix(
    ps: PointSet,
    class_index: int,
    setting: str,
    tol: float = DEFAULT_TOL,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> IndicatorMatrix:
    """Evaluate the class indicator polynomial (bounds.Setting) at all point pairs.

    M and A are read a strip of rows at a time off the pair values
    (pointset._pair_tile), A as the profile's class by its tops. The
    antipodal matrices run over the half set's own pairs, where class j is
    the profile's +beta_j and (signed: minus) -beta_j. class_index is 1-based
    within the setting's own index range: 1..s for euclidean/spherical,
    1..(s-1)/2 for the odd antipodal variants, 1..s/2 for the even variant 1
    and 2..s/2 for the even variant 2 (the zero class has no variant-2 ratio).
    """
    row = setting_row(setting)
    values, s, ratios = class_ratios(ps, setting, tol)
    ids = row.indices(values)
    if class_index not in ids:
        raise ParameterError(
            f"class index {class_index} out of range [{ids.start}, {ids.stop - 1}] for {setting}"
        )
    i0 = class_index - 1
    euclidean = row.family == "euclidean"
    tops = (distance_profile if euclidean else inner_product_profile)(ps, tol).tops
    # Cut tol above each top: the next class starts over 10*tol above it (_cut_and_merge), and
    # a tiling other than the profile's, as the half set's, may move a value by a last bit.
    cuts = tops + tol * np.maximum(np.abs(tops), 0.0 if euclidean else 1.0)
    classes, points = [i0], ps
    if row.family == "antipodal":
        structure = antipodal_structure(ps, tol)
        points, classes[0] = structure.half, structure.s - len(structure.beta_abs) + i0
        if structure.s != 2 * classes[0]:
            classes.append(structure.s - classes[0])
    tile = _pair_tiles(points, euclidean)
    i = class_index - row.first_index
    nodes, beta = row.nodes(values), values[i0]

    def evaluate(rows: slice, strips: dict):
        # The reader is kept per point set and kind, so it keys the strip for every class of a setting.
        if tile not in strips:
            strips[tile] = _pair_rows(tile, points.n, rows)
        pairs = strips[tile]
        adjacency = _in_class(pairs, cuts, classes[0]).view(np.int8)
        if len(classes) > 1:
            minus = _in_class(pairs, cuts, classes[1]).view(np.int8)
            adjacency = adjacency - minus if row.signed else adjacency + minus
        adjacency.flat[rows.start :: points.n + 1] = 0
        block = lagrange_basis(nodes, i, row.node_map(pairs))
        if row.signed:
            block *= pairs / beta
        return block, adjacency

    d_eff = effective_dimension(ps, setting, tol_rank)
    return IndicatorMatrix(
        setting=setting,
        class_index=class_index,
        k_claimed=float(ratios[i]),
        n_cap=dim_poly_space(row.space, d_eff, s - row.degree_offset),
        x_size=ps.n,
        d_eff=d_eff,
        s=s,
        source=(ps, tol),
        evaluate=evaluate,
        n=points.n,
    )


def numeric_rank(matrix, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Count singular values above tol_rank * n * sigma_max."""
    _valid_tol("tol_rank", tol_rank)
    if isinstance(matrix, IndicatorMatrix):
        rank = numeric_rank(matrix.matrix, tol_rank)
        if rank > matrix.n_cap:
            raise NumericalError(
                f"indicator matrix rank {rank} exceeds its space dimension {matrix.n_cap}"
            )
        return rank
    arr = np.asarray(matrix, dtype=float)
    try:
        sv = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol_rank * arr.shape[0] * sv[0]))


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a symmetric matrix grouped into clusters."""

    eigenvalues: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]
    zero_multiplicity: int
    rank: int
    cluster_tol_abs: float

    def to_dict(self) -> dict:
        return {
            "clusters": [[float(c), int(m)] for c, m in self.clusters],
            "zero_multiplicity": self.zero_multiplicity,
            "rank": self.rank,
        }


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly symmetric float array."""
    try:
        return np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def eigen_multiplicities(matrix, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectrumReport:
    """Cluster the spectrum by gaps above cluster_tol * max|eigenvalue|."""
    _valid_tol("cluster_tol", cluster_tol)
    if isinstance(matrix, IndicatorMatrix):
        arr = matrix.matrix  # built exactly symmetric
    else:
        # Asymmetric input is allowed: the spectrum is that of the symmetric part.
        arr = np.asarray(matrix, float)
        arr = (arr + arr.T) / 2.0
    eig = _eigvalsh(arr)
    scale = float(np.max(np.abs(eig))) if eig.size else 0.0
    atol = cluster_tol * scale
    clusters = []
    start = 0
    for idx in range(1, eig.size + 1):
        if idx == eig.size or eig[idx] - eig[idx - 1] > atol:
            block = eig[start:idx]
            clusters.append((float(np.mean(block)), int(block.size)))
            start = idx
    zero_mult = int(np.count_nonzero(np.abs(eig) <= atol))
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in eig),
        clusters=tuple(clusters),
        zero_multiplicity=zero_mult,
        rank=eig.size - zero_mult,
        cluster_tol_abs=atol,
    )


def verify_sign_matrix_bound(matrix, e: float, m: int, entry_tol: float = 1e-9) -> dict:
    """Check e^2 <= (n-1)(n-m)/m for a symmetric 0/+-1 matrix with zero diagonal.

    e must be an eigenvalue of multiplicity at least m; the caller supplies
    both (typically from eigen_multiplicities).
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("sign matrix must be square")
    if not arr.size:
        raise InputError("sign matrix must not be empty")
    n = arr.shape[0]
    # One buffer per strip of _tiles rows, freed before the next; the maxima
    # are taken over all strips, so a NaN propagates as in one np.max.
    maxima = [_entry_maxima(arr[rows], rows.start, np.empty((rows.stop - rows.start, n)), arr[:, rows].T)
              for rows in _tiles(n)]
    return _sign_bound(n, e, m, np.max(maxima, axis=0), entry_tol)


def _entry_maxima(block: np.ndarray, start: int, out: np.ndarray, columns: np.ndarray | None = None):
    """In block, rows start.. of a square matrix, with out as the one buffer:
    the largest |block - columns| (the same rows of its transpose; 0 if not
    given), distance to and size of the nearest integer off the diagonal,
    and |entry| on it. Each entry is rounded once; a NaN makes every maximum
    it reaches NaN."""
    n = block.shape[1]
    asymmetry = 0.0 if columns is None else np.max(np.abs(np.subtract(block, columns, out=out), out=out))
    diagonal = np.max(np.abs(block.flat[start :: n + 1]))
    out = np.round(block, out=out)
    out.flat[start :: n + 1] = 0.0
    magnitude = np.maximum(np.max(out), -np.min(out))
    out -= block
    out.flat[start :: n + 1] = 0.0
    return asymmetry, np.max(np.abs(out, out=out)), magnitude, diagonal


def _sign_bound(n: int, e: float, m: int, maxima, entry_tol: float = 1e-9) -> dict:
    """verify_sign_matrix_bound on (asymmetry, *_entry_maxima) of its matrix.
    Each check is written to pass, so that a NaN maximum fails it."""
    asymmetry, off_integer, magnitude, diagonal = maxima
    if not asymmetry <= entry_tol:
        raise InputError("sign matrix must be symmetric")
    if not diagonal <= entry_tol:
        raise InputError("sign matrix must have zero diagonal")
    if not (off_integer <= entry_tol and magnitude <= 1):
        raise InputError("off-diagonal entries must be 0 or +-1")
    if not (1 <= m <= n):
        raise ParameterError(f"multiplicity m must be in [1, n], got {m}")
    rhs, lhs = float((n - 1) * (n - m) / m), float(e) * float(e)
    ok = bool(lhs <= rhs * (1.0 + 1e-12) + 1e-9)
    return {"n": n, "e": float(e), "m": int(m), "lhs": lhs, "rhs": rhs, "ok": ok}


def _counts(eig, companion_eig, expected_e, tol_rank, cluster_tol, errors=None):
    """(rank, zero multiplicity, companion multiplicity at expected_e) from the
    spectra of M and of its companion. M is exactly symmetric, so its singular
    values are the |eigenvalues| and numeric_rank's threshold applies to them.

    errors, if given, bound how far each spectrum (M's, the companion's) may
    sit from the exact one. Then None is returned when an eigenvalue lies
    within twice that bound, plus eigvalsh's backward error, of a threshold:
    there the exact or a dense count could differ.
    """
    magnitudes = np.abs(eig)
    top = float(np.max(magnitudes))
    top_c = max(1.0, float(np.max(np.abs(companion_eig))))
    n = eig.size
    checks = (
        (magnitudes, tol_rank * n, top, 0),
        (magnitudes, cluster_tol, top, 0),
        (np.abs(companion_eig - expected_e), cluster_tol, top_c, 1),
    )
    below = []
    for values, rel, top_value, spectrum in checks:
        threshold = rel * top_value
        if errors is not None:
            slack = EIGVALSH_SLACK * n * np.finfo(float).eps * top_value
            # The threshold moves with top_value, by rel times the same margin.
            margin = (2.0 * errors[spectrum] + slack) * (1.0 + rel)
            if np.any(np.abs(values - threshold) <= margin):
                return None
        below.append(int(np.count_nonzero(values <= threshold)))
    return n - below[0], below[1], below[2]


def _range_basis(ps: PointSet, im: IndicatorMatrix, tol: float):
    """Orthonormal Q with every class indicator of im's setting in its range,
    from the coordinates alone; None unless narrower than M. The pair value
    is bilinear in the lifted points (1, x), plus |x|^2 in the euclidean
    rows, with x (centred there) on its top d_eff right singular vectors; so
    each row of M, of degree D = s - degree_offset in it, lies in the span
    Phi of the products of D lifted columns. range(Phi) lies in range(Q) for
    Q of an uncut QR, even where Phi is rank-deficient (as on a sphere)."""
    row = setting_row(im.setting)
    euclidean = row.family == "euclidean"
    x = antipodal_structure(ps, tol).half.points if row.family == "antipodal" else ps.points
    x = x - np.mean(x, axis=0) if euclidean else x
    x = x @ np.linalg.svd(x, full_matrices=False)[2][: im.d_eff].T
    lifted = [np.ones(len(x)), *x.T] + ([np.einsum("ij,ij->i", x, x)] if euclidean else [])
    products = list(combinations_with_replacement(lifted, im.s - row.degree_offset))
    if len(products) >= len(x):
        return None
    phi = np.ones((len(x), len(products)), order="F")
    for column, factors in zip(phi.T, products):
        for factor in factors:
            column *= factor
    return np.linalg.qr(phi)[0]


def _basis(im: IndicatorMatrix):
    """(Q, a bound on ||Q||_2) for im's setting, memoized on its point set: a
    setting's classes share one polynomial space, so one Q. None for a
    hand-built M, with no coordinates to build Q from, or without a basis."""
    if im.source is None:
        return None
    ps, tol = im.source
    key = ("range_basis", im.setting, tol, im.d_eff)
    q = _memoized(ps, key, lambda: _range_basis(ps, im, tol))
    return q if q is None else (
        q, _memoized(ps, (*key, "norm"), lambda: float(np.sqrt(np.linalg.norm(q.T @ q, 1)))))


def _view(ims: list, basis, rules: list) -> list:
    """Per class of ims, with rules its companion's (scale, shift, e): a view
    (X, c, errors) of M for _view_counts and the companion's maxima for
    _sign_bound, from one walk over the strips of _tiles rows that also reads
    each decomposition deviation. A strip's pair values are read once, and
    every class evaluates its own rows of M off them. With basis None, ims
    holds one class, X is M itself (held, or filled in the walk), c = 1 and
    errors None. With basis (Q, a bound on ||Q||_2), X = B, the symmetric
    part of B_acc = sum over the strips of Q[rows]^T (M[rows] Q), c = Q^T 1
    and errors bound the spectra's (M's, the companion's) distances from the
    exact ones; no n x l MQ is held.

    Let E = M - Q B Q^T. Its symmetric part is S - Q B Q^T, S = (M + M^T)/2
    (M itself when symmetric), so by Weyl's inequality the spectrum of S is
    eig(B) and n - l zeros, each within ||E|| of the exact one. With
    r = ||M - MQ Q^T||_F,
        E = (M - MQ Q^T) + (MQ - Q B) Q^T,
        MQ - Q B = (I - Q Q^T) MQ + Q (B_acc - B),
    so ||E|| <= r + ||Q||_2 ||MQ - Q B||_F. (I - Q Q^T) MQ is the transpose of Q^T M^T (I - Q Q^T). On a symmetric M
    that is Q^T (M - MQ Q^T), of norm at most ||Q||_2 r; M^T = M - 2K with
    K = (M - M^T)/2 adds at most 2 ||Q||_2 kappa, kappa = ||K - KQ Q^T||_F.
    Hence ||E|| <= r (1 + ||Q||_2^2) + ||Q||_2^2 (||B_acc - B||_F + 2 kappa),
    with ||Q||_2^2 <= ||Q^T Q||_1 (Q^T Q is symmetric). An evaluated M is an
    entrywise function of exactly symmetric pair values (pointset._pair_tile),
    so kappa = 0; the walk measures it on a held M. As 1 is in range(Q), the
    companion scale*M - shift*J + e*I is Q (scale*B - shift*c c^T + e*I) Q^T
    + e*(I - Q Q^T), up to scale*E and the part of J outside range(Q).
    """
    n = ims[0].n
    q, q_norm = basis or (None, None)
    if q is None:  # one class: M's own rows, or none into a held M
        accs = [im._matrix if im._matrix is not None else np.empty((n, n)) for im in ims]
    else:
        accs = [np.zeros((q.shape[1],) * 2) for _ in ims]
        c = q.sum(axis=0)
        off = float(np.linalg.norm(1.0 - q @ c))
    walk = []
    for rows in _tiles(n):
        strips = {}  # the strip's pair values, read by the first class that needs them
        walk.append([_walk_rows(im, rows, strips, q, acc, *rule) for im, acc, rule in zip(ims, accs, rules)])
    views = []
    for im, acc, (scale, shift, _), part in zip(ims, accs, rules, np.moveaxis(np.array(walk), 1, 0)):
        if im._dev is None:  # read in the walk: no second one
            object.__setattr__(im, "max_decomposition_dev", float(np.max(part[:, 0])))
        entries = np.max(part[:, 3:], axis=0)
        if q is None:
            views.append((acc, np.ones(n), None, entries))
            continue
        b = (acc + acc.T) / 2.0
        r, kappa = np.sqrt(np.sum(part[:, 1:3], axis=0))
        err = float(r * (1.0 + q_norm**2) + q_norm**2 * (np.linalg.norm(acc - b) + 2.0 * kappa))
        # ||J - P J P|| <= 2 sqrt(n) ||1 - P 1|| + ||1 - P 1||^2 for P = Q Q^T.
        views.append((b, c, (err, scale * err + shift * off * (2.0 * np.sqrt(n) + off)), entries))
    return views


def _walk_rows(im: IndicatorMatrix, rows: slice, strips: dict, q, acc, scale, shift, expected_e):
    """M's rows, read off the walk's strips (IndicatorMatrix._rows), into
    acc: M itself with q None (none into a held M), else B_acc, which gains
    Q[rows]^T M[rows] Q. Returns their deviation, with q their parts of r^2
    and kappa^2 (_view; kappa 0 on an evaluated M), and the companion's
    asymmetry and _entry_maxima, with one buffer beside the block."""
    block, adjacency = im._rows(rows, strips)
    held = im._matrix is not None
    columns = np.array(im._matrix[:, rows].T, float) if held else None
    if q is None:
        if not held:
            acc[rows] = block
    else:
        mq = block @ q
        acc += q[rows].T @ mq
    out = np.empty_like(block)
    deviation = _deviation(im, rows, block, adjacency, out)
    residual = turn = 0.0
    if q is not None:
        residual = _outside(block, mq, q, out)
        if held:  # K's rows, K = (M - M^T)/2
            k = np.subtract(block, columns)
            k /= 2.0
            turn = _outside(k, k @ q, q, out)
    # An evaluated M is an entrywise function of exactly symmetric pair
    # values (pointset._pair_tile); a held one is checked against its columns.
    rule = (rows.start, scale, shift, expected_e)
    columns = None if columns is None else _companion_rows(columns, *rule)
    return deviation, residual, turn, *_entry_maxima(_companion_rows(block, *rule), rows.start, out, columns)


def _outside(x: np.ndarray, xq: np.ndarray, q: np.ndarray, out: np.ndarray) -> float:
    """||x - xq Q^T||_F^2 for xq = x Q: x's part outside range(Q), through out."""
    np.subtract(x, np.matmul(xq, q.T, out=out), out=out)
    return float(np.vdot(out, out))


def _companion_rows(block, start, scale, shift, expected_e):
    """block, M's rows start.., made the companion's rows in place."""
    block *= scale
    block -= shift
    block.flat[start :: block.shape[1] + 1] += expected_e
    return block


def _read_off(x, c, eig, scale, shift, expected_e):
    """The spectrum of scale*X - shift*c c^T + e*I read off eig = eig(X),
    padded with zeros, and a bound on its distance from the exact one.

    Padded, eig is the spectrum of X~ = Q X Q^T for any orthonormal Q, whose
    all-ones direction Q c has |Q c| = |c|, so the argument holds on X~. With
    u = c/|c|, mu = u^T X u and r = X u - mu*u, orthogonal to u,
    X' = X - r u^T - u r^T has ||X - X'|| = ||r|| and the eigenvector u,
    eigenvalue mu, so its companion has the spectrum scale*eig(X') + e with
    mu taken to scale*mu - shift*|c|^2 + e. eig(X) lies within ||r|| of
    eig(X') (Weyl), so does its eigenvalue nearest mu, and dropping that one
    leaves the rest within 3||r|| of the rest of eig(X'). The companions of X
    and X' differ by scale*||r||: 4*scale*||r|| in all, plus eigvalsh's error.
    """
    norm2 = float(c @ c)
    u = c / np.sqrt(norm2)
    xu = x @ u
    mu = float(u @ xu)
    companion_eig = scale * eig + expected_e
    companion_eig[np.argmin(np.abs(eig - mu))] = scale * mu - shift * norm2 + expected_e
    slack = EIGVALSH_SLACK * eig.size * np.finfo(float).eps * float(np.max(np.abs(eig)))
    return companion_eig, scale * (4.0 * float(np.linalg.norm(xu - mu * u)) + slack)


def _view_counts(x, c, errors, n, scale, shift, expected_e, tol_rank, cluster_tol):
    """_counts on one view (X, c, errors) of M, None where a count stays
    open: eig(X) padded with zeros to n, the companion's spectrum read off
    it, and the view's own companion scale*X - shift*c c^T + e*I built and
    decomposed only where the read-off leaves a count open. errors is None
    on M itself: there every count is decided.
    """
    pad = np.zeros(n - len(x))
    eig = np.concatenate([_eigvalsh(x), pad])
    if not shift:  # M - kI: M's spectrum shifted
        return _counts(eig, scale * eig + expected_e, expected_e, tol_rank, cluster_tol, errors)
    companion_eig, bound = _read_off(x, c, eig, scale, shift, expected_e)
    err, companion_err = errors or (0.0, 0.0)
    counts = _counts(eig, companion_eig, expected_e, tol_rank, cluster_tol, (err, companion_err + bound))
    if counts is None:
        # Exactly symmetric, as X is: eigvalsh takes it without a symmetrising copy.
        companion = scale * x
        companion -= np.multiply.outer(shift * c, c)
        companion.flat[:: len(c) + 1] += expected_e
        companion_eig = np.concatenate([_eigvalsh(companion), pad + expected_e])
        counts = _counts(eig, companion_eig, expected_e, tol_rank, cluster_tol, errors)
    return counts


@dataclass(frozen=True)
class CertificateVerdict:
    """Per-check booleans and measured slacks for one indicator matrix."""

    setting: str
    class_index: int
    n: int
    x_size: int
    context: TheoremContext
    hypothesis_met: bool
    decomposition_dev: float
    rank: int
    rank_cap: int
    rank_ok: bool
    zero_multiplicity: int
    zero_required: int
    zero_applicable: bool
    zero_ok: bool
    k_value: float
    k_rounded: int
    integrality_dev: float
    integral_ok: bool
    ratio_bound: int
    bound_ok: bool
    companion: dict
    all_passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify_key_lemma(
    im: IndicatorMatrix,
    context: TheoremContext | None = None,
    tol_int: float = DEFAULT_TOL_INT,
    tol_rank: float = DEFAULT_TOL_RANK,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> CertificateVerdict:
    """Run every certificate check on an indicator matrix.

    Checks: rank <= N_cap; zero-eigenvalue multiplicity >= N_cap when the
    matrix has at least 2*N_cap rows; the diagonal ratio is integral within
    tol_int and within the setting's bound; and the companion sign matrix
    (2M - J - (2k-1)I, or M - kI for the signed variants) carries its forced
    eigenvalue with multiplicity >= n - N_cap - 1 (resp. n - N_cap) and
    satisfies the 0/+-1 eigenvalue inequality.

    Both spectra come from one rule on at most two views of M: first
    B = Q^T M Q on the setting's polynomial range basis Q (from the
    coordinates) when n >= 2*N_cap and Q is narrower than M, then M itself.
    Each comes from one walk over M's rows, which also gives the sign bound's
    entry checks. On each the companion's spectrum is read off the view's,
    and the view's own companion is built only where a count stays open. M's
    view decides every count B's leaves open, so the counts are dense eigvalsh's.
    """
    return _verdicts([im], [context], tol_int, tol_rank, cluster_tol)[0]


def verify_key_lemmas(
    ims: list[IndicatorMatrix],
    tol_int: float = DEFAULT_TOL_INT,
    tol_rank: float = DEFAULT_TOL_RANK,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list[CertificateVerdict]:
    """verify_key_lemma on each of ims, in their own theorem contexts. The
    classes that share a range basis, as one setting's classes on one point
    set do, take B's view from one walk, which reads each strip of pair
    values once for them all; M's view still walks one class at a time."""
    return _verdicts(ims, [None] * len(ims), tol_int, tol_rank, cluster_tol)


def _verdicts(ims, contexts, tol_int, tol_rank, cluster_tol) -> list[CertificateVerdict]:
    """The verdicts of ims in contexts (None: the class's own), with B's
    views of the classes that share a basis read in one walk."""
    contexts = [_context(im, context) for im, context in zip(ims, contexts)]
    tol_int, tol_rank = _valid_tol("tol_int", tol_int), _valid_tol("tol_rank", tol_rank)
    cluster_tol = _valid_tol("cluster_tol", cluster_tol)
    rules = [_rule(im) for im in ims]
    views, shared = [None] * len(ims), {}
    for i, im in enumerate(ims):
        basis = _basis(im) if im.n >= 2 * im.n_cap else None
        if basis is not None:
            shared.setdefault(id(basis[0]), (basis, []))[1].append(i)
    for basis, chosen in shared.values():
        for i, view in zip(chosen, _view([ims[i] for i in chosen], basis, [rules[i] for i in chosen])):
            views[i] = view
    return [_verdict(*case, tol_int, tol_rank, cluster_tol) for case in zip(ims, contexts, rules, views)]


def _context(im: IndicatorMatrix, context: TheoremContext | None) -> TheoremContext:
    """context, or im's own, checked against im."""
    if context is None:
        context = theorem_context(im.setting, im.d_eff, im.s)
    if context.setting != im.setting:
        raise ParameterError(f"context setting {context.setting!r} does not match matrix setting {im.setting!r}")
    if context.N != im.n_cap:
        raise ParameterError(f"context N={context.N} does not match the matrix space dimension {im.n_cap}")
    return context


def _rule(im: IndicatorMatrix) -> tuple[float, float, float]:
    """(scale, shift, e) of im's companion scale*M - shift*J + e*I: M - kI
    for the signed rows, else the Seidel matrix 2M - J - (2k-1)I."""
    scale, shift = (1.0, 0.0) if im.setting in SIGNED_SETTINGS else (2.0, 1.0)
    return scale, shift, -(scale * im.k_claimed - shift)


def _verdict(im, context, rule, view, tol_int, tol_rank, cluster_tol) -> CertificateVerdict:
    """im's verdict from its B's view, or None, and M's view where B's
    leaves a count open or there is none."""
    n, k = im.n, im.k_claimed
    _, shift, expected_e = rule
    counts = None if view is None else _view_counts(*view[:3], n, *rule, tol_rank, cluster_tol)
    if counts is None:  # M's view decides every count
        view = _view([im], None, [rule])[0]
        counts = _view_counts(*view[:3], n, *rule, tol_rank, cluster_tol)
    rank, zero_multiplicity, measured_mult = counts
    zero_applicable = n >= 2 * im.n_cap
    zero_ok = (zero_multiplicity >= im.n_cap) if zero_applicable else True
    k_rounded = int(round(k))
    integrality_dev = abs(k - k_rounded)
    integral_ok = integrality_dev <= tol_int
    bound_ok = abs(k_rounded) <= context.ratio_bound
    required_mult = n - im.n_cap - int(shift)
    mult_applicable = required_mult >= 1
    mult_ok = (measured_mult >= required_mult) if mult_applicable else True

    signed = im.setting in SIGNED_SETTINGS
    companion = {
        "kind": "shifted_adjacency" if signed else "seidel",
        "expected_eigenvalue": float(expected_e),
        "required_multiplicity": int(max(required_mult, 0)),
        "measured_multiplicity": measured_mult,
        "multiplicity_applicable": mult_applicable,
        "multiplicity_ok": mult_ok,
        "sign_bound_ok": None,
    }
    if measured_mult >= 1:
        try:
            bound = _sign_bound(n, expected_e, measured_mult, view[3])
            companion["sign_bound_ok"] = bound["ok"]
            companion["sign_bound_rhs"] = bound["rhs"]
        except InputError as exc:
            companion["sign_bound_ok"] = False
            companion["sign_bound_reason"] = str(exc)

    sign_ok = companion["sign_bound_ok"] is not False  # an inapplicable bound (None) passes
    checks = [rank <= im.n_cap, zero_ok, integral_ok, bound_ok, mult_ok, sign_ok]
    return CertificateVerdict(
        setting=im.setting,
        class_index=im.class_index,
        n=n,
        x_size=im.x_size,
        context=context,
        hypothesis_met=im.x_size >= context.cardinality_threshold,
        decomposition_dev=im.max_decomposition_dev,
        rank=rank,
        rank_cap=im.n_cap,
        rank_ok=rank <= im.n_cap,
        zero_multiplicity=zero_multiplicity,
        zero_required=im.n_cap,
        zero_applicable=zero_applicable,
        zero_ok=zero_ok,
        k_value=k,
        k_rounded=k_rounded,
        integrality_dev=integrality_dev,
        integral_ok=integral_ok,
        ratio_bound=context.ratio_bound,
        bound_ok=bound_ok,
        companion=companion,
        all_passed=all(checks),
    )


def class_index_range(ps: PointSet, setting: str, tol: float = DEFAULT_TOL) -> range:
    """Valid 1-based class indices for a setting on this point set."""
    return setting_row(setting).indices(class_ratios(ps, setting, tol)[0])

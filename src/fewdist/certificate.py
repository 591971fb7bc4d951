"""Indicator matrices and the spectral certificate for ratio integrality.

For a class value with index i, the indicator polynomial is the setting's
Lagrange basis polynomial L_i (times x / beta_i in the signed rows; see
bounds.Setting). It evaluates to the ratio k_i on the diagonal and to the
class-i adjacency off it, so M = (F_x(y)) decomposes as k*I + A. Because
the polynomials span a space of dimension at most N_cap, rank(M) <= N_cap,
which pins the spectrum of A and forces k to be a bounded integer once the
set is large enough. The classes are pointset's memoized profile, which the
ratios read too; M and A are read a tile at a time off pair values computed
from the coordinates. The checks are numerical, with measured slacks.
Spectra come from one rule on two views of M: B = Q^T M Q, with Q an
orthonormal basis of the polynomials in the point coordinates that hold
every indicator of a setting, then M itself (Q = I). B comes from the key
lemma's factorization M = Phi K Phi^T before any walk: Phi = Q R holds the
monomials of the lifted points and K the class polynomial's coefficients
times the powers of the setting's bilinear form, so B = R K R^T. One walk
then measures ||M - Q B Q^T||_F for every class of a setting, with its
decomposition deviation and companion entry checks: an evaluated M read as
its tile pairs I <= J (a mirror tile is the transpose) off pair values
computed once for them all, a held M (one given at construction) off its
own array a strip of rows, both triangles, at a time; M's view walks one
class, a held M's on its symmetric part.
On each view the companion's spectrum is read off the view's own, within a
Weyl bound, and the companion is built only where that leaves a count open.
M is n x n only on M's view; B's holds an l x l B per class and tiles, with
no n x n or n x l array.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .bounds import SETTING_TABLE, TheoremContext, dim_poly_space, setting_row, theorem_context
from .defaults import DEFAULT_TOL_INT
from .errors import DimensionMismatchError, InputError, NumericalError, ParameterError, _valid_tol
from .lagrange import lagrange_basis
from .pointset import (
    DEFAULT_TOL,
    DEFAULT_TOL_RANK,
    PointSet,
    _fields_equal,
    _fields_hash,
    _memoized,
    _mirrored,
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
    """An IndicatorMatrix field whose slot holds only the array given, as dtype, or None; left
    out, a read is compute(im), kept beside the slot, so no read changes == or a verdict's
    reader. repr skips it, since reading it there would compute it."""

    def __init__(self, slot, compute, dtype=None):
        self.slot, self.read, self.compute, self.dtype = slot, slot + "_read", compute, dtype

    def __get__(self, im, owner=None):
        if im is None or im.__dict__[self.slot] is not None:
            return self if im is None else im.__dict__[self.slot]
        if self.read not in im.__dict__:
            im.__dict__[self.read] = self.compute(im)
        return im.__dict__[self.read]

    def __set__(self, im, value):  # self: the default
        im.__dict__[self.slot] = None if value is self or value is None else np.asarray(value, self.dtype)


def _deviation(im, start, block: np.ndarray, adjacency: np.ndarray, out: np.ndarray | None = None):
    """max |M - k*I - A| on a block of M, overwritten if no out, and A's,
    with M's diagonal from start in the flat block (None: off the diagonal)."""
    out = np.subtract(block, adjacency, out=block if out is None else out)
    if start is not None:  # the adjacency has a zero diagonal, where k is subtracted instead
        out.flat[start :: out.shape[1] + 1] -= im.k_claimed
    return np.max(np.abs(out, out=out))


def _held(im, name: str):
    """im's field name as held: an on-first-read field only if given at construction, else None."""
    lazy = type(im).__dict__.get(name)
    return im.__dict__[lazy.slot] if isinstance(lazy, _OnFirstRead) else getattr(im, name)


@dataclass(frozen=True)
class IndicatorMatrix:
    """M = k*I + A (n x n) for one class index, with the claimed decomposition.
    Left out, adjacency and matrix come on first access from evaluate(rows, cols,
    values): tile I <= J of M (fresh) and A's, off the pair values it reads into
    values unless there; so with no evaluate, both must be given. The measured
    max_decomposition_dev is never given. polynomial holds the class polynomial's
    power coefficients in the pair value, ascending; None on a hand-built M. ==
    compares the fields as held (an on-first-read one None unless given), and
    hash skips them: neither evaluates M, and no read changes either."""

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
    evaluate: Callable[[slice, slice, dict], tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False, compare=False)
    polynomial: np.ndarray | None = field(default=None, repr=False, compare=False)
    adjacency: np.ndarray = field(default=_OnFirstRead("_adjacency", lambda im: _mirrored(
        im.n, lambda rows, cols: im.evaluate(rows, cols, {})[1], np.int8)), repr=False, hash=False)
    matrix: np.ndarray = field(default=_OnFirstRead("_matrix", lambda im: _mirrored(
        im.n, lambda rows, cols: im.evaluate(rows, cols, {})[0]), float), repr=False, hash=False)

    @cached_property
    def max_decomposition_dev(self) -> float:
        """max |M - k*I - A|, off a held M's strips of _tiles rows or an evaluated M's tile pairs I <= J."""
        tiles = _tiles(self.n)
        if self._matrix is None:
            pairs = combinations_with_replacement(tiles, 2)
            blocks = ((0 if rows == cols else None, *self.evaluate(rows, cols, {})) for rows, cols in pairs)
        else:
            blocks = ((rows.start, np.array(self._matrix[rows], float), self.adjacency[rows]) for rows in tiles)
        return float(np.max([_deviation(self, *block) for block in blocks]))

    def __post_init__(self):
        for name in ("matrix", "adjacency"):
            held = _held(self, name)
            if held is None and self.evaluate is None:
                raise ParameterError(f"{name} must be given: there is no evaluate to read it from")
            if held is not None and np.shape(held) != (self.n, self.n):
                raise DimensionMismatchError(f"{name} has shape {np.shape(held)}, n says {self.n}")

    def __eq__(self, other):
        return _fields_equal(self, other, _held)

    __hash__ = _fields_hash


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

    M and A are read a tile pair I <= J at a time off the pair values
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

    def evaluate(rows: slice, cols: slice, values: dict):
        # The reader is kept per point set and kind, so it keys the tile for every class of a setting.
        if tile not in values:
            values[tile] = tile(rows, cols)
        pairs = values[tile]
        adjacency = _in_class(pairs, cuts, classes[0]).view(np.int8)
        if len(classes) > 1:
            minus = _in_class(pairs, cuts, classes[1]).view(np.int8)
            adjacency = adjacency - minus if row.signed else adjacency + minus
        if rows == cols:
            np.fill_diagonal(adjacency, 0)
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
        polynomial=_power_coefficients(row, nodes, i, beta),
        n=points.n,
    )


def _power_coefficients(row, nodes, i: int, beta: float) -> np.ndarray:
    """The power coefficients, ascending, of class i's polynomial in the pair
    value v: L_i on row.node_map(v), times v / beta in the signed rows."""
    c = np.ones(1)
    for j, vj in enumerate(nodes):
        if j != i:
            c = np.convolve(c, [-vj, 1.0]) / (nodes[i] - vj)
    if row.family == "antipodal":  # node_map(v) = v^2
        c = np.stack([c, np.zeros_like(c)], axis=1).ravel()[:-1]
    return np.r_[0.0, c] / beta if row.signed else c


def _symmetric(matrix) -> np.ndarray:
    """The array whose spectrum a verdict reads: an evaluated M (exactly
    symmetric), else (M + M^T)/2 of an array or a held M, either may be asymmetric."""
    if isinstance(matrix, IndicatorMatrix) and matrix._matrix is None:
        return matrix.matrix
    arr = np.asarray(matrix._matrix if isinstance(matrix, IndicatorMatrix) else matrix, float)
    return (arr + arr.T) / 2.0


def numeric_rank(matrix, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Count singular values above tol_rank * n * sigma_max: of an array, or
    of an IndicatorMatrix's _symmetric part, whose rank its verdict counts."""
    _valid_tol("tol_rank", tol_rank)
    if isinstance(matrix, IndicatorMatrix):
        rank = numeric_rank(_symmetric(matrix), tol_rank)
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
    eig = _eigvalsh(_symmetric(matrix))
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


def _entry_maxima(block: np.ndarray, start, out: np.ndarray, columns: np.ndarray | None = None):
    """In block, a block of a square matrix with its diagonal from start in
    the flat block (None: off the diagonal), with out as the one buffer: the
    largest |block - columns| (the same entries of its transpose; 0 if not
    given), distance to and size of the nearest integer off the diagonal,
    and |entry| on it. Each entry is rounded once; a NaN makes every maximum
    it reaches NaN."""
    n = block.shape[1]
    asymmetry = 0.0 if columns is None else np.max(np.abs(np.subtract(block, columns, out=out), out=out))
    diagonal = 0.0 if start is None else np.max(np.abs(block.flat[start :: n + 1]))
    out = np.round(block, out=out)
    if start is not None:
        out.flat[start :: n + 1] = 0.0
    magnitude = np.maximum(np.max(out), -np.min(out))
    out -= block
    if start is not None:
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


class _Basis(NamedTuple):
    """A setting's range basis on a point set: Phi = Q R (_range_basis), its
    terms (_terms), c = Q^T 1, and skew = ||Q^T Q - I||_F and gap >= ||1 - U c||
    for U the orthonormal polar factor of Q (_view)."""

    q: np.ndarray
    r: np.ndarray
    terms: tuple
    c: np.ndarray
    skew: float
    gap: float


def _lift(ps: PointSet, im: IndicatorMatrix, tol: float):
    """The lifted points u (n x m) of im's setting and the columns of Phi.
    The pair value is u_i^T G u_j for u = (1, x), plus |x|^2 in the euclidean
    rows, with x (centred there) on its top d_eff right singular vectors; so
    M's entries, a polynomial of degree D = s - degree_offset in it, lie in
    the span Phi of the products of D entries of u, each column one
    combination (with repeats) of D of u's indices, u_0 = 1 among them."""
    row = setting_row(im.setting)
    euclidean = row.family == "euclidean"
    x = antipodal_structure(ps, tol).half.points if row.family == "antipodal" else ps.points
    x = x - np.mean(x, axis=0) if euclidean else x
    x = x @ np.linalg.svd(x, full_matrices=False)[2][: im.d_eff].T
    u = np.column_stack([np.ones(len(x)), x] + ([np.einsum("ij,ij->i", x, x)] if euclidean else []))
    return u, list(combinations_with_replacement(range(u.shape[1]), im.s - row.degree_offset))


def _phi(u: np.ndarray, products: list) -> np.ndarray:
    """Phi: each column the product of its entries of u."""
    phi = np.ones((len(u), len(products)), order="F")
    for column, factors in zip(phi.T, products):
        for factor in factors:
            column *= u[:, factor]
    return phi


def _terms(products: list, m: int, euclidean: bool) -> tuple:
    """(a, left, right, weight): each term of (u_i^T G u_j)^a, a <= D, as the
    columns of Phi holding its monomials in u_i and in u_j, and its factor.
    G's nonzero entries g_k pair index k with sigma(k): 1 on the spherical
    and antipodal x's; -2 on the euclidean x's, and 1 pairing 1 with |x|^2.
    So the a-th power is the sum over multisets alpha of a such k of
    a! / prod(alpha's counts!) prod g_k u_i^alpha u_j^sigma(alpha), a term
    per alpha: no m^D tensor of G's powers is built."""
    degree = len(products[0])
    column = {p: at for at, p in enumerate(products)}
    pairs = [(k, k, -2.0 if euclidean else 1.0) for k in range(1, m - euclidean)]
    if euclidean:
        pairs += [(0, m - 1, 1.0), (m - 1, 0, 1.0)]
    terms = []
    for a in range(degree + 1):
        for alpha in combinations_with_replacement(pairs, a):
            weight = math.factorial(a) * math.prod(g for *_, g in alpha)
            for count in Counter(alpha).values():
                weight /= math.factorial(count)
            left, right = ((0,) * (degree - a) + tuple(sorted(t[side] for t in alpha)) for side in (0, 1))
            terms.append((a, column[left], column[right], weight))
    a, left, right, weight = zip(*terms)
    return np.array(a), np.array(left), np.array(right), np.array(weight)


def _form(polynomial: np.ndarray, terms: tuple, width: int) -> np.ndarray:
    """K with M = Phi K Phi^T, for the class polynomial's power coefficients:
    each term of (u_i^T G u_j)^a (_terms) times the a-th coefficient,
    scatter-added onto the pair of Phi's columns that holds its monomials."""
    a, left, right, weight = terms
    k = np.zeros((width, width))
    np.add.at(k, (left, right), polynomial[a] * weight)
    return k


def _range_basis(ps: PointSet, im: IndicatorMatrix, tol: float):
    """The _Basis of im's setting, with every class indicator in range(Q),
    from the coordinates alone; None unless narrower than M. range(Phi) lies
    in range(Q) for Q of an uncut QR, even where Phi is rank-deficient (as on
    a sphere), and R is kept for B = R K R^T."""
    u, products = _lift(ps, im, tol)
    n, m = u.shape
    if len(products) >= n:
        return None
    phi = _phi(u, products)
    del u  # not held beside the QR's copies of Phi, which set certify's memory peak
    q, r = np.linalg.qr(phi)
    gram = q.T @ q
    gram.flat[:: len(gram) + 1] -= 1.0
    skew, c = float(np.linalg.norm(gram)), q.sum(axis=0)
    if skew >= 1.0:  # too far from orthonormal for _view's bound
        return None
    gap = float(np.linalg.norm(1.0 - q @ c)) + skew * np.sqrt((1.0 + skew) * n)
    terms = _terms(products, m, setting_row(im.setting).family == "euclidean")
    return _Basis(q, r, terms, c, skew, gap)


def _basis(im: IndicatorMatrix):
    """The _Basis of im's setting, memoized on its point set: a setting's
    classes share one polynomial space, so one basis. None for a hand-built
    M, with no coordinates to build it from, or without a basis."""
    if im.source is None:
        return None
    ps, tol = im.source
    return _memoized(ps, ("range_basis", im.setting, tol, im.d_eff), lambda: _range_basis(ps, im, tol))


def _reduced(im: IndicatorMatrix, basis: _Basis) -> np.ndarray:
    """B, exactly symmetric: R K R^T from the key lemma's factorization
    M = Phi K Phi^T (_form) for an evaluated M, Q^T M Q for a held one."""
    if im._matrix is not None:
        b = basis.q.T @ (im._matrix @ basis.q)
    else:
        b = basis.r @ _form(im.polynomial, basis.terms, len(basis.r)) @ basis.r.T
    return (b + b.T) / 2.0


def _view(ims: list, basis, rules: list) -> list:
    """Per class of ims, with rules its companion's (scale, shift, e): a view
    (X, c, errors, maxima, deviation), with X, c and errors of M for
    _view_counts, the companion's maxima for _sign_bound and M's measured
    decomposition deviation, from one walk over the unordered pairs I <= J
    of _tiles. A tile's pair values are read once, and every evaluated M
    evaluates its tile off them, once; a held M is read off its own array,
    strip I whole (_held_strip). With basis None, ims holds one class, X is
    M (filled in the walk) or a held M's symmetric part S, c = 1 and errors
    None. With a _Basis, X = B (_reduced), c = Q^T 1 and errors bound the
    spectra's (M's, the companion's) distances from the exact ones; the walk
    holds Q_I B and strips, no n x l or n x n array.

    The walk measures rho = ||M - Q B Q^T||_F, an evaluated M's tile off the
    diagonal for its mirror too, a held M's strips on both triangles; S - Q B Q^T,
    S = (M + M^T)/2, is the symmetric part of M - Q B Q^T, so its 2-norm is
    at most rho, whatever B is. Q is QR's, so F = Q^T Q - I is rounding, and
    skew = ||F||_F < 1. Then U = Q P^-1, P = (Q^T Q)^(1/2), is orthonormal,
    with ||P - I||_2 <= skew (each |sqrt(1 + f) - 1| <= |f|) and ||P||_2 <=
    sqrt(1 + skew). Q B Q^T = U (P B P) U^T has the spectrum of P B P padded
    with n - l zeros, and ||P B P - B||_2 <= skew ||B||_2 (1 + sqrt(1 + skew)).
    By Weyl's inequality the spectrum of S lies within
        err = rho + skew ||B||_F (1 + sqrt(1 + skew))
    of eig(B) padded with zeros, and ||S - U B U^T||_2 <= err. As 1 is in
    range(Q), the companion scale*S - shift*J + e*I is
    U (scale*B - shift*c c^T + e*I) U^T + e*(I - U U^T), whose spectrum is
    that of the l x l companion and n - l copies of e, up to scale*err and
    shift*||J - w w^T||_2 <= shift*gap*(2 sqrt(n) + gap), w = U c, for
    gap = ||1 - Q c|| + skew sqrt((1 + skew) n) >= ||1 - w||, as
    Q - U = U (P - I) and ||c|| <= ||Q||_2 sqrt(n).
    """
    n = ims[0].n
    tiles = _tiles(n)
    if basis is None:  # one class: M filled in the walk, or a held M's S
        xs = [np.empty((n, n)) if im._matrix is None else _symmetric(im) for im in ims]
    else:
        xs = [_reduced(im, basis) for im in ims]
    walks = [[] for _ in ims]
    for at, rows in enumerate(tiles):
        qbs = [None] * len(ims) if basis is None else [basis.q[rows] @ x for x in xs]
        for cols in tiles[at:]:
            values = {}  # the tile's pair values, read by the first class that needs them
            for im, x, qb, rule, walk in zip(ims, xs, qbs, rules, walks):
                if im._matrix is None:
                    walk.append(_walk_tile(im, rows, cols, values, x, qb, basis, *rule))
                elif cols == rows:  # a held M's whole strip, once
                    walk.append(_held_strip(im, rows, qb, basis, *rule))
    views = []
    for im, x, (scale, shift, _), part in zip(ims, xs, rules, map(np.array, walks)):
        walked = np.max(part[:, 2:], axis=0), float(np.max(part[:, 0]))  # the entry maxima, the deviation
        if basis is None:
            views.append((x, np.ones(n), None, *walked))
            continue
        skew, gap = basis.skew, basis.gap
        err = float(np.sqrt(np.sum(part[:, 1])) + skew * np.linalg.norm(x) * (1.0 + np.sqrt(1.0 + skew)))
        views.append((x, basis.c, (err, scale * err + shift * gap * (2.0 * np.sqrt(n) + gap)), *walked))
    return views


def _walk_tile(im: IndicatorMatrix, rows: slice, cols: slice, values: dict, x, qb, basis,
               scale, shift, expected_e):
    """Class im's tile rows x cols (I <= J) of an evaluated M off the walk's pair
    values, and its mirror, the transpose: into x, M, with basis None; else,
    with qb = Q_I B, their ||M - Q B Q^T||_F^2. Returns the deviation, that part,
    and the companion's asymmetry (0) and _entry_maxima, one buffer beside the tile."""
    start = 0 if rows == cols else None
    block, adjacency = im.evaluate(rows, cols, values)
    out = np.empty_like(block)
    deviation = _deviation(im, start, block, adjacency, out)
    if basis is None:
        x[rows, cols] = block
        if start is None:
            x[cols, rows] = block.T
    misfit = 0.0 if basis is None else np.subtract(block, qb @ basis.q[cols].T, out=out)
    residual = float(np.vdot(misfit, misfit)) * (2.0 if start is None else 1.0)
    _companion(block, start, scale, shift, expected_e)
    return deviation, residual, *_entry_maxima(block, start, out)


def _held_strip(im: IndicatorMatrix, rows: slice, qb, basis, scale, shift, expected_e):
    """_walk_tile's values on a held M's strip of _tiles rows, both triangles, read
    off its own array as verify_sign_matrix_bound reads a strip: a held M is not
    trusted to be symmetric, so the companion's columns rows give its asymmetry."""
    block = np.array(im._matrix[rows], float)
    out = np.empty_like(block)
    deviation = _deviation(im, rows.start, block, im.adjacency[rows], out)
    misfit = 0.0 if basis is None else np.subtract(block, qb @ basis.q.T, out=out)
    residual = float(np.vdot(misfit, misfit))
    columns = _companion(np.array(im._matrix[:, rows].T, float), rows.start, scale, shift, expected_e)
    _companion(block, rows.start, scale, shift, expected_e)
    return deviation, residual, *_entry_maxima(block, rows.start, out, columns)


def _companion(block, start, scale, shift, expected_e):
    """block, a block of M with its diagonal from start (as _deviation's), made the companion's in place."""
    block *= scale
    block -= shift
    if start is not None:
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
    B is R K R^T, from M = Phi K Phi^T with Phi = Q R. Each view comes with
    one walk over M's unordered tile pairs, which also gives the sign bound's
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
    set do, take B's view from one walk, which reads each tile of pair
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
            shared.setdefault(id(basis), (basis, []))[1].append(i)
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
        decomposition_dev=view[4],
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

"""Finite point sets and their distance / inner-product class structure.

A point set carries raw coordinates; the profile operations partition the
n(n-1)/2 pair values (squared distances, or inner products for unit-norm
sets) into classes by single-linkage grouping at a declared tolerance, and
everything downstream consumes those classes. Profiles are kept on the
point set (read-only), one per kind and tolerance; no n x n array is.

Every reader computes the pair values from the coordinates, one square tile
of _tile_side(n) points a side at a time (_pair_tile), each from one
product, of the points or of the lifted points [x, |x|^2, 1] and [-2x, 1,
|x|^2], so all see the same, exactly symmetric, bits. Grouping walks the
strips of T rows above the diagonal in blocks of _row_blocks of at most one
tile's entries, and merges each block's sorted intervals into classes.
Each class mean is the exact one, correctly rounded, whatever the point
order: where every class holds one value (Johnson sets), that value; else
a second walk sums each class exactly in int64 bins (_class_means).
Beyond a strip and a block, it holds tens of bytes per class and per
interval. The duplicate-point and antipodal checks test coordinates only
on the pairs whose projections on one fixed direction lie within a window
of each other (_close_pairs), found by a sort.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULT_TOL, DEFAULT_TOL_RANK, NAMED_CONSTRUCTIONS
from .errors import (
    AmbiguousGroupingError,
    DimensionMismatchError,
    DuplicatePointError,
    NotAntipodalError,
    NotOnSphereError,
    ParameterError,
    PointFileError,
    _valid_tol,
)


def _fields_equal(a, b, read=getattr):
    """Dataclass == on the compared fields, each read by read, arrays by
    np.array_equal: numpy's == gives an array, with no single truth value."""
    if a.__class__ is not b.__class__:
        return NotImplemented

    def same(x, y):
        return np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y

    return all(same(read(a, f.name), read(b, f.name)) for f in dataclasses.fields(a) if f.compare)


def _fields_hash(obj):
    """A hash of the fields dataclass's own hash takes, less the arrays, so
    that objects equal by _fields_equal hash equal; no field marked
    hash=False is read."""
    hashed = (getattr(obj, f.name) for f in dataclasses.fields(obj) if (f.compare if f.hash is None else f.hash))
    return hash(tuple(value for value in hashed if not isinstance(value, np.ndarray)))


@dataclass(frozen=True)
class PointSet:
    """An ordered set of n >= 2 distinct points in R^dimension."""

    dimension: int
    points: np.ndarray
    labels: tuple[str, ...] | None = None
    # Profiles computed from this set, keyed by (kind, tol); see _memoized.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __eq__, __hash__ = _fields_equal, _fields_hash

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a copy: freezing it leaves the caller's array writeable
        if pts.ndim != 2:
            raise DimensionMismatchError("points must form a 2-d array")
        if pts.shape[0] < 2:
            raise ParameterError("a point set needs at least 2 points")
        if pts.shape[1] == 0:
            raise DimensionMismatchError("points need at least one coordinate")
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, dimension says {self.dimension}"
            )
        if not np.all(np.isfinite(pts)):
            raise PointFileError("points must be finite")
        # The closest pair, first in row-major order: the least (dist, i, j) with i < j.
        closest = min((hit for i, j, dist in _close_pairs(pts, -1.0, 1e-9)
                       for hit in zip(dist[i < j], i[i < j], j[i < j])), default=None)
        if closest is not None:
            raise DuplicatePointError(
                f"points {closest[1]} and {closest[2]} coincide within tolerance"
            )
        if self.labels is not None and len(self.labels) != pts.shape[0]:
            raise DimensionMismatchError("labels must match the number of points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_dict(self) -> dict:
        out = {"dimension": self.dimension, "points": [list(map(float, p)) for p in self.points]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def _row_blocks(count: int, width: int, n: int):
    """Slices of consecutive rows that cover rows 0..count of a count x width
    array in order, each of at most max(T^2, width) entries, T = _tile_side(n)."""
    step = max(1, _tile_side(n) ** 2 // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _close_pairs(pts: np.ndarray, sign: float, rel_tol: float):
    """Yield, in blocks of rows, pairs (i, j) with max_k |x_ik + sign*x_jk|
    <= atol = rel_tol * M, M = max(1, max|x|), with that max-abs value:
    every such ordered pair once, all of a row's pairs in one block.

    A sweep over the sorted projections p = x w, w fixed, proportional to
    sqrt(2), sqrt(3), ..., with ||w||_1 = 1/2 so that no p overflows. Such a
    pair has |p_i + sign*p_j| <= ||w||_1 * atol (Hoelder). A computed p is
    within d*eps*M/2 of its value in any summation order, and each end of
    the window -sign*p_i -+ reach rounds by eps*M/2, so reach = atol +
    (d+2)*eps*M keeps every such pair. The exact test runs on blocks of
    _row_blocks rows, at most max(T^2, longest run) candidates; a sum that
    overflows is inf, never within atol.
    """
    n, dim = pts.shape
    scale = max(1.0, float(np.max(np.abs(pts))))
    atol = rel_tol * scale
    w = np.sqrt(np.arange(2.0, dim + 2.0))
    p = pts @ (w / (2.0 * w.sum()))
    order = np.argsort(p)
    swept, reach = p[order], atol + (dim + 2) * np.finfo(float).eps * scale
    lo = np.searchsorted(swept, -sign * p - reach, side="left")
    runs = np.searchsorted(swept, -sign * p + reach, side="right") - lo
    for rows in _row_blocks(n, max(1, int(np.max(runs))), n):
        count = runs[rows]
        i = np.repeat(np.arange(rows.start, rows.stop), count)
        j = order[np.repeat(lo[rows] - _starts(count), count) + np.arange(i.size)]
        near = sign * pts[j]
        with np.errstate(over="ignore"):
            near += pts[i]
        dist = np.max(np.abs(near, out=near), axis=1)
        del near
        keep = dist <= atol
        yield i[keep], j[keep], dist[keep]


def _memoized(ps: PointSet, key: tuple, compute):
    """compute() once per point set and key; the result lives as long as ps."""
    if key not in ps._memo:
        ps._memo[key] = compute()
    return ps._memo[key]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def load_points(source, fmt: str | None = None) -> PointSet:
    """Read a point set from a JSON or CSV file path, bytes, or stream.

    JSON files look like {"dimension": d, "points": [[...], ...]}; CSV files
    hold one point per row with no header. The format is inferred from a path
    suffix when not given.
    """
    text, inferred = _read_source(source)
    fmt = fmt or inferred
    if fmt is None:
        raise PointFileError("cannot infer format; pass fmt='json' or fmt='csv'")
    if fmt == "json":
        return _points_from_json(text)
    if fmt == "csv":
        return _points_from_csv(text)
    raise PointFileError(f"unknown point file format {fmt!r}")


def _read_source(source) -> tuple[str, str | None]:
    """The UTF-8 text, less any byte-order mark, of a path, bytes or stream, and a path's format."""
    if isinstance(source, bytes) or hasattr(source, "read"):
        data = source if isinstance(source, bytes) else source.read()
        try:
            return (data.decode("utf-8-sig") if isinstance(data, bytes) else data), None
        except UnicodeDecodeError as exc:
            raise PointFileError(f"input is not UTF-8 text: {exc}") from exc
    path = os.fspath(source)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read(), {".json": "json", ".csv": "csv"}.get(os.path.splitext(path)[1].lower())
    except OSError as exc:
        raise PointFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PointFileError(f"{path} is not UTF-8 text: {exc}") from exc


def _json_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PointFileError(f"invalid JSON: {exc}") from exc


def _points_from_json(text: str) -> PointSet:
    payload = _json_value(text)
    if not isinstance(payload, dict) or "points" not in payload:
        raise PointFileError('point JSON must be an object with a "points" array')
    rows = payload["points"]
    if not isinstance(rows, list) or not rows:
        raise PointFileError('"points" must be a non-empty array')
    lengths = {len(r) for r in rows if isinstance(r, list)}
    if len(lengths) != 1 or any(not isinstance(r, list) for r in rows):
        raise DimensionMismatchError("every point must be an array of one shared length")
    dim = payload.get("dimension", lengths.pop() if lengths else 0)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise PointFileError('"dimension" must be an integer')
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise PointFileError('"labels" must be an array')
        labels = tuple(str(x) for x in labels)
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PointFileError(f"non-numeric point coordinate: {exc}") from exc
    return PointSet(dimension=dim, points=arr, labels=labels)


def _points_from_csv(text: str) -> PointSet:
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            rows.append([float(cell) for cell in row])
        except ValueError as exc:
            raise PointFileError(f"line {lineno}: non-numeric value ({exc})") from exc
    if not rows:
        raise PointFileError("CSV file holds no points")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionMismatchError(f"CSV rows have mixed lengths {sorted(widths)}")
    arr = np.asarray(rows, dtype=float)
    return PointSet(dimension=arr.shape[1], points=arr)


def squared_distance_matrix(ps: PointSet) -> np.ndarray:
    """Pair squared distances: the tiles of _pair_tiles in a fresh read-only array (_mirrored), not kept."""
    return _read_only(_mirrored(ps.n, _pair_tiles(ps, True)))


def inner_product_matrix(ps: PointSet) -> np.ndarray:
    """Pair inner products (the Gram matrix), assembled as squared_distance_matrix is."""
    return _read_only(_mirrored(ps.n, _pair_tiles(ps, False)))


def _tiles(n: int) -> list[slice]:
    """The rows, and the columns, of the pair tiles: _tile_side(n) at a time."""
    step = _tile_side(n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _mirrored(n: int, read, dtype=float) -> np.ndarray:
    """n x n, read(rows, cols) on each pair of _tiles with rows <= cols and its transpose on the mirror."""
    out = np.empty((n, n), dtype)
    for rows, cols in itertools.combinations_with_replacement(_tiles(n), 2):
        out[rows, cols] = tile = read(rows, cols)
        if rows != cols:
            out[cols, rows] = tile.T
    return out


def _tile_side(n: int) -> int:
    """n // 8 points, within 64..256. A verdict holds a strip of T rows and a
    tile's temporaries beside MQ: on johnson(14,3), n = 455, 0.74 of 8n^2
    bytes at T = 64 and 2.06 at 256; on large sets 256 takes a sixteenth of
    the tile calls of 64, which cost certify johnson(40,3) about 2.7 s."""
    return min(256, max(64, n // 8))


def _pair_tiles(ps: PointSet, euclidean: bool):
    """tile(rows, cols): _pair_tile on ps's inner products or, euclidean, its
    squared distances, from the lifted points [x, |x|^2, 1] and [-2x, 1,
    |x|^2], kept on ps, so that every reader of one set and kind holds the
    same tile. A set is refused when 4 max|x_i|^2, a bound on every term, is
    not finite."""
    x = ps.points

    def tile():
        if not euclidean:
            return functools.partial(_pair_tile, x, None)
        sq = np.einsum("ij,ij->i", x, x)
        if not math.isfinite(4.0 * float(np.max(sq))):
            raise PointFileError("squared distances overflow: a point norm is above about 6.7e153")
        ones = np.ones_like(sq)
        a = _read_only(np.column_stack((x, sq, ones)))
        b = _read_only(np.column_stack((-2.0 * x, ones, sq)))
        return functools.partial(_pair_tile, a, b)

    return _memoized(ps, ("pair_tiles", euclidean, _tile_side(ps.n)), tile)


def _pair_rows(tile, n: int, rows: slice) -> np.ndarray:
    """The pair values of the strip of _tiles rows `rows` from its first row's
    column on, a fresh array built tile by tile."""
    tiles = [cols for cols in _tiles(n) if cols.start >= rows.start]
    if len(tiles) == 1:  # the tile itself, not a copy
        return tile(rows, tiles[0])
    out = np.empty((rows.stop - rows.start, n - rows.start))
    for cols in tiles:
        out[:, cols.start - rows.start : cols.stop - rows.start] = tile(rows, cols)
    return out


def _pair_tile(a: np.ndarray, b: np.ndarray | None, rows: slice, cols: slice) -> np.ndarray:
    """Pair values of points rows against points cols, two of _tiles, rows
    <= cols: inner products a_I a_J^T (b None), or squared distances
    max(a_I b_J^T, 0) off the lifted points a and b. A diagonal tile of these
    is (t + t^T) / 2 with a zero diagonal, and a reader takes a tile below
    it as its mirror's transpose, so a value depends on (i, j) alone; on one
    tile (n <= T) it is the full product's, bit for bit."""
    if b is None:
        return a[rows] @ a[cols].T
    tile = a[rows] @ b[cols].T
    np.maximum(tile, 0.0, out=tile)
    if rows == cols:
        tile += tile.T
        np.fill_diagonal(tile, 0.0)
        tile /= 2.0
    return tile


def _gaps(a: np.ndarray, b: np.ndarray, relative: bool) -> np.ndarray:
    """(b-a)/max(|a|,|b|), or (b-a)/max(1,|a|,|b|) when not relative."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return (b - a) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.0 if relative else 1.0)


def _intervals(v: np.ndarray, tol: float, relative: bool):
    """v sorted and cut where the gap is above tol or the sign turns: (lo, hi, count) per interval."""
    v = np.sort(v)
    step = np.flatnonzero(v[1:] != v[:-1])
    a, b = v[step], v[step + 1]
    ends = np.append(step[(_gaps(a, b, relative) > tol) | ((a < 0) & (b >= 0))], v.size - 1)
    return v[ends - np.diff(ends, prepend=-1) + 1], v[ends], np.diff(ends, prepend=-1)


def _cut_and_merge(blocks, tol: float, relative: bool, zero):
    """Single-linkage classes at tol of the values in blocks (1-d arrays in
    row-major order): (tops, counts, lows, highs), each class's least and
    largest value, tops highs but the last. Each block's intervals, by lower end,
    join the class before unless more than tol above its largest value. That
    gives the cuts of one global sort: within one sign a gap only grows as
    its ends move apart. A gap below 10*tol between classes is an ambiguity
    error; zero(last) gives the first (or last) zero in row-major order, the
    one a stable sort puts at a cut."""
    parts = (_intervals(v, tol, relative) for v in blocks if v.size)
    lo, hi, count = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(lo, kind="stable")
    lo = lo[order]  # one array at a time, so no unsorted copy outlives its sorted one
    top = np.maximum.accumulate(hi[order], out=hi)
    count = count[order]
    del order
    gaps = _gaps(top[:-1], lo[1:], relative)
    cuts = np.flatnonzero((lo[1:] > top[:-1]) & (gaps > tol))
    narrow = cuts[gaps[cuts] <= 10.0 * tol]
    if narrow.size:
        left, right = top[narrow[0]], lo[narrow[0] + 1]
        raise AmbiguousGroupingError(
            f"values {float(left or zero(True))!r} and {float(right or zero(False))!r} are separated "
            "by less than 10x tol; no stable class split exists at this tolerance"
        )
    firsts = np.insert(cuts + 1, 0, 0)
    lows, highs = lo[firsts], top[np.append(cuts, top.size - 1)]
    tops = highs[:-1].copy()
    if np.any(tops == 0):
        tops[tops == 0] = zero(True)
    return tops, np.add.reduceat(count, firsts), lows, highs


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.cumsum(sizes) - sizes


def _class_means(blocks, counts: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> list[float]:
    """Each class's exact mean, correctly rounded, in any order of blocks
    (1-d arrays); class c holds the counts[c] values v with highs[c-1] < v
    <= highs[c], the least lows[c]. A value is m 2^(e-53), m an integer
    below 2^53; m's high and low 26 bits add exactly (below 2^36 values a
    class) into int64 bins by (class, e), e between its ends', or from
    -1073 to at least 0 (a zero's) if it holds or straddles 0."""
    low_e, high_e = np.frexp(lows)[1].astype(np.intp), np.frexp(highs)[1].astype(np.intp)
    signed = (lows <= 0) & (highs >= 0)
    first = np.where(signed, -1073, np.minimum(low_e, high_e))
    last = np.maximum(np.maximum(low_e, high_e), np.where(signed, 0, first))
    starts, stops = _starts(last - first + 1), np.cumsum(last - first + 1)
    origin = starts - first  # the bin of (c, e) is origin[c] + e
    bins = np.zeros((2, int(stops[-1])), dtype=np.int64)
    for v in filter(np.size, blocks):  # skips empty blocks; unlike a genexpr, keeps none alive
        m, e = np.frexp(v)
        key = origin[np.searchsorted(highs[:-1], v, side="left")] + e
        m = (m * 2.0**53).astype(np.int64)
        np.add.at(bins[0], key, m >> 26)
        np.add.at(bins[1], key, m & (2**26 - 1))
    high, low = bins.tolist()
    means = []
    for start, stop, e, count in zip(starts.tolist(), stops.tolist(), (first - 53).tolist(), counts.tolist()):
        total = sum(((h << 26) + l) << k for k, (h, l) in enumerate(zip(high[start:stop], low[start:stop])))
        means.append((total << e) / count if e >= 0 else total / (count << -e))  # int / int rounds correctly
    return means


def _group_pairs(tile, n: int, tol: float, relative: bool):
    """Classes of n points' pair values above the diagonal, read by tile(rows,
    cols) (_pair_tiles) on and right of it: (means, counts, tops), tops the
    largest value of each class but the last. A walk over the strips of
    _tiles rows, in blocks of _row_blocks, with no sorted copy, finds the
    classes; unless every class holds one value, its mean (plus 0.0, so a
    zero class is +0.0), a second walk takes the exact means (_class_means).
    Besides a strip and a block, each walk holds a few arrays of one entry
    per interval or class, which reach several times n^2 bytes as s nears
    n(n-1)/2."""

    def blocks():
        for rows in _tiles(n):
            strip = _pair_rows(tile, n, rows)
            for part in _row_blocks(len(strip), strip.shape[1], n):
                yield np.concatenate([row[i + 1:] for i, row in enumerate(strip[part], part.start)])
            del strip  # before the next strip is built

    ends = []  # the first and the last zero above the diagonal in row-major order

    def first_walk():
        for v in blocks():
            zeros = v[v == 0.0]
            if zeros.size:
                ends[:] = ends[0] if ends else zeros[0], zeros[-1]
            yield v

    tops, counts, lows, highs = _cut_and_merge(first_walk(), tol, relative, lambda last: ends[last])
    one = np.array_equal(lows, highs)  # == takes -0.0 as 0.0
    means = (lows + 0.0).tolist() if one else _class_means(blocks(), counts, lows, highs)
    return means, counts.tolist(), _read_only(tops)


@dataclass(frozen=True)
class DistanceProfile:
    """Classes of squared pair distances (an s-distance structure) and their tops."""

    s: int
    squared_distances: tuple[float, ...]
    pair_counts: tuple[int, ...]
    tops: np.ndarray
    tol: float

    __eq__, __hash__ = _fields_equal, _fields_hash

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "squared_distances": list(self.squared_distances),
            "pair_counts": list(self.pair_counts),
        }


def distance_profile(ps: PointSet, tol: float = DEFAULT_TOL) -> DistanceProfile:
    """Group all pair squared distances into classes at relative tolerance tol."""
    return _memoized(ps, ("distance", _valid_tol("tol", tol)), lambda: _distance_profile(ps, tol))


def _distance_profile(ps: PointSet, tol: float) -> DistanceProfile:
    reps, counts, tops = _group_pairs(_pair_tiles(ps, True), ps.n, tol, relative=True)
    return DistanceProfile(
        s=len(reps),
        squared_distances=tuple(reps),
        pair_counts=tuple(counts),
        tops=tops,
        tol=tol,
    )


@dataclass(frozen=True)
class InnerProductProfile:
    """Classes of pair inner products for a unit-norm point set."""

    s: int
    inner_products: tuple[float, ...]
    pair_counts: tuple[int, ...]
    tops: np.ndarray
    contains_minus_one: bool
    antipodal: bool
    tol: float

    __eq__, __hash__ = _fields_equal, _fields_hash

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "inner_products": list(self.inner_products),
            "pair_counts": list(self.pair_counts),
            "contains_minus_one": self.contains_minus_one,
            "antipodal": self.antipodal,
        }


def _unit_norm_deviation(ps: PointSet) -> float:
    # A norm that overflows is inf, which is far from 1: no warning needed.
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(np.linalg.norm(ps.points, axis=1) - 1.0)))


def on_unit_sphere(ps: PointSet, tol: float = DEFAULT_TOL) -> bool:
    return _unit_norm_deviation(ps) <= max(_valid_tol("tol", tol), 1e-12)


def inner_product_profile(ps: PointSet, tol: float = DEFAULT_TOL) -> InnerProductProfile:
    """Group pair inner products of a unit-norm set into classes.

    Inner products straddle 0, so grouping uses |a-b| <= tol * max(1,|a|,|b|)
    rather than a purely relative gap.
    """
    return _memoized(ps, ("inner_product", _valid_tol("tol", tol)), lambda: _inner_product_profile(ps, tol))


def _inner_product_profile(ps: PointSet, tol: float) -> InnerProductProfile:
    if not on_unit_sphere(ps, tol):
        raise NotOnSphereError(f"points deviate from unit norm by {_unit_norm_deviation(ps):.3e}")
    reps, counts, tops = _group_pairs(_pair_tiles(ps, False), ps.n, tol, relative=False)
    antipodal, _ = is_antipodal(ps, tol)
    contains_minus_one = bool(abs(reps[0] + 1.0) <= 10.0 * max(tol, 1e-12))
    if reps[-1] >= 1.0 - 1e-12:
        raise DuplicatePointError("an inner product class sits at 1; duplicate points")
    return InnerProductProfile(
        s=len(reps),
        inner_products=tuple(reps),
        pair_counts=tuple(counts),
        tops=tops,
        contains_minus_one=contains_minus_one,
        antipodal=antipodal,
        tol=tol,
    )


def is_antipodal(ps: PointSet, tol: float = DEFAULT_TOL):
    """Whether -x is in the set for every x; returns (flag, pairing array).

    The partner of x_i is the first j minimising max_k |x_ik + x_jk|; that
    minimum must be within max(tol, 1e-12) * max(1, max|x|).
    """
    return _memoized(ps, ("antipodal", _valid_tol("tol", tol)), lambda: _is_antipodal(ps, tol))


def _is_antipodal(ps: PointSet, tol: float):
    n = ps.n
    partner = np.full(n, -1, dtype=np.intp)
    for i, j, dist in _close_pairs(ps.points, 1.0, max(tol, 1e-12)):
        # Per row, the smallest value and then the smallest column: the row's first pair in this order.
        order = np.lexsort((j, dist, i))
        rows, first = np.unique(i[order], return_index=True)
        partner[rows] = j[order[first]]
    if np.any(partner < 0):
        return False, None
    if np.any(partner == np.arange(n)) or np.any(partner[partner] != np.arange(n)):
        return False, None
    return True, _read_only(partner)


def half_set(ps: PointSet, tol: float = DEFAULT_TOL) -> PointSet:
    """One representative per antipodal pair: the lexicographically larger point."""
    ok, partner = is_antipodal(ps, tol)
    if not ok:
        raise NotAntipodalError("point set is not antipodal within tolerance")
    keep = [i for i, j in enumerate(partner) if tuple(ps.points[i]) > tuple(ps.points[j])]
    labels = tuple(ps.labels[i] for i in keep) if ps.labels is not None else None
    return PointSet(dimension=ps.dimension, points=ps.points[keep], labels=labels)


@dataclass(frozen=True)
class AntipodalStructure:
    """Half set and the |beta| profile classes.

    For s odd, beta_abs lists the (s-1)/2 positive values; for s even it
    starts with an exact 0.0 followed by the s/2 - 1 positive values. |beta|
    value j is profile class p = s - len(beta_abs) + j, and -beta is s - p.
    """

    half: PointSet
    s: int
    parity: str
    beta_abs: tuple[float, ...]


def antipodal_structure(ps: PointSet, tol: float = DEFAULT_TOL) -> AntipodalStructure:
    """Validate antipodal class structure and extract the |beta| values."""
    key = ("antipodal_structure", _valid_tol("tol", tol))
    return _memoized(ps, key, lambda: _antipodal_structure(ps, tol))


def _antipodal_structure(ps: PointSet, tol: float) -> AntipodalStructure:
    profile = inner_product_profile(ps, tol)
    if not profile.antipodal or not profile.contains_minus_one:
        raise NotAntipodalError("set is not antipodal with -1 among its inner products")
    atol = 10.0 * max(tol, 1e-12)
    rest = [b for b in profile.inner_products if abs(b + 1.0) > atol]
    zeros = [b for b in rest if abs(b) <= atol]
    positives = sorted(b for b in rest if b > atol)
    negatives = sorted(-b for b in rest if b < -atol)
    if len(zeros) > 1:
        raise AmbiguousGroupingError("several inner product classes sit at 0")
    if len(positives) != len(negatives) or any(
        abs(p - q) > atol for p, q in zip(positives, negatives)
    ):
        raise NotAntipodalError("inner product classes are not symmetric under negation")
    if len(rest) != profile.s - 1:
        raise NotAntipodalError("several inner product classes sit at -1")
    parity, beta_abs = ("even", (0.0, *positives)) if zeros else ("odd", tuple(positives))
    return AntipodalStructure(half=half_set(ps, tol), s=profile.s, parity=parity, beta_abs=beta_abs)


def affine_dimension(ps: PointSet, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Rank of the centered coordinate matrix: dimension of the affine hull."""
    centered = ps.points - np.mean(ps.points, axis=0)
    return _rank(centered, tol_rank)


def linear_dimension(ps: PointSet, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Rank of the coordinate matrix: dimension of the linear span."""
    return _rank(ps.points, tol_rank)


def _rank(matrix: np.ndarray, tol_rank: float) -> int:
    _valid_tol("tol_rank", tol_rank)
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > max(tol_rank, 1e-12) * sv[0] * max(matrix.shape)))


def construct_johnson(d: int, s: int) -> PointSet:
    """All binary vectors of length d+1 with exactly s ones.

    The C(d+1, s) points span an s-distance set lying in a d-dimensional
    affine flat; squared distances are 2, 4, ..., 2s.
    """
    if s < 1 or 2 * s > d + 1:
        raise ParameterError(f"johnson family needs 1 <= s <= (d+1)/2, got d={d}, s={s}")
    supports = itertools.combinations(range(d + 1), s)
    rows = [[float(k in support) for k in range(d + 1)] for support in supports]
    return PointSet(dimension=d + 1, points=np.asarray(rows))


def construct_named(name: str, d: int | None = None) -> PointSet:
    """Named reference configurations, unit-norm where the name implies a sphere."""
    if name == "cross_polytope":
        d = _require_d(name, d, minimum=1)
        eye = np.eye(d)
        return PointSet(dimension=d, points=np.vstack([eye, -eye]))
    if name == "simplex":
        d = _require_d(name, d, minimum=1)
        eye = np.eye(d + 1)
        centered = eye - np.full((d + 1, d + 1), 1.0 / (d + 1))
        pts = centered / np.linalg.norm(centered, axis=1, keepdims=True)
        return PointSet(dimension=d + 1, points=pts)
    if name == "hypercube":
        d = _require_d(name, d, minimum=1)
        if d > 16:
            raise ParameterError("hypercube construction capped at d = 16 (2^d points)")
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        return PointSet(dimension=d, points=corners / math.sqrt(d))
    if name == "e8_roots":
        return _e8_roots()
    if name == "pentagon":
        angles = 2.0 * math.pi * np.arange(5) / 5.0
        return PointSet(dimension=2, points=np.column_stack([np.cos(angles), np.sin(angles)]))
    if name == "icosahedron":
        return _icosahedron()
    raise ParameterError(f"unknown construction {name!r}; choose from {NAMED_CONSTRUCTIONS}")


def _require_d(name: str, d: int | None, minimum: int) -> int:
    if d is None:
        raise ParameterError(f"construction {name!r} needs a dimension d")
    if d < minimum:
        raise ParameterError(f"construction {name!r} needs d >= {minimum}, got {d}")
    return d


def _e8_roots() -> PointSet:
    # 112 integer roots (two nonzero entries +-1) plus 128 half-integer roots
    # (+-1/2 everywhere, an even number of minus signs); every root has norm
    # sqrt(2), so dividing by sqrt(2) puts all 240 on the unit sphere.
    rows = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((1.0, -1.0), repeat=2):
            row = [0.0] * 8
            row[i], row[j] = si, sj
            rows.append(tuple(row))
    for signs in itertools.product((1.0, -1.0), repeat=8):
        if sum(1 for x in signs if x < 0) % 2 == 0:
            rows.append(tuple(0.5 * x for x in signs))
    rows.sort()
    return PointSet(dimension=8, points=np.asarray(rows) / math.sqrt(2.0))


def _icosahedron() -> PointSet:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    scale = 1.0 / math.sqrt(1.0 + phi * phi)
    rows = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        rows.append((0.0, a * scale, b * phi * scale))
        rows.append((a * scale, b * phi * scale, 0.0))
        rows.append((a * phi * scale, 0.0, b * scale))
    rows.sort()
    return PointSet(dimension=3, points=np.asarray(rows))

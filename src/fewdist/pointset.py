"""Finite point sets and their distance / inner-product class structure.

A point set carries raw coordinates; the profile operations partition the
n(n-1)/2 pair values (squared distances, or inner products for unit-norm
sets) into classes by single-linkage grouping at a declared tolerance, and
everything downstream consumes those classes. Profiles are kept on the
point set (read-only), one per kind and tolerance; no n x n array is.

Every reader computes the pair values from the coordinates, one square tile
of _tile_side(n) points a side at a time (_pair_tile), each from one Gram
product, so all see the same, exactly symmetric, bits. Grouping walks the
strips of T rows above the diagonal in blocks of _row_blocks of at most one
tile's entries, and merges each block's sorted intervals into classes. Each
class mean is np.mean's, bit for bit: where every class holds one value
(Johnson sets), its sum in np.mean's order follows from its count, one sum
per distinct run of its pairwise tree; otherwise a second walk sums each
class in that order. Beyond a strip and a block, it holds tens of bytes
per class and per interval. The duplicate-point and antipodal checks
test coordinates only on the pairs whose projections on one fixed direction
lie within a window of each other (_close_pairs), found by a sort.
"""

from __future__ import annotations

import csv
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


@dataclass(frozen=True)
class PointSet:
    """An ordered set of n >= 2 distinct points in R^dimension."""

    dimension: int
    points: np.ndarray
    labels: tuple[str, ...] | None = None
    # Profiles computed from this set, keyed by (kind, tol); see _memoized.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    """Pair squared distances: the strips of _pair_rows in a fresh read-only array, not kept."""
    return _pair_matrix(ps, True)


def inner_product_matrix(ps: PointSet) -> np.ndarray:
    """Pair inner products (the Gram matrix), assembled as squared_distance_matrix is."""
    return _pair_matrix(ps, False)


def _pair_matrix(ps: PointSet, euclidean: bool) -> np.ndarray:
    tile, out = _pair_tiles(ps, euclidean), np.empty((ps.n, ps.n))
    for rows in _tiles(ps.n):
        out[rows] = _pair_rows(tile, ps.n, rows)
    return _read_only(out)


def _tiles(n: int) -> list[slice]:
    """The rows, and the columns, of the pair tiles: _tile_side(n) at a time."""
    step = _tile_side(n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _tile_side(n: int) -> int:
    """n // 8 points, within 64..256. A verdict holds a strip of T rows and a
    tile's temporaries beside MQ: on johnson(14,3), n = 455, 0.74 of 8n^2
    bytes at T = 64 and 2.06 at 256; on large sets 256 takes a sixteenth of
    the tile calls of 64, which cost certify johnson(40,3) about 2.7 s."""
    return min(256, max(64, n // 8))


def _pair_tiles(ps: PointSet, euclidean: bool):
    """tile(rows, cols): _pair_tile on ps's squared distances (euclidean;
    squared norms off the diagonal tiles' products) or inner products, kept
    on ps, so that every reader of one set and kind holds the same tile.
    A set is refused when 4 max|x_i|^2, a bound on every term, is not finite."""
    x = ps.points

    def tile():
        if not euclidean:
            return functools.partial(_pair_tile, x, None)
        if not math.isfinite(4.0 * float(np.max(np.einsum("ij,ij->i", x, x)))):
            raise PointFileError("squared distances overflow: a point norm is above about 6.7e153")
        sq = _read_only(np.concatenate([np.diag(x[t] @ x[t].T) for t in _tiles(len(x))]))
        return functools.partial(_pair_tile, x, sq)

    return _memoized(ps, ("pair_tiles", euclidean, _tile_side(ps.n)), tile)


def _pair_rows(tile, n: int, rows: slice, start: int = 0) -> np.ndarray:
    """The pair values of the strip of _tiles rows `rows` in the columns
    start.. (0, or the strip's first row), a fresh array built tile by tile."""
    tiles = [cols for cols in _tiles(n) if cols.start >= start]
    if len(tiles) == 1:  # the tile itself, not a copy
        return tile(rows, tiles[0])
    out = np.empty((rows.stop - rows.start, n - start))
    for cols in tiles:
        out[:, cols.start - start : cols.stop - start] = tile(rows, cols)
    return out


def _pair_tile(x: np.ndarray, sq: np.ndarray | None, rows: slice, cols: slice) -> np.ndarray:
    """Pair values of x[rows] against x[cols], two of _tiles: x_I x_J^T, or
    with squared norms sq, a_ij = max(sq_i + sq_j - 2<x_i, x_j>, 0) from
    x_I x_J^T. A tile below the diagonal is its mirror's transpose, and a
    diagonal tile is (a + a^T) / 2 with a zero diagonal, so a value depends on
    (i, j) alone; on one tile (n <= T) it is the full products', bit for bit."""
    if rows.start > cols.start:
        return _pair_tile(x, sq, cols, rows).T
    g = x[rows] @ x[cols].T
    if sq is None:
        return g
    tile = _clipped(np.add.outer(sq[rows], sq[cols]), g)
    if rows == cols:
        tile += tile.T
        np.fill_diagonal(tile, 0.0)
        tile /= 2.0
    return tile


def _clipped(norms: np.ndarray, g: np.ndarray) -> np.ndarray:
    """max(norms - 2g, 0), computed as norms + (-2g) (the same bits), in g if laid out as norms."""
    g *= -2.0
    out = np.add(norms, g, out=g if g.flags.c_contiguous else None)
    return np.maximum(out, 0.0, out=out)


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
    row-major order): (tops, counts, values), values each class's one value
    if every class holds one, else None. Each block's intervals, by lower end,
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
    tops, firsts = top[cuts], np.insert(cuts + 1, 0, 0)
    lows = lo[firsts]  # a class holds one value if its least is its top (== takes -0.0 as 0.0)
    one = lows[-1] == top[-1] and np.array_equal(lows[:-1], tops)
    if np.any(tops == 0):
        tops[tops == 0] = zero(True)
    return tops, np.add.reduceat(count, firsts), lows if one else None


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.cumsum(sizes) - sizes


def _split(size: np.ndarray):
    """numpy's pairwise split of runs of these sizes: whether each splits (a
    run of n > 128 values does), and each split run's first half, (n//16)*8."""
    split = size > 128
    return split, (size[split] >> 4) << 3


def _pairwise_tree(slot: np.ndarray, counts: np.ndarray):
    """numpy's pairwise tree over each class (class c's values at slots
    slot[c] on, 8 to a row), top-down: per level, the split flags and each
    leaf's first row and size."""
    start, size = slot, counts
    while start.size:
        split, half = _split(size)
        yield split, start[~split] >> 3, size[~split]
        start, size = start[split], size[split]
        start, size = np.stack((start, start + half), 1).ravel(), np.stack((half, size - half), 1).ravel()


def _pairwise_layout(counts: np.ndarray):
    """Where _lane_sums keeps the partial sums: (slot, dest, base, size).
    Class c takes slots from slot[c], 8 to a row. A buffer of this size holds
    each class's last n%8 values, from tail_at[c] on, then from base a row of
    8 lanes per leaf with rows, in row order. dest = (first, code, tail_at):
    a byte a row, code, counts the leaf starts since its chunk of 128 rows
    began (an int32 a row took 103 MB on ratios johnson(20,5)); 255 marks a
    class's last row, of its last n%8 values."""
    slot, tail = 8 * _starts((counts + 7) >> 3), counts & 7
    base = 8 + (int(tail.sum()) & ~7)
    code = np.zeros(-(-(slot[-1] + counts[-1]) // 1024) * 128, dtype=np.uint8)  # 128 rows of 8 a chunk
    for _, row, size in _pairwise_tree(slot, counts):
        code[row[size >= 8]] = 1
    chunks = code.reshape(-1, 128)
    # The running count of leaf starts is each row's leaf, in row order.
    first = _starts(chunks.sum(axis=1, dtype=np.intp)) + chunks[:, 0]
    size = base + 8 * int(chunks.sum())
    np.cumsum(chunks, axis=1, dtype=np.uint8, out=chunks)
    chunks -= chunks[:, :1]
    code[(slot + counts)[tail > 0] >> 3] = 255
    return slot, (8 * first + (base - 8), code, _starts(tail)), base, size


def _lane_sums(blocks, tops: np.ndarray, slot: np.ndarray, dest: tuple, flat: np.ndarray) -> None:
    """np.add.at adds each value of blocks, in order, to flat: slot s, the
    next of its class (counted in slot), in row r = s >> 3, at first[r >> 7]
    + 8 code[r] + (s & 7), or at tail_at[class] + (s & 7) where code is 255."""
    first, code, tail_at = dest
    for vals in filter(np.size, blocks):  # skips empty blocks; unlike a genexpr, keeps none alive
        if tops.size < 8:  # uint8 labels and a radix sort: 0.4-1.1 ms a block, 1.8-4.7 by searchsorted
            labels = sum((vals > top for top in tops), np.zeros(vals.size, dtype=np.uint8))
        else:
            labels = np.searchsorted(tops, vals, side="left")
        order = np.argsort(labels, kind="stable")
        labels = labels[order]  # one array at a time, as in _cut_and_merge
        vals = vals[order]
        del order
        # Count the classes held as runs of sorted labels: bincount's speed at s <= 8, 1.8x it at s = 2e6.
        start = np.insert(np.flatnonzero(labels[1:] != labels[:-1]) + 1, 0, 0)
        present, k = labels[start], np.diff(start, append=labels.size)
        q = np.repeat(slot[present] - start, k)
        slot[present] += k
        del start, present, k
        q += np.arange(vals.size)
        row_code = code[q >> 3]
        lane = np.left_shift(row_code, 3, dtype=np.intp)
        lane += first[q >> 10]
        lane += q & 7
        del q
        tails = np.flatnonzero(row_code == 255)  # first and base are multiples of 8: lane & 7 is s & 7
        lane[tails] = tail_at[labels[tails]] + (lane[tails] & 7)
        del labels, row_code, tails
        np.add.at(flat, lane, vals)
        del vals, lane


def _class_sums(blocks, tops: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.add.reduce over each class's values in blocks (1-d arrays in
    row-major order), bit for bit; class c holds the counts[c] values v with
    tops[c-1] < v <= tops[c]. That is 0.0 plus numpy's pairwise sum, whose
    leaves add their rows of 8 in 8 lanes, join the lanes as
    ((0+1)+(2+3))+((4+5)+(6+7)) and add their last n%8 values one by one. A
    lane that gets a 0.0, or nothing, changes at most the sign of a zero
    sum, which the final 0.0 undoes."""
    slot, dest, base, size = _pairwise_layout(counts)
    flat = np.zeros(size)
    _lane_sums(blocks, tops, slot.copy(), dest, flat)
    del dest
    lanes = flat[base:].reshape(-1, 8)
    for step in (1, 2, 4):
        lanes[:, ::2 * step] += lanes[:, step::2 * step]
    del lanes
    flat = np.concatenate((flat[:base], flat[base::8]))  # the trailing values, then each leaf's sum
    splits, row, length = zip(*_pairwise_tree(slot, counts))
    row, length = np.concatenate(row), np.concatenate(length)
    leaf = np.zeros(length.size)
    leaf[np.flatnonzero(length >= 8)[np.argsort(row[length >= 8])]] = flat[base:]
    last = np.flatnonzero(length & 7)[np.argsort(row[(length & 7) > 0])]  # each class's last leaf
    np.add.at(leaf, np.repeat(last, length[last] & 7), flat[: int((counts & 7).sum())])
    return _tree_sums(splits, leaf)


def _repeat_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """_class_sums when class c holds counts[c] copies of values[c], from the
    counts alone. A run of copies sums alike wherever it sits, so each level
    of numpy's pairwise tree (as _pairwise_tree splits it) is summed once per
    distinct (class, length): a leaf of m copies adds the value m//8 times in
    each lane, joins the 8 equal lanes to exactly 8 times one, then adds m%8
    more, and a split run adds its two halves' sums."""
    levels, cls, size = [], np.arange(counts.size), counts
    while cls.size:
        split, half = _split(size)
        runs = np.stack((np.repeat(cls[split], 2), np.stack((half, size[split] - half), 1).ravel()), 1)
        runs, halves = np.unique(runs, axis=0, return_inverse=True)
        levels.append((cls, np.where(split, 0, size), split, halves.reshape(-1, 2)))
        cls, size = runs.T
    below = np.empty(0)
    for cls, length, split, halves in reversed(levels):  # the deepest level splits none
        value, sums = values[cls], np.zeros(cls.size)
        for k in range(16):
            np.add(sums, value, out=sums, where=(length >> 3) > k)
        sums *= 8.0
        for k in range(7):
            np.add(sums, value, out=sums, where=(length & 7) > k)
        sums[split] = below[halves[:, 0]] + below[halves[:, 1]]
        below = sums
    return 0.0 + below


def _tree_sums(splits: tuple, leaf: np.ndarray) -> np.ndarray:
    """0.0 plus each class's pairwise sum, from the sums of _pairwise_tree's
    leaves in its order, joined bottom-up."""
    below, ends = np.empty(0), np.cumsum([np.count_nonzero(~split) for split in splits])
    for split, part in zip(reversed(splits), reversed(np.split(leaf, ends[:-1]))):
        below, value = np.empty(split.size), below
        below[~split] = part
        below[split] = value[0::2] + value[1::2]  # the deepest level splits none
    return 0.0 + below


def _group_pairs(tile, n: int, tol: float, relative: bool):
    """Classes of n points' pair values above the diagonal, read by tile(rows,
    cols) (_pair_tiles) on and right of it: (means, counts, tops), tops the
    largest value of each class but the last. Each mean is np.mean over the
    class's values in row-major order, bit for bit. A walk over the strips of
    _tiles rows, in blocks of _row_blocks, with no sorted copy, finds the
    classes; unless every class holds one value, whose sums follow from the
    counts, a second walk sums them in np.mean's order. Besides a strip and
    a block, each walk holds a few arrays of one entry per interval or class,
    which reach several times n^2 bytes as s nears n(n-1)/2."""

    def blocks():
        for rows in _tiles(n):
            strip = _pair_rows(tile, n, rows, rows.start)
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

    tops, counts, values = _cut_and_merge(first_walk(), tol, relative, lambda last: ends[last])
    sums = _class_sums(blocks(), tops, counts) if values is None else _repeat_sums(values, counts)
    return [float(x) / c for x, c in zip(sums, counts.tolist())], counts.tolist(), _read_only(tops)


@dataclass(frozen=True)
class DistanceProfile:
    """Classes of squared pair distances (an s-distance structure) and their tops."""

    s: int
    squared_distances: tuple[float, ...]
    pair_counts: tuple[int, ...]
    tops: np.ndarray
    tol: float

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

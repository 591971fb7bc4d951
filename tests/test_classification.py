"""The vectorised pair classification against the per-pair reference code.

The reference functions below are the earlier implementations: a Python
loop over adjacent sorted values for grouping, two n x n buffers for the
pair matrix, and n x n x d difference or sum arrays for the duplicate-point
and antipodal checks. The library's versions must return identical results:
the same class ids and count, the same error messages, the same duplicate
pair, the same partner array and the same bits (the pair values on one
tile; on several, each reader sees the same values).
"""

import contextlib
import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fewdist.pointset as pointset
from fewdist import PointSet, construct_johnson, construct_named
from fewdist.certificate import class_index_range, indicator_matrix, numeric_rank, verify_key_lemma
from fewdist.errors import AmbiguousGroupingError, DuplicatePointError, PointFileError
from fewdist.pointset import (
    _class_sums,
    _cut_and_merge,
    _group_pairs,
    _repeat_sums,
    distance_profile,
    inner_product_matrix,
    inner_product_profile,
    is_antipodal,
    squared_distance_matrix,
)
from fewdist.ratios import analyze, applicable_settings


def reference_cluster_sorted(values, tol, relative):
    def gap(a, b):
        if relative:
            return (b - a) / max(abs(a), abs(b))
        return (b - a) / max(1.0, abs(a), abs(b))

    boundaries = [0]
    for idx in range(1, len(values)):
        if gap(values[idx - 1], values[idx]) > tol:
            boundaries.append(idx)
    boundaries.append(len(values))
    for pos in range(1, len(boundaries) - 1):
        left = values[boundaries[pos] - 1]
        right = values[boundaries[pos]]
        if gap(left, right) <= 10.0 * tol:
            raise AmbiguousGroupingError(
                f"values {float(left)!r} and {float(right)!r} are separated by less "
                "than 10x tol; no stable class split exists at this tolerance"
            )
    ids = np.empty(len(values), dtype=int)
    for cid in range(len(boundaries) - 1):
        ids[boundaries[cid]:boundaries[cid + 1]] = cid
    return ids, len(boundaries) - 1


def reference_group_pairs(matrix, tol, relative):
    n = matrix.shape[0]
    iu = np.triu_indices(n, 1)
    vals = matrix[iu]
    order = np.argsort(vals, kind="stable")
    ids_sorted, num = reference_cluster_sorted(vals[order], tol, relative)
    ids = np.empty(len(vals), dtype=int)
    ids[order] = ids_sorted
    reps, counts, adjacency = [], [], []
    for cid in range(num):
        mask = ids == cid
        reps.append(float(np.mean(vals[mask])))
        counts.append(int(np.count_nonzero(mask)))
        adj = np.zeros((n, n), dtype=np.int8)
        adj[iu[0][mask], iu[1][mask]] = 1
        adj[iu[1][mask], iu[0][mask]] = 1
        adjacency.append(adj)
    return reps, counts, adjacency


def reference_squared_distances(ps):
    g = ps.points @ ps.points.T
    sq = np.diag(g).copy()
    d2 = sq[:, None] + sq[None, :]
    g *= 2.0
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    np.add(d2, d2.T, out=g)
    g /= 2.0
    return g


def reference_duplicate_message(pts):
    """The DuplicatePointError message PointSet raises, or None."""
    scale = max(1.0, float(np.max(np.abs(pts))))
    with np.errstate(over="ignore"):  # a difference that overflows is inf, never within tolerance
        diffs = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    np.fill_diagonal(diffs, np.inf)
    if np.min(diffs) <= 1e-9 * scale:
        i, j = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
        return f"points {i} and {j} coincide within tolerance"
    return None


def reference_is_antipodal(pts, tol):
    n = pts.shape[0]
    scale = max(1.0, float(np.max(np.abs(pts))))
    atol = max(tol, 1e-12) * scale
    with np.errstate(over="ignore"):
        sums = np.max(np.abs(pts[:, None, :] + pts[None, :, :]), axis=2)
    partner = np.argmin(sums, axis=1)
    best = sums[np.arange(n), partner]
    if np.any(best > atol):
        return False, None
    if np.any(partner == np.arange(n)) or np.any(partner[partner] != np.arange(n)):
        return False, None
    return True, partner


def class_adjacency(matrix, tops, c):
    """Class c's int8 0/1 adjacency: the values above the diagonal with
    tops[c-1] < v <= tops[c], mirrored below it."""
    upper = np.triu(np.searchsorted(tops, matrix, side="left") == c, 1)
    return (upper | upper.T).view(np.int8)


def grouped(matrix, tol, relative):
    """_group_pairs on a given matrix, its strips read as views of it."""
    with mock.patch.object(pointset, "_pair_rows", lambda tile, n, rows, start: matrix[rows, start:]):
        return _group_pairs(None, len(matrix), tol, relative)


def grouped_points(ps, euclidean, tol, relative):
    """_group_pairs on ps's squared distances (euclidean) or inner products, as the profiles run it."""
    return _group_pairs(pointset._pair_tiles(ps, euclidean), ps.n, tol, relative)


def outcome(fn, *args):
    """fn(*args), or the type and message of the grouping or duplicate error it raises."""
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            return fn(*args)
    except (AmbiguousGroupingError, DuplicatePointError) as exc:
        return type(exc), str(exc)


def merged_ids(values, tol, relative):
    """_cut_and_merge's classes of values, fed in blocks of _row_blocks in
    the given (row-major) order, as class ids of the stably sorted values
    and a class count. Its values are each class's one value exactly when
    every class's least and largest values compare equal."""
    zeros = values[values == 0]
    blocks = [values[part] for part in pointset._row_blocks(len(values), 1, len(values))]
    tops, counts, one = _cut_and_merge(blocks, tol, relative, lambda last: zeros[-1 if last else 0])
    ordered = np.sort(values)
    ids = np.searchsorted(tops, ordered, side="left")
    assert np.array_equal(np.bincount(ids, minlength=len(counts)), counts)
    ends = np.cumsum(counts)
    lows, highs = ordered[ends - counts], ordered[ends - 1]
    assert (one is not None) == np.array_equal(lows, highs)
    assert one is None or np.array_equal(one, lows)
    return ids, len(counts)


def assert_same_classes(got, want, matrix):
    """Two _group_pairs outcomes on matrix agree: error type and message, or
    every bit, with the classes of got's tops read by class_adjacency."""
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert len(got[2]) + 1 == len(want[2])
    for c, b in enumerate(want[2]):
        a = class_adjacency(matrix, got[2], c)
        assert np.array_equal(a, b) and a.dtype == b.dtype


def duplicate_message(pts):
    try:
        PointSet(dimension=pts.shape[1], points=pts)
    except DuplicatePointError as exc:
        return str(exc)
    return None


# Gaps between neighbouring values in units of tol, chosen to straddle both
# thresholds: tol (chain or split) and 10*tol (stable or ambiguous).
GAP_UNITS = st.sampled_from([0.0, 0.2, 0.999, 1.0, 1.001, 3.0, 9.999, 10.0, 10.001, 50.0, 1e4, 1e8])


@st.composite
def sorted_values(draw):
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    start = draw(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    units = draw(st.lists(GAP_UNITS, min_size=0, max_size=30))
    values = [start]
    for unit in units:
        values.append(values[-1] + unit * tol * max(1.0, abs(values[-1])))
    return np.sort(np.asarray(values)), tol


# Tile sides, whose squares are the entries of one row block: the smallest
# ones put block boundaries between nearly every pair of rows and of sorted values.
TILE_SIDES = st.sampled_from([1, 2, 3, 5, 7, 8, 256])


@contextlib.contextmanager
def small_blocks(side):
    """Pair tiles of side points a side and row blocks of side^2 entries, so
    that a small side puts tile and block boundaries between most rows."""
    with mock.patch.object(pointset, "_tile_side", lambda n: side):
        yield


class TestClusterSortedMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(sorted_values(), st.booleans(), TILE_SIDES, st.integers(0, 2**32 - 1))
    def test_same_ids_count_and_errors(self, drawn, relative, side, seed):
        # Shuffled, so each block's intervals interleave with the others'.
        values, tol = drawn
        if relative:
            values = np.abs(values)
        values = np.random.default_rng(seed).permutation(values)
        with small_blocks(side):
            got = outcome(merged_ids, values, tol, relative)
        want = outcome(reference_cluster_sorted, np.sort(values, kind="stable"), tol, relative)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
            assert got[1] == want[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 4), st.integers(0, 2**32 - 1), TILE_SIDES)
    def test_group_pairs_byte_identical_on_lattice_sets(self, n, d, seed, side):
        # Small integer coordinates give few distinct squared distances,
        # so classes hold many pairs and their means exercise summation order.
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.integers(-3, 4, size=(n, d)), axis=0) * rng.choice([1.0, 0.1, 1e3])
        assume(len(pts) >= 2)
        ps = PointSet(dimension=d, points=pts)
        with small_blocks(side):
            matrix = squared_distance_matrix(ps)
            if len(pointset._tiles(ps.n)) == 1:
                assert matrix.tobytes() == reference_squared_distances(ps).tobytes()
            for relative, tol in ((True, 1e-9), (False, 1e-9), (True, 0.05)):
                got = outcome(grouped_points, ps, True, tol, relative)
                want = outcome(reference_group_pairs, matrix, tol, relative)
                assert_same_classes(got, want, matrix)


def pinned_lengths():
    """Every length up to 1,100, then 8k +- 1 and 2^k +- 1 up to about 10^6."""
    eights = [8 * k + d for k in (200, 1_000, 12_500, 125_000) for d in (-1, 1)]
    return [*range(1101), *eights, *(2**k + d for k in range(11, 21) for d in (-1, 0, 1))]


class TestClassSumsMatchNumpy:
    # The class sums follow np.add.reduce's pairwise order, so a numpy whose
    # summation order changes fails here rather than moving the goldens.
    @pytest.mark.parametrize("tops", [np.empty(0), np.full(8, -np.inf)], ids=["comparisons", "binary_search"])
    def test_sums_are_np_add_reduce_bit_for_bit(self, tops):
        rng = np.random.default_rng(7)
        counts = np.zeros(tops.size + 1, dtype=np.intp)
        for n in pinned_lengths():
            wide = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)
            wide[rng.random(n) < 0.05] = rng.choice([0.0, -0.0])
            for x in (wide, rng.normal(size=n), np.full(n, -0.0)):
                counts[-1] = n
                blocks = np.array_split(x, max(1, n // 5000))
                got = _class_sums(blocks, tops, counts)[-1]
                assert got.tobytes() == np.add.reduce(x).tobytes(), n

    @pytest.mark.parametrize("shift", range(7))
    def test_repeated_values_sum_from_their_counts(self, shift):
        # A class of n copies of one value sums to np.add.reduce(np.full(n,
        # v)) from (v, n) alone; the values take turns over the classes, so
        # every (n, v) pair is summed beside classes of other values.
        counts = np.array(pinned_lengths()[1:], dtype=np.intp)
        values = np.resize(np.roll([0.1, 1 / 3, -0.5, 0.0, -0.0, 5e-324, 1e308], shift), counts.size)
        with np.errstate(over="ignore"):
            got = _repeat_sums(values, counts)
            want = np.array([np.add.reduce(np.full(n, v)) for n, v in zip(counts.tolist(), values)])
        assert got.tobytes() == want.tobytes()

    def test_repeated_values_hold_a_few_runs_per_class(self, traced_peak):
        # About 5 * 10^8 copies in 5 classes, far more than a leaf per 128
        # copies could hold (about 4 * 10^6 leaves, 100 MB): the sums are
        # taken once per distinct run length, a few per level of each tree.
        counts = np.array([10**8 + 7, 2 * 10**8 - 1, 10**8, 7 * 10**7 + 129, 3 * 10**7 + 8], dtype=np.intp)
        values = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
        sums = _repeat_sums(values, counts)
        assert np.allclose(sums, values * counts, rtol=1e-9)
        assert traced_peak(_repeat_sums, values, counts) < 64 * 1024

    def test_blocks_count_only_the_classes_they_hold(self, monkeypatch):
        # Nearly every pair value of random points is its own class, so at
        # tiles of 4 (strips of 4 rows, nearly all cut into one row a block) a
        # block holds a few dozen of the 3,160 classes, and no block may pass
        # np.repeat more counts than values. Each class is one pair, so the
        # grouping sums from the counts; the first walk's blocks go to
        # _class_sums directly, which must agree.
        matrix = squared_distance_matrix(PointSet(dimension=3, points=np.random.default_rng(7).random((80, 3))))
        want = reference_group_pairs(matrix, 1e-13, True)
        cut, held, repeat, calls = pointset._cut_and_merge, [], np.repeat, []

        def counted(a, repeats, *args, **kwargs):
            calls.append((np.size(repeats), int(np.sum(repeats))))
            return repeat(a, repeats, *args, **kwargs)

        def kept(blocks, *args):
            held.extend(blocks)
            return cut(held, *args)

        monkeypatch.setattr(pointset, "_tile_side", lambda n: 4)
        monkeypatch.setattr(pointset, "_cut_and_merge", kept)
        got = grouped(matrix, 1e-13, True)
        monkeypatch.setattr(np, "repeat", counted)
        sums = _class_sums(held, got[2], np.asarray(got[1]))
        monkeypatch.undo()
        assert len(got[1]) > 3000 and len(calls) > 70
        assert all(size <= values for size, values in calls)
        assert_same_classes(got, want, matrix)
        assert [float(x) / c for x, c in zip(sums, got[1])] == got[0]

    @pytest.mark.parametrize("side", [256, 8])
    @pytest.mark.parametrize(
        "build,relative",
        [
            (lambda: construct_johnson(14, 3), True),
            (lambda: construct_named("e8_roots"), False),
            (lambda: construct_named("hypercube", d=9), True),
        ],
        ids=["johnson_14_3", "e8_roots", "hypercube_9"],
    )
    def test_large_classes_match_the_reference(self, build, relative, side, monkeypatch):
        # Rotated, so each class's values differ in their last bits: classes
        # of 8k to 50k pairs in johnson(14,3), e8's inner products, and the
        # 9 classes of hypercube(9), which take the binary search. At tiles
        # of 8 each block is one row, so leaves of the pairwise sum span blocks.
        ps = build()
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(ps.dimension, ps.dimension)))
        rotated = PointSet(dimension=ps.dimension, points=ps.points @ q)
        monkeypatch.setattr(pointset, "_tile_side", lambda n: side)
        matrix = squared_distance_matrix(rotated) if relative else inner_product_matrix(rotated)
        want = reference_group_pairs(matrix, 1e-9, relative)
        assert max(want[1]) > 10_000
        assert_same_classes(grouped_points(rotated, relative, 1e-9, relative), want, matrix)


class TestPairMatrixMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 20),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e3, 1e8]),
        st.sampled_from([1.0, 1e-4, 1e200]),
    )
    def test_pair_matrix_bits_on_random_sets(self, n, d, seed, offset, spread):
        # One tile (n <= T): the library's values are the full products'
        # formula, bit for bit. A large common offset makes |x_i|^2 + |x_j|^2
        # - 2<x_i, x_j> cancel to values that can round below 0; a spread of
        # 1e200 overflows, and the set is refused.
        rng = np.random.default_rng(seed)
        pts = offset + spread * rng.normal(size=(n, d))
        assume(duplicate_message(pts) is None)
        ps = PointSet(dimension=d, points=pts)
        if spread > 1e100:
            with pytest.raises(PointFileError, match="squared distances overflow"):
                squared_distance_matrix(ps)
            return
        assert squared_distance_matrix(ps).tobytes() == reference_squared_distances(ps).tobytes()
        assert inner_product_matrix(ps).tobytes() == (ps.points @ ps.points.T).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e3]),
        st.sampled_from([1.0, 1e-4]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_every_reader_sees_the_same_tiles(self, n, d, seed, offset, spread, tile_size):
        # Random inexact points over several tiles (T = 1, 2, 4, 8): the
        # grouping walk, certify's strips and the library matrix read the
        # same bits for each (i, j), and the matrix is exactly symmetric.
        rng = np.random.default_rng(seed)
        pts = offset + spread * rng.normal(size=(n, d))
        assume(duplicate_message(pts) is None)
        ps = PointSet(dimension=d, points=pts)
        with mock.patch.object(pointset, "_tile_side", lambda n: tile_size):
            for euclidean in (True, False):
                matrix = (squared_distance_matrix if euclidean else inner_product_matrix)(ps)
                assert np.array_equal(matrix, matrix.T)
                rows = pointset._tiles(n)
                tile = pointset._pair_tiles(ps, euclidean)
                walked = [pointset._pair_rows(tile, n, r, r.start) for r in rows]  # _group_pairs' strips
                assert all(strip.tobytes() == matrix[r, r.start:].tobytes() for strip, r in zip(walked, rows))
                assert np.vstack([pointset._pair_rows(tile, n, r) for r in rows]).tobytes() == matrix.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(9, 40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e3]),
        st.sampled_from([1.0, 1e-4]),
    )
    def test_an_off_diagonal_tile_takes_one_product(self, n, d, seed, offset, spread):
        # Inexact points over tiles of 4: a squared-distance tile above the
        # diagonal is max(|x_i|^2 + |x_j|^2 - 2<x_i, x_j>, 0) from x_I x_J^T
        # alone, bit for bit, and a tile below it is that tile's transpose.
        rng = np.random.default_rng(seed)
        pts = offset + spread * rng.normal(size=(n, d))
        assume(duplicate_message(pts) is None)
        ps = PointSet(dimension=d, points=pts)
        with mock.patch.object(pointset, "_tile_side", lambda n: 4):
            tile = pointset._pair_tiles(ps, True)
            x, sq = tile.args
            tiles = pointset._tiles(n)
            for rows in tiles:
                for cols in tiles[tiles.index(rows) + 1:]:
                    want = pointset._clipped(np.add.outer(sq[rows], sq[cols]), x[rows] @ x[cols].T)
                    assert tile(rows, cols).tobytes() == want.tobytes()
                    assert np.array_equal(tile(cols, rows), want.T)


# Pair values near 0 at tol = 1e-9 (not relative): -0.0 and 0.0 tie in a
# sort, 5e-9 and -5e-9 sit an ambiguous gap from them, 1e-6 a clear one.
NEAR_ZERO = st.sampled_from([-0.0, 0.0, 5e-9, -5e-9, 1e-6, 0.5])


class TestGroupingEdgeCases:
    def test_asymmetric_gram_reads_the_upper_triangle(self):
        # The lower 0.5 + 2^-53 sits one ulp above the top of the 0.5 class,
        # so read there it would join the 0.9 class.
        gram = np.array(
            [[1, 0.5, 0.9, 0.2], [0.5 + 2**-53, 1, 0.2, 0.2], [0.9, 0.2, 1, 0.2], [0.2, 0.2, 0.2, 1]]
        )
        got = grouped(gram, 1e-9, False)
        assert_same_classes(got, reference_group_pairs(gram, 1e-9, False), gram)
        assert got[0] == [0.2, 0.5, 0.9]
        for c in range(len(got[0])):
            adj = class_adjacency(gram, got[2], c)
            assert np.array_equal(adj, adj.T)

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
    @pytest.mark.parametrize("near", [5e-9, -5e-9])
    def test_ambiguous_split_next_to_signed_zeros(self, zeros, near):
        # Zeros alternating in sign and one ambiguous neighbour: the
        # message prints the zero a stable sort puts next to it.
        n = 9
        upper = [zeros[k % 2] for k in range(n * (n - 1) // 2)]
        upper[17] = near
        matrix = np.zeros((n, n))
        matrix[np.triu_indices(n, 1)] = upper
        got = outcome(grouped, matrix, 1e-9, False)
        assert got[0] is AmbiguousGroupingError
        assert got == outcome(reference_group_pairs, matrix, 1e-9, False)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_signed_zeros_and_asymmetry_match_the_reference(self, n, data):
        # Lower and upper triangles are drawn independently.
        entries = data.draw(st.lists(NEAR_ZERO, min_size=n * n, max_size=n * n))
        matrix = np.asarray(entries).reshape(n, n)
        with small_blocks(data.draw(TILE_SIDES)):
            got = outcome(grouped, matrix, 1e-9, False)
            assert_same_classes(got, outcome(reference_group_pairs, matrix, 1e-9, False), matrix)


@st.composite
def near_duplicate_sets(draw):
    n = draw(st.integers(2, 25))
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 1e3, 1e-3, 1e150, 1e308]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pts = scale * rng.uniform(-1.0, 1.0, size=(n, d))
    atol = 1e-9 * max(1.0, float(np.max(np.abs(pts))))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(0, n, size=2)
        offset = draw(st.sampled_from([0.0, 1e-12, 0.5 * atol, atol, 1.000001 * atol, 3.0 * atol]))
        pts[j] = pts[i] + offset * rng.choice([-1.0, 0.0, 1.0], size=d)
    return pts


@st.composite
def near_antipodal_sets(draw):
    half = draw(st.integers(1, 15))
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 1e3, 1e-3, 1e308]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = scale * rng.uniform(-1.0, 1.0, size=(half, d))
    pts = np.vstack([x, -x])
    if draw(st.booleans()):
        pts = pts[rng.permutation(len(pts))]
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    atol = max(tol, 1e-12) * max(1.0, float(np.max(np.abs(pts))))
    for _ in range(draw(st.integers(0, 3))):
        i = rng.integers(0, len(pts))
        offset = draw(st.sampled_from([1e-12, 0.5 * atol, atol, 2.0 * atol, 0.1 * scale]))
        pts[i] = pts[i] + offset * rng.choice([-1.0, 1.0], size=d)
    if draw(st.booleans()):
        pts = np.vstack([pts, scale * rng.uniform(-1.0, 1.0, size=(1, d))])
    return pts, tol


class TestPairChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(near_duplicate_sets())
    def test_duplicate_pair_and_message(self, pts):
        assert duplicate_message(pts) == reference_duplicate_message(pts)

    @settings(max_examples=300, deadline=None)
    @given(near_antipodal_sets())
    def test_antipodal_flag_and_partner(self, drawn):
        pts, tol = drawn
        assume(reference_duplicate_message(pts) is None)
        ps = PointSet(dimension=pts.shape[1], points=pts)
        flag, partner = is_antipodal(ps, tol)
        want_flag, want_partner = reference_is_antipodal(pts, tol)
        assert flag == want_flag
        if want_flag:
            assert np.array_equal(partner, want_partner) and partner.dtype == want_partner.dtype
        else:
            assert partner is None

    def test_small_blocks_give_the_same_answers(self, monkeypatch, e8):
        # One row per block and per strip: the row-major order across blocks must hold.
        monkeypatch.setattr(pointset, "_tile_side", lambda n: 1)
        pts = np.array(e8.points)
        pts[200] = pts[17] + 1e-13
        pts[100] = pts[3]
        assert duplicate_message(pts) == reference_duplicate_message(pts)
        ok, partner = is_antipodal(PointSet(dimension=8, points=e8.points))
        assert ok and np.array_equal(partner, reference_is_antipodal(np.array(e8.points), 1e-9)[1])

    @pytest.mark.parametrize("scale", [1.0, 1e308])
    def test_points_on_one_projection(self, traced_peak, scale):
        # The sweep's worst case: every point projects to one value, so every
        # pair is tested, in blocks of at most T^2 candidates. At 1e308 the
        # sums of most candidates overflow, which must not warn.
        half, d = 1000, 5
        rng = np.random.default_rng(11)
        w = np.sqrt(np.arange(2.0, d + 2.0))
        x = rng.uniform(-1.0, 1.0, size=(half, d))
        x -= np.outer(x @ w, w / (w @ w))
        x *= scale / np.max(np.abs(x))
        perm = rng.permutation(2 * half)
        pts = np.vstack([x, -x])[perm]
        place = np.argsort(perm)
        dup = pts.copy()
        dup[1500] = dup[17] + 1e-10 * scale
        widths, got = [], []
        blocks = pointset._row_blocks

        def spy(count, width, n):
            widths.append(width)
            return blocks(count, width, n)

        with mock.patch.object(pointset, "_row_blocks", spy), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert duplicate_message(dup) == "points 17 and 1500 coincide within tolerance"
            peak = traced_peak(lambda: got.append(is_antipodal(PointSet(dimension=d, points=pts))))
        ok, partner = got[0]
        assert ok and np.array_equal(partner, place[(perm + half) % (2 * half)])
        assert widths == [2 * half] * 3
        # 2.7 tiles here: the candidates' sums and one gathered copy, each
        # T^2 x d, and their index arrays.
        tile = pointset._tile_side(2 * half) ** 2 * d * 8
        assert peak < 3 * tile + 64 * pts.size


class TestRowBlocks:
    @pytest.mark.parametrize("n", [2, 255, 256, 1330, 2**16 + 1])
    def test_blocks_cover_the_rows_in_order_within_a_tile(self, n):
        # The helper takes only sizes: no array is built. A block holds at
        # most one tile's entries, or one row if a row is wider.
        for width in (1, 15, n):
            blocks = list(pointset._row_blocks(n, width, n))
            assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
            assert blocks[-1].stop == n
            assert all(0 < (b.stop - b.start) * width <= max(pointset._tile_side(n) ** 2, width) for b in blocks)


class TestClassifiedOnce:
    def test_profiles_are_shared_and_read_only(self, e8):
        ps = PointSet(dimension=8, points=e8.points)
        dp = distance_profile(ps)
        assert distance_profile(ps) is dp
        assert inner_product_profile(ps) is inner_product_profile(ps)
        assert distance_profile(ps, 1e-6) is not dp
        # The pair matrices are not kept: each call assembles the same tiles anew.
        pairs = squared_distance_matrix(ps)
        assert pairs is not squared_distance_matrix(ps)
        assert pairs.tobytes() == squared_distance_matrix(ps).tobytes()
        assert not any(np.shape(a) == (ps.n, ps.n) for v in ps._memo.values() for a in arrays_in(v))
        with pytest.raises(ValueError):
            dp.tops[0] = 0.0
        with pytest.raises(ValueError):
            is_antipodal(ps)[1][0] = 0
        with pytest.raises(ValueError):
            squared_distance_matrix(ps)[0, 1] = 0.0

    def test_certify_every_setting_groups_each_kind_once(self, monkeypatch):
        calls = []
        real = pointset._group_pairs

        def counting(tile, n, tol, relative):
            calls.append(relative)
            return real(tile, n, tol, relative)

        monkeypatch.setattr(pointset, "_group_pairs", counting)
        ps = construct_named("hypercube", d=5)
        for setting in applicable_settings(ps):
            for index in class_index_range(ps, setting):
                verify_key_lemma(indicator_matrix(ps, index, setting))
        assert sorted(calls) == [False, True]

    @pytest.mark.parametrize(
        "setting,profile", [("euclidean", distance_profile), ("spherical", inner_product_profile)]
    )
    def test_indicator_adjacency_is_the_profiles(self, e8, setting, profile):
        pairs = squared_distance_matrix(e8) if setting == "euclidean" else inner_product_matrix(e8)
        for index in class_index_range(e8, setting):
            im = indicator_matrix(e8, index, setting)
            want = class_adjacency(pairs, profile(e8).tops, index - 1)
            assert np.array_equal(im.adjacency, want) and im.adjacency.dtype == want.dtype
        assert inner_product_matrix(e8).tobytes() == inner_product_matrix(e8).tobytes()
        assert not inner_product_matrix(e8).flags.writeable


def arrays_in(value):
    """Every numpy array in value, looking into tuples, lists and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays_in(getattr(value, f.name))


def test_profiles_hold_no_pair_classes():
    # After a full analysis the memo keeps the class tops, but no n x n
    # array: no pair matrix, and no bool or int8 array of class members.
    ps = construct_johnson(16, 4)
    analyze(ps, all_settings=True)
    assert distance_profile(ps).s == 4
    held = [a for v in ps._memo.values() for a in arrays_in(v)]
    assert held and not any(ps.n in a.shape for a in held if a.ndim == 2)


@pytest.mark.parametrize(
    "name", ["e8", "johnson_10_3", "hypercube_4", "cross_polytope_4", "icosahedron", "unit_square"]
)
def test_key_lemma_rank_matches_numeric_rank(request, name):
    ps = request.getfixturevalue(name)
    for setting in applicable_settings(ps):
        for index in class_index_range(ps, setting):
            im = indicator_matrix(ps, index, setting)
            assert verify_key_lemma(im).rank == numeric_rank(im.matrix)


@pytest.fixture(scope="module")
def johnson_14_4():
    ps = construct_johnson(14, 4)
    assert (ps.n, ps.dimension) == (1365, 15)
    return ps


def test_validation_memory_stays_below_one_dense_matrix(johnson_14_4, traced_peak):
    # The n x n x d difference array took about d times 8n^2 bytes.
    pts = np.array(johnson_14_4.points)
    n = pts.shape[0]
    assert traced_peak(PointSet, 15, pts) < 8 * n * n


def test_validation_memory_is_linear(traced_peak):
    # The duplicate and antipodal checks hold O(n*d) bytes: 3.4 n*d*8 here.
    # The Gram-product screen they replaced held a strip of T x n values, 19.1 n*d*8.
    pts = np.array(construct_johnson(16, 5).points)
    n, d = pts.shape
    assert traced_peak(lambda: is_antipodal(PointSet(dimension=d, points=pts))) < 8 * n * d * 8


def test_pair_matrix_memory_is_one_matrix_and_tiles(johnson_14_4, traced_peak):
    # A second n x n buffer beside the Gram matrix took 16n^2 bytes.
    n = johnson_14_4.n
    assert traced_peak(squared_distance_matrix, johnson_14_4) < 10 * n * n


def test_profiles_trace_less_than_one_dense_matrix(johnson_14_4, traced_peak):
    # No n x n array: a strip of T rows (8Tn bytes, n^2 on johnson(14,4)
    # and on hypercube(10)) and a block's temporaries, 1.5n^2 (one walk) and
    # 2.1n^2 in all. Grouping a kept pair matrix took 9.5n^2 and 10.5n^2.
    for ps, profile in (
        (PointSet(dimension=15, points=johnson_14_4.points), distance_profile),
        (construct_named("hypercube", d=10), inner_product_profile),
    ):
        assert traced_peak(profile, ps) < 0.75 * 8 * ps.n * ps.n


def test_profiles_trace_a_strip_and_one_tile_a_block(johnson_14_4, traced_peak):
    # A block holds at most T^2 entries, one tile's, so its temporaries stay
    # near the strip's n^2 bytes here: 1.54n^2 (2.01n^2 with the second
    # walk) and 2.12n^2 in all. Blocks of 2^16 entries at every n took
    # 2.81n^2 and 4.33n^2.
    for ps, profile in (
        (PointSet(dimension=15, points=johnson_14_4.points), distance_profile),
        (construct_named("hypercube", d=10), inner_product_profile),
    ):
        assert traced_peak(profile, ps) < 2.5 * ps.n * ps.n


def test_grouping_memory_is_two_block_passes(johnson_14_4, traced_peak):
    # A block's temporaries, a row table and a row of 8 lanes per leaf of the
    # pairwise sum, about 1.0n^2 bytes on the rotated set, whose classes
    # spread over their last bits and take the second walk; the Johnson
    # set's one-value classes skip it, 0.27n^2. A sorted copy of the values
    # (4n^2) and a bool mask per class (n^2) took 5.1n^2; the argsort order,
    # gathered copy and id arrays before them took 22.5n^2.
    n, dim = johnson_14_4.n, johnson_14_4.dimension
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(dim, dim)))
    for ps in (johnson_14_4, PointSet(dimension=dim, points=johnson_14_4.points @ q)):
        assert traced_peak(grouped, squared_distance_matrix(ps), 1e-9, True) < 2.5 * n * n


@pytest.mark.parametrize(
    "ps,euclidean,s,walks",
    [
        (construct_johnson(10, 3), True, 3, 1),
        (PointSet(dimension=3, points=np.random.default_rng(0).random((60, 3))), True, 1770, 1),
        (construct_named("hypercube", d=4), False, 4, 1),
        (construct_named("e8_roots"), False, 4, 2),
    ],
    ids=["johnson_10_3", "random_60", "hypercube_4", "e8_roots"],
)
def test_grouping_walks_the_upper_tiles_once_or_twice(monkeypatch, ps, euclidean, s, walks):
    # Once to find the classes and, unless every class holds one value,
    # once to sum them, whatever s is, each tile on or above the diagonal
    # computed once a walk (T = 8 here); a pass per class took s + 1 walks.
    # Johnson distances, hypercube(4)'s inner products and the one-pair
    # classes of random points are single values; e8's inner products
    # spread over their last bits. hypercube(4) has a class top at 0, whose
    # sign the first walk records on the way.
    monkeypatch.setattr(pointset, "_tile_side", lambda n: 8)
    calls, tile = [], pointset._pair_tile
    monkeypatch.setattr(
        pointset, "_pair_tile", lambda x, sq, rows, cols: calls.append((rows, cols)) or tile(x, sq, rows, cols)
    )
    means, _, tops = grouped_points(ps, euclidean, 1e-13, euclidean)
    assert len(means) == s
    assert euclidean or walks == 2 or 0.0 in tops  # e8's top near 0 is 2.2e-17
    tiles = pointset._tiles(ps.n)
    assert len(tiles) > 1
    assert calls == [(rows, cols) for rows in tiles for cols in tiles if cols.start >= rows.start] * walks


def test_indicator_memory_is_the_basis_and_one_deviation(johnson_14_4, traced_peak):
    # Above the memoized classes, nothing n x n: M, A and the deviation come
    # on first access. Evaluated at once, the Lagrange basis and one
    # temporary for |M - k*I - A| took 2.5 float n^2 arrays; a float copy of
    # the adjacency and two temporaries for the deviation took 4.1.
    indicator_matrix(johnson_14_4, 1, "euclidean")
    n = johnson_14_4.n
    assert traced_peak(indicator_matrix, johnson_14_4, 1, "euclidean") < 0.25 * 8 * n * n


def test_profile_memory_is_independent_of_the_class_count(traced_peak):
    # Random points give one class per pair, s = 1,770. Profiles that held
    # an int8 n x n adjacency per class took s n^2 bytes, here 6.4 MB; the
    # means and counts themselves are Python tuples of about 30 n^2 bytes.
    ps = PointSet(dimension=3, points=np.random.default_rng(0).random((60, 3)))
    n = ps.n
    assert traced_peak(distance_profile, ps) < 64 * n * n
    assert distance_profile(ps).s == n * (n - 1) // 2

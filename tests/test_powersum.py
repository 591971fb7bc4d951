"""The path-last power-sum tracker against the batch-first code it replaced.

The reference functions below are the batch-first elimination, norms,
coalescence and verdict that the path-last tracker replaced. The tracker
must return the same bits, so that the catalog prints the same roots and
margins.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdist import powersum
from fewdist.inverse import DOMAIN_EPS
from fewdist.powersum import (
    COALESCE_TOL,
    CORRECT_TOL,
    INSIDE,
    SEPARATION_TOL,
    PowerSumSolution,
    _distance_to_domain,
    _solve,
    _verdict,
    solve_power_sums,
)


def _reference_solve(J, R):
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


def _reference_norms(v):
    return np.sqrt(np.einsum("bi,bi->b", v.real, v.real) + np.einsum("bi,bi->b", v.imag, v.imag))


def _reference_coalescence(y):
    pairs = np.array(list(itertools.combinations(range(1, y.shape[1]), 2)), dtype=int).reshape(-1, 2)
    if not pairs.size:
        return np.full(y.shape[0], np.inf)
    return np.min(np.abs(y[:, pairs[:, 0]] - y[:, pairs[:, 1]]), axis=1) / _reference_norms(y)


def _reference_verdict(x_check, x_end, err_end):
    ended = np.isfinite(x_end).all(axis=1)
    complete = bool(ended.all())
    if complete:
        gaps = np.linalg.norm(x_check[:, None, :] - x_check[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        complete = bool(np.all(gaps > SEPARATION_TOL * (1.0 + _reference_norms(x_check))[:, None]))
    y, err = x_end[ended], err_end[ended]
    with np.errstate(all="ignore"):
        t = y[:, 1:] / y[:, :1]
        size = 1.0 + np.max(np.abs(t), axis=1)
        err = INSIDE * np.maximum(err / np.abs(y[:, 0]), CORRECT_TOL) * size
        real = np.max(np.abs(t.imag), axis=1) <= err
        full = np.concatenate([np.zeros((len(t), 1)), t.real, np.ones((len(t), 1))], axis=1)
        inside = real & (np.min(np.diff(full, axis=1), axis=1) > np.maximum(err, DOMAIN_EPS))
    regular = ~inside & (_reference_coalescence(y) > COALESCE_TOL)
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


def same_bits(a, b):
    """Equal bit for bit, except that a NaN only has to sit where the other's does."""
    a = np.ascontiguousarray(a).view(np.float64)
    b = np.ascontiguousarray(b).view(np.float64)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


# Small exact values tie pivot magnitudes (|1| = |-1| = |1j|) and make zero
# pivots; the others are generic.
TIES = np.array([0j, 1 + 0j, -1 + 0j, 1j, -1j, 2 + 0j, 0.5 - 0.5j, 1 + 1j])
ENTRY = st.one_of(
    st.sampled_from(list(TIES)),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def systems(draw):
    """B systems [J | R] of N equations with r right-hand sides, a share of
    their entries drawn from TIES, and maybe a zero column in one lane."""
    N, B = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    r = draw(st.integers(1, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (B, N, N + r)
    M = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-3, 4, shape)
    tied = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    M[tied] = rng.choice(TIES, size=int(tied.sum()))
    if draw(st.booleans()):
        M[rng.integers(B), :, rng.integers(N)] = 0.0
    return M[:, :, :N], M[:, :, N:]


@settings(max_examples=400, deadline=None)
@given(systems(), st.integers(0, 3))
def test_elimination_matches_batch_first_reference_bitwise(system, spare):
    J, R = system
    B, N, r = R.shape
    with np.errstate(all="ignore"):
        expected = _reference_solve(J.copy(), R.copy())
        M = np.ascontiguousarray(np.concatenate([J, R], axis=2).transpose(1, 2, 0))
        X = _solve(M, N, np.empty((N + r) * B + spare, dtype=complex))
    assert same_bits(X.transpose(2, 0, 1), expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_norms_and_coalescence_match_reference_bitwise(N, B, data):
    v = np.array(data.draw(st.lists(ENTRY, min_size=N * B, max_size=N * B)), dtype=complex).reshape(B, N)
    with np.errstate(all="ignore"):
        assert same_bits(powersum._norms(np.ascontiguousarray(v.T)), _reference_norms(v))
        assert same_bits(powersum._coalescence(np.ascontiguousarray(v.T)), _reference_coalescence(v))


# Endpoint rows: roots in D, points outside it, complex and coalescing ones,
# and copies a hair apart, which must leave the tuple incomplete.
BASE_T = [
    (0.2, 0.5, 0.7),
    (0.1, 0.6, 0.9),
    (1.3, -0.2, 0.4),
    (0.3 + 0.2j, 0.3 - 0.2j, 2.0),
    (0.5, 0.5, 3.0),
    (0.2, 0.5, 0.7 + 1e-9),
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(range(len(BASE_T))),
            st.sampled_from([1.0, -2.0, 0.5j]),
            st.sampled_from([1e-15, 1e-9, 1e-4]),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    st.booleans(),
)
def test_verdict_matches_reference(rows, merged_at_check):
    x_end = np.array([scale * np.array((1.0, *BASE_T[i])) for i, scale, _, _ in rows], dtype=complex)
    err_end = np.array([e for _, _, e, _ in rows])
    x_end[[not arrived for *_, arrived in rows]] = np.nan
    x_check = np.exp(1j * np.arange(len(rows)))[:, None] * np.arange(1.0, 5.0)
    if merged_at_check and len(rows) > 1:
        x_check[1] = x_check[0] + 1e-9
    assert _verdict(x_check, x_end, err_end) == _reference_verdict(x_check, x_end, err_end)


# (4, 4) tuples: a double-root-only one, two with roots only outside D, two
# realized ones.
SCHEDULE_TUPLES = [(2, -1, 1), (3, -2, 2), (4, -3, 1), (2, -5, 5), (5, -5, 5)]


@pytest.fixture(scope="module")
def default_schedule():
    return solve_power_sums(SCHEDULE_TUPLES)


@pytest.mark.parametrize("path_batch", [1, 7, None])
@pytest.mark.parametrize("settle_batch", [1, 7, None])
def test_results_do_not_depend_on_the_schedule(monkeypatch, default_schedule, path_batch, settle_batch):
    if path_batch is not None:
        monkeypatch.setattr(powersum, "PATH_BATCH", path_batch)
    if settle_batch is not None:
        monkeypatch.setattr(powersum, "SETTLE_BATCH", settle_batch)
    assert solve_power_sums(SCHEDULE_TUPLES) == default_schedule


def test_results_do_not_depend_on_the_tuple_order(default_schedule):
    order = np.random.default_rng(7).permutation(len(SCHEDULE_TUPLES))
    shuffled = solve_power_sums([SCHEDULE_TUPLES[i] for i in order])
    assert shuffled == [default_schedule[i] for i in order]
    assert [s.complete for s in default_schedule] == [True] * len(SCHEDULE_TUPLES)
    assert [len(s.roots) for s in default_schedule] == [0, 0, 0, 1, 1]
    assert default_schedule[0].margin is None and math.isfinite(default_schedule[1].margin)


@pytest.mark.parametrize("merged_at_check", [None, (0, 119), (64, 63)])
@pytest.mark.parametrize("repeated_end", [None, (2, 117), (119, 0)])
@pytest.mark.parametrize("block", [None, 1, 50 * 120 * 6])
def test_verdict_in_row_blocks_matches_one_block(monkeypatch, merged_at_check, repeated_end, block):
    # P = 120 endpoints, the path count at s = 6: roots in D, real points
    # outside it, complex and coalescing ones. The pairwise gaps are taken
    # GAP_BLOCK differences at a time: one row of the gap matrix, 50 rows of
    # the check points' (120 x 6 coordinates each), or all rows at once.
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0.05, 0.95, (120, 5)), axis=1).astype(complex)
    t[30:60] += rng.uniform(-1.0, 1.0, (30, 5))
    t[60:90] += 1j * rng.uniform(0.1, 1.0, (30, 5))
    t[90:100, 1] = t[90:100, 0]
    x_end = rng.uniform(0.5, 2.0, 120)[:, None] * np.concatenate([np.ones((120, 1)), t], axis=1)
    err_end = np.full(120, 1e-14)
    x_check = rng.standard_normal((120, 6)) + 1j * rng.standard_normal((120, 6))
    if merged_at_check:
        i, j = merged_at_check
        x_check[i] = x_check[j] + 1e-9
    if repeated_end:
        i, j = repeated_end
        x_end[i] = x_end[j] * 3.0
    expected = _reference_verdict(x_check, x_end, err_end)
    assert len(expected.roots) >= 20 and expected.complete == (not merged_at_check and not repeated_end)
    if block is not None:
        monkeypatch.setattr(powersum, "GAP_BLOCK", block)
    assert _verdict(x_check, x_end, err_end) == expected

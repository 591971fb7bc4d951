"""Forward ratio map, analytic Jacobian, the partial-sum rule, and Newton,
continuation and closed-form inversion."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fewdist import (
    forward_K,
    forward_K_full,
    invert_K,
    invert_auto,
    invert_s3_closed,
    jacobian,
    jacobian_det_closed,
)
from fewdist import inverse
from fewdist.errors import InvalidSignError, NoSolutionError, ParameterError, SingularTupleError
from fewdist.inverse import InversionResult, no_preimage
from fewdist.lagrange import check_sign_pattern, lagrange_basis, lagrange_weights


def sample_interior(rng, s, gap=1e-2):
    while True:
        t = np.sort(rng.random(s - 1))
        padded = np.concatenate(([0.0], t, [1.0]))
        if np.min(np.diff(padded)) >= gap:
            return t


def fd_jacobian(t, h=1e-7):
    n = t.size
    out = np.empty((n, n))
    for j in range(n):
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        out[:, j] = (forward_K(tp) - forward_K(tm)) / (2 * h)
    return out


class TestForwardMap:
    def test_known_values(self):
        assert forward_K(np.array([1 / 3, 2 / 3])) == pytest.approx([3.0, -3.0], abs=1e-12)
        assert forward_K(np.array([0.5, 0.75])) == pytest.approx([6.0, -8.0], abs=1e-12)
        assert forward_K(np.array([0.5])) == pytest.approx([2.0], abs=1e-15)

    def test_full_map_sums_to_one(self):
        rng = np.random.default_rng(1)
        for s in range(2, 7):
            for _ in range(50):
                t = sample_interior(rng, s)
                assert math.fsum(forward_K_full(t)) == pytest.approx(1.0, abs=1e-10)

    def test_sign_pattern(self):
        rng = np.random.default_rng(2)
        for s in range(2, 7):
            for _ in range(50):
                k = forward_K(sample_interior(rng, s))
                assert np.array_equal(np.sign(k), [(-1.0) ** i for i in range(s - 1)])

    def test_leading_ratio_exceeds_one(self):
        rng = np.random.default_rng(3)
        for s in range(2, 7):
            for _ in range(50):
                assert forward_K(sample_interior(rng, s))[0] > 1.0

    def test_rows_match_single_points_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for s in range(2, 7):
            rows = np.array([sample_interior(rng, s) for _ in range(20)])
            K = forward_K(rows)
            assert K.shape == rows.shape
            assert all(same_bits(K[i], forward_K(row)) for i, row in enumerate(rows))
            with pytest.raises(ParameterError):
                forward_K(np.vstack([rows, [np.linspace(0.0, 0.5, s - 1)]]))
        with pytest.raises(ParameterError):
            jacobian_det_closed(rows)

    @pytest.mark.parametrize("rows", [None, 1, 3, 4096])
    def test_weights_are_the_lagrange_basis_bit_for_bit(self, rows):
        # One s x rows slab per node against lagrange_basis, one call per
        # L_i, on s = 2..12: the forward map's rows of nodes (t, 1) at 0,
        # and with rows None also the ratios' one list of nodes at 0 and at 1.
        rng = np.random.default_rng(12)
        for s in range(2, 13):
            t = np.sort(rng.random((s - 1,) if rows is None else (rows, s - 1)), axis=-1)
            nodes = np.concatenate([t, np.ones((*t.shape[:-1], 1))], axis=-1)
            calls = [(nodes, 0.0)]
            if rows is None:
                values = np.sort(rng.uniform(-1.0, 1.0, size=s)).tolist()
                calls += [(values, 0.0), (values, 1.0)]
            for v, x0 in calls:
                columns = np.moveaxis(np.asarray(v), -1, 0)
                at = np.full(columns.shape[1:], x0)
                want = np.stack([lagrange_basis(columns, i, at) for i in range(s)], axis=-1)
                got = lagrange_weights(v, x0)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (s, rows, x0)

    @pytest.mark.parametrize(
        "bad", [[0.5, 0.4], [0.0, 0.5], [0.5, 1.0], [-0.1], [0.3, 0.3]]
    )
    def test_domain_rejection(self, bad):
        with pytest.raises(ParameterError):
            forward_K(np.asarray(bad, dtype=float))


def _reference_weights(arr):
    """The one-tuple forward map the row code replaced: L_i(0) on the nodes
    v = (t, 1), each a product over ascending j != i of (0 - v_j) / (v_i - v_j)."""
    nodes = arr.tolist() + [1.0]
    weights = []
    for i, vi in enumerate(nodes):
        w = 1.0
        for j, vj in enumerate(nodes):
            if j != i:
                w *= (0.0 - vj) / (vi - vj)
        weights.append(w)
    return np.array(weights)


def jacobian_loop(t):
    """The entry-by-entry Jacobian that jacobian() replaced, kept as the
    reference for its operation order."""
    arr = np.asarray(t, dtype=float)
    s1 = arr.size
    full = np.append(arr, 1.0)
    K = _reference_weights(arr)[:-1]
    diff = full[:, None] - full[None, :]
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    J = np.empty((s1, s1))
    for i in range(s1):
        for j in range(s1):
            if i == j:
                J[i, i] = K[i] * np.sum(inv[:, i])
            else:
                J[i, j] = K[i] * (arr[i] / arr[j]) * inv[i, j]
    return J


def has_gaps(t, gap):
    return np.min(np.diff(np.concatenate(([0.0], t, [1.0])))) >= gap


class TestJacobian:
    @given(st.integers(min_value=2, max_value=6).flatmap(
        lambda s: st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=s - 1, max_size=s - 1)
    ))
    @settings(max_examples=300)
    def test_matches_loop_bit_for_bit(self, values):
        t = np.sort(np.array(values))
        assume(has_gaps(t, 1e-9))
        assert np.array_equal(jacobian(t), jacobian_loop(t))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for s in range(2, 7):
            for _ in range(25):
                t = sample_interior(rng, s)
                J = jacobian(t)
                fd = fd_jacobian(t)
                assert np.linalg.norm(fd - J) <= 1e-6 * np.linalg.norm(J)

    def test_det_closed_known_value(self):
        t = np.array([0.25, 0.5])
        assert jacobian_det_closed(t) == pytest.approx(-256.0 / 9.0, rel=1e-12)
        assert np.linalg.det(jacobian(t)) == pytest.approx(-256.0 / 9.0, rel=1e-9)

    def test_det_closed_matches_numeric(self):
        rng = np.random.default_rng(5)
        for s in range(2, 7):
            for _ in range(50):
                t = sample_interior(rng, s)
                closed = jacobian_det_closed(t)
                assert np.linalg.det(jacobian(t)) == pytest.approx(closed, rel=1e-9)

    def test_det_never_vanishes(self):
        rng = np.random.default_rng(6)
        for s in range(2, 7):
            for _ in range(50):
                assert jacobian_det_closed(sample_interior(rng, s)) != 0.0


def exact_K(t):
    """K_1..K_s at the rational point t, in Fractions."""
    nodes = [*t, Fraction(1)]
    return [
        math.prod(tj / (tj - ti) for j, tj in enumerate(nodes) if j != i) for i, ti in enumerate(nodes)
    ]


rational_points = st.integers(min_value=2, max_value=9).flatmap(
    lambda s: st.sets(
        st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda x: 0 < x < 1),
        min_size=s - 1,
        max_size=s - 1,
    ).map(sorted)
)


ON_D = "strictly on the domain; "


class TestPartialSumRule:
    """no_preimage(k) is None exactly on P = { (-1)**(a-1) (S_a - 1) > 0 }."""

    @given(rational_points)
    @settings(max_examples=200, deadline=None)
    def test_exact_images_lie_strictly_in_P(self, t):
        K = exact_K(t)
        assert sum(K) == 1
        assert no_preimage(K[:-1]) is None
        for a in range(1, len(K)):
            assert (-1) ** (a - 1) * (sum(K[:a]) - 1) > 0

    @pytest.mark.parametrize(
        "k, note",
        [
            # a = 1: the k_1 <= 1 rule, in its former words.
            ((1, -1, 2), "K_1 > 1 strictly on the domain; k_1 = 1 has no preimage"),
            # S_2 = 1 exactly: a limit point of K(D), so only a strict test rejects it.
            ((5, -4, 1, -2), "K_1 + ... + K_2 < 1 " + ON_D + "k_1 + ... + k_2 = 1 has no preimage"),
            # S_2 > 1.
            ((3,) + (-1, 1) * 5, "K_1 + ... + K_2 < 1 " + ON_D + "k_1 + ... + k_2 = 2 has no preimage"),
            # Only an odd a > 1 is violated: S_3 = 1, S_5 = 1, or S_3 = 3/4 in floats.
            ((3, -3, 1, -1), "K_1 + ... + K_3 > 1 " + ON_D + "k_1 + ... + k_3 = 1 has no preimage"),
            ((3, -3, 2, -2, 1, -1), "K_1 + ... + K_5 > 1 " + ON_D + "k_1 + ... + k_5 = 1 has no preimage"),
            ((2.0, -1.5, 0.25), "K_1 + ... + K_3 > 1 " + ON_D + "k_1 + ... + k_3 = 3/4 has no preimage"),
            # Only a = s - 1, the sign of k_s, is violated: S_4 = 1 at s = 6.
            ((2, -6, 6, -1, 8), "K_1 + ... + K_4 < 1 " + ON_D + "k_1 + ... + k_4 = 1 has no preimage"),
        ],
    )
    def test_names_the_first_violated_partial_sum(self, k, note):
        assert no_preimage(k) == note

    @pytest.mark.parametrize("k", [(2,), (3, -3), (6, -8), (3, -3, 3), (2, -5, 5), (4, -6, 4, -2)])
    def test_accepts_tuples_in_P(self, k):
        assert no_preimage(k) is None
        assert invert_K(np.array(k, dtype=float)).success

    @pytest.mark.parametrize(
        "s, a", [(s, a) for s in range(2, 8) for a in range(1, s)], ids=lambda v: str(v)
    )
    def test_each_partial_sum_bounds_P(self, s, a):
        # Partial sums 3, -1, 3, -1, ... lie in P; S_a alone is moved onto
        # 1, past it, or kept on its side: only the last is in P.
        def with_sum_at_a(value):
            sums = [3.0 if b % 2 else -1.0 for b in range(1, s)]
            sums[a - 1] = value
            return np.diff(sums, prepend=0.0)

        inside, past = (1.5, 0.5) if a % 2 else (0.5, 1.5)
        sums = "K_1" if a == 1 else f"K_1 + ... + K_{a}"
        side = ">" if a % 2 else "<"
        for value, shown in ((1.0, "1"), (past, str(Fraction(past)))):
            k = with_sum_at_a(value)
            note = f"{sums} {side} 1 {ON_D}{sums.lower()} = {shown} has no preimage"
            assert no_preimage(k) == note
            # S_a = 1 is a limit point of K(D), which Newton may come within
            # its tolerance of: invert_K decides by the rule before Newton.
            res = invert_K(k)
            assert not res.success and res.method == "no_preimage"
        k = with_sum_at_a(inside)
        assert no_preimage(k) is None
        res = invert_K(k)
        assert res.success
        assert np.max(np.abs(forward_K(res.t) - k)) <= 1e-10 * max(1.0, np.max(np.abs(k)))

    def test_float_sums_are_exact(self):
        # Both partial sums S_3 round to 1.0 in floats; exactly, the first
        # exceeds 1 and the second falls short of it.
        assert 1.5 - 0.6 + 0.1 == 1.7 - 0.9 + 0.2 == 1.0
        assert no_preimage((1.5, -0.6, 0.1)) is None
        assert no_preimage((1.7, -0.9, 0.2)).startswith("K_1 + ... + K_3 > 1 strictly on the domain")


class TestNewtonInversion:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_round_trip(self, s):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = sample_interior(rng, s)
            res = invert_K(forward_K(t))
            assert res.success
            assert np.max(np.abs(np.asarray(res.t) - t)) < 1e-8

    def test_large_ratio_round_trip(self):
        t = np.array([0.5, 0.501])
        res = invert_K(forward_K(t))
        assert res.success
        assert np.max(np.abs(np.asarray(res.t) - t)) < 1e-8

    def test_unreachable_target_reports_failure(self):
        # K_1 > 1 holds strictly on the domain, so k = (1,) has no preimage.
        res = invert_K(np.array([1.0]))
        assert not res.success
        assert res.residual > 0.0
        assert res.method == "no_preimage"

    def test_sign_validation(self):
        with pytest.raises(InvalidSignError):
            invert_K(np.array([-2.0]))
        with pytest.raises(InvalidSignError):
            invert_K(np.array([2.0, 3.0]))
        with pytest.raises(InvalidSignError):
            invert_K(np.array([2.0, 0.0]))

    @pytest.mark.parametrize(
        "k",
        [[math.inf, -1.0], [2.0, math.nan], [2.0, -math.inf], [math.nan, -1.0], [3.0, -3.0, math.inf]],
    )
    def test_non_finite_ratios_are_refused(self, k):
        with pytest.raises(ParameterError, match="k must be finite"):
            check_sign_pattern(k)
        with pytest.raises(ParameterError, match="k must be finite"):
            invert_auto(k)

    def test_single_start_still_converges_on_easy_case(self, monkeypatch):
        # The default start alone decides (3, -3): the continuation is never run.
        def no_continuation(*args):
            raise AssertionError(f"continuation asked for {args}")

        monkeypatch.setattr(inverse, "_continue", no_continuation)
        res = invert_K(np.array([3.0, -3.0]))
        assert res.success and res.start_index == 0 and res.method == "newton"

    def test_no_preimage_is_decided_by_the_rule_at_every_s(self):
        # k_1 + ... + k_4 = 1 at s = 6, and k_1 + k_2 = 2 at s = 12.
        for k in ([2, -6, 6, -1, 8], [3] + [-1, 1] * 5):
            res = invert_K(np.array(k, dtype=float))
            assert not res.success and res.method == "no_preimage"

    def test_continuation_fails_cleanly(self, monkeypatch):
        # A corrector that never converges halves the step down to MIN_STEP.
        newton = inverse._newton
        monkeypatch.setattr(inverse, "_newton", lambda k, t, tol, its: newton(k, t, -1.0, min(its, 1)))
        t = np.array([0.1235, 0.2873, 0.2889])
        res = inverse._continue(forward_K(t), inverse.DEFAULT_TOL_RES, 100)
        assert not res.success and res.method == "continuation"
        assert np.isfinite(res.residual) and res.residual > 0.0


    def test_result_serialization(self):
        d = invert_K(np.array([2.0])).to_dict()
        assert set(d) == {
            "success",
            "t",
            "residual",
            "iterations",
            "start_index",
            "method",
            "branches",
        }
        assert d["success"] and d["t"] == [0.5]


# Default-start failures of a stress set: 2,000 points t of D per s = 3..12,
# every gap (0 and 1 included) at least 1e-3, drawn by sorting
# np.random.default_rng(5).random(s - 1) and keeping the points that qualify.
# Newton from the default start fails on 56 of their images K(t); the
# continuation inverts all 56. These are six of them, from s = 3 to 12 and
# |k| up to 2.8e12, with a tight pair near t = 0.288 that Newton at
# t_i = i/4 does not invert.
CONTINUATION_CASES = [
    [0.1235, 0.2873, 0.2889],
    [0.1760530431912667, 0.17799460385488652],
    [0.08132127560642088, 0.10061441112560321, 0.10275913142405535, 0.1086975293077499,
     0.3935595468460552, 0.7357840124919083, 0.9059771653222297],
    [0.022372326115435603, 0.10099315318732838, 0.1426246390045246, 0.1844032847403172,
     0.18565941102511452, 0.23214538148427988, 0.23856211372574398, 0.618502174957759,
     0.7079957447129502],
    [0.6077649167121827, 0.6204842553527964, 0.851023283728938, 0.8520323418487726,
     0.8801171714445335, 0.8814670464901162, 0.9013447321229192, 0.9176222261706796,
     0.9601165405378891, 0.9971197542686863],
    [0.0073532527276396475, 0.06996855456212625, 0.1150198152355476, 0.21198232247709292,
     0.3055871665889419, 0.3071296698560346, 0.3097804883509171, 0.34631374011850524,
     0.5595186012121349, 0.5958257999604021, 0.7730333594927737],
    # Three more of the same kind, at the sizes above leave out (s = 6, 7, 9).
    [0.0022859789189788593, 0.8930607519742237, 0.8995648359608155, 0.9626518987619347,
     0.9816872983219613],
    [0.041209850179512286, 0.5337997189186628, 0.5362267204388502, 0.6535439616905504,
     0.827684717786648, 0.9574887923797216],
    [0.001586257017490933, 0.28631255845576886, 0.4350967385140402, 0.4497944290285968,
     0.4611674403746019, 0.5587435365971047, 0.6475790010594709, 0.788487801100912],
]


def default_start_newton(k):
    """Newton from the default start alone on the tuple k."""
    row = k[None]
    start = inverse._default_start(row)
    return inverse._results(*inverse._newton(row, start, inverse.DEFAULT_TOL_RES, 100))[0]


class TestContinuation:
    @pytest.mark.parametrize("t", CONTINUATION_CASES, ids=lambda t: f"s{len(t) + 1}")
    def test_inverts_default_start_failures_to_their_t(self, t):
        t = np.array(t)
        k = forward_K(t)
        assert not default_start_newton(k).success
        res = invert_K(k)
        assert res.success and res.method == "continuation"
        # Within 1e-8, or within the move of t that rounding k to doubles
        # alone can cause (6e-8 for the s = 12 case).
        eps = np.finfo(float).eps
        rounding = np.max(np.abs(np.linalg.inv(jacobian(t)))) * t.size * np.max(np.abs(k)) * eps
        assert np.max(np.abs(np.asarray(res.t) - t)) <= max(1e-8, rounding)

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=11
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_log_sums_map_R_into_P(self, u):
        # Every point of the continuation's segment is a tuple of P, with the
        # sign pattern, and its coordinates come back.
        u = np.array(u)
        k = inverse._from_log_sums(u)
        assert no_preimage(k) is None
        check_sign_pattern(k)
        assert np.allclose(inverse._log_sums(k), u, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 8])
    def test_log_sums_round_trip_on_images(self, s):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = forward_K(sample_interior(rng, s))
            back = inverse._from_log_sums(inverse._log_sums(k))
            assert np.allclose(back, k, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("s", [2, 3, 5, 8])
    def test_agrees_with_the_default_start_where_both_converge(self, s):
        rng = np.random.default_rng(3)
        for _ in range(5):
            k = forward_K(sample_interior(rng, s, gap=5e-2))
            first = default_start_newton(k)
            res = inverse._continue(k, inverse.DEFAULT_TOL_RES, 100)
            assert first.success and res.success and res.method == "continuation"
            assert res.iterations >= first.iterations > 0
            assert np.max(np.abs(np.asarray(res.t) - np.asarray(first.t))) < 1e-9


class TestClosedForm:
    def test_mixed_branches(self):
        res = invert_s3_closed(6.0, -8.0)
        assert res.t == pytest.approx((0.5, 0.75), abs=1e-12)
        assert res.branches == ("+", "-")
        # The InversionResult invert_auto returns, with the keys invert prints.
        assert res == invert_auto([6.0, -8.0])
        assert (res.success, res.iterations, res.start_index, res.method) == (True, 0, -1, "closed_form")
        assert list(res.to_dict()) == ["success", "t", "residual", "iterations", "start_index", "method", "branches"]

    def test_round_trip_against_newton(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = sample_interior(rng, 3)
            k = forward_K(t)
            res = invert_s3_closed(float(k[0]), float(k[1]))
            assert np.max(np.abs(np.asarray(res.t) - t)) < 1e-9
            assert res == invert_auto(k)

    def test_singular_diagonal(self):
        # k1 + k2 = 0 collapses the quadratic; the formula cannot apply.
        with pytest.raises(SingularTupleError):
            invert_s3_closed(3.0, -3.0)

    def test_no_real_solution(self):
        with pytest.raises(NoSolutionError):
            invert_s3_closed(1.0, -2.0)


class TestAutoInversion:
    def test_uses_closed_form_for_three_classes(self):
        res = invert_auto([6.0, -8.0])
        assert res.method == "closed_form"
        assert res.t == pytest.approx((0.5, 0.75), abs=1e-12)
        assert res.branches == ("+", "-")

    def test_falls_back_to_newton_when_singular(self):
        res = invert_auto([3.0, -3.0])
        assert res.method == "newton"
        assert res.success
        assert res.t == pytest.approx((1 / 3, 2 / 3), abs=1e-10)

    def test_newton_for_other_sizes(self):
        res = invert_auto([2.0])
        assert res.method == "newton" and res.success


# The one-tuple damped Newton that the row code replaced, kept as the
# reference for its operations: its Jacobian, its projection into D and its
# loop over the backtracking scales.


def _reference_jacobian(arr):
    s1 = arr.size
    full = np.append(arr, 1.0)
    K = _reference_weights(arr)[:-1]
    diff = full[:, None] - full[None, :]
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    J = K[:, None] * (arr[:, None] / arr[None, :]) * inv[:s1, :s1]
    J[np.diag_indices(s1)] = K * np.sum(np.ascontiguousarray(inv.T), axis=1)[:s1]
    return J


def _reference_project(t):
    out = np.clip(t, inverse.PROJECT_GAP, 1.0 - inverse.PROJECT_GAP)
    for i in range(1, out.size):
        if out[i] < out[i - 1] + inverse.PROJECT_GAP:
            out[i] = out[i - 1] + inverse.PROJECT_GAP
    if out[-1] > 1.0 - inverse.PROJECT_GAP:
        out[-1] = 1.0 - inverse.PROJECT_GAP
        for i in range(out.size - 2, -1, -1):
            if out[i] > out[i + 1] - inverse.PROJECT_GAP:
                out[i] = out[i + 1] - inverse.PROJECT_GAP
    return out


def _reference_newton(target, start, start_index, tol_res, max_iter, jacobian_of=_reference_jacobian):
    res_scale = max(1.0, float(np.max(np.abs(target))))
    t = _reference_project(np.asarray(start, dtype=float))
    residual_vec = _reference_weights(t)[:-1] - target
    residual = float(np.max(np.abs(residual_vec))) / res_scale
    iterations = 0
    stalled = 0
    while residual > tol_res and iterations < max_iter and stalled < 3:
        iterations += 1
        J = jacobian_of(t)
        try:
            step = np.linalg.solve(J, residual_vec)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, residual_vec, rcond=None)
        improved = False
        scale = 1.0
        for _ in range(30):
            candidate = _reference_project(t - scale * step)
            cand_vec = _reference_weights(candidate)[:-1] - target
            cand_res = float(np.max(np.abs(cand_vec))) / res_scale
            if cand_res < residual:
                t, residual_vec, residual = candidate, cand_vec, cand_res
                improved = True
                break
            scale *= 0.5
        stalled = 0 if improved else stalled + 1
    return InversionResult(
        success=residual <= tol_res,
        t=tuple(float(x) for x in t),
        residual=residual,
        iterations=iterations,
        start_index=start_index,
    )


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def newton_rows(draw):
    """(targets, starts) of T rows for s = 2..8: targets K(t) of random
    points of D, some with tight pairs, and sign-patterned tuples, most of
    which have no preimage; starts at the default start, at random points
    of D, or anywhere in [-0.5, 1.5] (projected into D)."""
    s, T = draw(st.integers(2, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = (-1.0) ** np.arange(s - 1)
    targets, starts = [], []
    for _ in range(T):
        kind = draw(st.sampled_from(["image", "tight", "tuple"]))
        if kind == "tuple":
            targets.append(signs * np.round(1.0 + 12.0 * rng.random(s - 1)))
        else:
            t = np.sort(rng.uniform(0.01, 0.99, s - 1))
            if kind == "tight" and s > 2:
                t[1] = t[0] + 10.0 ** rng.uniform(-6, -3)
                t = np.sort(np.minimum(t, 0.999))
            targets.append(_reference_weights(t)[:-1])
        where = draw(st.sampled_from(["default", "inside", "anywhere"]))
        if where == "default":
            starts.append(np.arange(1, s) / s)
        elif where == "inside":
            starts.append(np.sort(rng.random(s - 1)))
        else:
            starts.append(rng.uniform(-0.5, 1.5, s - 1))
    return np.array(targets), np.array(starts)


def assert_rows_match_reference(targets, starts, tol_res, max_iter, jacobian_of=_reference_jacobian):
    t, residual, iterations, success = inverse._newton(targets, starts, tol_res, max_iter)
    for row, (target, start) in enumerate(zip(targets, starts)):
        ref = _reference_newton(target, start, 0, tol_res, max_iter, jacobian_of)
        assert same_bits(t[row], ref.t)
        assert same_bits(residual[row], ref.residual)
        assert iterations[row] == ref.iterations
        assert success[row] == ref.success


class TestRowNewton:
    """inverse._newton runs every row as _reference_newton runs one tuple,
    bit for bit."""

    @given(newton_rows(), st.sampled_from([1e-10, 1e-13, 1e-6, -1.0]), st.sampled_from([0, 1, 4, 30, 100]))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_one_tuple_reference(self, rows, tol_res, max_iter):
        targets, starts = rows
        with np.errstate(all="ignore"):
            assert_rows_match_reference(targets, starts, tol_res, max_iter)

    @given(newton_rows(), st.sampled_from([1e-10, 1e-6]), st.sampled_from([1, 4, 100]))
    @settings(max_examples=40, deadline=None)
    def test_singular_jacobian_rows_take_least_squares(self, rows, tol_res, max_iter):
        # A zero first column wherever t_1 < 0.3 makes LAPACK refuse those
        # rows' systems; they take the least-squares step, the rest solve.
        targets, starts = rows

        def singular(J, t):
            J[t[..., 0] < 0.3, ..., 0] = 0.0
            return J

        jacobian = inverse._jacobian
        try:
            inverse._jacobian = lambda t: singular(jacobian(t), t)
            with np.errstate(all="ignore"):
                assert_rows_match_reference(
                    targets, starts, tol_res, max_iter, lambda t: singular(_reference_jacobian(t), t)
                )
        finally:
            inverse._jacobian = jacobian

    def test_a_batch_with_singular_rows_solves_the_others(self):
        J = np.array([np.eye(2), np.zeros((2, 2)), [[2.0, 1.0], [1.0, 3.0]]])
        vec = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 4.0]])
        steps = inverse._steps(J, vec)
        assert same_bits(steps[0], np.linalg.solve(J[0], vec[0]))
        assert same_bits(steps[1], np.linalg.lstsq(J[1], vec[1], rcond=None)[0])
        assert same_bits(steps[2], np.linalg.solve(J[2], vec[2]))

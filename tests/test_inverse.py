"""Forward ratio map, analytic Jacobian, Newton, closed-form and homotopy inversion."""

import math

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
from fewdist import inverse, powersum
from fewdist.errors import InvalidSignError, NoSolutionError, ParameterError, SingularTupleError
from fewdist.inverse import InversionResult
from fewdist.lagrange import lagrange_weights
from fewdist.powersum import solve_power_sums
from fewdist.search import enumerate_tuples, realize_catalog


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

    @pytest.mark.parametrize(
        "bad", [[0.5, 0.4], [0.0, 0.5], [0.5, 1.0], [-0.1], [0.3, 0.3]]
    )
    def test_domain_rejection(self, bad):
        with pytest.raises(ParameterError):
            forward_K(np.asarray(bad, dtype=float))


def _reference_weights(arr):
    """The one-tuple forward map the row code replaced: L_i(0) on (t, 1)."""
    return np.array(lagrange_weights(arr.tolist() + [1.0], 0.0))


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


def interior_points(gap):
    """Strategy: (s, t) with s = 3..5 and t in D, every gap (0 and 1
    included) at least `gap`."""

    def build(draw_s):
        return st.lists(
            st.floats(min_value=gap, max_value=1.0 - gap), min_size=draw_s - 1, max_size=draw_s - 1
        ).map(lambda xs: (draw_s, np.sort(np.array(xs))))

    return st.integers(min_value=3, max_value=5).flatmap(build)


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

    def test_single_start_still_converges_on_easy_case(self, monkeypatch):
        # The default start alone decides (3, -3): the engine is never asked.
        def no_engine(ks):
            raise AssertionError(f"power-sum engine asked for {ks}")

        monkeypatch.setattr(powersum, "solve_power_sums", no_engine)
        res = invert_K(np.array([3.0, -3.0]))
        assert res.success and res.start_index == 0

    def test_engine_root_starts_newton_when_the_default_start_fails(self):
        # A tight pair near t = 0.288 gives k ~ (3.495, -191.0, 188.5), from
        # which Newton at t_i = i/4 does not converge; the engine's single
        # root in D does.
        t = np.array([0.1235, 0.2873, 0.2889])
        k = forward_K(t)
        assert not _reference_newton(k, np.arange(1, 4) / 4, 0, 1e-10, 100).success
        res = invert_K(k)
        assert res.success and res.method == "newton"
        assert res.start_index >= 1
        assert np.max(np.abs(np.asarray(res.t) - t)) < 1e-8

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


class TestClosedForm:
    def test_mixed_branches(self):
        res = invert_s3_closed(6.0, -8.0)
        assert res.t == pytest.approx((0.5, 0.75), abs=1e-12)
        assert res.branches == ("+", "-")

    def test_round_trip_against_newton(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = sample_interior(rng, 3)
            k = forward_K(t)
            res = invert_s3_closed(float(k[0]), float(k[1]))
            assert np.max(np.abs(np.asarray(res.t) - t)) < 1e-9

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


class TestPowerSumHomotopy:
    """solve_power_sums finds every preimage in D of k = K(t): forward then
    inverse returns t, and nothing else in D (uniqueness)."""

    @given(interior_points(1e-3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_uniqueness(self, case):
        s, t = case
        assume(has_gaps(t, 1e-3))
        k = forward_K(t)
        (solution,) = solve_power_sums([k])
        # Every root reported lies at t; a complete verdict also proves that
        # t is the only preimage. An ill-conditioned cluster may leave the
        # verdict incomplete, which realize_catalog then hands to Newton.
        assert len(solution.roots) <= 1
        if solution.complete:
            assert len(solution.roots) == 1
        # Within 1e-8, or within 100 times the move of t that rounding k to
        # doubles alone can cause (near t = 0 that exceeds 1e-8 for tight
        # clusters, e.g. t = (0.001, 0.002, 0.003, 0.004)).
        eps = np.finfo(float).eps
        rounding = np.max(np.abs(np.linalg.inv(jacobian(t)))) * (s - 1) * np.max(np.abs(k)) * eps
        for root in solution.roots:
            assert np.max(np.abs(np.asarray(root) - t)) <= max(1e-8, 100 * rounding)

    def test_round_trip_rate_on_a_fixed_sample(self):
        rng = np.random.default_rng(20)
        cases = []
        while len(cases) < 150:
            t = np.sort(rng.random(rng.integers(2, 5)))
            if has_gaps(t, 1e-3):
                cases.append(t)
        by_length = {}
        for t in cases:
            by_length.setdefault(t.size, []).append(t)
        exact = 0
        for ts in by_length.values():
            for t, solution in zip(ts, solve_power_sums([forward_K(t) for t in ts])):
                if solution.complete and len(solution.roots) == 1:
                    exact += np.max(np.abs(np.asarray(solution.roots[0]) - t)) <= 1e-8
        assert exact >= 147

    def test_no_preimage_tuples_are_complete_and_rootless(self):
        # Newton failures the ROADMAP names; sympy confirms no real root in D.
        for solution in solve_power_sums([(13, -7, 8), (12, -1, 3), (9, -4, 7)]):
            assert solution.complete
            assert solution.roots == ()
            assert solution.margin > 0.0

    def test_two_distance_tuple(self):
        # F_1 = k_1 t_1 + 1 - k_1 = 0 has the single root t_1 = 1 - 1/k_1.
        (solution,) = solve_power_sums([(4,)])
        assert solution.complete
        (root,) = solution.roots
        assert root == pytest.approx((0.75,), abs=1e-12)

    def test_repeats_exactly(self):
        ks = [(3, -4, 2), (2, -1, 1), (4, -2, 3)]
        assert solve_power_sums(ks) == solve_power_sums(ks)

    def test_sign_validation(self):
        with pytest.raises(InvalidSignError):
            solve_power_sums([(2, 3)])
        assert solve_power_sums([]) == []


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

    def test_engine_gets_only_the_tuples_the_default_start_leaves(self, monkeypatch):
        asked = []
        solve = powersum.solve_power_sums

        def recorder(ks):
            asked.extend(ks)
            return solve(ks)

        monkeypatch.setattr(powersum, "solve_power_sums", recorder)
        catalog = realize_catalog(enumerate_tuples(4, 4))
        default = np.arange(1, 4) / 4
        left = [
            e.k
            for e in catalog.entries
            if e.k[0] > 1 and not _reference_newton(np.array(e.k, dtype=float), default, 0, 1e-10, 100).success
        ]
        assert len(left) == 40
        assert asked == left

"""Realizability and congruence tests.

Oracles worth noting:
  * the 3x3 squared-distance matrix with entries (1, 1, 9) violates the
    triangle inequality (1 + 1 < 3), so its double centering has a negative
    eigenvalue and no Euclidean realization exists in any dimension;
  * the rulers {0,1,4,10,12,17} and {0,1,8,11,13,17} share the same multiset
    of 15 pairwise distances yet are not congruent, which forces the
    congruence test past its multiset filter into the actual search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdist import (
    InputError,
    PointSet,
    congruent,
    euclidean_embeddable,
    spherical_embeddable,
)
from fewdist.embed import check_squared_distance_matrix, double_center
from fewdist.errors import ParameterError, SizeMismatchError
from fewdist.pointset import squared_distance_matrix

# 1 + 1 < 3: no metric realization at all.
TRIANGLE_VIOLATION = np.array(
    [
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 9.0],
        [1.0, 9.0, 0.0],
    ]
)

RULER_A = [0.0, 1.0, 4.0, 10.0, 12.0, 17.0]
RULER_B = [0.0, 1.0, 8.0, 11.0, 13.0, 17.0]


def line_set(marks):
    return PointSet(dimension=1, points=np.asarray(marks, dtype=float).reshape(-1, 1))


class TestMatrixValidation:
    def test_accepts_and_symmetrizes(self):
        arr = check_squared_distance_matrix([[0.0, 2.0], [2.0, 0.0]])
        assert arr.shape == (2, 2)
        assert np.array_equal(arr, arr.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError, match="square"):
            check_squared_distance_matrix(np.zeros((2, 3)))

    def test_rejects_single_row(self):
        with pytest.raises(InputError, match="at least 2"):
            check_squared_distance_matrix(np.zeros((1, 1)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="symmetric"):
            check_squared_distance_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError, match="diagonal"):
            check_squared_distance_matrix([[1.0, 2.0], [2.0, 0.0]])

    def test_rejects_nonpositive_off_diagonal(self):
        with pytest.raises(InputError, match="positive"):
            check_squared_distance_matrix([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError, match="positive"):
            check_squared_distance_matrix([[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, entry):
        matrix = [[0.0, entry], [entry, 0.0]]
        with pytest.raises(InputError, match="matrix entries must be finite"):
            check_squared_distance_matrix(matrix)
        with pytest.raises(InputError, match="matrix entries must be finite"):
            euclidean_embeddable(matrix, 2)


class TestDoubleCentering:
    def test_two_points(self):
        # Distance 2 about the midpoint: coordinates +-1, Gram [[1,-1],[-1,1]].
        G = double_center(np.array([[0.0, 4.0], [4.0, 0.0]]))
        assert np.allclose(G, [[1.0, -1.0], [-1.0, 1.0]])

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_sums_vanish(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.1, 5.0, size=(n, n))
        C = (raw + raw.T) / 2.0
        np.fill_diagonal(C, 0.0)
        G = double_center(C)
        assert np.max(np.abs(G.sum(axis=0))) < 1e-10
        assert np.max(np.abs(G.sum(axis=1))) < 1e-10
        assert np.max(np.abs(G - G.T)) == 0.0

    def test_gram_of_centered_points(self, johnson_10_3):
        pts = johnson_10_3.points - johnson_10_3.points.mean(axis=0)
        G = double_center(squared_distance_matrix(johnson_10_3))
        assert np.allclose(G, pts @ pts.T, atol=1e-9)


class TestEuclideanEmbeddable:
    def test_johnson_fits_in_its_affine_dimension(self, johnson_10_3):
        D2 = squared_distance_matrix(johnson_10_3)
        verdict = euclidean_embeddable(D2, 10)
        assert verdict.embeddable is True
        assert verdict.minimal_dimension == 10
        assert verdict.requested_dimension == 10
        assert verdict.realization is not None
        assert verdict.realization.dimension == 10

    def test_johnson_rejected_one_dimension_short(self, johnson_10_3):
        D2 = squared_distance_matrix(johnson_10_3)
        verdict = euclidean_embeddable(D2, 9)
        assert verdict.embeddable is False
        assert verdict.minimal_dimension == 10
        assert verdict.realization is None

    def test_realization_is_congruent(self, johnson_10_3):
        D2 = squared_distance_matrix(johnson_10_3)
        verdict = euclidean_embeddable(D2, 10)
        assert congruent(johnson_10_3, verdict.realization) is True

    def test_realization_reproduces_distances(self, icosahedron):
        D2 = squared_distance_matrix(icosahedron)
        verdict = euclidean_embeddable(D2, 3)
        assert verdict.embeddable is True
        assert np.allclose(squared_distance_matrix(verdict.realization), D2, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_triangle_violation_never_embeds(self, d):
        verdict = euclidean_embeddable(TRIANGLE_VIOLATION, d)
        assert verdict.embeddable is False
        assert verdict.eigenvalue_slack < -0.5
        assert verdict.realization is None

    def test_collinear_marks_have_minimal_dimension_one(self):
        marks = line_set(RULER_A)
        verdict = euclidean_embeddable(squared_distance_matrix(marks), 3)
        assert verdict.embeddable is True
        assert verdict.minimal_dimension == 1

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_point_sets_round_trip(self, n, d, seed):
        rng = np.random.default_rng(seed)
        pts = PointSet(dimension=d, points=rng.standard_normal((n, d)))
        D2 = squared_distance_matrix(pts)
        verdict = euclidean_embeddable(D2, d)
        assert verdict.embeddable is True
        assert verdict.minimal_dimension <= min(d, n - 1)
        assert np.allclose(squared_distance_matrix(verdict.realization), D2, atol=1e-8)


    def test_rejects_a_negative_dimension(self, icosahedron):
        # d = 0 is still a verdict; a negative d is a bad parameter.
        D2 = squared_distance_matrix(icosahedron)
        assert euclidean_embeddable(D2, 0).embeddable is False
        gram = icosahedron.points @ icosahedron.points.T
        assert spherical_embeddable(gram, 0).embeddable is False
        for check, matrix in ((euclidean_embeddable, D2), (spherical_embeddable, gram)):
            with pytest.raises(ParameterError, match="d must be >= 0, got -1"):
                check(matrix, -1)


class TestSphericalEmbeddable:
    def test_e8_gram_on_seven_sphere(self, e8):
        gram = e8.points @ e8.points.T
        assert spherical_embeddable(gram, 8).embeddable is True
        assert spherical_embeddable(gram, 7).embeddable is False

    def test_realization_lands_on_unit_sphere(self, icosahedron):
        gram = icosahedron.points @ icosahedron.points.T
        verdict = spherical_embeddable(gram, 3)
        assert verdict.embeddable is True
        assert verdict.minimal_dimension == 3
        norms = np.linalg.norm(verdict.realization.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(InputError, match="unit diagonal"):
            spherical_embeddable(np.array([[2.0, 0.0], [0.0, 2.0]]), 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="symmetric"):
            spherical_embeddable(np.array([[1.0, 0.3], [0.2, 1.0]]), 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError, match="square"):
            spherical_embeddable(np.ones((2, 3)), 2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, entry):
        with pytest.raises(InputError, match="matrix entries must be finite"):
            spherical_embeddable(np.array([[1.0, entry], [entry, 1.0]]), 2)


class TestCongruent:
    def test_rotated_copy(self, hypercube_4):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = PointSet(dimension=4, points=hypercube_4.points @ Q)
        assert congruent(hypercube_4, rotated) is True

    def test_rotated_and_permuted_copy(self, hypercube_4):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        perm = rng.permutation(hypercube_4.n)
        moved = PointSet(dimension=4, points=(hypercube_4.points @ Q)[perm])
        assert congruent(hypercube_4, moved) is True

    def test_homometric_rulers_are_not_congruent(self):
        a, b = line_set(RULER_A), line_set(RULER_B)
        da = np.sort(squared_distance_matrix(a), axis=None)
        db = np.sort(squared_distance_matrix(b), axis=None)
        # Same distance multiset, so only the assignment search can tell.
        assert np.allclose(da, db)
        assert congruent(a, b) is False

    def test_scaled_copy_is_not_congruent(self, pentagon):
        scaled = PointSet(dimension=2, points=pentagon.points * 2.0)
        assert congruent(pentagon, scaled) is False

    def test_dimension_mismatch_is_fine(self, unit_square):
        lifted = np.hstack([unit_square.points, np.zeros((unit_square.n, 1))])
        assert congruent(unit_square, PointSet(dimension=3, points=lifted)) is True

    def test_node_cap_gives_inconclusive(self, hypercube_4):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        perm = rng.permutation(hypercube_4.n)
        moved = PointSet(dimension=4, points=(hypercube_4.points @ Q)[perm])
        assert congruent(hypercube_4, moved, node_cap=1) is None

    def test_size_mismatch_raises(self, pentagon, unit_square):
        with pytest.raises(SizeMismatchError):
            congruent(pentagon, unit_square)

    def test_e8_rotated_copy(self, e8):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        rotated = PointSet(dimension=8, points=e8.points @ Q)
        assert congruent(e8, rotated) is True

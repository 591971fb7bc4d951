"""Point set loading, class profiles, antipodal structure, constructions."""

import io
import json
from math import comb, sqrt

import numpy as np
import pytest

from fewdist import certificate, embed, inverse, ratios
from fewdist import (
    PointSet,
    antipodal_structure,
    construct_johnson,
    construct_named,
    distance_profile,
    half_set,
    inner_product_profile,
    is_antipodal,
    load_points,
)
from fewdist.errors import (
    AmbiguousGroupingError,
    DimensionMismatchError,
    DuplicatePointError,
    InputError,
    NotAntipodalError,
    ParameterError,
    PointFileError,
)
from fewdist.pointset import (
    affine_dimension,
    linear_dimension,
    on_unit_sphere,
    squared_distance_matrix,
)

GOLDEN = (1 + sqrt(5)) / 2


def random_isometry(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shift = rng.standard_normal(d)
    return q, shift


class TestPointSet:
    def test_rejects_single_point(self):
        with pytest.raises(InputError):
            PointSet(dimension=2, points=np.zeros((1, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            PointSet(dimension=1, points=np.array([[0.0], [np.inf]]))

    def test_rejects_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DuplicatePointError):
            PointSet(dimension=2, points=pts)

    def test_rejects_near_duplicates_below_resolution(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-12]])
        with pytest.raises(DuplicatePointError):
            PointSet(dimension=2, points=pts)

    def test_points_are_read_only(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.points[0, 0] = 5.0

    def test_caller_array_stays_writeable(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ps = PointSet(dimension=2, points=x)
        assert x.flags.writeable and ps.points is not x
        x[0, 0] = 5.0
        assert ps.points[0, 0] == 0.0

    def test_label_length_checked(self):
        with pytest.raises(InputError):
            PointSet(dimension=1, points=np.array([[0.0], [1.0]]), labels=("a",))


class TestLoadPoints:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"dimension": 2, "points": [[0, 0], [3, 4]]}))
        ps = load_points(path)
        assert ps.n == 2 and ps.dimension == 2
        assert squared_distance_matrix(ps)[0, 1] == 25.0

    def test_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1,0\n0,1\n")
        ps = load_points(path)
        assert ps.n == 3 and ps.dimension == 2

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0\n1,1\n")
        with pytest.raises(DimensionMismatchError):
            load_points(path)

    def test_points_without_coordinates_rejected(self):
        with pytest.raises(DimensionMismatchError, match="at least one coordinate"):
            PointSet(dimension=0, points=[[], [], []])

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 2, "points": [[0')
        with pytest.raises(PointFileError):
            load_points(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PointFileError):
            load_points(tmp_path / "nope.json")

    def test_format_override(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0,0\n2,0\n")
        ps = load_points(path, fmt="csv")
        assert ps.n == 2

    @pytest.mark.parametrize(
        "source",
        [
            b'{"points": [[0, 0], [3, 4]]}',
            io.StringIO('{"points": [[0, 0], [3, 4]]}'),
            io.BytesIO(b'{"points": [[0, 0], [3, 4]]}'),
        ],
    )
    def test_bytes_and_streams(self, source):
        ps = load_points(source, fmt="json")
        assert ps.n == 2 and ps.dimension == 2
        assert squared_distance_matrix(ps)[0, 1] == 25.0

    @pytest.mark.parametrize("source", [b'{"points": [[0, 0], [3, \xff4]]}', io.BytesIO(b"\xff")])
    def test_non_utf8_input_rejected(self, source):
        with pytest.raises(PointFileError, match="not UTF-8"):
            load_points(source, fmt="json")

    def test_bytes_need_a_format(self):
        with pytest.raises(PointFileError, match="cannot infer format"):
            load_points(b"0,0\n1,0\n")

    @pytest.mark.parametrize(
        "extra,message",
        [
            ('"labels": 5', '"labels" must be an array'),
            ('"labels": "abc"', '"labels" must be an array'),
            ('"labels": {"a": 1}', '"labels" must be an array'),
            ('"dimension": true', '"dimension" must be an integer'),
            ('"dimension": 2.0', '"dimension" must be an integer'),
        ],
    )
    def test_malformed_labels_and_dimension(self, extra, message):
        text = '{"points": [[0, 0], [3, 4]], ' + extra + "}"
        with pytest.raises(PointFileError, match=message):
            load_points(text.encode(), fmt="json")

    def test_labels_array_is_kept(self):
        ps = load_points(b'{"points": [[0, 0], [3, 4]], "labels": ["a", 7]}', fmt="json")
        assert ps.labels == ("a", "7")


class TestDistanceProfile:
    def test_unit_square(self, unit_square):
        dp = distance_profile(unit_square)
        assert dp.s == 2
        assert dp.squared_distances == (1.0, 2.0)
        assert dp.pair_counts == (4, 2)

    def test_johnson_classes(self, johnson_10_3):
        # Pairs with squared distance 2m share all but m of the s chosen slots:
        # per point C(3, 3-m) * C(8, m) neighbours, so the class sizes are
        # 165 * (24, 84, 56) / 2.
        dp = distance_profile(johnson_10_3)
        assert dp.s == 3
        assert dp.squared_distances == (2.0, 4.0, 6.0)
        assert dp.pair_counts == (1980, 6930, 4620)
        assert sum(dp.pair_counts) == comb(165, 2)

    def test_adjacency_partitions_pairs(self, unit_square):
        # The profile's tops split the pairs into its classes, as the
        # indicator matrices read them.
        dp = distance_profile(unit_square)
        adjacency = [certificate.indicator_matrix(unit_square, c + 1, "euclidean").adjacency for c in range(dp.s)]
        total = sum(a.sum() for a in adjacency)
        assert total == 2 * comb(4, 2)
        stacked = np.sum(adjacency, axis=0)
        assert np.array_equal(stacked + np.eye(4, dtype=stacked.dtype), np.ones((4, 4)))

    def test_isometry_invariance(self, johnson_10_3):
        rng = np.random.default_rng(11)
        q, shift = random_isometry(rng, johnson_10_3.dimension)
        moved = PointSet(
            dimension=johnson_10_3.dimension, points=johnson_10_3.points @ q + shift
        )
        a, b = distance_profile(johnson_10_3), distance_profile(moved)
        assert a.pair_counts == b.pair_counts
        assert np.allclose(a.squared_distances, b.squared_distances, rtol=1e-9)
        assert affine_dimension(moved) == affine_dimension(johnson_10_3) == 10

    def test_scaling_scales_distances(self, unit_square):
        doubled = PointSet(dimension=2, points=unit_square.points * 2.0)
        dp = distance_profile(doubled)
        assert dp.squared_distances == (4.0, 8.0)

    def test_overflowing_squared_distances_are_refused(self):
        # 4 max|x_i|^2 is 8e300 at scale 1e150, and not finite at 1e160.
        points = construct_johnson(6, 2).points
        big = PointSet(dimension=7, points=points * 1e150)
        assert distance_profile(big).squared_distances == pytest.approx((2e300, 4e300), rel=1e-12)
        huge = PointSet(dimension=7, points=points * 1e160)
        with pytest.raises(PointFileError, match="squared distances overflow"):
            distance_profile(huge)

    def test_close_classes_flagged_ambiguous(self):
        # Middle value sits 0.5 percent from its neighbour: more than tol but
        # less than the 10x guard band at tol 1e-3.
        x = 1 + sqrt(1.005)
        ps = PointSet(dimension=1, points=np.array([[0.0], [1.0], [x]]))
        with pytest.raises(AmbiguousGroupingError):
            distance_profile(ps, tol=1e-3)
        assert distance_profile(ps, tol=1e-2).s == 2
        assert distance_profile(ps, tol=1e-4).s == 3


class TestSphereAndAntipodal:
    def test_on_unit_sphere(self, e8, johnson_10_3, pentagon):
        assert on_unit_sphere(e8)
        assert on_unit_sphere(pentagon)
        assert not on_unit_sphere(johnson_10_3)

    def test_inner_product_profile_e8(self, e8):
        ipp = inner_product_profile(e8)
        assert ipp.s == 4
        assert np.allclose(ipp.inner_products, (-1.0, -0.5, 0.0, 0.5), atol=1e-12)
        assert ipp.contains_minus_one and ipp.antipodal

    def test_inner_product_profile_icosahedron(self, icosahedron):
        ipp = inner_product_profile(icosahedron)
        assert ipp.s == 3
        assert np.allclose(ipp.inner_products, (-1.0, -1 / sqrt(5), 1 / sqrt(5)), atol=1e-12)

    def test_inner_product_at_one_is_a_duplicate(self):
        # 1e-7 apart passes the point check at 1e-9, but the inner product
        # cos(1e-7) is within 1e-12 of 1.
        ps = PointSet(dimension=2, points=[[1.0, 0.0], [np.cos(1e-7), np.sin(1e-7)]])
        with pytest.raises(DuplicatePointError, match="an inner product class sits at 1"):
            inner_product_profile(ps)

    def test_pentagon_inner_products(self, pentagon):
        ipp = inner_product_profile(pentagon)
        assert ipp.s == 2
        expected = (np.cos(np.deg2rad(144)), np.cos(np.deg2rad(72)))
        assert np.allclose(ipp.inner_products, expected, atol=1e-12)
        assert not ipp.antipodal

    def test_is_antipodal(self, e8, hypercube_4, pentagon, johnson_10_3):
        assert is_antipodal(e8)[0]
        assert is_antipodal(hypercube_4)[0]
        assert not is_antipodal(pentagon)[0]
        assert not is_antipodal(johnson_10_3)[0]

    def test_antipodal_partner_is_involution(self, e8):
        ok, partner = is_antipodal(e8)
        assert ok
        partner = np.asarray(partner)
        assert np.array_equal(partner[partner], np.arange(e8.n))
        assert np.all(partner != np.arange(e8.n))

    def test_half_set_halves_and_covers(self, e8):
        half = half_set(e8)
        assert half.n == e8.n // 2
        rebuilt = {tuple(np.round(p, 9)) for p in half.points}
        rebuilt |= {tuple(np.round(-p, 9)) for p in half.points}
        original = {tuple(np.round(p, 9)) for p in e8.points}
        assert rebuilt == original

    def test_antipodal_structure_even(self, e8):
        st = antipodal_structure(e8)
        assert st.parity == "even" and st.s == 4
        assert np.allclose(st.beta_abs, (0.0, 0.5), atol=1e-12)
        assert st.half.n == 120

    def test_antipodal_structure_hypercube(self, hypercube_4):
        st = antipodal_structure(hypercube_4)
        assert st.parity == "even" and st.s == 4
        assert np.allclose(st.beta_abs, (0.0, 0.5), atol=1e-12)

    def test_antipodal_structure_odd(self, icosahedron):
        st = antipodal_structure(icosahedron)
        assert st.parity == "odd" and st.s == 3
        assert np.allclose(st.beta_abs, (1 / sqrt(5),), atol=1e-12)

    def test_antipodal_structure_rows_are_the_half_set(self, e8, hypercube_4, half_rows):
        # The half set keeps the larger point of each antipodal pair, in the full set's order.
        for ps in (e8, hypercube_4):
            st = antipodal_structure(ps)
            assert np.array_equal(half_set(ps).points, st.half.points)
            rows, partner = half_rows(ps), is_antipodal(ps)[1]
            assert np.all(np.diff(rows) > 0)
            assert sorted([*rows, *partner[rows]]) == list(range(ps.n))
            assert all(tuple(ps.points[i]) > tuple(ps.points[partner[i]]) for i in rows)

    def test_antipodal_structure_needs_one_class_at_minus_one(self):
        # Partners within the 1e-12 antipodal tolerance whose inner products
        # -1, -1 + 4.5e-13 and -1 + 9e-13 are three classes at tol 1e-15:
        # the |beta| classes could not be told from the profile's order.
        eye = np.eye(3)
        shrink = np.array([[1.0], [1.0 - 4.5e-13], [1.0 - 9e-13]])
        ps = PointSet(dimension=3, points=np.vstack([eye, -shrink * eye]))
        assert inner_product_profile(ps, 1e-15).s == 4
        with pytest.raises(NotAntipodalError, match="several inner product classes sit at -1"):
            antipodal_structure(ps, 1e-15)

    def test_antipodal_structure_rejects_plain_sets(self, pentagon, johnson_10_3):
        with pytest.raises((NotAntipodalError, InputError)):
            antipodal_structure(pentagon)
        with pytest.raises((NotAntipodalError, InputError)):
            antipodal_structure(johnson_10_3)


class TestConstructions:
    def test_johnson_shape(self, johnson_10_3):
        assert johnson_10_3.n == comb(11, 3) == 165
        assert johnson_10_3.dimension == 11
        assert affine_dimension(johnson_10_3) == 10

    @pytest.mark.parametrize("d,s", [(4, 2), (7, 2), (9, 4)])
    def test_johnson_distance_values(self, d, s):
        ps = construct_johnson(d, s)
        dp = distance_profile(ps)
        assert dp.s == s
        assert dp.squared_distances == tuple(float(2 * m) for m in range(1, s + 1))
        assert ps.n == comb(d + 1, s)

    def test_johnson_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            construct_johnson(3, 0)
        with pytest.raises(ParameterError):
            construct_johnson(4, 3)  # needs 2s <= d+1

    def test_cross_polytope(self, cross_polytope_4):
        assert cross_polytope_4.n == 8
        assert on_unit_sphere(cross_polytope_4)
        ipp = inner_product_profile(cross_polytope_4)
        assert np.allclose(ipp.inner_products, (-1.0, 0.0), atol=1e-15)

    def test_hypercube(self, hypercube_4):
        assert hypercube_4.n == 16
        assert on_unit_sphere(hypercube_4)
        assert linear_dimension(hypercube_4) == 4

    def test_simplex_has_one_class(self, simplex_5):
        assert simplex_5.n == 6
        dp = distance_profile(simplex_5)
        assert dp.s == 1
        assert on_unit_sphere(simplex_5)
        assert affine_dimension(simplex_5) == 5

    def test_pentagon_distances(self, pentagon):
        dp = distance_profile(pentagon)
        assert dp.s == 2
        # 2 - 2cos(72) and 2 - 2cos(144); the diagonal over side ratio is golden.
        assert np.allclose(dp.squared_distances, (1.3819660113, 3.6180339887), atol=1e-9)
        assert dp.squared_distances[1] / dp.squared_distances[0] == pytest.approx(GOLDEN**2)

    def test_e8_is_even_lattice_frame(self, e8):
        assert e8.n == 240
        assert e8.dimension == 8
        assert linear_dimension(e8) == 8
        # Unnormalized roots have even integer square norms and inner products.
        raw = e8.points * sqrt(2.0)
        g2 = raw @ raw.T * 2  # doubled Gram of half-integer vectors is integral
        assert np.allclose(g2, np.round(g2), atol=1e-9)

    def test_icosahedron(self, icosahedron):
        assert icosahedron.n == 12
        assert on_unit_sphere(icosahedron)
        assert linear_dimension(icosahedron) == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            construct_named("dodecaplex")

    def test_hypercube_size_cap(self):
        with pytest.raises(ParameterError):
            construct_named("hypercube", d=17)

    def test_named_determinism(self):
        a = construct_named("e8_roots")
        b = construct_named("e8_roots")
        assert np.array_equal(a.points, b.points)


# Each library entry point that takes a tolerance, called with value as that
# tolerance on the cross polytope (unit-norm, antipodal, with exact pair
# values). Unchecked, a NaN tol once grouped e8's pairs into one class, -1.0
# into 28,680, and a NaN tol_psd called simplex(4) unembeddable.
TOLERANCE_CALLS = {
    "distance_profile": lambda ps, v: distance_profile(ps, v),
    "inner_product_profile": lambda ps, v: inner_product_profile(ps, v),
    "on_unit_sphere": lambda ps, v: on_unit_sphere(ps, v),
    "is_antipodal": lambda ps, v: is_antipodal(ps, v),
    "half_set": lambda ps, v: half_set(ps, v),
    "antipodal_structure": lambda ps, v: antipodal_structure(ps, v),
    "affine_dimension": lambda ps, v: affine_dimension(ps, v),
    "linear_dimension": lambda ps, v: linear_dimension(ps, v),
    "class_ratios tol": lambda ps, v: ratios.class_ratios(ps, "spherical", v),
    "effective_dimension": lambda ps, v: ratios.effective_dimension(ps, "euclidean", v),
    "applicable_settings tol": lambda ps, v: ratios.applicable_settings(ps, tol=v),
    "applicable_settings tol_rank": lambda ps, v: ratios.applicable_settings(ps, tol_rank=v),
    "analyze tol": lambda ps, v: ratios.analyze(ps, tol=v),
    "analyze tol_int": lambda ps, v: ratios.analyze(ps, tol_int=v),
    "analyze tol_rank": lambda ps, v: ratios.analyze(ps, tol_rank=v),
    "rational_inner_products": lambda ps, v: ratios.rational_inner_products([2.0], [1.0], "odd", v),
    "indicator_matrix tol": lambda ps, v: certificate.indicator_matrix(ps, 1, "euclidean", v),
    "indicator_matrix tol_rank": lambda ps, v: certificate.indicator_matrix(ps, 1, "euclidean", tol_rank=v),
    "numeric_rank": lambda ps, v: certificate.numeric_rank(np.eye(3), v),
    "eigen_multiplicities": lambda ps, v: certificate.eigen_multiplicities(np.eye(3), v),
    "verify_key_lemma tol_int": lambda ps, v: certificate.verify_key_lemma(
        certificate.indicator_matrix(ps, 1, "euclidean"), tol_int=v
    ),
    "verify_key_lemma tol_rank": lambda ps, v: certificate.verify_key_lemma(
        certificate.indicator_matrix(ps, 1, "euclidean"), tol_rank=v
    ),
    "verify_key_lemma cluster_tol": lambda ps, v: certificate.verify_key_lemma(
        certificate.indicator_matrix(ps, 1, "euclidean"), cluster_tol=v
    ),
    "euclidean_embeddable": lambda ps, v: embed.euclidean_embeddable(squared_distance_matrix(ps), 4, v),
    "congruent": lambda ps, v: embed.congruent(ps, ps, tol=v),
    # (6, -8) = K(1/2, 3/4): Newton inverts it, and the closed form for s = 3.
    "invert_rows tol_res": lambda ps, v: inverse.invert_rows([[6.0, -8.0]], tol_res=v),
    "invert_rows max_iter": lambda ps, v: inverse.invert_rows([[6.0, -8.0]], max_iter=v),
    "invert_K tol_res": lambda ps, v: inverse.invert_K([6.0, -8.0], tol_res=v),
    "invert_K max_iter": lambda ps, v: inverse.invert_K([6.0, -8.0], max_iter=v),
    "invert_auto tol_res": lambda ps, v: inverse.invert_auto([6.0, -8.0], tol_res=v),
    "invert_auto max_iter": lambda ps, v: inverse.invert_auto([6.0, -8.0], max_iter=v),
    "spherical_embeddable": lambda ps, v: embed.spherical_embeddable(ps.points @ ps.points.T, 4, v),
}


class TestLibraryTolerances:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("call", TOLERANCE_CALLS)
    def test_nan_infinities_and_negatives_are_refused(self, call, value):
        # A fresh set each time, so no memoized profile answers first.
        ps = construct_named("cross_polytope", d=4)
        with pytest.raises(ParameterError, match=r"must be finite and >= 0, got (nan|inf|-1\.0)"):
            TOLERANCE_CALLS[call](ps, value)

    @pytest.mark.parametrize("call", TOLERANCE_CALLS)
    def test_zero_stays_valid(self, call):
        TOLERANCE_CALLS[call](construct_named("cross_polytope", d=4), 0.0)

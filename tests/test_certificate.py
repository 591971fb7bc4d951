"""Indicator matrix decomposition, rank caps, spectra, companion bounds."""

import contextlib
import dataclasses
import functools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fewdist import (
    IndicatorMatrix,
    PointSet,
    antipodal_structure,
    construct_named,
    eigen_multiplicities,
    indicator_matrix,
    inner_product_profile,
    numeric_rank,
    verify_key_lemma,
    verify_key_lemmas,
    verify_sign_matrix_bound,
)
from fewdist import certificate, cli, construct_johnson, pointset
from fewdist.bounds import theorem_context
from fewdist.certificate import DEFAULT_CLUSTER_TOL, class_index_range
from fewdist.defaults import DEFAULT_TOL_RANK
from fewdist.errors import DimensionMismatchError, InputError, NumericalError, ParameterError
from fewdist.lagrange import lagrange_basis
from fewdist.ratios import applicable_settings


def dense_counts(im, tol_rank=DEFAULT_TOL_RANK, cluster_tol=DEFAULT_CLUSTER_TOL):
    """(rank, zero multiplicity, companion multiplicity) as verify_key_lemma
    counts them on M's own view: from dense n x n decompositions."""
    n, k = im.n, im.k_claimed
    eig = np.linalg.eigvalsh(im.matrix)
    magnitudes = np.abs(eig)
    rank = int(np.count_nonzero(magnitudes > tol_rank * n * np.max(magnitudes)))
    zero_mult = int(np.count_nonzero(magnitudes <= cluster_tol * np.max(magnitudes)))
    signed = im.setting in certificate.SIGNED_SETTINGS
    scale, shift = (1.0, 0.0) if signed else (2.0, 1.0)
    expected_e = -(scale * k - shift)
    if signed:
        companion_eig = eig + expected_e
    else:
        companion_eig = np.linalg.eigvalsh(scale * im.matrix - shift + expected_e * np.eye(n))
    atol = cluster_tol * max(1.0, float(np.max(np.abs(companion_eig))))
    return rank, zero_mult, int(np.count_nonzero(np.abs(companion_eig - expected_e) <= atol))


def spectral_counts(verdict):
    return verdict.rank, verdict.zero_multiplicity, verdict.companion["measured_multiplicity"]


@contextlib.contextmanager
def recorded_shapes(name="eigvalsh", owner=np.linalg):
    """Record the shape of the last positional argument of every
    owner.<name> call: by default, every matrix eigvalsh decomposes."""
    shapes = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        shapes.append(np.shape(args[-1]))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, recording)
        yield shapes


def planted_matrix(rng, eigenvalues, first=None):
    """A symmetric matrix with these eigenvalues and random eigenvectors; the
    first eigenvector is along first, if given."""
    n = len(eigenvalues)
    columns = rng.standard_normal((n, n))
    if first is not None:
        columns[:, 0] = first
    vectors = np.linalg.qr(columns)[0]
    matrix = (vectors * eigenvalues) @ vectors.T
    return (matrix + matrix.T) / 2.0


def hand_built(matrix, setting, k, n_cap, source=None, d_eff=2, s=4):
    """An IndicatorMatrix around any symmetric matrix, and its theorem context."""
    n = len(matrix)
    im = IndicatorMatrix(
        matrix=matrix, setting=setting, class_index=2, k_claimed=k,
        adjacency=np.zeros((n, n), dtype=np.int8),
        n_cap=n_cap, x_size=n, d_eff=d_eff, s=s, n=n, source=source,
    )
    return im, dataclasses.replace(theorem_context(setting, 2, 4), N=n_cap)


def read_anything(im):
    """Whether im holds an array or deviation computed on a read."""
    return any(key in vars(im) for key in ("_adjacency_read", "_matrix_read", "max_decomposition_dev"))


def random_sign_matrix(rng, n):
    # Symmetric, zero diagonal, off-diagonal entries in {-1, 0, 1}.
    upper = rng.integers(-1, 2, size=(n, n))
    m = np.triu(upper, 1)
    return (m + m.T).astype(float)


class TestIndicatorMatrix:
    def test_unit_square_matrix_is_k_plus_adjacency(self, unit_square):
        im = indicator_matrix(unit_square, 1, "euclidean")
        assert im.k_claimed == pytest.approx(2.0, abs=1e-12)
        assert im.max_decomposition_dev < 1e-10
        expected = 2.0 * np.eye(4) + im.adjacency
        assert np.allclose(im.matrix, expected, atol=1e-10)

    def test_unit_square_spectrum(self, unit_square):
        im = indicator_matrix(unit_square, 1, "euclidean")
        spec = eigen_multiplicities(im.matrix)
        assert np.allclose(sorted(spec.eigenvalues), (0.0, 2.0, 2.0, 4.0), atol=1e-9)
        assert spec.zero_multiplicity == 1
        assert spec.rank == 3
        assert dict((round(v), c) for v, c in spec.clusters) == {0: 1, 2: 2, 4: 1}

    def test_adjacency_matches_distance_class(self, johnson_10_3):
        im = indicator_matrix(johnson_10_3, 2, "euclidean")
        assert im.adjacency.sum() == 2 * 6930
        assert np.array_equal(im.adjacency, im.adjacency.T)
        assert set(np.unique(im.adjacency)) <= {0, 1}

    def test_equality_evaluates_no_m(self, johnson_10_3, monkeypatch):
        # == compares the parameters, the point set and the arrays given,
        # and evaluates no M to compare.
        first, second, third = (indicator_matrix(johnson_10_3, 1, "euclidean") for _ in range(3))
        other = indicator_matrix(johnson_10_3, 2, "euclidean")
        held = dataclasses.replace(third, matrix=np.zeros((third.n, third.n)))  # replace reads every field
        with monkeypatch.context() as patched:
            patched.setattr(certificate, "lagrange_basis", None)  # a call would raise
            assert first == second and first in [other, second]
            assert first != other and first != held and held == dataclasses.replace(held)
        assert not any(map(read_anything, (first, second)))

    def test_hash_evaluates_no_m(self, johnson_10_3, monkeypatch):
        # hash leaves out the on-first-read fields, so equal twins hash alike,
        # a matrix keys a dict, and neither M, A nor the deviation is read.
        first, second = (indicator_matrix(johnson_10_3, 1, "euclidean") for _ in range(2))
        with monkeypatch.context() as patched:
            patched.setattr(certificate, "lagrange_basis", None)  # a call would raise
            assert hash(first) == hash(second) and {first: 1}[second] == 1
            assert len({first, second, indicator_matrix(johnson_10_3, 2, "euclidean")}) == 2
        assert not any(map(read_anything, (first, second)))
        assert hash(first) == hash(dataclasses.replace(first))  # every field read, and held

    @pytest.mark.parametrize("read", ["matrix", "adjacency", "max_decomposition_dev", "verify_key_lemma",
                                      "verify_key_lemmas"])
    def test_no_read_changes_equality(self, johnson_10_3, read):
        # A read keeps what it computes beside the given slots, and a
        # verdict writes nothing back, so == and hash stay those of a twin.
        a, b = (indicator_matrix(johnson_10_3, 1, "euclidean") for _ in range(2))
        readers = {"verify_key_lemma": verify_key_lemma, "verify_key_lemmas": lambda im: verify_key_lemmas([im])}
        readers.get(read, lambda im: getattr(im, read))(a)
        assert a == b and hash(a) == hash(b) and {b: 1}[a] == 1
        assert a._matrix is None and a._adjacency is None

    def test_a_read_m_keeps_the_evaluated_reader(self, johnson_10_3, monkeypatch):
        # With M read, the verdict is still a fresh twin's: B = R K R^T (one
        # K formed), not Q^T M Q, and no strip of a held M is walked.
        im = indicator_matrix(johnson_10_3, 1, "euclidean")
        assert im.matrix.shape == (im.n, im.n)  # read, and kept beside the given slot
        want = verify_key_lemma(indicator_matrix(johnson_10_3, 1, "euclidean"))
        forms, form = [], certificate._form
        monkeypatch.setattr(certificate, "_form", lambda *args: forms.append(args) or form(*args))
        monkeypatch.setattr(certificate, "_held_strip", None)  # a call would raise
        assert verify_key_lemma(im) == want and len(forms) == 1

    def test_the_deviation_is_never_given(self):
        with pytest.raises(TypeError, match="max_decomposition_dev"):
            IndicatorMatrix(matrix=np.eye(3), adjacency=np.zeros((3, 3), np.int8), max_decomposition_dev=0.0,
                            setting="euclidean", class_index=1, k_claimed=1.0, n_cap=3, x_size=3, d_eff=2, s=4, n=3)
        assert "max_decomposition_dev" not in {f.name for f in dataclasses.fields(IndicatorMatrix)}

    def test_a_nested_list_m_is_an_array(self):
        # Given as nested lists, M and A are read as arrays once, at construction.
        matrix = planted_matrix(np.random.default_rng(4), [3.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        im, context = hand_built(matrix, "euclidean", 1.5, 3)
        listed = dataclasses.replace(im, matrix=matrix.tolist(), adjacency=im.adjacency.tolist())
        assert verify_key_lemma(listed, context) == verify_key_lemma(im, context)
        assert listed == im and isinstance(listed.matrix, np.ndarray) and listed.matrix.dtype == float

    def test_a_held_asymmetric_m_has_its_symmetric_parts_spectrum(self):
        # A 40 x 40 M with a zero upper triangle and no source takes M's
        # view. Its counts, and numeric_rank's, are those of S = (M + M^T)/2,
        # whose rank is 10, not of its lower triangle mirrored, which
        # eigvalsh alone would read, nor of M, whose rank is 39.
        rng = np.random.default_rng(6)
        planted = np.r_[rng.uniform(0.5, 2.0, 10) * rng.choice([-1.0, 1.0], 10), np.zeros(30)]
        symmetric = planted_matrix(rng, planted)
        matrix = np.tril(2.0 * symmetric, -1) + np.diag(np.diag(symmetric))
        im, context = hand_built(matrix, "euclidean", 1.5, 10)
        part, _ = hand_built((matrix + matrix.T) / 2.0, "euclidean", 1.5, 10)
        v = verify_key_lemma(im, context)
        assert spectral_counts(v) == dense_counts(part) and v.rank == 10
        assert eigen_multiplicities(im) == eigen_multiplicities(np.array(im.matrix))
        assert numeric_rank(im) == v.rank == 10  # not M's own 39 singular values

    def test_a_hand_built_matrix_is_checked_at_construction(self, johnson_10_3):
        # With no evaluate, matrix and adjacency are needed, each n x n.
        fields = dict(setting="euclidean", class_index=1, k_claimed=1.0, n_cap=3, x_size=6, d_eff=2, s=4, n=6)
        with pytest.raises(ParameterError, match="adjacency must be given"):
            IndicatorMatrix(matrix=np.eye(6), **fields)
        with pytest.raises(ParameterError, match="matrix must be given"):
            IndicatorMatrix(adjacency=np.zeros((6, 6), np.int8), **fields)
        with pytest.raises(DimensionMismatchError, match=r"matrix has shape \(5, 5\), n says 6"):
            IndicatorMatrix(matrix=np.eye(5), adjacency=np.zeros((6, 6), np.int8), **fields)
        with pytest.raises(DimensionMismatchError, match=r"adjacency has shape \(6,\), n says 6"):
            IndicatorMatrix(matrix=np.eye(6), adjacency=np.zeros(6, np.int8), **fields)
        im = indicator_matrix(johnson_10_3, 1, "euclidean")
        held = dataclasses.replace(im, matrix=np.array(im.matrix))
        assert held != im and verify_key_lemma(held) == verify_key_lemma(im)  # a read is not a given array
        with pytest.raises(DimensionMismatchError, match="matrix has shape"):
            dataclasses.replace(im, matrix=np.eye(5))

    def test_signed_adjacency_for_variant_two(self, e8):
        im = indicator_matrix(e8, 2, "antipodal_even_v2")
        assert set(np.unique(im.adjacency)) <= {-1, 0, 1}
        assert (im.adjacency == -1).any() and (im.adjacency == 1).any()

    def test_class_index_validation(self, johnson_10_3):
        with pytest.raises(ParameterError):
            indicator_matrix(johnson_10_3, 0, "euclidean")
        with pytest.raises(ParameterError):
            indicator_matrix(johnson_10_3, 4, "euclidean")
        with pytest.raises(ParameterError):
            indicator_matrix(johnson_10_3, 1, "galactic")

    def test_antipodal_setting_of_the_other_parity(self, e8):
        with pytest.raises(ParameterError, match="set has even parity, requested antipodal_odd_v1"):
            indicator_matrix(e8, 1, "antipodal_odd_v1")

    def test_context_must_match_the_matrix(self, johnson_10_3):
        im = indicator_matrix(johnson_10_3, 1, "euclidean")
        with pytest.raises(ParameterError, match="context setting 'spherical' does not match"):
            verify_key_lemma(im, theorem_context("spherical", im.d_eff, im.s))
        with pytest.raises(ParameterError, match=f"does not match the matrix space dimension {im.n_cap}"):
            verify_key_lemma(im, theorem_context("euclidean", im.d_eff + 1, im.s))

    def test_class_index_range(self, johnson_10_3, e8):
        assert list(class_index_range(johnson_10_3, "euclidean")) == [1, 2, 3]
        assert list(class_index_range(e8, "antipodal_even_v1")) == [1, 2]
        assert list(class_index_range(e8, "antipodal_even_v2")) == [2]

    def test_applicable_settings(self, johnson_10_3, e8, icosahedron):
        assert applicable_settings(johnson_10_3) == ["euclidean"]
        assert applicable_settings(e8) == [
            "euclidean",
            "spherical",
            "antipodal_even_v1",
            "antipodal_even_v2",
        ]
        # Odd antipodal families need s >= 5; the icosahedron has s = 3.
        assert applicable_settings(icosahedron) == ["euclidean", "spherical"]


def chained_antipodal_set():
    """18 unit vectors, +-x_i with Gram entries <x_i, x_j> 0.1000, 0.1009,
    ..., 0.1270 (31 pairs) and 0.1375 (5 pairs). At tol 1e-3 the 31 chain
    into one class of mean 0.1135, although 0.1261 and 0.1270 lie nearer
    0.1375. The Cholesky rows x_i have a positive first coordinate, so they
    are the half set."""
    gram = np.eye(9)
    gram[np.triu_indices(9, 1)] = [0.1 + 0.0009 * k for k in range(31)] + [0.1375] * 5
    x = np.linalg.cholesky(np.triu(gram) + np.triu(gram, 1).T)
    return PointSet(dimension=9, points=np.vstack([x, -x]))


class TestClassesFromTheProfile:
    @pytest.mark.parametrize("setting,signed", [("antipodal_odd_v1", False), ("antipodal_odd_v2", True)])
    def test_half_set_pairs_take_the_profile_class(self, setting, signed, half_rows):
        ps = chained_antipodal_set()
        assert inner_product_profile(ps, 1e-3).inner_products[3] == pytest.approx(0.1135)
        assert np.array_equal(half_rows(ps, 1e-3), np.arange(9))
        im = indicator_matrix(ps, 1, setting, tol=1e-3)
        gram = ps.points[:9] @ ps.points[:9].T
        chained = (np.abs(gram) > 0.0995) & (np.abs(gram) < 0.1275)
        assert np.count_nonzero(np.triu(chained)) == 31
        assert np.array_equal(im.adjacency, chained * np.sign(gram) if signed else chained)

    @pytest.mark.parametrize(
        "name,d", [("e8_roots", None), ("hypercube", 5), ("hypercube", 8), ("cross_polytope", 6)]
    )
    def test_half_set_holds_a_quarter_of_each_beta_pair(self, name, d):
        # A half-set pair at +-beta stands for two full-set pairs at beta and
        # two at -beta; a pair at 0 for four pairs at 0.
        ps = construct_named(name, d)
        profile, structure = inner_product_profile(ps), antipodal_structure(ps)
        for j, beta in enumerate(structure.beta_abs, start=1):
            im = indicator_matrix(ps, j, f"antipodal_{structure.parity}_v1")
            full = sum(
                count
                for value, count in zip(profile.inner_products, profile.pair_counts)
                if abs(abs(value) - beta) < 1e-9
            )
            assert 4 * np.count_nonzero(np.triu(im.adjacency)) == full > 0


class TestNumericRank:
    def test_rank_of_ones(self):
        assert numeric_rank(np.ones((6, 6))) == 1

    def test_rank_guard_raises_when_cap_exceeded(self):
        im = IndicatorMatrix(
            matrix=np.eye(5),
            setting="euclidean",
            class_index=1,
            k_claimed=1.0,
            adjacency=np.zeros((5, 5), dtype=np.int8),
            n_cap=2,
            x_size=5,
            d_eff=1,
            s=2,
            n=5,
        )
        with pytest.raises(NumericalError):
            numeric_rank(im)

    def test_tolerance_scaling(self):
        m = np.diag([1.0, 1e-5, 1e-12])
        assert numeric_rank(m, tol_rank=1e-8) == 2
        assert numeric_rank(m, tol_rank=1e-3) == 1


class TestEigenMultiplicities:
    def test_cluster_merging(self):
        m = np.diag([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.0])
        spec = eigen_multiplicities(m, cluster_tol=1e-6)
        assert [c for _, c in spec.clusters] == [2, 2, 1]
        assert spec.zero_multiplicity == 2
        assert spec.rank == 3

    def test_distinct_values_stay_split(self):
        m = np.diag([0.0, 0.5, 1.0])
        spec = eigen_multiplicities(m, cluster_tol=1e-6)
        assert [c for _, c in spec.clusters] == [1, 1, 1]


JOHNSON_EXPECTED = {
    # class index: rounded k, companion eigenvalue
    1: (3, -5.0),
    2: (-3, 7.0),
    3: (1, -1.0),
}


class TestJohnsonCertificates:
    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_full_verdict(self, johnson_10_3, index):
        v = verify_key_lemma(indicator_matrix(johnson_10_3, index, "euclidean"))
        assert v.all_passed and v.hypothesis_met
        assert v.rank == 55 and v.rank_cap == 77
        assert v.zero_applicable and v.zero_multiplicity == 110
        assert v.decomposition_dev < 1e-8
        k, companion_e = JOHNSON_EXPECTED[index]
        assert v.k_rounded == k
        assert v.companion["expected_eigenvalue"] == pytest.approx(companion_e, abs=1e-9)
        assert v.companion["measured_multiplicity"] >= v.companion["required_multiplicity"] == 87
        assert v.companion["sign_bound_ok"]

    def test_rank_plus_zero_multiplicity_is_n(self, johnson_10_3):
        v = verify_key_lemma(indicator_matrix(johnson_10_3, 1, "euclidean"))
        assert v.rank + v.zero_multiplicity == 165


def e8_part(e8):
    """The first 200 of e8's 240 roots: no class of it is a regular graph."""
    return PointSet(dimension=8, points=e8.points[:200])


class TestE8Certificates:
    def test_variant_one_is_tight(self, e8):
        for index, k in ((1, -3), (2, 4)):
            v = verify_key_lemma(indicator_matrix(e8, index, "antipodal_even_v1"))
            assert v.all_passed and v.hypothesis_met
            assert v.k_rounded == k
            assert v.rank == v.rank_cap == 36  # the polynomial space is filled
            assert v.zero_multiplicity == 84  # 120 - 36 on the half set
            assert v.companion["required_multiplicity"] == 83
            assert v.companion["measured_multiplicity"] == 85
            # e = -(2k-1) = +/-7 and (n-1)(n-m)/m = 119*35/85 = 49: equality.
            assert v.companion["sign_bound_rhs"] == pytest.approx(49.0, abs=1e-9)
            assert v.companion["sign_bound_ok"]

    def test_variant_two(self, e8):
        v = verify_key_lemma(indicator_matrix(e8, 2, "antipodal_even_v2"))
        assert v.all_passed and v.hypothesis_met
        assert v.k_rounded == 2
        assert v.rank == v.rank_cap == 8
        assert v.zero_multiplicity == 112
        assert v.companion["kind"] == "shifted_adjacency"
        assert v.companion["expected_eigenvalue"] == pytest.approx(-2.0, abs=1e-9)
        assert v.companion["measured_multiplicity"] == 112
        assert v.companion["sign_bound_rhs"] == pytest.approx(8.5, abs=1e-9)

    @pytest.mark.parametrize("index,setting", [(2, "antipodal_even_v2"), (2, "antipodal_even_v1")])
    def test_signed_companion_reuses_the_spectrum(self, e8, hypercube_4, index, setting):
        # e8's half set has n = 120 >= 2 N_cap: both spectra come from the
        # range basis, with no n x n decomposition.
        im = indicator_matrix(e8, index, setting)
        with recorded_shapes() as shapes:
            v = verify_key_lemma(im)
        assert (im.n, im.n) not in shapes
        assert spectral_counts(v) == dense_counts(im)
        # On M's view M - kI has M's spectrum shifted by -k, and the
        # Seidel companion's is read off M's: one decomposition each where M's
        # row sums agree (e8's classes are regular graphs). Where they do not
        # (200 of e8's points), the bound leaves the counts undecided and the
        # Seidel companion is decomposed a second time. hypercube(4)'s half
        # set would take a 5-column basis: without a source it takes M's view.
        signed = setting in certificate.SIGNED_SETTINGS
        if signed:
            cases = [(hypercube_4, 2, setting, 1)]
        else:
            cases = [(e8, 1, "euclidean", 1), (e8_part(e8), 1, "euclidean", 2)]
        for ps, index, name, decompositions in cases:
            im = dataclasses.replace(indicator_matrix(ps, index, name), source=None)
            with recorded_shapes() as shapes:
                v = verify_key_lemma(im)
            assert shapes.count((im.n, im.n)) == decompositions
            assert spectral_counts(v) == dense_counts(im)
        if signed:
            e = v.companion["expected_eigenvalue"]
            eig = np.linalg.eigvalsh(im.matrix - im.k_claimed * np.eye(im.n))
            atol = certificate.DEFAULT_CLUSTER_TOL * max(1.0, float(np.max(np.abs(eig))))
            assert v.companion["measured_multiplicity"] == np.count_nonzero(np.abs(eig - e) <= atol)

    def test_bound_tight_at_ratio_limit(self, e8):
        v = verify_key_lemma(indicator_matrix(e8, 2, "antipodal_even_v1"))
        assert abs(v.k_rounded) == v.ratio_bound == 4


class TestSmallSets:
    def test_hypercube_below_threshold_reports_honestly(self, hypercube_4):
        # 16 points sit far below the 4N = 40 threshold: the ratio 4 may and
        # does exceed the bound 2 without contradicting anything.
        v = verify_key_lemma(indicator_matrix(hypercube_4, 2, "antipodal_even_v1"))
        assert not v.hypothesis_met
        assert not v.bound_ok and not v.all_passed
        assert v.rank <= v.rank_cap

    def test_hypercube_variant_two_fills_space(self, hypercube_4):
        v = verify_key_lemma(indicator_matrix(hypercube_4, 2, "antipodal_even_v2"))
        assert v.rank == v.rank_cap == 4
        assert v.all_passed and not v.hypothesis_met

    def test_cross_polytope_classes(self, cross_polytope_4):
        for index in class_index_range(cross_polytope_4, "spherical"):
            v = verify_key_lemma(indicator_matrix(cross_polytope_4, index, "spherical"))
            assert v.rank <= v.rank_cap
            assert v.decomposition_dev < 1e-10

    def test_simplex_indicator_is_all_ones(self, simplex_5):
        im = indicator_matrix(simplex_5, 1, "euclidean")
        assert np.allclose(im.matrix, 1.0, atol=1e-12)
        assert im.n_cap == 1
        assert numeric_rank(im) == 1


class TestInvariance:
    def test_permutation_invariance(self, e8):
        rng = np.random.default_rng(5)
        perm = rng.permutation(e8.n)
        shuffled = PointSet(dimension=e8.dimension, points=e8.points[perm])
        a = verify_key_lemma(indicator_matrix(e8, 2, "antipodal_even_v1"))
        b = verify_key_lemma(indicator_matrix(shuffled, 2, "antipodal_even_v1"))
        assert (a.rank, a.zero_multiplicity, a.k_rounded) == (b.rank, b.zero_multiplicity, b.k_rounded)

    def test_sign_conjugation_preserves_spectrum(self, e8):
        # Replacing half-set representatives y by -y conjugates the signed
        # matrix by a diagonal sign matrix, so all spectral data must agree.
        im = indicator_matrix(e8, 2, "antipodal_even_v2")
        rng = np.random.default_rng(7)
        signs = rng.choice([-1.0, 1.0], size=im.matrix.shape[0])
        conj = im.matrix * np.outer(signs, signs)
        a, b = eigen_multiplicities(im.matrix), eigen_multiplicities(conj)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
        assert a.clusters == b.clusters


class TestSignMatrixBound:
    def test_report_shape(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = verify_sign_matrix_bound(m, 1.0, 1)
        assert rep == {"n": 2, "e": 1.0, "m": 1, "lhs": 1.0, "rhs": 1.0, "ok": True}

    def test_rejects_entries_outside_signs(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(Exception):
            verify_sign_matrix_bound(m, 2.0, 1)

    def test_rejects_an_asymmetric_input(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(InputError, match="sign matrix must be symmetric"):
            verify_sign_matrix_bound(m, 1.0, 1)

    @pytest.mark.parametrize("m", [0, 3, -1])
    def test_rejects_a_multiplicity_outside_1_to_n(self, m):
        with pytest.raises(ParameterError, match=r"multiplicity m must be in \[1, n\]"):
            verify_sign_matrix_bound(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, m)

    @pytest.mark.parametrize("matrix", [np.float64(0.0), np.zeros(3), np.zeros((2, 3))])
    def test_rejects_a_non_square_input(self, matrix):
        with pytest.raises(InputError, match="sign matrix must be square"):
            verify_sign_matrix_bound(matrix, 0.0, 1)

    @pytest.mark.parametrize("matrix", [
        [[0.0, np.nan], [np.nan, 0.0]],
        [[np.nan, 1.0], [1.0, 0.0]],
        [[0.0, 1.0, 0.0], [1.0, 0.0, np.nan], [0.0, np.nan, 0.0]],
    ])
    def test_rejects_a_nan_entry(self, matrix):
        # A NaN fails every entry check instead of passing it.
        with pytest.raises(InputError):
            verify_sign_matrix_bound(np.array(matrix), 1.0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_entry_maxima_round_each_entry_once(self, seed, monkeypatch):
        # Against the formula that rounded every block twice: the largest
        # |rounded entry| off the diagonal is read off the one rounding, and a
        # NaN (the last seeds put one off, then on, the diagonal) reaches the
        # same maxima.
        def reference(block, start, columns):
            n = block.shape[1]
            off = np.round(block) - block
            magnitude = np.abs(np.round(block))
            off.flat[start :: n + 1] = magnitude.flat[start :: n + 1] = 0.0
            asymmetry = np.max(np.abs(block - columns))
            return asymmetry, np.max(np.abs(off)), np.max(magnitude), np.max(np.abs(block.flat[start :: n + 1]))

        rng = np.random.default_rng(seed)
        n, start = 12, 4
        matrix = rng.choice([-1.0, 0.0, 1.0], (n, n)) + rng.normal(scale=10.0 ** -seed, size=(n, n))
        if seed >= 4:
            matrix[start + 1, 7 if seed == 4 else start + 1] = np.nan
        block, columns = matrix[start : start + 5], matrix[:, start : start + 5].T
        rounds, real = [], np.round
        monkeypatch.setattr(np, "round", lambda *args, **kwargs: rounds.append(1) or real(*args, **kwargs))
        got = certificate._entry_maxima(block, start, np.empty_like(block), columns)
        monkeypatch.undo()
        assert len(rounds) == 1
        assert np.array_equal(got, reference(block, start, columns), equal_nan=True)

    @pytest.mark.parametrize("slot", range(4))
    def test_a_nan_maximum_fails_its_own_check(self, slot):
        # verify_key_lemma feeds _sign_bound the walk's maxima (asymmetry,
        # off-integer distance, magnitude, diagonal): each check fails on NaN.
        maxima = [0.0, 0.0, 1.0, 0.0]
        assert certificate._sign_bound(2, 1.0, 1, maxima)["ok"]
        maxima[slot] = np.nan
        with pytest.raises(InputError):
            certificate._sign_bound(2, 1.0, 1, maxima)

    def test_rejects_an_empty_input(self):
        with pytest.raises(InputError, match="sign matrix must not be empty"):
            verify_sign_matrix_bound(np.zeros((0, 0)), 1.0, 1)

    def test_random_sign_matrices_respect_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            m = random_sign_matrix(rng, n)
            spec = eigen_multiplicities(m, cluster_tol=1e-9)
            value, mult = max(spec.clusters, key=lambda vc: vc[1])
            rep = verify_sign_matrix_bound(m, value, mult)
            assert rep["ok"], (n, value, mult, rep)


@pytest.fixture(scope="module")
def johnson_14_3():
    return construct_johnson(14, 3)


# Eigenvalues planted at, beside and between the rank and zero thresholds of
# a matrix whose largest |eigenvalue| is 1: (threshold, factor).
NEAR_THRESHOLDS = [
    (threshold, factor)
    for threshold in ("rank", "zero")
    for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0)
] + [("zero", 1e-8)]


def basis_width(im):
    """The column count of the range basis verify_key_lemma takes for im."""
    ps, tol = im.source
    return certificate._range_basis(ps, im, tol).q.shape[1]


def residual_bounds(ims):
    """B's view's bounds on ||sym(M) - Q B Q^T|| for ims, one setting's
    classes read in one walk, and the dense ||sym(M) - Q B Q^T||_2 of each."""
    basis = certificate._basis(ims[0])
    views = certificate._view(ims, basis, [certificate._rule(im) for im in ims])
    q = basis.q
    errors = [err for _, _, (err, _), _, _ in views]
    return errors, [np.linalg.norm((im.matrix + im.matrix.T) / 2.0 - q @ b @ q.T, 2)
                    for im, (b, *_) in zip(ims, views)]


@functools.lru_cache(maxsize=None)
def basis_source(n, signed):
    """A random point set whose range basis has 20 columns on n rows: n points
    of the plane for the euclidean row (d_eff 2, s 4: D = 3 in (1, x, |x|^2)),
    or n unit vectors of R^3 and their negatives for the signed antipodal row
    (d_eff 3, s 6: D = 3 in (1, x), rank-deficient on the sphere)."""
    rng = np.random.default_rng(n)
    if not signed:
        return PointSet(dimension=2, points=rng.standard_normal((n, 2)))
    half = rng.standard_normal((n, 3))
    half /= np.linalg.norm(half, axis=1)[:, None]
    return PointSet(dimension=3, points=np.vstack([half, -half]))


def held_cases():
    """Held matrices, by name: (IndicatorMatrix, theorem context), each
    built the way a hand_built test builds one, from fixed seeds. Their
    verdicts are pinned in golden/held_verdicts.json."""
    cases, rng = {}, np.random.default_rng(11)
    for n, rank, offset, eps in ((30, 10, 1e-6, 1e-12), (24, 30, 0.0, 1e-2), (40, 3, 1e-3, 0.0)):
        # The dense path (n < 2 N_cap), 1 an eigenvector of M, as TestSeidelFromM builds them.
        planted = np.zeros(n)
        planted[:rank] = n * rng.uniform(1e-3, 1.0, min(rank, n)) * rng.choice([-1.0, 1.0], min(rank, n))
        planted[0] = n * (1.0 + offset) / 2.0
        noise = rng.standard_normal((n, n))
        matrix = planted_matrix(rng, planted, first=np.ones(n)) + eps * (noise + noise.T) / 2.0
        cases[f"dense {n} {rank}"] = hand_built(matrix, "euclidean", 1.5, n)
    for signed in (False, True):
        # B's view on a 20-column basis: a rank-8 M in its range, and one with a part outside it.
        setting, d_eff, s = ("antipodal_even_v2", 3, 6) if signed else ("euclidean", 2, 4)
        ps, tol = basis_source(50, signed), pointset.DEFAULT_TOL
        n = ps.n // 2 if signed else ps.n
        q = certificate._range_basis(ps, hand_built(np.eye(n), setting, 1.0, 4, None, d_eff, s)[0], tol).q
        inside = q @ planted_matrix(rng, np.r_[rng.uniform(0.1, 1.0, 8), np.zeros(12)]) @ q.T
        noise = rng.standard_normal((n, n))
        for name, matrix in (("inside", inside), ("asymmetric", inside + 1e-3 * noise)):
            cases[f"basis {setting} {name}"] = hand_built(matrix, setting, 1.0, 4, (ps, tol), d_eff, s)
    j14 = construct_johnson(14, 3)
    rotated = PointSet(dimension=15, points=j14.points @ np.linalg.qr(rng.standard_normal((15, 15)))[0])
    im = indicator_matrix(rotated, 1, "euclidean")
    matrix = np.array(im.matrix)
    matrix[1, 0] += 1e-6
    cases["replaced asymmetric"] = dataclasses.replace(im, matrix=matrix), None
    cases["hand-built asymmetric"] = hand_built(matrix, "euclidean", im.k_claimed, 300)
    im = indicator_matrix(j14, 2, "euclidean")
    outside = rng.standard_normal((im.n, 30))
    cases["replaced outside"] = dataclasses.replace(im, matrix=im.matrix + 1e-3 * outside @ outside.T), None
    for ps, setting in ((construct_johnson(10, 3), "euclidean"), (construct_named("e8_roots"), "euclidean"),
                        (construct_named("e8_roots"), "antipodal_even_v2")):
        # M's own bits, held (on B's view, M's and the half set's), and with one pair off an integer.
        im = indicator_matrix(ps, 2, setting)
        cases[f"held {im.n} {setting}"] = dataclasses.replace(im, matrix=np.array(im.matrix)), None
        matrix = np.array(im.matrix)
        matrix[2, 5] = matrix[5, 2] = matrix[2, 5] + 0.3
        cases[f"off an integer {im.n} {setting}"] = dataclasses.replace(im, matrix=matrix), None
    return cases


class TestRangeSketch:
    """verify_key_lemma reads both spectra off B = Q^T M Q on the setting's
    polynomial range basis Q when n >= 2 N_cap, and falls back to dense
    eigvalsh when the residual leaves a count undecided."""

    def test_sketch_path_runs_no_dense_decomposition(self, johnson_14_3, e8):
        cases = [(johnson_14_3, index, "euclidean") for index in (1, 2, 3)]
        cases += [(e8, 1, "antipodal_even_v1"), (e8, 2, "antipodal_even_v1"), (e8, 2, "antipodal_even_v2")]
        for ps, index, setting in cases:
            im = indicator_matrix(ps, index, setting)
            assert im.n >= 2 * im.n_cap
            with recorded_shapes() as shapes:
                v = verify_key_lemma(im)
            assert shapes and (im.n, im.n) not in shapes
            assert max(shapes) <= (basis_width(im),) * 2
            assert spectral_counts(v) == dense_counts(im)
        # (1, x) on e8's half set, and products of two of them.
        assert [basis_width(indicator_matrix(e8, 2, s)) for s in ("antipodal_even_v2", "antipodal_even_v1")] == [9, 45]

    def test_no_b_view_class_falls_back_to_m(self, johnson_10_3, johnson_14_3, e8):
        # Every class of these settings takes B's view, and B = R K R^T with
        # its measured residual decides every count: no n x n decomposition.
        cases = [(ps, "euclidean") for ps in (johnson_10_3, johnson_14_3, construct_johnson(20, 3))]
        cases += [(e8, "antipodal_even_v1"), (e8, "antipodal_even_v2")]
        for ps, setting in cases:
            ims = [indicator_matrix(ps, index, setting) for index in class_index_range(ps, setting)]
            with recorded_shapes() as shapes:
                verify_key_lemmas(ims)
            assert shapes == [(basis_width(ims[0]),) * 2] * len(ims), (ps.n, setting)

    def test_residual_gate_falls_back_to_dense(self, johnson_14_3):
        # M plus a rank-40 part orthogonal to the basis: the residual leaves
        # the counts undecided, and M's view finds rank 145 > N_cap = 135.
        im = indicator_matrix(johnson_14_3, 1, "euclidean")
        q = certificate._range_basis(johnson_14_3, im, pointset.DEFAULT_TOL).q
        rng = np.random.default_rng(2)
        outside = rng.standard_normal((im.n, 40))
        outside = np.linalg.qr(outside - q @ (q.T @ outside))[0]
        part = (outside * rng.uniform(0.5, 1.0, 40)) @ outside.T
        im = dataclasses.replace(im, matrix=im.matrix + (part + part.T) / 2.0)
        with recorded_shapes() as shapes:
            v = verify_key_lemma(im)
        assert (im.n, im.n) in shapes
        assert spectral_counts(v) == dense_counts(im)
        assert v.rank == 145 and not v.rank_ok

    def test_one_range_basis_per_setting(self, monkeypatch):
        # certify --setting all on a fresh johnson(14, 3), which no earlier
        # test has left a basis on: the first class's decides every class.
        # The basis comes from the coordinates, so nothing is drawn at random.
        def refuse(*args, **kwargs):
            raise AssertionError("a random generator was created")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        ps = construct_johnson(14, 3)
        with recorded_shapes("qr") as qrs:
            for setting in applicable_settings(ps):
                for index in class_index_range(ps, setting):
                    im = indicator_matrix(ps, index, setting)
                    with recorded_shapes() as shapes:
                        v = verify_key_lemma(im)
                    assert (im.n, im.n) not in shapes
                    assert spectral_counts(v) == dense_counts(im)
        assert len(qrs) == 1

    @pytest.mark.parametrize("transform", ["rotated", "scaled up and shifted", "scaled down"])
    def test_isometries_and_scalings_keep_the_basis_view(self, johnson_14_3, transform):
        points = johnson_14_3.points
        if transform == "rotated":
            points = points @ np.linalg.qr(np.random.default_rng(8).standard_normal((15, 15)))[0]
        elif transform == "scaled up and shifted":
            points = points * 1000.0 + 1e3
        else:
            points = points * 1e-3
        ps = PointSet(dimension=15, points=points)
        for index in class_index_range(ps, "euclidean"):
            im = indicator_matrix(ps, index, "euclidean")
            with recorded_shapes() as shapes:
                v = verify_key_lemma(im)
            assert shapes == [(136, 136)]
            assert spectral_counts(v) == dense_counts(im)

    def test_the_basis_holds_an_indicator_off_the_origin(self):
        # 60 points on a hyperplane that misses the origin: the basis needs
        # the centring and the |x|^2 column to hold M, a degree-2 polynomial
        # in the squared distance (15 columns from (1, x, |x|^2), d_eff = 3).
        points = np.random.default_rng(9).standard_normal((60, 4))
        points[:, 3] = 5.0
        ps = PointSet(dimension=4, points=points)
        pairs = pointset.squared_distance_matrix(ps)
        matrix = lagrange_basis([0.5, 2.0, 4.0], 1, pairs)
        im, _ = hand_built(matrix, "euclidean", 1.0, 10, (ps, pointset.DEFAULT_TOL), d_eff=3, s=3)
        b, _, (err, _), _, _ = certificate._view([im], certificate._basis(im), [(2.0, 1.0, -1.0)])[0]
        assert b.shape == (15, 15)
        assert err < 1e-12 * np.linalg.norm(matrix)

    @pytest.mark.parametrize("case", ["johnson", "rotated johnson", "antipodal"])
    def test_the_residual_bound_covers_the_dense_residual(self, johnson_14_3, e8, case):
        # Every class of a setting, from one walk, with B = R K R^T: the
        # bound on ||M - Q B Q^T|| is at least the dense one, in the 2-norm.
        ps, setting = (e8, "antipodal_even_v1") if case == "antipodal" else (johnson_14_3, "euclidean")
        if case == "rotated johnson":
            rotation = np.linalg.qr(np.random.default_rng(8).standard_normal((15, 15)))[0]
            ps = PointSet(dimension=15, points=ps.points @ rotation)
        ims = [indicator_matrix(ps, index, setting) for index in class_index_range(ps, setting)]
        for im, err, dense in zip(ims, *residual_bounds(ims)):
            assert dense <= err, im.class_index

    def test_a_held_asymmetric_m_is_walked_on_both_triangles(self, monkeypatch):
        # Held matrices on a 20-column basis, in tiles of 16 of n = 60: one
        # asymmetric in range(Q), and one with a symmetric part in range(Q)
        # plus a part on the tiles below the diagonal alone, with
        # Q^T below Q = 0, so that B is the symmetric part's and the tiles on
        # and above the diagonal show no sym(M) - Q B Q^T. The bound covers
        # the dense norm only if the walk reads the tiles below the diagonal.
        n, tol = 60, pointset.DEFAULT_TOL
        monkeypatch.setattr(pointset, "_tile_side", lambda n: 16)
        ps, rng = basis_source(n, False), np.random.default_rng(1)
        q = certificate._range_basis(ps, hand_built(np.eye(n), "euclidean", 1.5, 10)[0], tol).q
        tiles = pointset._tiles(n)
        above = np.zeros((n, n), bool)
        for at, rows in enumerate(tiles):
            for cols in tiles[at:]:
                above[rows, cols] = True
        i, j = np.nonzero(~above)
        terms = np.einsum("ta,tb->abt", q[i], q[j]).reshape(400, -1)  # Q^T below Q, on below's entries
        entries = rng.standard_normal(len(i))
        below = np.zeros((n, n))
        below[i, j] = entries - np.linalg.lstsq(terms, terms @ entries, rcond=None)[0]
        inside = rng.standard_normal((20, 20))
        cases = {"asymmetric inside": q @ inside @ q.T, "below the diagonal": q @ (inside + inside.T) @ q.T + below}
        for name, matrix in cases.items():
            im, _ = hand_built(matrix, "euclidean", 1.5, 10, (ps, tol))
            [err], [dense] = residual_bounds([im])
            assert dense <= err, name
        b = certificate._reduced(im, certificate._basis(im))
        assert dense > 1.0 and np.max(np.abs(np.where(above, matrix - q @ b @ q.T, 0.0))) < 1e-12

    def test_a_class_outside_the_shared_range_goes_to_m(self):
        n, n_cap, tol = 80, 10, 1e-6
        rng = np.random.default_rng(3)
        ps = PointSet(dimension=2, points=rng.standard_normal((n, 2)))
        q = certificate._range_basis(ps, hand_built(np.eye(n), "euclidean", 1.5, n_cap)[0], tol).q
        width = q.shape[1]
        assert width == 20  # products of 3 of (1, x, y, x^2 + y^2)

        def case(rank, inside, source=(ps, tol)):
            # 1 is an eigenvector, so M's own view reads the Seidel spectrum
            # off M's; inside, M's range lies in the basis.
            planted = np.zeros(width if inside else n)
            planted[:rank] = rng.uniform(0.1, 1.0, rank) * rng.choice([-1.0, 1.0], rank)
            if inside:
                matrix = q @ planted_matrix(rng, planted, first=q.T @ np.ones(n)) @ q.T
                matrix = (matrix + matrix.T) / 2.0
            else:
                matrix = planted_matrix(rng, planted, first=np.ones(n))
            return hand_built(matrix, "euclidean", 1.5, n_cap, source)

        # (class, qr calls, n x n decompositions): the first class leaves its
        # basis; one with another range, or of rank above the width, goes
        # straight to M with no basis of its own; and the basis of another
        # key (here the tolerance) is built anew, although it is the same Q.
        for (im, context), bases, dense in (
            (case(n_cap, True), 1, 0),
            (case(n_cap, False), 0, 1),
            (case(width + 4, False), 0, 1),
            (case(n_cap, True, (ps, 2 * tol)), 1, 0),
        ):
            with recorded_shapes("qr") as qrs, recorded_shapes() as shapes:
                v = verify_key_lemma(im, context)
            assert qrs == [(n, width)] * bases
            assert shapes.count((n, n)) == dense
            assert spectral_counts(v) == dense_counts(im)

    def test_a_regular_class_decomposes_only_b(self, johnson_14_3):
        # certify --setting all: every class of johnson(14, 3) is a regular
        # graph, so the Seidel spectrum is read off B's, B's companion is not
        # decomposed, and no n x n matrix is. The basis has C(17, 2) = 136
        # columns: products of two of (1, x, |x|^2) with x in R^14.
        for setting in applicable_settings(johnson_14_3):
            for index in class_index_range(johnson_14_3, setting):
                im = indicator_matrix(johnson_14_3, index, setting)
                with recorded_shapes() as shapes:
                    v = verify_key_lemma(im)
                assert shapes == [(136, 136)] == [(basis_width(im),) * 2]
                assert spectral_counts(v) == dense_counts(im)

    def test_a_non_regular_class_decomposes_b_companion(self):
        # 500 of johnson(16, 3)'s 560 points: no class is a regular graph, so
        # the read-off leaves the companion's count open, and B's companion
        # (width x width, C(19, 2) = 171) decides it, with no n x n decomposition.
        full = construct_johnson(16, 3)
        rows = np.sort(np.random.default_rng(0).choice(full.n, 500, replace=False))
        ps = PointSet(dimension=full.dimension, points=full.points[rows])
        for index in class_index_range(ps, "euclidean"):
            im = indicator_matrix(ps, index, "euclidean")
            with recorded_shapes() as shapes:
                v = verify_key_lemma(im)
            assert shapes == [(171, 171)] * 2
            assert spectral_counts(v) == dense_counts(im)

    def test_a_failed_decomposition_is_a_numerical_error(self):
        # M's view's eigvalsh fails on a NaN: NumericalError, which the CLI
        # maps to exit 3, not numpy's LinAlgError.
        matrix = planted_matrix(np.random.default_rng(6), np.r_[np.ones(5), np.zeros(75)])
        matrix[3, 4] = matrix[4, 3] = np.nan
        im, context = hand_built(matrix, "euclidean", 1.5, 10)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            verify_key_lemma(im, context)

    @settings(max_examples=150, deadline=None)
    @given(
        n_cap=st.integers(2, 10),
        extra=st.integers(0, 30),
        rank_offset=st.integers(-19, 6),
        near=st.lists(st.tuples(st.sampled_from(NEAR_THRESHOLDS), st.booleans()), max_size=4),
        signed=st.booleans(),
        k=st.floats(-4.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sketch_counts_match_the_dense_reference(
        self, n_cap, extra, rank_offset, near, signed, k, seed
    ):
        # M = kI + A is any symmetric matrix here: planted rank r below or
        # above the basis width, with random eigenvectors in the basis's range
        # (the first ones) and outside it (the rest), and some eigenvalues
        # near the thresholds, in the range or outside it as drawn.
        width = 20
        n = width + 2 + extra
        r = min(max(width + rank_offset, 1), n - len(near))
        rng = np.random.default_rng(seed)
        setting, d_eff, s = ("antipodal_even_v2", 3, 6) if signed else ("euclidean", 2, 4)
        ps, tol = basis_source(n, signed), pointset.DEFAULT_TOL
        im, context = hand_built(np.zeros((n, n)), setting, k, n_cap, (ps, tol), d_eff, s)
        q = certificate._range_basis(ps, im, tol).q
        assert q.shape == (n, width)
        full = np.linalg.qr(np.column_stack([q, rng.standard_normal((n, n - width))]))[0]
        vectors = np.column_stack([
            full[:, :width] @ np.linalg.qr(rng.standard_normal((width, width)))[0], full[:, width:]
        ])
        planted = np.zeros(n)
        slots = list(range(n))  # the first width slots lie in range(Q)
        for _ in range(r):
            planted[slots.pop(0)] = rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0])
        planted[0] = 1.0
        for (threshold, factor), inside in near:
            rel = DEFAULT_TOL_RANK * n if threshold == "rank" else DEFAULT_CLUSTER_TOL
            planted[slots.pop(0 if inside else -1)] = factor * rel
        matrix = (vectors * planted) @ vectors.T
        im = dataclasses.replace(im, matrix=(matrix + matrix.T) / 2.0)
        with recorded_shapes() as shapes:
            v = verify_key_lemma(im, context)
        assert spectral_counts(v) == dense_counts(im)
        dense = (n, n) in shapes
        event("dense fallback" if dense else "basis")
        if r > width:
            assert dense  # the basis cannot hold the range: the gate must fall back
        elif not near:
            assert not dense  # every eigenvalue is far from every threshold


def factored(ps, setting, index):
    """(M, Phi K Phi^T) for one class: the key lemma's factorization, at any basis width."""
    im = indicator_matrix(ps, index, setting)
    u, products = certificate._lift(ps, im, pointset.DEFAULT_TOL)
    phi = certificate._phi(u, products)
    terms = certificate._terms(products, u.shape[1], setting == "euclidean")
    k = certificate._form(im.polynomial, terms, len(products))
    return im.matrix, phi @ k @ phi.T


FACTORED_SETS = [("pentagon", None), ("icosahedron", None), ("hypercube", 4), ("hypercube", 5),
                 ("hypercube", 6), ("cross_polytope", 4), ("e8_roots", None)]
FACTORED_SETS += [("johnson", d, s) for d in range(7, 11) for s in range(2, 6) if 2 * s <= d + 1]


def factored_set(case):
    return construct_johnson(*case[1:]) if case[0] == "johnson" else construct_named(*case)


class TestFactorization:
    """M = Phi K Phi^T (the key lemma), with K from the class polynomial's
    power coefficients and G's powers, for every setting row, whether or not
    n >= 2 N_cap; B = R K R^T rests on it."""

    @pytest.mark.parametrize("case", FACTORED_SETS, ids=lambda case: "-".join(map(str, case)))
    def test_phi_k_phi_is_the_evaluated_m(self, case):
        ps = factored_set(case)
        for setting in applicable_settings(ps):
            for index in class_index_range(ps, setting):
                matrix, product = factored(ps, setting, index)
                assert np.max(np.abs(product - matrix)) <= 1e-9 * np.max(np.abs(matrix)), (setting, index)

    def test_every_setting_row_is_factored_at_s_2_to_6(self):
        # The euclidean and spherical rows at s = 2..6; the unsigned and
        # signed antipodal rows (x^2 in L_i; times x / beta) at s = 4..6,
        # their least s for both parities.
        seen = set()
        for case in FACTORED_SETS:
            ps = factored_set(case)
            for setting in applicable_settings(ps):
                seen.add((setting.split("_")[0] + ("_signed" if setting in certificate.SIGNED_SETTINGS else ""),
                          indicator_matrix(ps, class_index_range(ps, setting)[0], setting).s))
        rows = {"euclidean": range(2, 7), "spherical": range(2, 7), "antipodal": range(4, 7),
                "antipodal_signed": range(4, 7)}
        assert seen >= {(row, s) for row, values in rows.items() for s in values}

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from([("pentagon", None), ("icosahedron", None), ("hypercube", 4), ("hypercube", 5),
                              ("cross_polytope", 4), ("johnson", 7, 3), ("johnson", 8, 4)]),
        seed=st.integers(0, 2**32 - 1),
        moved=st.booleans(),
        scale=st.floats(-3.0, 3.0),
        shift=st.floats(0.0, 10.0),
    )
    def test_isometries_and_scalings_keep_the_factorization(self, case, seed, moved, scale, shift):
        # A rotation, and then, if moved, a scaling by 10^scale and a shift
        # of up to shift times that: the euclidean row alone then applies.
        ps = factored_set(case)
        rng = np.random.default_rng(seed)
        points = ps.points @ np.linalg.qr(rng.standard_normal((ps.dimension,) * 2))[0]
        if moved:
            points = 10.0**scale * (points + shift * rng.uniform(-1.0, 1.0, ps.dimension))
        ps = PointSet(dimension=ps.dimension, points=points)
        for setting in applicable_settings(ps):
            for index in class_index_range(ps, setting):
                matrix, product = factored(ps, setting, index)
                assert np.max(np.abs(product - matrix)) <= 1e-9 * np.max(np.abs(matrix)), (setting, index)


class TestSeidelFromM:
    """On each view (B, or M on the dense path) the Seidel companion's spectrum
    is read off the view's, and the view's companion is decomposed only where
    that bound leaves a count undecided."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(6, 40),
        rank=st.integers(1, 40),
        near=st.lists(st.sampled_from(NEAR_THRESHOLDS), max_size=4),
        offset=st.sampled_from([0.0, 1e-7, 1e-6, 2e-6, 1e-3, 1.0]),
        eps=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
        k=st.floats(-4.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_match_the_dense_reference(self, n, rank, near, offset, eps, k, seed):
        # 1 is an eigenvector of M with the eigenvalue mu = n (1 + offset) / 2,
        # which puts the companion's eigenvalue on 1 offset * n from e, at or
        # near the multiplicity threshold; the other planted eigenvalues are
        # scaled to mu, the largest. Then M is perturbed by eps.
        rng = np.random.default_rng(seed)
        mu = n * (1.0 + offset) / 2.0
        r = max(min(rank, n - len(near)), 1)
        planted = np.zeros(n)
        planted[:r] = mu * rng.uniform(1e-3, 1.0, r) * rng.choice([-1.0, 1.0], r)
        planted[0] = mu
        for pos, (threshold, factor) in enumerate(near):
            rel = DEFAULT_TOL_RANK * n if threshold == "rank" else DEFAULT_CLUSTER_TOL
            planted[r + pos] = factor * rel * mu
        noise = rng.standard_normal((n, n))
        matrix = planted_matrix(rng, planted, first=np.ones(n)) + eps * (noise + noise.T) / 2.0
        im, context = hand_built(matrix, "euclidean", k, n)  # n < 2 N_cap: the dense path
        gates = []
        counts = certificate._counts

        def recorded(*args):
            gates.append(counts(*args))
            return gates[-1]

        with recorded_shapes() as shapes, pytest.MonkeyPatch.context() as mp:
            mp.setattr(certificate, "_counts", recorded)
            v = verify_key_lemma(im, context)
        assert spectral_counts(v) == dense_counts(im)
        assert shapes.count((n, n)) == len(gates) == 1 + (gates[0] is None)
        event("companion decomposed" if gates[0] is None else "read off M")

    def test_bound_covers_the_eigenvalue_dropped_for_mu(self):
        # The view X (M itself with c = 1 at width n = 20, then B = Q^T M Q
        # with c = Q^T 1) couples u = c/|c| to a unit w orthogonal to it with
        # weight rho, at diagonals mu and mu + delta, delta < 0 small: r = rho w,
        # and of eig(X)'s mu + delta/2 +- sqrt(delta^2/4 + rho^2) the one nearer
        # mu is dropped. The kept one sits about 2 rho + 4 rho^2 / n from the
        # companion's exact eigenvalue: beyond Weyl's 2 ||r|| alone.
        n, mu, delta, rho, e = 20, 3.0, -1e-4, 0.1, -5.0
        rng = np.random.default_rng(4)
        for width in (n, 12):
            c = np.ones(n)
            if width < n:  # Q: orthonormal, 1 in its range, c not along an axis
                q = np.linalg.qr(np.column_stack([c, rng.standard_normal((n, width - 1))]))[0]
                c = (q @ np.linalg.qr(rng.standard_normal((width, width)))[0]).T @ c
            planted = np.concatenate([[mu, mu + delta], rng.uniform(-1.0, 1.0, width - 2)])
            vectors = np.linalg.qr(np.column_stack([c, rng.standard_normal((width, width - 1))]))[0]
            u, w = vectors[:, 0], vectors[:, 1]
            x = (vectors * planted) @ vectors.T + rho * (np.outer(u, w) + np.outer(w, u))
            x = (x + x.T) / 2.0
            pad = np.zeros(n - width)
            estimate, bound = certificate._read_off(x, c, np.r_[np.linalg.eigvalsh(x), pad], 2.0, 1.0, e)
            exact = np.r_[np.linalg.eigvalsh(2.0 * x - np.outer(c, c) + e * np.eye(width)), pad + e]
            deviation = np.max(np.abs(np.sort(estimate) - np.sort(exact)))
            assert 2.0 * rho * 1.005 < deviation <= bound, width


def recorded_tiles(monkeypatch, side):
    """The (rows, cols) of every pointset._pair_tile call, in tiles of side points."""
    calls, tile = [], pointset._pair_tile
    monkeypatch.setattr(pointset, "_tile_side", lambda n: side)
    monkeypatch.setattr(
        pointset, "_pair_tile", lambda x, sq, rows, cols: calls.append((rows, cols)) or tile(x, sq, rows, cols)
    )
    return calls


class TestRowBlockWalk:
    """Each view walks the unordered pairs of tiles of M, evaluated from pair
    values computed from the coordinates, so B's view holds no n x n array."""

    def test_certify_evaluates_each_pair_once_per_class(self, johnson_14_3, tmp_path, capsys):
        # A fresh johnson(14, 3), all of whose classes take B's view: each
        # class evaluates the tiles on and above the diagonal, once each.
        path = tmp_path / "points.json"
        path.write_text(json.dumps(johnson_14_3.to_dict()))
        with recorded_shapes("lagrange_basis", certificate) as shapes:
            assert cli.run(["certify", str(path), "--setting", "all"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        n, side = johnson_14_3.n, pointset._tile_side(johnson_14_3.n)
        assert {v["n"] for v in verdicts} == {n}
        tiles = pointset._tiles(n)
        upper = sum((r.stop - r.start) * (c.stop - c.start) for r in tiles for c in tiles if c.start >= r.start)
        assert shapes and all(rows <= side and width <= side for rows, width in shapes)
        assert sum(rows * width for rows, width in shapes) == upper * len(verdicts)

    def test_certify_walks_each_tile_pair_once_per_setting(self, johnson_10_3, tmp_path, capsys, monkeypatch):
        # A fresh johnson(10, 3) in tiles of 32: grouping computes each tile
        # on and above the diagonal once, then B's view of all 3 classes
        # reads each unordered tile pair once, and no tile below the diagonal.
        path = tmp_path / "points.json"
        path.write_text(json.dumps(johnson_10_3.to_dict()))
        calls = recorded_tiles(monkeypatch, 32)
        assert cli.run(["certify", str(path), "--setting", "all"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert [v["setting"] for v in verdicts] == ["euclidean"] * 3
        tiles = pointset._tiles(johnson_10_3.n)
        assert len(tiles) == 6
        upper = [(rows, cols) for rows in tiles for cols in tiles if cols.start >= rows.start]
        assert calls == upper + upper
        assert not any(rows.start > cols.start for rows, cols in calls)

    def test_m_view_walks_each_tile_pair_once_per_class(self, monkeypatch):
        # e8 in tiles of 64, its profiles read first: M's view (the euclidean
        # and spherical rows, n = 240 < 2 N_cap) walks the unordered tile
        # pairs once per class, filling M's mirror tiles by transposes; B's
        # view (the antipodal rows, on the half set) once per setting.
        calls = recorded_tiles(monkeypatch, 64)
        ps = construct_named("e8_roots")
        ims = {setting: [indicator_matrix(ps, index, setting) for index in class_index_range(ps, setting)]
               for setting in applicable_settings(ps)}
        views = set()
        for setting, group in ims.items():
            calls.clear()
            verify_key_lemmas(group)
            im, tiles = group[0], pointset._tiles(group[0].n)
            m_view = im.n < 2 * im.n_cap
            views.add((setting, m_view))
            walks = len(group) if m_view else 1
            assert calls == [(rows, cols) for rows in tiles for cols in tiles if cols.start >= rows.start] * walks
        assert views == {("euclidean", True), ("spherical", True),
                         ("antipodal_even_v1", False), ("antipodal_even_v2", False)}

    def test_a_settings_classes_add_an_l_by_l_sum_each(self, johnson_14_3, traced_peak):
        # B's view of 1, then 3 classes from one walk, the basis memoized:
        # each further class holds its l x l B (l = 136) and a T x l Q_I B
        # beside the shared tile, not an n x l MQ (n = 455).
        def verdicts(count):
            ims = [indicator_matrix(johnson_14_3, index, "euclidean") for index in (1, 2, 3)[:count]]
            return traced_peak(verify_key_lemmas, ims)

        verdicts(1)
        n, width = johnson_14_3.n, 136
        assert verdicts(3) - verdicts(1) < 8 * n * width

    def test_reading_m_runs_no_entry_checks(self, johnson_14_3, monkeypatch):
        # im.matrix is M's rows alone: the same bits as M's view's walk,
        # with no companion entry checks on the way.
        im = indicator_matrix(johnson_14_3, 1, "euclidean")
        want = certificate._view([im], None, [certificate._rule(im)])[0][0]
        with monkeypatch.context() as patched:
            patched.setattr(certificate, "_entry_maxima", None)  # a call would raise
            assert np.array_equal(im.matrix, want)

    def test_a_verdict_traces_less_than_one_dense_matrix(self, johnson_14_3, traced_peak):
        # With the basis memoized (by class 2), class 1's verdict holds a
        # tile's temporaries, K, B and Q_I B, not M or its companion.
        verify_key_lemma(indicator_matrix(johnson_14_3, 2, "euclidean"))
        im = indicator_matrix(johnson_14_3, 1, "euclidean")
        assert traced_peak(verify_key_lemma, im) < 8 * im.n * im.n

    def test_a_held_asymmetric_m_is_checked_entry_by_entry(self, johnson_14_3):
        # The walk skips the companion's symmetry check only because an
        # evaluated M is an entrywise function of pair values that are
        # exactly symmetric by construction, here on several tiles of
        # inexact coordinates. A held M is not trusted: one made asymmetric
        # by hand has its companion checked entry by entry.
        rotation = np.linalg.qr(np.random.default_rng(5).standard_normal((15, 15)))[0]
        ps = PointSet(dimension=15, points=johnson_14_3.points @ rotation)
        im = indicator_matrix(ps, 1, "euclidean")
        assert len(pointset._tiles(im.n)) > 1
        assert np.array_equal(im.matrix, im.matrix.T)
        matrix = np.array(im.matrix)
        matrix[1, 0] += 1e-6
        v = verify_key_lemma(dataclasses.replace(im, matrix=matrix))
        assert v.companion["sign_bound_reason"] == "sign matrix must be symmetric"
        # On M's own view too: hand-built, with no source and n < 2 N_cap.
        hand, context = hand_built(matrix, "euclidean", im.k_claimed, 300)
        with recorded_shapes() as shapes:
            v = verify_key_lemma(hand, context)
        assert not v.zero_applicable and (im.n, im.n) in shapes
        assert v.companion["measured_multiplicity"] >= 1
        assert v.companion["sign_bound_reason"] == "sign matrix must be symmetric"

    @pytest.mark.parametrize("name,d", [("e8_roots", None), ("hypercube", 5)])
    def test_the_walks_sign_bound_is_the_dense_companions(self, name, d):
        # Every class in every setting, on B's view (e8's half set) and on
        # M's: the companion dict equals one whose sign bound comes from
        # verify_sign_matrix_bound on the dense companion scale*M - shift + e*I.
        ps = construct_named(name, d)
        for setting in applicable_settings(ps):
            for index in class_index_range(ps, setting):
                im = indicator_matrix(ps, index, setting)
                v = verify_key_lemma(im)
                signed = setting in certificate.SIGNED_SETTINGS
                scale, shift = (1.0, 0.0) if signed else (2.0, 1.0)
                e, m = v.companion["expected_eigenvalue"], v.companion["measured_multiplicity"]
                want = {key: value for key, value in v.companion.items() if not key.startswith("sign_bound")}
                want["sign_bound_ok"] = None
                if m >= 1:
                    companion = scale * im.matrix - shift + e * np.eye(im.n)
                    try:
                        bound = verify_sign_matrix_bound(companion, e, m)
                        want.update(sign_bound_ok=bound["ok"], sign_bound_rhs=bound["rhs"])
                    except InputError as exc:
                        want.update(sign_bound_ok=False, sign_bound_reason=str(exc))
                assert v.companion == want, (setting, index)


def refuse(*args, **kwargs):
    raise AssertionError("an evaluated M was read")


class TestOneReaderPerKind:
    """An evaluated M is read only as its tile pairs I <= J, a mirror tile as
    the transpose; a held M only off its own array, a strip at a time."""

    @pytest.mark.parametrize("name", ["johnson_10_3", "e8_half_set"])
    def test_an_evaluated_m_reads_only_upper_tiles(self, name, monkeypatch):
        # In tiles of 16, fresh sets: B's and M's views of every class, the
        # library's matrix, adjacency and deviation, and the pair matrices.
        calls = recorded_tiles(monkeypatch, 16)
        ps, settings = (construct_johnson(10, 3), ["euclidean"]) if name == "johnson_10_3" else (
            construct_named("e8_roots"), ["antipodal_even_v1", "antipodal_even_v2"])
        points = antipodal_structure(ps).half if name == "e8_half_set" else ps
        readers = {"squared distances": lambda: pointset.squared_distance_matrix(points),
                   "inner products": lambda: pointset.inner_product_matrix(points)}
        for setting in settings:
            for index in class_index_range(ps, setting):
                im = indicator_matrix(ps, index, setting)
                assert im.n == points.n and len(pointset._tiles(im.n)) > 4
                fresh = functools.partial(indicator_matrix, ps, index, setting)
                readers.update({
                    (setting, index, "B's view"): lambda fresh=fresh: verify_key_lemma(fresh()),
                    (setting, index, "M's view"): lambda im=im: certificate._view(
                        [im], None, [certificate._rule(im)]),
                    (setting, index, "matrix"): lambda fresh=fresh: fresh().matrix,
                    (setting, index, "adjacency"): lambda fresh=fresh: fresh().adjacency,
                    (setting, index, "deviation"): lambda fresh=fresh: fresh().max_decomposition_dev,
                })
        for reader, read in readers.items():
            calls.clear()
            read()
            assert calls and all(rows.start <= cols.start for rows, cols in calls), reader

    def test_a_held_m_keeps_its_verdict_off_its_own_array(self, monkeypatch):
        # Each held case's verdict is the one recorded before a held M got a
        # reader of its own (golden/held_verdicts.json), with no pair tile
        # and no evaluate read for it: only the held arrays. Its deviation is
        # the one its own arrays give, max |M - k*I - A| taken dense.
        golden = json.loads((Path(__file__).parent / "golden" / "held_verdicts.json").read_text())
        calls, tile = [], pointset._pair_tile
        monkeypatch.setattr(pointset, "_pair_tile", lambda *args: calls.append(args[2:]) or tile(*args))
        cases = held_cases()
        assert sorted(cases) == sorted(golden)
        for im, _ in cases.values():
            certificate._basis(im)  # built off the coordinates before the check
        calls.clear()
        for name, (im, context) in cases.items():
            if im.evaluate is not None:
                im = dataclasses.replace(im, evaluate=refuse)
            v = verify_key_lemma(im, context)
            assert json.loads(json.dumps(v.to_dict())) == golden[name], name
            assert v.decomposition_dev == np.max(np.abs(im.matrix - im.k_claimed * np.eye(im.n) - im.adjacency))
        assert calls == []

    def test_a_replaced_m_reports_its_own_deviation(self):
        # dataclasses.replace carries no deviation over: each M off an
        # integer by 0.3 at one pair reports it, on B's view and M's.
        for name, (im, context) in held_cases().items():
            if name.startswith("off an integer"):
                assert im.max_decomposition_dev == pytest.approx(0.3, abs=1e-12), name
                assert verify_key_lemma(im, context).decomposition_dev == pytest.approx(0.3, abs=1e-12), name

    def test_held_and_evaluated_classes_of_one_basis_keep_their_verdicts(self, johnson_10_3):
        # One walk over a held (asymmetric) class and an evaluated one of the
        # same setting gives each the verdict it gets alone.
        def classes():
            held, evaluated = (indicator_matrix(johnson_10_3, index, "euclidean") for index in (1, 2))
            matrix = np.array(held.matrix)
            matrix[1, 0] += 1e-6
            return [dataclasses.replace(held, matrix=matrix), evaluated]

        alone = [verify_key_lemma(im) for im in classes()]
        together = classes()
        assert certificate._basis(together[0]) is certificate._basis(together[1]) is not None
        assert verify_key_lemmas(together) == verify_key_lemmas(together[::-1])[::-1] == alone
        assert alone[0].companion["sign_bound_reason"] == "sign matrix must be symmetric"


class TestHalfSetClasses:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([5, 6, 7]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4, 8]),
    )
    @example(d=5, seed=13994218, tile_size=3)  # a class top one ulp higher in the half set's tiles
    def test_half_set_adjacency_is_the_full_sets_classes(self, half_rows, d, seed, tile_size):
        # Rotated, so the inner products are inexact, and cut in tiles of a
        # few points: the half set's own tiles group its pairs otherwise than
        # the full set's, and their products may differ in the last bits. Each
        # antipodal class adjacency must still be the profile's classes of
        # the full set's pair values at the half set's rows.
        ps = construct_named("hypercube", d)
        rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal((ps.dimension,) * 2))[0]
        ps = PointSet(dimension=ps.dimension, points=ps.points @ rotation)
        with mock.patch.object(pointset, "_tile_side", lambda n: tile_size):
            structure, profile = antipodal_structure(ps), inner_product_profile(ps)
            rows = half_rows(ps)
            labels = np.searchsorted(profile.tops, pointset.inner_product_matrix(ps)[np.ix_(rows, rows)])
            assert len(pointset._tiles(len(rows))) > 1
            for setting in applicable_settings(ps)[2:]:
                for index in class_index_range(ps, setting):
                    im = indicator_matrix(ps, index, setting)
                    p = structure.s - len(structure.beta_abs) + index - 1
                    want = (labels == p).astype(np.int8)
                    if 2 * p != structure.s:
                        minus = (labels == structure.s - p).astype(np.int8)
                        want = want - minus if setting.endswith("v2") else want + minus
                    np.fill_diagonal(want, 0)
                    assert np.array_equal(im.adjacency, want), (setting, index)


class TestEntryCheckMemory:
    def test_sign_matrix_checks_use_one_buffer(self, johnson_14_3, traced_peak):
        # The entry checks run a strip of _tiles rows at a time through one
        # strip buffer, not through an n x n one. Besides it, numpy's ufunc
        # buffer (8 bytes an entry) reads the transposed columns.
        im = indicator_matrix(johnson_14_3, 1, "euclidean")
        companion = 2.0 * im.matrix - 1.0 - 5.0 * np.eye(im.n)
        assert verify_sign_matrix_bound(companion, -5.0, 350)["ok"]
        n = im.n
        strip = 8 * pointset._tile_side(n) * n  # 64 rows at n = 455
        assert traced_peak(verify_sign_matrix_bound, companion, -5.0, 350) < 1.25 * strip + 8 * np.getbufsize()

    def test_indicator_spectrum_makes_no_symmetric_copy(self, johnson_14_3, traced_peak):
        im = indicator_matrix(johnson_14_3, 1, "euclidean")
        assert eigen_multiplicities(im).eigenvalues == eigen_multiplicities(im.matrix).eigenvalues
        n = im.n
        assert traced_peak(eigen_multiplicities, im) < 0.25 * 8 * n * n
        assert traced_peak(eigen_multiplicities, im.matrix) > 8 * n * n

    def test_dense_companion_spectrum_makes_no_symmetric_copy(self, e8, monkeypatch, traced_peak):
        # 200 of e8's points (n = 200 < 2 N_cap) take the dense path, and the
        # bound read off M's spectrum leaves the Seidel companion's counts
        # undecided. The companion is built exactly symmetric, so it goes to
        # eigvalsh as it is; eigen_multiplicities would first copy it into
        # (a + a^T)/2.
        im = indicator_matrix(e8_part(e8), 1, "euclidean")
        n = im.n
        spectra = []
        real = certificate._eigvalsh

        def recorded(arr):
            spectra.append(arr)
            return real(arr)

        monkeypatch.setattr(certificate, "_eigvalsh", recorded)
        verify_key_lemma(im)
        monkeypatch.undo()
        matrix, companion = spectra
        assert np.array_equal(matrix, im.matrix)
        assert np.array_equal(companion, companion.T)
        assert tuple(real(companion)) == eigen_multiplicities(companion).eigenvalues
        assert traced_peak(real, companion) < 0.25 * 8 * n * n
        assert traced_peak(eigen_multiplicities, companion) > 8 * n * n


class TestBlockPartition:
    @pytest.mark.parametrize("name", ["johnson_10_3", "e8"])
    def test_certify_verdicts_do_not_depend_on_the_row_blocks(self, name, request, tmp_path, capsys, monkeypatch):
        # johnson(10,3)'s verdicts come from B's view, e8's from M's. With
        # one row a block every pass takes one row, or one screened pair, at a time.
        path = tmp_path / "points.json"
        path.write_text(json.dumps(request.getfixturevalue(name).to_dict()))
        outputs = []

        def one_row(count, width, n):
            return (slice(i, i + 1) for i in range(count))

        for blocks in (pointset._row_blocks, one_row):
            monkeypatch.setattr(pointset, "_row_blocks", blocks)
            code = cli.run(["certify", str(path), "--setting", "all"])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]

"""The Lagrange core and the settings table against per-setting references.

The reference functions below are the per-setting loops the core replaced:
four ratio families, the forward map's ratio matrix and three indicator
builders. The core multiplies the same factors in the same order, so ratios
and the forward map match them bit for bit and the indicator matrices match
them value for value (the euclidean reference writes its factors as
(a_j - X) / (a_j - a_i), which can carry the other sign on an exact zero).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdist import certificate, construct_johnson, construct_named
from fewdist.bounds import SETTING_TABLE, theorem_context
from fewdist.certificate import (
    SIGNED_SETTINGS,
    class_index_range,
    indicator_matrix,
)
from fewdist.inverse import forward_K, forward_K_full
from fewdist.lagrange import lagrange_basis, lagrange_weights
from fewdist.pointset import (
    antipodal_structure,
    distance_profile,
    inner_product_profile,
    squared_distance_matrix,
)
from fewdist.ratios import (
    antipodal_even_ratios,
    applicable_settings,
    antipodal_odd_ratios,
    euclidean_ratios,
    spherical_ratios,
)

EPS = np.finfo(float).eps


# --- references ------------------------------------------------------------


def ref_euclidean_ratios(vals):
    out = []
    for i, ai in enumerate(vals):
        k = 1.0
        for j, aj in enumerate(vals):
            if j != i:
                k *= aj / (aj - ai)
        out.append(k)
    return out


def ref_spherical_ratios(vals):
    out = []
    for i, bi in enumerate(vals):
        k = 1.0
        for j, bj in enumerate(vals):
            if j != i:
                k *= (1.0 - bj) / (bi - bj)
        out.append(k)
    return out


def ref_antipodal_odd_ratios(vals, variant):
    out = []
    for i, bi in enumerate(vals):
        k = 1.0
        for j, bj in enumerate(vals):
            if j != i:
                k *= (1.0 - bj * bj) / (bi * bi - bj * bj)
        if variant == 2:
            k /= bi
        out.append(k)
    return out


def ref_antipodal_even_ratios(vals, variant):
    if variant == 1:
        return ref_antipodal_odd_ratios(vals, 1)
    out = []
    for i, bi in enumerate(vals[1:], start=1):
        k = 1.0
        for j, bj in enumerate(vals[1:], start=1):
            if j != i:
                k *= (1.0 - bj * bj) / (bi * bi - bj * bj)
        out.append(k / bi)
    return out


def ref_ratio_matrix(full):
    # R[j, i] = v_j / (v_j - v_i) with a unit diagonal so products skip j = i.
    diff = full[:, None] - full[None, :]
    np.fill_diagonal(diff, 1.0)
    ratios = full[:, None] / diff
    np.fill_diagonal(ratios, 1.0)
    return ratios


def ref_forward_K_full(t):
    return ref_ratio_matrix(np.append(np.asarray(t, float), 1.0)).prod(axis=0)


def ref_euclidean_matrix(d2, vals, i0):
    matrix = np.ones_like(d2)
    for j, aj in enumerate(vals):
        if j != i0:
            matrix *= (aj - d2) / (aj - vals[i0])
    return matrix


def ref_spherical_matrix(gram, vals, i0):
    matrix = np.ones_like(gram)
    for j, bj in enumerate(vals):
        if j != i0:
            matrix *= (gram - bj) / (vals[i0] - bj)
    return matrix


def ref_antipodal_matrix(gram, beta, i0, variant, skip_zero):
    gram2 = gram * gram
    bi = beta[i0]
    matrix = np.ones_like(gram)
    for j, bj in enumerate(beta):
        if j == i0 or (skip_zero and j == 0):
            continue
        matrix *= (gram2 - bj * bj) / (bi * bi - bj * bj)
    if variant == 2:
        matrix *= gram / bi
    return matrix


def _symmetrize(matrix):
    return (matrix + matrix.T) / 2.0


def reference_indicator(ps, setting, class_index):
    i0 = class_index - 1
    if setting == "euclidean":
        dp = distance_profile(ps)
        return ref_euclidean_matrix(squared_distance_matrix(ps), dp.squared_distances, i0)
    if setting == "spherical":
        ipp = inner_product_profile(ps)
        return ref_spherical_matrix(_symmetrize(ps.points @ ps.points.T), ipp.inner_products, i0)
    half = antipodal_structure(ps).half.points
    gram = _symmetrize(half @ half.T)
    variant = 2 if setting.endswith("v2") else 1
    skip_zero = setting == "antipodal_even_v2"
    return ref_antipodal_matrix(gram, antipodal_structure(ps).beta_abs, i0, variant, skip_zero)


# --- strategies ------------------------------------------------------------


def increasing(low, high, min_size=1, max_size=6, gap=1e-3):
    return (
        st.lists(
            st.floats(min_value=low, max_value=high, allow_nan=False),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
        .map(sorted)
        .filter(lambda v: all(b - a > gap for a, b in zip(v, v[1:])))
    )


def same_bits(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


# --- ratios and the forward map --------------------------------------------


@settings(max_examples=300, deadline=None)
@given(increasing(0.01, 50.0))
def test_euclidean_weights_match_reference(vals):
    assert same_bits(lagrange_weights(vals, 0.0), ref_euclidean_ratios(vals))
    assert same_bits(euclidean_ratios(vals), ref_euclidean_ratios(vals))


@settings(max_examples=300, deadline=None)
@given(increasing(-0.999, 0.999))
def test_spherical_weights_match_reference(vals):
    assert same_bits(lagrange_weights(vals, 1.0), ref_spherical_ratios(vals))
    assert same_bits(spherical_ratios(vals), ref_spherical_ratios(vals))


@settings(max_examples=300, deadline=None)
@given(increasing(0.01, 0.99, max_size=4), st.sampled_from([1, 2]))
def test_antipodal_ratios_match_reference(beta, variant):
    assert same_bits(antipodal_odd_ratios(beta, variant), ref_antipodal_odd_ratios(beta, variant))
    even = [0.0, *beta]
    assert same_bits(antipodal_even_ratios(even, variant), ref_antipodal_even_ratios(even, variant))


@settings(max_examples=300, deadline=None)
@given(increasing(0.001, 0.999, max_size=5))
def test_forward_map_matches_ratio_matrix(t):
    assert same_bits(forward_K_full(t), ref_forward_K_full(t))
    assert same_bits(forward_K(t), ref_forward_K_full(t)[:-1])


# --- basis polynomials -----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    increasing(0.01, 10.0, min_size=2),
    st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=8),
    st.data(),
)
def test_basis_matches_indicator_loops(vals, extra, data):
    i0 = data.draw(st.integers(0, len(vals) - 1))
    # Pair values sit on the nodes, as a set's class values do, and between them.
    X = np.array([*vals, *extra]).reshape(1, -1)
    assert np.array_equal(lagrange_basis(vals, i0, X), ref_euclidean_matrix(X, vals, i0))
    assert same_bits(lagrange_basis(vals, i0, X), ref_spherical_matrix(X, vals, i0))
    squares = [b * b for b in vals]
    assert same_bits(
        lagrange_basis(squares, i0, X * X), ref_antipodal_matrix(X, vals, i0, 1, False)
    )


@settings(max_examples=300, deadline=None)
@given(
    increasing(-10.0, 10.0, min_size=2),
    st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=8),
)
def test_basis_sums_to_one(nodes, xs):
    # Each L_i carries at most 4m - 5 roundings of eps/2 relative to itself
    # and the sum m - 1 more relative to sum |L_i|; 4 m eps sum |L_i| covers both.
    m = len(nodes)
    for x0 in xs:
        weights = lagrange_weights(nodes, x0)
        assert abs(sum(weights) - 1.0) <= 4 * m * EPS * sum(abs(w) for w in weights)
    X = np.asarray(xs)
    basis = np.array([lagrange_basis(nodes, i, X) for i in range(m)])
    assert np.all(np.abs(basis.sum(axis=0) - 1.0) <= 4 * m * EPS * np.abs(basis).sum(axis=0))


# --- indicator matrices and the table --------------------------------------

FIVE_SETS = {
    "johnson_10_3": lambda: construct_johnson(10, 3),
    "e8_roots": lambda: construct_named("e8_roots"),
    "hypercube_5": lambda: construct_named("hypercube", d=5),
    "hypercube_6": lambda: construct_named("hypercube", d=6),
    "icosahedron": lambda: construct_named("icosahedron"),
}


@pytest.fixture(scope="module", params=list(FIVE_SETS))
def indicators(request):
    ps = FIVE_SETS[request.param]()
    found = [
        (setting, index, indicator_matrix(ps, index, setting))
        for setting in applicable_settings(ps)
        for index in class_index_range(ps, setting)
    ]
    return ps, found


def test_indicator_matrices_match_references(indicators):
    ps, found = indicators
    for setting, index, im in found:
        assert np.array_equal(im.matrix, reference_indicator(ps, setting, index)), (setting, index)


def test_indicator_matrices_are_exactly_symmetric(indicators):
    # a @ a.T and the squared distance matrix are exactly symmetric, and so is
    # every entrywise function of them; no symmetrising pass is needed.
    _, found = indicators
    for setting, index, im in found:
        assert np.array_equal(im.matrix, im.matrix.T), (setting, index)


def test_reading_the_decomposition_builds_no_m(monkeypatch):
    # n, the adjacency and the deviation come without an n x n M:
    # lagrange_basis sees strips of rows of the pair values only. M is built
    # on first access, a strip at a time, so no n x n block of pair values
    # exists beside it.
    ps = construct_johnson(14, 3)
    shapes = []
    real = certificate.lagrange_basis

    def recording(nodes, i, x):
        shapes.append(x.shape)
        return real(nodes, i, x)

    monkeypatch.setattr(certificate, "lagrange_basis", recording)
    im = indicator_matrix(ps, 2, "euclidean")
    assert (im.n, im.adjacency.shape) == (455, (455, 455))
    assert im.max_decomposition_dev < 1e-12
    assert shapes and all(rows < im.n for rows, _ in shapes)
    built = len(shapes)
    assert np.array_equal(im.matrix, reference_indicator(ps, "euclidean", 2))
    assert all(rows < im.n for rows, _ in shapes[built:])
    assert sum(rows for rows, _ in shapes[built:]) == im.n


def test_table_matches_theorem_settings():
    assert tuple(SETTING_TABLE) == (
        "euclidean",
        "spherical",
        "antipodal_odd_v1",
        "antipodal_odd_v2",
        "antipodal_even_v1",
        "antipodal_even_v2",
    )
    assert SIGNED_SETTINGS == ("antipodal_odd_v2", "antipodal_even_v2")
    with pytest.raises(TypeError):
        SETTING_TABLE["euclidean"] = SETTING_TABLE["spherical"]
    context = theorem_context("antipodal_even_v2", 8, 4)
    assert (context.N, context.cardinality_threshold) == (8, 34)

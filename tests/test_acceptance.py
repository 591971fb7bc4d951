"""End-to-end acceptance suite: nine criteria, one test and one verdict line each.

Each criterion prints a single PASS line with its headline measurements; a
failure shows up as the test's own failure line instead. Stated runtime
budgets are enforced with a monotonic clock. Randomized criteria use fixed
seeds so every run checks the identical sample set.
"""

import contextlib
import io
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from fewdist import (
    PointSet,
    congruent,
    construct_johnson,
    construct_named,
    euclidean_embeddable,
)
from fewdist.bounds import ratio_bound_U
from fewdist.certificate import (
    class_index_range,
    eigen_multiplicities,
    indicator_matrix,
    numeric_rank,
    verify_key_lemma,
    verify_sign_matrix_bound,
)
from fewdist.cli import run
from fewdist.errors import SingularTupleError
from fewdist.inverse import (
    forward_K,
    forward_K_full,
    invert_auto,
    invert_K,
    invert_s3_closed,
    jacobian,
    jacobian_det_closed,
)
from fewdist.jsonio import dumps
from fewdist.pointset import affine_dimension, squared_distance_matrix
from fewdist.ratios import analyze, applicable_settings
from fewdist.search import enumerate_tuples, realize_catalog


def sample_interior(rng, s1: int, gap: float) -> np.ndarray:
    """Uniform draw from the open ordered simplex with all gaps >= gap."""
    while True:
        t = np.sort(rng.uniform(0.0, 1.0, size=s1))
        padded = np.concatenate([[0.0], t, [1.0]])
        if np.min(np.diff(padded)) >= gap:
            return t


def fd_jacobian(t: np.ndarray, h: float = 1e-7) -> np.ndarray:
    out = np.empty((t.size, t.size))
    for j in range(t.size):
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        out[:, j] = (forward_K(tp) - forward_K(tm)) / (2.0 * h)
    return out


def test_criterion_1_johnson_pipeline():
    t0 = time.monotonic()
    ps = construct_johnson(10, 3)
    assert ps.n == 165
    report = analyze(ps)
    assert report.selected == "euclidean"
    rep = report.reports[0]
    assert rep.hypothesis_met is True
    assert rep.rounded_k == (3, -3, 1)
    assert sum(rep.rounded_k) == 1
    assert all(rep.integrality)
    assert all(abs(k) <= 6 for k in rep.rounded_k)
    assert rep.context.ratio_bound == 6
    for class_index in (1, 2, 3):
        verdict = verify_key_lemma(indicator_matrix(ps, class_index, "euclidean"))
        assert verdict.all_passed is True
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: 165 points, k=(3,-3,1), 3 certificates, {elapsed:.2f}s < 5s")


def test_criterion_2_certificate_rank_caps(bundled_sets):
    checks = 0
    for name, ps in bundled_sets.items():
        for setting in applicable_settings(ps):
            for class_index in class_index_range(ps, setting):
                im = indicator_matrix(ps, class_index, setting)
                if im.s < 2:
                    # One distance class: the theorem context is out of scope
                    # but the rank cap is still dim of the degree-0 space.
                    rank = numeric_rank(im.matrix)
                    zero_mult = eigen_multiplicities(im.matrix).zero_multiplicity
                    cap = im.n_cap
                else:
                    verdict = verify_key_lemma(im)
                    rank, zero_mult, cap = verdict.rank, verdict.zero_multiplicity, verdict.rank_cap
                assert rank <= cap, f"{name}/{setting}/{class_index}: rank {rank} > cap {cap}"
                if ps.n >= 2 * cap:
                    assert zero_mult >= cap, (
                        f"{name}/{setting}/{class_index}: zero multiplicity {zero_mult} < {cap}"
                    )
                checks += 1
    assert checks == 43
    print(f"criterion 2 PASS: rank <= cap in all {checks} set/setting/class combinations")


def test_criterion_3_e8_antipodal_suite():
    t0 = time.monotonic()
    e8 = construct_named("e8_roots")
    assert e8.n == 240
    report = analyze(e8)
    assert report.selected == "antipodal"
    v1, v2 = report.reports
    assert v1.setting == "antipodal_even_v1" and v2.setting == "antipodal_even_v2"
    assert v1.rounded_k == (-3, 4)
    assert v2.rounded_k == (2,)
    assert all(v1.integrality) and all(v2.integrality)
    # The bound is an exact integer floor, so equality cannot flip with floats.
    assert ratio_bound_U(36) == 4
    assert v1.context.N == 36 and v1.context.ratio_bound == 4
    assert abs(v1.rounded_k[-1]) == ratio_bound_U(36)
    assert report.rational["applicable"] is True
    assert report.rational["parity"] == "even"
    assert report.rational["indices"] == [2]
    assert report.rational["values"] == [Fraction(1, 2)]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 3 PASS: |k2|=4=U(36), beta2=1/2 exact, {elapsed:.2f}s < 10s")


def test_criterion_4_negative_controls(pentagon, icosahedron, tmp_path):
    pent = analyze(pentagon, setting="euclidean").reports[0]
    assert pent.n == 5 and pent.context.cardinality_threshold == 8
    assert pent.hypothesis_met is False
    assert abs(pent.k_values[0] - 1.618034) <= 1e-6
    assert not all(pent.integrality)

    ico = analyze(icosahedron, setting="spherical").reports[0]
    assert ico.n == 12 and ico.context.cardinality_threshold == 18
    assert ico.hypothesis_met is False
    assert abs(ico.k_values[2] - 2.236068) <= 1e-6
    assert not all(ico.integrality)

    # Hypothesis not met means the theorem is not violated: exit code stays 0.
    pent_file = tmp_path / "pentagon.json"
    pent_file.write_text(json.dumps(pentagon.to_dict()))
    ico_file = tmp_path / "icosahedron.json"
    ico_file.write_text(json.dumps(icosahedron.to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["ratios", str(pent_file), "--setting", "euclidean"]) == 0
        assert run(["ratios", str(ico_file), "--setting", "spherical"]) == 0
    print("criterion 4 PASS: pentagon k~1.618034 (5<8), icosahedron k~2.236068 (12<18), exit 0")


def test_criterion_5_inversion_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    gap = 1e-2  # satisfies the required gap >= 1e-3
    worst = {"round_trip": 0.0, "jacobian": 0.0, "det": 0.0, "k_sum": 0.0}
    for s1 in range(1, 6):  # s in 2..6 has s-1 free distances
        for _ in range(1000):
            t = sample_interior(rng, s1, gap)
            K = forward_K(t)
            signs_ok = all((k > 0) == (i % 2 == 0) for i, k in enumerate(K))
            assert signs_ok
            worst["k_sum"] = max(worst["k_sum"], abs(math.fsum(forward_K_full(t)) - 1.0))
            J = jacobian(t)
            fd = fd_jacobian(t)
            worst["jacobian"] = max(
                worst["jacobian"], np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(J)))
            )
            closed = jacobian_det_closed(t)
            worst["det"] = max(worst["det"], abs(closed - np.linalg.det(J)) / abs(closed))
            # The Newton residual is measured in K-space; the Jacobian
            # conditioning amplifies it in t-space, so the round trip runs
            # at a residual two orders below the t-space target.
            result = invert_K(K, tol_res=1e-12)
            assert result.success
            worst["round_trip"] = max(
                worst["round_trip"], float(np.max(np.abs(np.asarray(result.t) - t)))
            )
    assert worst["round_trip"] < 1e-8
    assert worst["jacobian"] < 1e-6
    assert worst["det"] < 1e-9
    assert worst["k_sum"] < 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        "criterion 5 PASS: 5000 samples, round trip "
        f"{worst['round_trip']:.1e}, jacobian {worst['jacobian']:.1e}, "
        f"det {worst['det']:.1e}, sum {worst['k_sum']:.1e}, {elapsed:.1f}s < 60s"
    )


def test_criterion_6_closed_form_s3():
    closed = invert_s3_closed(6.0, -8.0)
    assert np.allclose(closed.t, (0.5, 0.75), atol=1e-12)
    assert closed.branches == ("+", "-")

    try:
        invert_s3_closed(3.0, -3.0)
        raised = False
    except SingularTupleError:
        raised = True
    assert raised
    fallback = invert_auto([3.0, -3.0])
    assert fallback.success and fallback.method == "newton"
    assert np.max(np.abs(np.asarray(fallback.t) - (1.0 / 3.0, 2.0 / 3.0))) < 1e-10
    print("criterion 6 PASS: (6,-8)->(1/2,3/4) branches (+,-); (3,-3) singular -> newton (1/3,2/3)")


def test_criterion_7_enumeration_finiteness():
    brute = set()
    for combo in itertools.product(range(-6, 7), repeat=2):
        full = combo + (1 - sum(combo),)
        if all(k != 0 and abs(k) <= 6 and (k > 0) == (i % 2 == 0) for i, k in enumerate(full)):
            brute.add(full)
    catalog = realize_catalog(enumerate_tuples(10, 3))
    got = {e.k + (e.k_last,) for e in catalog.entries}
    assert got == brute
    assert len(catalog.entries) == 21

    entry = {e.k: e for e in catalog.entries}[(3, -3)]
    assert entry.status == "realized"
    assert np.allclose(entry.t, (1.0 / 3.0, 2.0 / 3.0), atol=1e-9)

    again = realize_catalog(enumerate_tuples(10, 3))
    assert dumps(catalog.to_dict()) == dumps(again.to_dict())
    print("criterion 7 PASS: catalog matches brute force (21 tuples), bytes stable, (3,-3) realized")


def test_criterion_8_sign_matrix_bound():
    rng = np.random.default_rng(8)
    for trial in range(1000):
        n = int(rng.integers(2, 31))
        upper = rng.integers(-1, 2, size=(n, n))
        A = np.triu(upper, k=1)
        A = (A + A.T).astype(float)
        spectrum = eigen_multiplicities(A)
        # Largest multiplicity first, then largest magnitude: the tightest case.
        e, m = max(spectrum.clusters, key=lambda c: (c[1], abs(c[0])))
        outcome = verify_sign_matrix_bound(A, e, m)
        assert outcome["ok"], f"trial {trial}: e={e} m={m} n={n} violates the bound"
        assert e * e <= (n - 1) * (n - m) / m + 1e-6
    print("criterion 8 PASS: e^2 <= (n-1)(n-m)/m on 1000 random sign matrices (n <= 30)")


def test_criterion_9_embedding_round_trip(bundled_sets):
    for name, ps in bundled_sets.items():
        d_aff = affine_dimension(ps)
        verdict = euclidean_embeddable(squared_distance_matrix(ps), d_aff)
        assert verdict.embeddable is True, name
        assert verdict.realization is not None, name
        assert congruent(ps, verdict.realization) is True, name
    print(f"criterion 9 PASS: {len(bundled_sets)} bundled sets re-embedded congruently")

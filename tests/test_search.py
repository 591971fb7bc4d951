"""Catalog enumeration tests.

The headline oracle is an in-test brute force over the integer box: signs
alternate starting positive, every entry has 1 <= |k_i| <= bound, and the
induced last component k_s = 1 - sum(k_i) obeys the same constraints. For
(d, s) = (10, 3) the bound is 6 and the box yields exactly 21 tuples,
6 + 5 + 4 + 3 + 2 + 1 grouped by k_1; the six with k_1 = 1 have no preimage
under the forward ratio map, leaving 15 realizable distance systems.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from fewdist import inverse, jsonio, search
from fewdist.cli import run
from fewdist.errors import BoxOverflowError, ParameterError
from fewdist.inverse import forward_K
from fewdist.search import (
    CandidateCatalog,
    TupleEntry,
    catalog_report,
    enumerate_tuples,
    realize_catalog,
)


def brute_force_box(bound: int, s: int) -> set[tuple[int, ...]]:
    """Independent enumeration, full tuples including the induced component."""
    out = set()
    axes = [range(-bound, bound + 1)] * (s - 1)
    for combo in itertools.product(*axes):
        full = combo + (1 - sum(combo),)
        ok = True
        for i, k in enumerate(full):
            if k == 0 or abs(k) > bound:
                ok = False
                break
            if (k > 0) != (i % 2 == 0):
                ok = False
                break
        if ok:
            out.add(full)
    return out


class TestEnumeration:
    def test_matches_brute_force_10_3(self):
        cat = enumerate_tuples(10, 3)
        assert cat.context.ratio_bound == 6
        got = {e.k + (e.k_last,) for e in cat.entries}
        assert got == brute_force_box(6, 3)
        assert len(cat.entries) == 21

    def test_matches_brute_force_5_2(self):
        cat = enumerate_tuples(5, 2)
        got = {e.k + (e.k_last,) for e in cat.entries}
        assert got == brute_force_box(cat.context.ratio_bound, 2)
        assert got == {(2, -1)}

    @pytest.mark.parametrize("d,s", [(4, 2), (6, 3), (8, 3), (5, 4)])
    def test_matches_brute_force_various(self, d, s):
        cat = enumerate_tuples(d, s)
        got = [e.k + (e.k_last,) for e in cat.entries]
        assert set(got) == brute_force_box(cat.context.ratio_bound, s)
        assert len(got) == len(set(got))

    def test_lexicographic_order(self):
        ks = [e.k for e in enumerate_tuples(10, 3).entries]
        assert ks == sorted(ks)

    def test_enumerated_stage_counts(self):
        cat = enumerate_tuples(10, 3)
        assert cat.stage == "enumerated"
        assert cat.counts() == {"total": 21}
        assert all(e.status == "raw" for e in cat.entries)

    def test_rejects_one_distance(self):
        with pytest.raises(ParameterError, match="s >= 2"):
            enumerate_tuples(10, 1)

    def test_explicit_cap_overflow(self):
        with pytest.raises(BoxOverflowError, match="raise the cap"):
            enumerate_tuples(10, 3, cap=10)

    def test_default_cap_overflow(self):
        # bound 30 at (8, 6): the box holds 30**5 > 10**7 raw tuples.
        with pytest.raises(BoxOverflowError):
            enumerate_tuples(8, 6)

    def test_raising_cap_unblocks(self):
        assert enumerate_tuples(10, 3, cap=36).stage == "enumerated"


@pytest.fixture(scope="module")
def realized_10_3():
    return realize_catalog(enumerate_tuples(10, 3))


class TestRealization:
    def test_status_counts(self, realized_10_3):
        assert realized_10_3.stage == "realized"
        assert realized_10_3.counts() == {
            "total": 21,
            "realized": 15,
            "unrealizable": 6,
            "newton_failed": 0,
        }

    def test_unrealizable_tuples_are_exactly_the_k1_equals_1_row(self, realized_10_3):
        bad = {e.k + (e.k_last,) for e in realized_10_3.entries if e.status == "unrealizable"}
        assert bad == {(1, -m, m) for m in range(1, 7)}
        for e in realized_10_3.entries:
            if e.status == "unrealizable":
                assert e.t is None
                assert "no preimage" in e.note

    def test_realized_entries_round_trip(self, realized_10_3):
        for e in realized_10_3.entries:
            if e.status != "realized":
                continue
            t = np.asarray(e.t)
            assert t.shape == (2,)
            assert np.all(t > 0.0) and np.all(t < 1.0)
            assert t[0] < t[1]
            assert e.residual <= 1e-10
            assert np.max(np.abs(forward_K(e.t) - np.asarray(e.k, float))) < 1e-8

    def test_known_distance_system(self, realized_10_3):
        # K(1/3, 2/3) = (2 * 3/2, -1 * 3) = (3, -3) by direct evaluation.
        entry = {e.k: e for e in realized_10_3.entries}[(3, -3)]
        assert entry.status == "realized"
        assert entry.k_last == 1
        assert np.allclose(entry.t, (1.0 / 3.0, 2.0 / 3.0), atol=1e-10)

    def test_two_distance_catalog(self):
        cat = realize_catalog(enumerate_tuples(5, 2))
        (entry,) = cat.entries
        assert entry.status == "realized"
        assert entry.k == (2,)
        assert np.allclose(entry.t, (0.5,), atol=1e-12)


class TestReporting:
    def test_catalog_dict_shape(self):
        payload = realize_catalog(enumerate_tuples(10, 3)).to_dict()
        assert sorted(payload) == ["context", "counts", "d", "entries", "s", "stage"]
        assert payload["d"] == 10 and payload["s"] == 3
        assert payload["counts"]["realized"] == 15
        assert len(payload["entries"]) == 21

    def test_report_statement(self):
        report = catalog_report(realize_catalog(enumerate_tuples(10, 3)))
        assert report["ratio_bound"] == 6
        assert report["cardinality_threshold"] == 154
        assert "154" in report["finiteness"]
        assert "21 candidates" in report["finiteness"]

    def test_serialization_is_deterministic(self):
        a = jsonio.dumps(realize_catalog(enumerate_tuples(10, 3)).to_dict())
        b = jsonio.dumps(realize_catalog(enumerate_tuples(10, 3)).to_dict())
        assert a == b
        assert a.encode("ascii")

    def test_entry_dict_omits_unset_fields(self):
        raw = TupleEntry(k=(2,), k_last=-1, status="raw")
        assert raw.to_dict() == {"k": [2], "k_last": -1, "status": "raw"}


ROOT = Path(__file__).resolve().parents[1]
ARGV_4_4 = ["enumerate", "-d", "4", "-s", "4", "--realize"]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def realized_4_4():
    return run_cli(ARGV_4_4)


class TestPartialSumDecisions:
    """(4, 4) has 80 tuples. Before the power-sum homotopy, 40 of them ended
    newton_failed; tests/golden/enumerate_4_4_realize.txt is that stdout.
    The partial-sum rule now proves each of them unrealizable."""

    def test_realized_entries_unchanged_and_failures_decided(self, realized_4_4):
        code, stdout = realized_4_4
        assert code == 0
        golden_text = (ROOT / "tests" / "golden" / "enumerate_4_4_realize.txt").read_text()
        golden = json.loads(golden_text)
        payload = json.loads(stdout)
        assert [e["k"] for e in payload["entries"]] == [e["k"] for e in golden["entries"]]
        decided = 0
        for old, new in zip(golden["entries"], payload["entries"]):
            if old["status"] == "realized":
                # Byte for byte: the entry's serialization sits in the old stdout.
                assert jsonio.dumps(new) in golden_text
                assert new == old
            elif old["status"] == "newton_failed":
                assert new["status"] == "unrealizable"
                assert new["note"] == inverse.no_preimage(tuple(new["k"]))
                assert new["note"].startswith("K_1 + ... + K_")
                decided += 1
            else:
                assert new == old
        assert decided == 40
        assert payload["counts"] == {
            "total": 80,
            "realized": 30,
            "unrealizable": 50,
            "newton_failed": 0,
        }

    def test_bench_output_check_passes(self, realized_4_4, bench_module):
        # The benchmark's own output gate, read from bench/ without changing it.
        checks = bench_module("checks")
        (reference,) = [
            command
            for command in checks.load_reference()["workloads"]["catalog"]["commands"]
            if command["argv"] == ARGV_4_4
        ]
        code, stdout = realized_4_4
        tally = checks.check_command(ARGV_4_4, code, stdout, reference)
        assert tally.failed == 0
        assert tally.decided == tally.attempted == 80

    def test_newton_runs_only_on_tuples_in_P(self, monkeypatch):
        asked = []
        newton = inverse._newton

        def recorder(targets, starts, tol_res, max_iter):
            asked.extend(tuple(int(v) for v in row) for row in targets)
            return newton(targets, starts, tol_res, max_iter)

        monkeypatch.setattr(inverse, "_newton", recorder)
        catalog = realize_catalog(enumerate_tuples(4, 4))
        assert asked == [e.k for e in catalog.entries if e.status == "realized"]
        assert len(asked) == 30

    @pytest.mark.parametrize("k", [(3, -2), (3, -4, 2), (1, -1, 2), (2, -6, 6, -1, 8)])
    def test_invert_K_runs_no_newton_iteration_outside_P(self, monkeypatch, k):
        # S_a = 1 or past it: the rule decides before Newton, which is asked
        # only for the default start's residual.
        asked = []
        newton = inverse._newton

        def recorder(targets, starts, tol_res, max_iter):
            asked.append(max_iter)
            return newton(targets, starts, tol_res, max_iter)

        monkeypatch.setattr(inverse, "_newton", recorder)
        res = inverse.invert_K(np.array(k, dtype=float))
        assert res.method == "no_preimage" and res.iterations == 0
        assert asked == [0]

    def test_chunked_newton_is_bit_identical_to_one_batch(self, monkeypatch):
        one_batch = realize_catalog(enumerate_tuples(4, 4))
        monkeypatch.setattr(inverse, "NEWTON_CHUNK", 7)
        chunked = realize_catalog(enumerate_tuples(4, 4))
        # Entries compare their floats exactly; 30 tuples in P make 5 chunks.
        assert chunked.entries == one_batch.entries

    def test_continuation_realizes_what_the_default_start_leaves(self, monkeypatch):
        # Newton from the default start, the first and only batched call, is
        # made to fail on every row (no step, and a tolerance no residual
        # meets), so every realized tuple must come from the continuation.
        batches = []
        newton = inverse._newton

        def failing_batch(targets, starts, tol_res, max_iter):
            if not batches:
                batches.append(len(targets))
                return newton(targets, starts, -1.0, 0)
            assert len(targets) == 1
            return newton(targets, starts, tol_res, max_iter)

        monkeypatch.setattr(inverse, "_newton", failing_batch)
        catalog = realize_catalog(enumerate_tuples(10, 3))
        assert batches == [15]
        entry = {e.k: e for e in catalog.entries}[(3, -3)]
        assert entry.status == "realized"
        assert np.allclose(entry.t, (1.0 / 3.0, 2.0 / 3.0), atol=1e-10)
        assert entry.residual <= 1e-10
        assert catalog.counts()["realized"] == 15

    def test_a_tuple_the_continuation_fails_on_is_newton_failed(self, monkeypatch):
        # Every Newton, from the default start and along the continuation, fails.
        newton = inverse._newton
        monkeypatch.setattr(inverse, "_newton", lambda k, t, tol, its: newton(k, t, -1.0, 0))
        catalog = realize_catalog(enumerate_tuples(10, 3))
        assert catalog.counts() == {"total": 21, "realized": 0, "unrealizable": 6, "newton_failed": 15}
        entry = {e.k: e for e in catalog.entries}[(3, -3)]
        assert entry.t is None and entry.residual > 0.0
        assert entry.note == "the continuation did not converge below 1e-10"

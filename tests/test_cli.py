"""Command-line interface tests.

Golden lines below were produced by the commands themselves and frozen; the
serializer pins floats to 12 significant digits, so the bytes must be stable
across runs and platforms. Exit codes: 0 success, 1 theorem check failed with
the cardinality hypothesis met, 2 usage or input error, 3 numerical failure.
"""

import contextlib
import importlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewdist import cli, construct_johnson, construct_named, inverse
from fewdist.certificate import indicator_matrix, verify_key_lemma
from fewdist.cli import run
from fewdist.embed import euclidean_embeddable, spherical_embeddable
from fewdist.jsonio import dumps
from fewdist.pointset import distance_profile, inner_product_profile
from fewdist.ratios import analyze
from fewdist.search import enumerate_tuples

GOLDEN_BOUNDS = (
    '{"setting":"euclidean","d":10,"s":3,"N":77,'
    '"cardinality_threshold":154,"ratio_bound":6}'
)
GOLDEN_INVERT = (
    '{"success":true,"t":[0.5,0.75],"residual":0,"iterations":0,'
    '"start_index":-1,"method":"closed_form","branches":["+","-"]}'
)
# Full stdout of `ratios --all` and `certify --setting all` on five bundled
# sets, frozen the same way; one file per command under tests/golden/.
# hypercube(5) is the one set that runs the odd antipodal settings, and the
# icosahedron is spherical without an antipodal setting.
# johnson(14,3) (n = 455, N_cap = 135) is the set whose euclidean verdicts
# come from the 136-column polynomial range basis. hypercube(8) adds only
# `certify --setting all`: every verdict of it, sign bound included, is
# M's own view (n < 2 N_cap).
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SETS = {
    "e8_roots": lambda: construct_named("e8_roots"),
    "johnson_10_3": lambda: construct_johnson(10, 3),
    "hypercube_5": lambda: construct_named("hypercube", d=5),
    "icosahedron": lambda: construct_named("icosahedron"),
    "johnson_14_3": lambda: construct_johnson(14, 3),
    "hypercube_8": lambda: construct_named("hypercube", d=8),
}
GOLDEN_VERDICTS = [
    (name, command, argv)
    for name in GOLDEN_SETS
    for command, argv in (("ratios_all", ["ratios", "--all"]), ("certify_all", ["certify", "--setting", "all"]))
    if (name, command) != ("hypercube_8", "ratios_all")
]


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "square.json"
    payload = {"dimension": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def broken_johnson_file(tmp_path_factory):
    # Dropping five points kills the orbit symmetry, then a 1% stretch of the
    # first coordinate moves the class means off the integral ratios while
    # n = 160 still clears the threshold of 154.
    ps = construct_johnson(10, 3)
    pts = np.array(ps.points[:-5])
    pts[:, 0] *= 1.01
    path = tmp_path_factory.mktemp("cli") / "jbroken.json"
    path.write_text(json.dumps({"dimension": 11, "points": pts.tolist()}))
    return str(path)


@pytest.fixture(scope="module")
def e8_gram_file(tmp_path_factory):
    e8 = construct_named("e8_roots")
    gram = e8.points @ e8.points.T
    path = tmp_path_factory.mktemp("cli") / "e8gram.json"
    path.write_text(json.dumps({"kind": "gram", "matrix": gram.tolist()}))
    return str(path)


@pytest.fixture(scope="module")
def golden_point_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, construct in GOLDEN_SETS.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(construct().to_dict()))
    return paths


# Sets whose pair values are inexact, so that a mean taken in the points'
# order would move in its last bits when the points are reordered.
PERMUTED_SETS = {"e8_roots": lambda: construct_named("e8_roots")}
PERMUTED_SETS.update({f"hypercube_{d}": lambda d=d: construct_named("hypercube", d=d) for d in range(5, 9)})


@pytest.fixture(scope="module")
def ratios_stdout(tmp_path_factory):
    """A function giving the stdout of `ratios --all`, run in-process, on an array of points."""
    path = tmp_path_factory.mktemp("permuted") / "points.json"

    def stdout(points):
        path.write_text(json.dumps({"dimension": points.shape[1], "points": points.tolist()}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["ratios", str(path), "--all"]) == 0
        return out.getvalue()

    return stdout


@pytest.fixture(scope="module")
def ambiguous_zero_class_file(tmp_path_factory):
    # An antipodal set whose inner products 0 and 6e-9 are two classes at
    # the default tolerance, both within the zero-class window.
    y = float(np.sqrt(1.0 - 3.6e-17))
    pts = [[1.0, 0.0], [-1.0, 0.0], [6e-9, y], [-6e-9, -y]]
    path = tmp_path_factory.mktemp("cli") / "ambiguous.json"
    path.write_text(json.dumps({"dimension": 2, "points": pts}))
    return str(path)


class TestGoldenOutput:
    @pytest.mark.parametrize("name,command,argv", GOLDEN_VERDICTS)
    def test_verdict_exact_bytes(self, golden_point_files, capsys, name, command, argv):
        assert run([argv[0], str(golden_point_files[name]), *argv[1:]]) == 0
        golden = (GOLDEN_DIR / f"{name}_{command}.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_enumerate_realize_exact_bytes(self, capsys):
        # Pins the forward map's bytes through Newton and the closed form.
        assert run(["enumerate", "-d", "10", "-s", "3", "--realize"]) == 0
        golden = (GOLDEN_DIR / "enumerate_10_3_realize.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_enumerate_partial_sum_exact_bytes(self, capsys):
        # Pins the partial-sum notes: 40 of the 80 tuples have k_1 >= 2 and
        # are unrealizable by a later partial sum.
        assert run(["enumerate", "-d", "4", "-s", "4", "--realize"]) == 0
        golden = (GOLDEN_DIR / "enumerate_4_4_realize_partial_sums.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_bounds_exact_bytes(self, capsys):
        assert run(["bounds", "--setting", "euclidean", "-d", "10", "-s", "3"]) == 0
        assert capsys.readouterr().out == GOLDEN_BOUNDS + "\n"

    def test_invert_exact_bytes(self, capsys):
        assert run(["invert", "-s", "3", "-k", "6,-8"]) == 0
        assert capsys.readouterr().out == GOLDEN_INVERT + "\n"

    @pytest.mark.parametrize("name", sorted(PERMUTED_SETS))
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(seed=0)
    def test_ratios_are_invariant_under_permutation(self, ratios_stdout, name, seed):
        # The points reordered, and their coordinates permuted with signs:
        # the same stdout, byte for byte. Class means taken in the points'
        # order gave hypercube(7) other integrality deviations.
        x = PERMUTED_SETS[name]().points
        rng = np.random.default_rng(seed)
        moved = (x[:, rng.permutation(x.shape[1])] * rng.choice([-1.0, 1.0], x.shape[1]))[rng.permutation(len(x))]
        assert ratios_stdout(moved) == ratios_stdout(x)

    def test_run_to_run_stability(self, capsys):
        argv = ["invert", "-s", "4", "-k", "4,-6,4"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        first.encode("ascii")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fewdist", "bounds", "--setting", "euclidean", "-d", "10", "-s", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_BOUNDS + "\n"

    def test_pretty_flag_changes_layout_not_content(self, capsys):
        assert run(["bounds", "--setting", "spherical", "-d", "3", "-s", "2"]) == 0
        compact = capsys.readouterr().out
        assert run(["--json-pretty", "bounds", "--setting", "spherical", "-d", "3", "-s", "2"]) == 0
        pretty = capsys.readouterr().out
        assert pretty != compact
        assert "\n  " in pretty
        assert json.loads(pretty) == json.loads(compact)

    def test_global_flag_after_subcommand(self, capsys):
        assert run(["bounds", "--setting", "spherical", "-d", "3", "-s", "2", "--json-pretty"]) == 0
        after = capsys.readouterr().out
        assert run(["--json-pretty", "bounds", "--setting", "spherical", "-d", "3", "-s", "2"]) == 0
        assert capsys.readouterr().out == after

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "out.json"
        assert run(["bounds", "--setting", "euclidean", "-d", "10", "-s", "3", "-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text() == GOLDEN_BOUNDS + "\n"


class TestSubcommands:
    def test_construct_johnson(self, capsys):
        assert run(["construct", "johnson", "-d", "4", "-s", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dimension"] == 5
        assert len(payload["points"]) == 10

    def test_construct_named(self, capsys):
        assert run(["construct", "pentagon"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 5

    def test_profile(self, square_file, capsys):
        assert run(["profile", square_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["dimension", "distance", "inner_product", "n"]
        assert payload["distance"]["squared_distances"] == [1.0, 2.0]
        assert payload["distance"]["pair_counts"] == [4, 2]
        assert payload["inner_product"] is None

    def test_ratios_square(self, square_file, capsys):
        assert run(["ratios", square_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        assert payload["reports"][0]["rounded_k"] == [2, -1]

    def test_certify_square(self, square_file, capsys):
        assert run(["certify", square_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert len(payload["verdicts"]) == 2

    def test_certify_single_class(self, square_file, capsys):
        assert run(["certify", square_file, "--class", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["verdicts"]) == 1

    def test_certify_class_in_the_settings_that_have_it(self, golden_point_files, capsys):
        # antipodal_even_v2 has no class 1 on e8: the class is certified in
        # antipodal_even_v1 alone, with the bytes of the all-classes run.
        path = str(golden_point_files["e8_roots"])
        assert run(["certify", path]) == 0
        every = json.loads(capsys.readouterr().out)
        assert run(["certify", path, "--class", "1"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["settings"] == ["antipodal_even_v1"]
        assert len(payload["verdicts"]) == 1
        want = [v for v in every["verdicts"] if v["setting"] == "antipodal_even_v1"][0]
        assert want["class_index"] == 1
        assert dumps(payload["verdicts"][0]) == dumps(want)
        assert run(["certify", path, "--class", "1", "--setting", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["settings"] == ["euclidean", "spherical", "antipodal_even_v1"]
        assert [v["class_index"] for v in payload["verdicts"]] == [1, 1, 1]

    def test_enumerate_realized(self, capsys):
        assert run(["enumerate", "-d", "10", "-s", "3", "--realize"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {
            "total": 21,
            "realized": 15,
            "unrealizable": 6,
            "newton_failed": 0,
        }
        assert "154" in payload["report"]["finiteness"]

    def test_embed_check_gram(self, e8_gram_file, capsys):
        assert run(["embed-check", e8_gram_file, "-d", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["embeddable"] is True
        # A negative verdict is still a successful query, not a failure.
        assert run(["embed-check", e8_gram_file, "-d", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["embeddable"] is False


class TestExitCodes:
    def test_theorem_failure_is_exit_1(self, broken_johnson_file, capsys):
        rc = run(["ratios", broken_johnson_file, "--tol", "1e-2"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"][0]
        assert report["hypothesis_met"] is True
        assert report["all_integral"] is False

    def test_intact_johnson_is_exit_0(self, tmp_path, capsys):
        ps = construct_johnson(10, 3)
        path = tmp_path / "johnson.json"
        path.write_text(json.dumps(ps.to_dict()))
        assert run(["ratios", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["all_integral"] is True

    def test_missing_file(self, capsys):
        assert run(["ratios", "/nonexistent/points.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["profile", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,argv",
        [("p.json", ["profile"]), ("p.csv", ["profile"]), ("m.json", ["embed-check", "-d", "2"])],
    )
    def test_non_utf8_file_is_exit_2(self, tmp_path, capsys, name, argv):
        path = tmp_path / name
        path.write_bytes(b"0,0\n1,\xff\n")
        assert run([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path} is not UTF-8 text")

    @pytest.mark.parametrize(
        "name,text,argv",
        [
            ("p.csv", "0,0\n1,0\n0,1\n", ["profile"]),
            ("p.json", '{"points": [[0, 0], [1, 0], [0, 1]]}', ["profile"]),
            ("m.json", '{"matrix": [[0, 1, 1], [1, 0, 2], [1, 2, 0]]}', ["embed-check", "-d", "2"]),
        ],
        ids=["profile-csv", "profile-json", "embed-check"],
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, name, text, argv):
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / name
            path.write_bytes(prefix + text.encode())
            outputs.append((run([argv[0], str(path), *argv[1:]]), capsys.readouterr().out))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["construct", "e8_roots"], lambda tmp: tmp / "missing" / "x.json"),
            (["bounds", "--setting", "euclidean", "-d", "10", "-s", "3"], lambda tmp: tmp),
        ],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, argv, target):
        # A missing directory and a directory: FileNotFoundError, IsADirectoryError.
        path = target(tmp_path)
        assert run([*argv, "-o", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize(
        "text,argv",
        [
            ('{"points": [[], [], []]}', ["profile"]),
            ('{"matrix": [[0, 1, 1], [1, 0, 2], [1, 2, 0]]}', ["embed-check", "-d", "-1"]),
        ],
        ids=["points-without-coordinates", "embed-check-negative-d"],
    )
    def test_bad_input_is_exit_2(self, tmp_path, capsys, text, argv):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert run([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_ragged_rows(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text('{"points": [[0, 0], [1]]}')
        assert run(["profile", str(path)]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["bounds", "--setting", "euclidean", "-d", "10", "-s", "3", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_invert_bad_sign_pattern(self, capsys):
        assert run(["invert", "-s", "3", "-k", "-6,8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invert_wrong_count(self, capsys):
        assert run(["invert", "-s", "3", "-k", "6"]) == 2
        assert "s-1 = 2" in capsys.readouterr().err

    def test_invert_non_numeric(self, capsys):
        assert run(["invert", "-s", "3", "-k", "6,eight"]) == 2
        capsys.readouterr()

    def test_construct_johnson_needs_parameters(self, capsys):
        assert run(["construct", "johnson"]) == 2
        capsys.readouterr()

    def test_certify_class_out_of_range(self, square_file, capsys):
        assert run(["certify", square_file, "--class", "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_certify_class_must_be_an_integer(self, square_file, capsys):
        assert run(["certify", square_file, "--class", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--class must be an integer or 'all'" in captured.err

    @pytest.mark.parametrize("setting", ["auto", "all"])
    def test_certify_class_out_of_range_in_every_setting(self, golden_point_files, capsys, setting):
        argv = ["certify", str(golden_point_files["e8_roots"]), "--class", "5", "--setting", setting]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: class index 5 out of range [1, 2] for antipodal_even_v1, [2, 2] for antipodal_even_v2\n"
            if setting == "auto" else
            "error: class index 5 out of range [1, 4] for euclidean, [1, 4] for spherical, "
            "[1, 2] for antipodal_even_v1, [2, 2] for antipodal_even_v2\n"
        )

    @pytest.mark.parametrize("k", ["inf,-1", "2,nan", "2,-inf", "nan,-1"])
    def test_invert_non_finite_ratios(self, capsys, k):
        assert run(["invert", "-s", "3", "-k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be finite\n"

    @pytest.mark.parametrize("extra", ['"labels": 5', '"labels": "abc"', '"dimension": true'])
    def test_malformed_point_json_is_exit_2(self, tmp_path, capsys, extra):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[0, 0], [1, 0], [0, 1]], ' + extra + "}")
        assert run(["profile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an" in captured.err

    def test_eigensolver_failure_in_certify_is_exit_3(self, square_file, capsys, monkeypatch):
        def fail(arr):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert run(["certify", square_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: eigendecomposition failed: Eigenvalues did not converge\n"
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["profile", "{points}"], "--tol"),
            (["ratios", "{points}"], "--tol"),
            (["ratios", "{points}"], "--tol-int"),
            (["certify", "{points}"], "--tol"),
            (["certify", "{points}"], "--tol-rank"),
            (["embed-check", "{gram}", "-d", "8"], "--tol-psd"),
            (["invert", "-s", "4", "-k", "3,-3,2"], "--tol-res"),
            (["invert", "-s", "4", "-k", "3,-3,2"], "--max-iter"),
        ],
    )
    def test_numeric_flags_refuse_non_finite_and_negative(
        self, square_file, e8_gram_file, capsys, argv, flag, bad
    ):
        argv = [a.format(points=square_file, gram=e8_gram_file) for a in argv]
        assert run([*argv, f"{flag}={bad}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # --max-iter takes integers only, so "nan" and "inf" are not integers.
        reason = "invalid int value" if flag == "--max-iter" and bad != "-1" else "must be finite and >= 0"
        assert f"argument {flag}: {reason}" in captured.err

    @pytest.mark.parametrize("command", ["certify", "ratios"])
    def test_a_rank_tolerance_that_leaves_no_dimension_is_named(self, tmp_path, capsys, command):
        # johnson(10, 3) at --tol-rank 0.01: no singular value clears the cut,
        # and the message names the effective dimension and the tolerance.
        path = tmp_path / "johnson.json"
        path.write_text(json.dumps(construct_johnson(10, 3).to_dict()))
        assert run(["--tol-rank", "0.01", command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: effective dimension 0 at rank tolerance 0.01 (--tol-rank): the tolerance is too large for this set\n"
        )

    def test_bounds_keeps_its_dimension_message(self, capsys):
        assert run(["bounds", "--setting", "euclidean", "-d", "0", "-s", "3"]) == 2
        assert capsys.readouterr().err == "error: d must be >= 1, got 0\n"

    def test_global_tolerances_refuse_nan_before_the_subcommand(self, square_file, capsys):
        assert run(["--tol-rank", "nan", "certify", square_file]) == 2
        assert "argument --tol-rank: must be finite and >= 0, got 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "{points}", "--tol", "0"],
            ["ratios", "{points}", "--tol-int", "0"],
            ["embed-check", "{gram}", "-d", "8", "--tol-psd", "0"],
            ["invert", "-s", "3", "-k", "3,-1", "--tol-res", "0", "--max-iter", "0"],
        ],
    )
    def test_zero_stays_a_valid_tolerance(self, square_file, e8_gram_file, capsys, argv):
        assert run([a.format(points=square_file, gram=e8_gram_file) for a in argv]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["", '"kind": "gram", '])
    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_embed_check_non_finite_entries_are_exit_2(self, tmp_path, capsys, kind, entry):
        path = tmp_path / "nan.json"
        diagonal = "1" if kind else "0"
        path.write_text(f'{{{kind}"matrix": [[{diagonal}, {entry}], [{entry}, {diagonal}]]}}')
        assert run(["embed-check", str(path), "-d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix entries must be finite\n"

    def test_embed_check_unknown_kind(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text('{"kind": "adjacency", "matrix": [[0, 1], [1, 0]]}')
        assert run(["embed-check", str(path), "-d", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ratios", "--all"],
            ["ratios", "--setting", "euclidean"],
            ["certify", "--setting", "all"],
            ["certify", "--setting", "antipodal"],
            ["certify", "--setting", "euclidean"],
        ],
    )
    def test_ambiguous_zero_class_is_exit_2(self, ambiguous_zero_class_file, capsys, argv):
        # ratios and certify share one applicability rule, so every command
        # reports the ambiguous split instead of dropping the antipodal rows.
        assert run([argv[0], ambiguous_zero_class_file, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "several inner product classes sit at 0" in captured.err

    @pytest.mark.parametrize("command", ["profile", "ratios", "certify"])
    def test_overflowing_pair_values_are_exit_2(self, tmp_path, capsys, command):
        # Squared norms of 2e320 are not finite, so no pair value can be.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"points": (construct_johnson(6, 2).points * 1e160).tolist()}))
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "squared distances overflow" in captured.err

    def test_overflowing_norms_print_only_the_error(self, tmp_path):
        # The unit-sphere test takes the norms first; an overflow there is
        # not a warning, and -W error turns any warning into a failure.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"points": (construct_johnson(6, 2).points * 1e160).tolist()}))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fewdist", "certify", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: squared distances overflow: a point norm is above about 6.7e153"
        ]

    @pytest.mark.parametrize(
        "points,message",
        [
            ([[1e308, 0.0], [0.0, 0.0], [1.0, 0.0]], "points 1 and 2 coincide within tolerance"),
            # x and -x with x orthogonal to the duplicate check's projection
            # weights (sqrt(2), sqrt(3)): their difference, 2x, is tested and overflows.
            ([[3**0.5 * 1e308, -(2**0.5) * 1e308], [-(3**0.5) * 1e308, 2**0.5 * 1e308]],
             "squared distances overflow: a point norm is above about 6.7e153"),
        ],
        ids=["duplicate", "overflowing-difference"],
    )
    def test_coordinates_near_the_float_max_print_only_the_error(self, tmp_path, points, message):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"points": points}))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fewdist", "profile", str(path)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

    def test_numerical_failure_is_exit_3_with_json(self, capsys, monkeypatch):
        # A tuple in P that neither Newton from the default start nor the
        # continuation inverts (every Newton made to fail here) is undecided: exit 3.
        newton = inverse._newton
        monkeypatch.setattr(inverse, "_newton", lambda k, t, tol, its: newton(k, t, -1.0, 0))
        rc = run(["invert", "-s", "4", "-k", "4,-6,4"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is False
        assert payload["method"] == "continuation"

    def test_continuation_inversion_is_exit_0(self, capsys):
        # A tuple in P that Newton from the default start leaves is inverted
        # by the continuation, back to the t it came from.
        t = [0.1235, 0.2873, 0.2889]
        k = inverse.forward_K(t)
        assert run(["invert", "-s", "4", "-k", ",".join(map(repr, k.tolist()))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True and payload["method"] == "continuation"
        assert np.max(np.abs(np.array(payload["t"]) - t)) < 1e-8

    @pytest.mark.parametrize(
        "s,k",
        [
            # k_1 + k_2 = 6 > 1.
            ("4", "13,-7,8"),
            # k_1 = 1.
            ("2", "1"),
            ("12", ",".join(["1"] + ["-1", "1"] * 5)),
            # k_1 + k_2 = 2 at s = 12, and k_1 + ... + k_4 = 1 at s = 6: no
            # longer undecided (exit 3).
            ("12", ",".join(["3"] + ["-1", "1"] * 5)),
            ("6", "2,-6,6,-1,8"),
            # Some S_a = 1 exactly, a limit point of K(D) that Newton from
            # the default start came within its tolerance of: no longer
            # reported as a success.
            ("3", "3,-2"),
            ("4", "3,-4,2"),
            ("5", "3,-4,4,-2"),
            ("7", "3,-4,2,-2,4,-4"),
        ],
    )
    def test_proven_no_preimage_is_exit_0(self, capsys, s, k):
        assert run(["invert", "-s", s, "-k", k]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is False
        assert payload["method"] == "no_preimage"
        assert set(payload) == set(json.loads(GOLDEN_INVERT))
        # The rule decides before Newton: t is the default start i/s, unmoved.
        assert payload["start_index"] == 0 and payload["iterations"] == 0
        n = int(s)
        assert payload["t"] == [float(f"{i / n:.12g}") for i in range(1, n)]


# (handler, argv, {parsed flag: the library functions that take it}).
SHARED_DEFAULTS = [
    ("_cmd_profile", ["profile", "p.json"], {"tol": [distance_profile, inner_product_profile]}),
    ("_cmd_ratios", ["ratios", "p.json"], {"tol": [analyze], "tol_int": [analyze], "tol_rank": [analyze]}),
    (
        "_cmd_certify",
        ["certify", "p.json"],
        {
            "tol": [indicator_matrix],
            "tol_int": [verify_key_lemma],
            "tol_rank": [indicator_matrix, verify_key_lemma],
        },
    ),
    (
        "_cmd_invert",
        ["invert", "-s", "3", "-k", "1"],
        {"tol_res": [inverse.invert_auto], "max_iter": [inverse.invert_auto]},
    ),
    ("_cmd_enumerate", ["enumerate", "-d", "3", "-s", "3"], {"cap": [enumerate_tuples]}),
    (
        "_cmd_embed_check",
        ["embed-check", "m.json", "-d", "2"],
        {"tol_psd": [euclidean_embeddable, spherical_embeddable]},
    ),
]


class TestSharedDefaults:
    @pytest.mark.parametrize("handler,argv,flags", SHARED_DEFAULTS, ids=[c[0] for c in SHARED_DEFAULTS])
    def test_each_parsed_default_is_the_library_default(self, monkeypatch, handler, argv, flags):
        parsed = []
        monkeypatch.setattr(cli, handler, lambda args: parsed.append(args) or 0)
        assert run(argv) == 0
        for flag, functions in flags.items():
            for fn in functions:
                assert getattr(parsed[0], flag) == inspect.signature(fn).parameters[flag].default, (flag, fn)


class TestLazyImports:
    """A command loads only the modules it runs; the package's names
    resolve on first use."""

    @staticmethod
    def loaded_after(*argv):
        code = (
            "import contextlib, io, sys\n"
            "from fewdist.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert run({list(argv)!r}) == 0\n"
            "print(' '.join(sorted(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_enumerate_loads_no_point_set_code(self):
        loaded = self.loaded_after("enumerate", "-d", "10", "-s", "3", "--realize")
        assert "fewdist.inverse" in loaded
        assert not loaded & {"fewdist.pointset", "fewdist.ratios", "fewdist.certificate", "fewdist.embed"}

    def test_listing_a_catalog_loads_no_numpy(self):
        # Listing a catalog inverts nothing.
        assert not self.loaded_after("enumerate", "-d", "3", "-s", "5") & {"fewdist.inverse", "numpy"}

    def test_bounds_loads_no_numpy(self):
        assert "numpy" not in self.loaded_after("bounds", "--setting", "euclidean", "-d", "10", "-s", "3")

    def test_package_names_resolve_to_their_modules(self):
        import fewdist

        for name in fewdist.__all__:
            module = importlib.import_module(f"fewdist.{fewdist._MODULE_OF[name]}")
            assert getattr(fewdist, name) is getattr(module, name)
        assert set(fewdist.__all__) <= set(dir(fewdist))
        with pytest.raises(AttributeError):
            fewdist.no_such_name  # noqa: B018


class TestBenchOutputGate:
    def test_pointsets_commands_pass_the_bench_check(self, tmp_path, capsys, bench_module):
        # The bench's 7 pointsets commands, in process, on unseeded construct
        # output: the bench's seeded point order and signed coordinate
        # permutation are isometries, so the verdicts do not depend on them.
        checks, workloads = bench_module("checks"), bench_module("workloads")
        paths = {}
        for key, args in workloads.POINT_SETS.items():
            paths[key] = str(tmp_path / f"{key}.json")
            assert run(["construct", *args, "-o", paths[key]]) == 0
        capsys.readouterr()
        references = checks.load_reference()["workloads"]["pointsets"]["commands"]
        assert [tuple(r["argv"]) for r in references] == list(workloads.WORKLOADS["pointsets"].commands)
        for reference in references:
            argv = [paths[a[1:-1]] if a.startswith("{") else a for a in reference["argv"]]
            code = run(argv)
            tally = checks.check_command(argv, code, capsys.readouterr().out, reference)
            assert tally.failed == 0 and tally.decided == tally.attempted > 0, reference["argv"]


class TestPairValuesFromCoordinates:
    """ratios and certify compute the pair values from the coordinates a
    tile at a time and keep no n x n array."""

    @staticmethod
    def peak_rss(argv):
        """Peak resident bytes of `python -m fewdist <argv>` in a child process."""
        import os

        proc = subprocess.Popen([sys.executable, "-m", "fewdist", *argv], stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait again
        assert proc.returncode == 0
        return usage.ru_maxrss * 1024

    def test_ratios_holds_no_pair_matrix(self, tmp_path):
        # Over the interpreter and numpy (ratios on the icosahedron), ratios
        # on johnson(16,4) (n = 2,380) peaks below 4n^2 bytes: the pair
        # matrix alone took 8n^2 (43 MiB), and the run 80 MiB in all.
        sets = {"ico": construct_named("icosahedron"), "j16_4": construct_johnson(16, 4)}
        for key, ps in sets.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(ps.to_dict()))
        base, peak = (self.peak_rss(["ratios", str(tmp_path / f"{key}.json"), "--all"]) for key in sets)
        n = sets["j16_4"].n
        assert peak - base < 4 * n * n

    def test_simplex_with_d_one_less_than_n(self, tmp_path, capsys):
        # The regular simplex on 301 vertices spans d = n - 1 = 300: the tile
        # products run over 301 coordinates, on five tiles. Its one class is
        # every pair at 2 + 2/d, and both verdicts refuse s = 1.
        path = tmp_path / "simplex.json"
        assert run(["construct", "simplex", "-d", "300", "-o", str(path)]) == 0
        assert run(["profile", str(path)]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["distance"]["pair_counts"] == [301 * 300 // 2]
        assert profile["distance"]["squared_distances"] == pytest.approx([2.0 + 2.0 / 300], rel=1e-11)  # 12 digits
        for argv in (["ratios", str(path), "--all"], ["certify", str(path), "--setting", "all"]):
            assert run(argv) == 2
            assert "euclidean setting needs s >= 2, got 1" in capsys.readouterr().err

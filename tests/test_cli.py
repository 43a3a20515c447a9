"""End-to-end checks of the command-line interface, run in-process via main(argv)."""

import json

import numpy as np
import pytest

from tuckersketch.bench import read_rows, synth_tensor
from tuckersketch.cli import main
from tuckersketch.decompose import DecomposerConfig, decompose, reconstruction_error
from tuckersketch.fileio import read_decomposition, read_tensor, write_tensor


def test_synth_writes_tensor_matching_library(tmp_path):
    out = tmp_path / "x.tkr"
    rc = main(
        [
            "synth",
            "--dims", "8,7,6",
            "--ranks", "2,2,2",
            "--noise", "0.25",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    X = read_tensor(out)
    np.testing.assert_array_equal(X, synth_tensor((8, 7, 6), (2, 2, 2), 0.25, 11))


def test_decompose_full_sampling_matches_hooi(tmp_path):
    x_path = tmp_path / "x.tkr"
    t_path = tmp_path / "t.tkd"
    rep_path = tmp_path / "report.json"
    X = synth_tensor((10, 10, 10), (3, 3, 3), 0.1, 5)
    write_tensor(x_path, X)

    rc = main(
        [
            "decompose",
            "--input", str(x_path),
            "--method", "hooi-re",
            "--ranks", "3,3,3",
            "--dr", "1.0",
            "--seed", "7",
            "--out", str(t_path),
            "--report", str(rep_path),
        ]
    )
    assert rc == 0

    T = read_decomposition(t_path)
    T_ref, _ = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=7))
    err = reconstruction_error(X, T)
    err_ref = reconstruction_error(X, T_ref)
    assert abs(err - err_ref) <= 1e-8

    report = json.loads(rep_path.read_text())
    assert report["method"] == "hooi-re"
    assert report["ranks"] == [3, 3, 3]
    assert report["final_error"] == pytest.approx(err, rel=1e-12)
    assert report["iterations"] >= 1


def test_decompose_compress_modes_one_based(tmp_path):
    x_path = tmp_path / "x.tkr"
    t_path = tmp_path / "t.tkd"
    write_tensor(x_path, synth_tensor((9, 9, 9), (2, 2, 2), 0.0, 3))
    rc = main(
        [
            "decompose",
            "--input", str(x_path),
            "--method", "hooi-re",
            "--ranks", "2,2,2",
            "--dr", "0.6",
            "--compress-modes", "1,3",
            "--seed", "1",
            "--out", str(t_path),
        ]
    )
    assert rc == 0
    T = read_decomposition(t_path)
    assert T.ranks == (2, 2, 2)


def test_verify_lemma21_passes(tmp_path):
    out = tmp_path / "lemma21.json"
    rc = main(["verify", "--suite", "lemma21", "--trials", "50", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["trials"] == 50
    assert report["details"]["max_rel_err"] <= 1e-10


def test_verify_prop1_small(tmp_path):
    out = tmp_path / "prop1.json"
    rc = main(
        [
            "verify",
            "--suite", "prop1",
            "--trials", "25",
            "--eps", "0.5",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["failures"] == 0


@pytest.mark.parametrize("suite", ["lemma21", "lemma-a", "prop1", "th1", "th4"])
def test_verify_every_suite_small(suite, capsys):
    assert main(["verify", "--suite", suite, "--trials", "4", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith(f"{suite}: PASS ")


@pytest.mark.parametrize("suite", ["lemma21", "lemma-a", "prop1", "th1", "th4"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(suite, trials, capsys):
    # lemma-a and prop1 used to PASS with nothing checked; lemma21 died in max()
    assert main(["verify", "--suite", suite, "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1" in captured.err


def test_verify_lemma_a_fails_when_no_draw_is_checked(capsys):
    # at eps 1e-6 no draw satisfies the hypothesis, so nothing is checked
    assert main(["verify", "--suite", "lemma-a", "--trials", "20", "--eps", "1e-6", "--seed", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("lemma-a: FAIL ")
    assert "satisfied=0" in out


@pytest.mark.parametrize(
    "suite, flag", [("lemma21", "--eps"), ("lemma21", "--eta"), ("lemma-a", "--eta"), ("prop1", "--eta")]
)
def test_verify_rejects_bound_flag_the_suite_does_not_take(suite, flag, capsys):
    # a flag the suite cannot use is an error, never silently dropped
    assert main(["verify", "--suite", suite, "--trials", "5", flag, "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} does not apply to suite {suite}" in captured.err


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lemma99"])
    assert exc.value.code == 2


def test_bench_cli_round_trip_and_reproducible(tmp_path):
    x_path = tmp_path / "x.tkr"
    write_tensor(x_path, synth_tensor((10, 10, 10), (2, 2, 2), 0.1, 8))
    csv1 = tmp_path / "run1.csv"
    csv2 = tmp_path / "run2.csv"
    summary = tmp_path / "run1.summary.json"
    args = [
        "bench",
        "--input", str(x_path),
        "--methods", "hooi,hooi-re",
        "--ranks", "2",
        "--dr-grid", "0.5",
        "--reps", "2",
        "--seed", "21",
    ]
    assert main(args + ["--out", str(csv1), "--summary", str(summary)]) == 0
    assert main(args + ["--out", str(csv2)]) == 0

    rows1 = read_rows(csv1)
    rows2 = read_rows(csv2)
    assert [r.error for r in rows1] == [r.error for r in rows2]
    assert len(rows1) == 2 + 2  # hooi once per rep, hooi-re once per (dr, rep)
    assert json.loads(summary.read_text())["n_rows"] == len(rows1)


def test_missing_input_reports_error(tmp_path, capsys):
    rc = main(
        [
            "decompose",
            "--input", str(tmp_path / "nope.tkr"),
            "--method", "hooi",
            "--ranks", "2,2,2",
            "--out", str(tmp_path / "t.tkd"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--dims", "8,8,8", "--ranks", "two", "--out", str(tmp_path / "x.tkr")])
    assert exc.value.code == 2

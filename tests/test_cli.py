"""End-to-end checks of the command-line interface, run in-process via main(argv)."""

import inspect
import json

import numpy as np
import pytest

from tuckersketch import bounds
from tuckersketch.bench import read_rows, synth_tensor
from tuckersketch.cli import main
from tuckersketch.decompose import DecomposerConfig, decompose, reconstruction_error
from tuckersketch.fileio import read_decomposition, read_tensor, write_tensor

from oracles import unsolvable


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


def test_decompose_compress_modes_one_based(tmp_path, capsys):
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
    for mode in ("0", "4"):
        t_path.unlink(missing_ok=True)
        rc = main(["decompose", "--input", str(x_path), "--method", "hooi-re", "--ranks", "2,2,2",
                   "--dr", "0.6", "--compress-modes", mode, "--out", str(t_path)])
        assert rc == 1
        assert f"error: mode {mode} out of range 1..3" in capsys.readouterr().err
        assert not t_path.exists()


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


SUITE_RUNNERS = {
    "lemma21": bounds.run_lemma21_suite,
    "lemma-a": bounds.run_lemma_a_suite,
    "prop1": bounds.run_prop1_suite,
    "th1": bounds.run_th1_suite,
    "th4": bounds.run_th4_suite,
}
FLAG_VALUES = {"--eps": "0.5", "--eta": "0.2", "--family": "srft"}


@pytest.mark.parametrize("suite, flag", [(s, f) for s in SUITE_RUNNERS for f in FLAG_VALUES])
def test_verify_rejects_bound_flag_the_suite_does_not_take(suite, flag, capsys):
    # the CLI takes a flag iff the suite's runner has the keyword; a flag
    # the suite cannot use is an error, never silently dropped
    accepted = flag[2:] in inspect.signature(SUITE_RUNNERS[suite]).parameters
    rc = main(["verify", "--suite", suite, "--trials", "5", flag, FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    if accepted:
        assert rc == 0
        assert captured.out.startswith(f"{suite}: PASS ")
    else:
        assert rc == 1
        assert captured.out == ""
        assert f"{flag} does not apply to suite {suite}" in captured.err


def test_verify_family_flag_reaches_the_suite(tmp_path):
    # every suite's --out file is the library report byte for byte at the
    # CLI's default seed of 1: --family passes through, and --trials is
    # prop1's target
    out = tmp_path / "report.json"
    runs = {
        "lemma21": (bounds.run_lemma21_suite, "trials"),
        "lemma-a": (bounds.run_lemma_a_suite, "trials"),
        "prop1": (bounds.run_prop1_suite, "target"),
        "th1": (bounds.run_th1_suite, "trials"),
        "th4": (bounds.run_th4_suite, "trials"),
    }
    for suite, (run, trials_kw) in runs.items():
        family = {} if suite == "lemma21" else {"family": "srft"}
        flags = [f"--{k}={v}" for k, v in family.items()]
        assert main(["verify", "--suite", suite, *flags, "--trials", "5", "--out", str(out)]) == 0
        library = run(**{trials_kw: 5}, seed=1, **family)
        assert out.read_text() == json.dumps(library.to_dict(), indent=2)
    assert library.details["family"] == "srft"
    # --family unset, the suite keeps its own default family; --seed passes through
    assert main(["verify", "--suite", "th4", "--trials", "5", "--seed", "2", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(bounds.run_th4_suite(trials=5, seed=2).to_dict(), indent=2)
    assert json.loads(out.read_text())["details"]["family"] == "gaussian"


@pytest.mark.parametrize("command", ["verify-lemma21", "verify-th4", "bench", "decompose"])
def test_negative_seed_is_one_clear_error(command, tmp_path, capsys):
    # hooi-re and the suites used to fail with numpy's bare "expected
    # non-negative integer"; hosvd and hooi accepted the seed
    x_path = tmp_path / "x.tkr"
    write_tensor(x_path, synth_tensor((6, 6, 6), (2, 2, 2), 0.1, 8))
    out = tmp_path / "run.csv"
    argv = {
        "verify-lemma21": ["verify", "--suite", "lemma21", "--trials", "2"],
        "verify-th4": ["verify", "--suite", "th4", "--trials", "2"],
        "bench": ["bench", "--input", str(x_path), "--methods", "hooi,hooi-re", "--ranks", "2",
                  "--dr-grid", "0.5", "--reps", "1", "--out", str(out)],
        "decompose": ["decompose", "--input", str(x_path), "--method", "hooi-re", "--ranks", "2,2,2",
                      "--dr", "0.5"],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: seed must be a non-negative integer, got -1" in captured.err
    assert not out.exists()


def test_synth_rejects_nan_noise(tmp_path, capsys):
    # a nan level used to exit 0 and write a tensor with no noise
    out = tmp_path / "x.tkr"
    argv = ["synth", "--dims", "4,4,4", "--ranks", "2,2,2", "--noise", "nan", "--out", str(out)]
    assert main(argv) == 1
    assert "error: noise level must be a finite nonnegative number, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_rejects_nan_tol(tmp_path, capsys):
    # a nan tolerance never stopped a run: it silently went to --max-iters
    x_path = tmp_path / "x.tkr"
    write_tensor(x_path, synth_tensor((6, 6, 6), (2, 2, 2), 0.1, 8))
    assert main(["decompose", "--input", str(x_path), "--ranks", "2,2,2", "--tol", "nan"]) == 1
    assert "error: rel_tol must be a non-negative number, got nan" in capsys.readouterr().err


def test_verify_lemma21_rejects_family(capsys):
    assert main(["verify", "--suite", "lemma21", "--trials", "5", "--family", "srft"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--family does not apply to suite lemma21" in captured.err


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


def test_bench_cli_rejects_duplicate_compressed_modes(tmp_path, capsys):
    x_path = tmp_path / "x.tkr"
    write_tensor(x_path, synth_tensor((6, 6, 6), (2, 2, 2), 0.1, 8))
    out = tmp_path / "run.csv"
    rc = main(["bench", "--input", str(x_path), "--methods", "hooi,hooi-re", "--ranks", "2",
               "--dr-grid", "0.5", "--reps", "1", "--compress-modes", "1,1", "--out", str(out)])
    assert rc == 1
    assert "duplicate compressed modes" in capsys.readouterr().err
    assert not out.exists()


def test_bench_cli_rejects_duplicate_grid_values(tmp_path, capsys):
    x_path = tmp_path / "x.tkr"
    write_tensor(x_path, synth_tensor((6, 6, 6), (2, 2, 2), 0.1, 8))
    out = tmp_path / "run.csv"
    rc = main(["bench", "--input", str(x_path), "--methods", "hooi-re,hooi-re", "--ranks", "2,2",
               "--dr-grid", "0.5,0.5", "--reps", "2", "--out", str(out)])
    assert rc == 1
    assert "duplicate values in the methods" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["zero", "inf", "huge"])
def test_bench_stops_with_the_decompose_error(kind, tmp_path, capsys):
    # bench used to write one all-NaN row per run and exit 0
    x_path = tmp_path / "x.tkr"
    write_tensor(x_path, unsolvable(kind))
    assert main(["decompose", "--input", str(x_path), "--ranks", "2,2,2"]) == 1
    expected = capsys.readouterr().err
    out = tmp_path / "run.csv"
    rc = main(["bench", "--input", str(x_path), "--methods", "hosvd,hooi,hooi-re", "--ranks", "2",
               "--dr-grid", "0.5,1.0", "--reps", "3", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == expected
    assert not out.exists() and not (tmp_path / "run.summary.json").exists()


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
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--input", str(tmp_path / "x.tkr"), "--ranks", "2", "--dr-grid", "0.5,x",
              "--out", str(tmp_path / "run.csv")])
    assert exc.value.code == 2

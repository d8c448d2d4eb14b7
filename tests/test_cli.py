"""End-to-end checks of every CLI subcommand through main()."""

import hashlib
import json

import pytest

from midostc import algebra, channel
from midostc.cli import _parse_snr_list, main


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_example_json(capsys):
    rc, out, err = run(capsys, ["construct", "--example", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "example1"
    assert doc["u"] == ["-1/2", "-1/2", "-1/2", "1/2"]
    assert doc["a"] == ["0", "0", "1", "0"]
    assert doc["division"]["is_division"] is True
    assert doc["conditions"]["alpha"] == pytest.approx(0.633974596216)


def test_construct_non_division_still_succeeds(capsys):
    rc, out, err = run(capsys, ["construct", "--example", "5"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["division"]["is_division"] is False
    assert "note" in doc


def test_construct_raw_unit(capsys):
    # the equals form keeps argparse from reading a leading minus as a flag
    argv = ["construct", "--c", "3", "--cprime", "1",
            "--u=-1/2,-1/2,-1/2,1/2"]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["a"] == ["0", "0", "1", "0"]


def test_construct_condition_failure_exit_code(capsys):
    argv = ["construct", "--c", "2", "--cprime", "1", "--u", "0,0,1/2,1/2"]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert json.loads(out)["conditions"]["ok"] is False
    rc2, out2, _ = run(capsys, argv + ["--k", "-1"])
    assert rc2 == 0
    assert json.loads(out2)["conditions"]["ok"] is True


def test_construct_error_paths(capsys):
    rc, out, err = run(capsys, ["construct"])
    assert rc == 1 and err == "error: either --example or all of --c, --cprime, --u are required\n"
    rc, out, err = run(capsys, ["construct", "--c", "3", "--cprime", "1",
                                "--u", "1,2,3"])
    assert rc == 1
    # norm != 1 is rejected before any derivation
    rc, out, err = run(capsys, ["construct", "--c", "3", "--cprime", "1",
                                "--u", "2,0,0,0"])
    assert rc == 1 and "norm" in err


def test_division_table_matches_library(capsys, tmp_path):
    rc, out, err = run(capsys, ["division-table"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,minus_cprime,is_division,witness"
    assert len(lines) == 17
    assert lines[1] == "2,-1,no,2 = 1 + 1"
    assert lines[2] == "3,-1,yes,"
    rows = algebra.division_table()
    assert lines[9] == "2,-2,no,2 = 0 + 2"
    assert len(rows) == 16
    path = tmp_path / "table.csv"
    rc, _, _ = run(capsys, ["division-table", "--output", str(path)])
    assert rc == 0 and path.read_text() == out


def test_analyze_structure(capsys):
    rc, out, err = run(capsys, ["analyze", "--code", "C2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["code"] == "example1-B2"
    assert doc["exponent"] == 10
    assert doc["conditioned"] == [5, 6, 7, 8, 9, 10, 11, 12]
    assert doc["groups"] == [[1, 4], [2, 3], [13, 16], [14, 15]]
    b = doc["b_matrix"]
    assert len(b) == 16 and len(b[0]) == 16
    # cross-group pairs are structural zeros written as exact 0.0;
    # same-group and conditioned pairs stay nonzero
    assert b[0][1] == 0.0 and b[0][12] == 0.0
    assert b[0][3] != 0.0 and b[0][4] != 0.0
    rc, out, _ = run(capsys, ["analyze", "--example", "1", "--basis", "B1"])
    assert json.loads(out)["exponent"] == 12


def test_analyze_with_target(capsys):
    rc, out, _ = run(capsys, ["analyze", "--code", "C2", "--target", "0"])
    assert rc == 0
    assert json.loads(out)["trivial"] is True


def test_mindet_csv(capsys):
    rc, out, err = run(capsys, ["mindet", "--code", "C2"])
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "code,strategy,candidates,min_abs_det,energy_scale,witness"
    fields = row.split(",")
    assert fields[0] == "example1-B2"
    assert fields[1] == "sparse_exhaustive"
    assert int(fields[2]) == 39360
    assert float(fields[3]) == pytest.approx(8.0, abs=1e-6)
    assert len(fields[5].split()) == 16


def test_mindet_random_defaults_to_1000_samples_and_seed_0(capsys):
    rc, out, err = run(capsys, ["mindet", "--code", "C2", "--strategy", "random"])
    assert rc == 0 and out.splitlines()[1].split(",")[1:3] == ["random", "1000"]
    assert run(capsys, ["mindet", "--code", "C2", "--strategy", "random",
                        "--samples", "1000", "--seed", "0"])[1] == out


# sha256 of the stdout of a random mindet over 40,000 differences, three
# slices of the search; the C5 minimum is a rounding residue of a zero
# determinant, so it pins the float arithmetic too
MINDET_RANDOM_SHA256 = {
    "C2": "10f15ccbb29407daf9cf6dbccb459db385aaf1614e956cc5ba03326796219e3a",
    "C5": "57505fffe818a4224edcdeba72d2da6ee0004035db894c5178af9a38da3e6de4",
}


@pytest.mark.parametrize("code", sorted(MINDET_RANDOM_SHA256))
def test_mindet_random_output_is_pinned(capsys, code):
    rc, out, err = run(capsys, ["mindet", "--code", code, "--strategy", "random",
                                "--samples", "40000", "--seed", "3"])
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == MINDET_RANDOM_SHA256[code]


def test_decode_verify_agreement(capsys):
    rc, out, err = run(capsys, ["decode-verify", "--code", "C2",
                                "--trials", "5", "--seed", "3"])
    assert rc == 0
    assert "oracle agreement: 5/5" in out
    assert "visits: conditional=4096 exhaustive=65536" in out


DECODE_VERIFY_PINNED = {
    "C2": ("code: example1-B2\n"
           "structure: conditioned=8 groups=[2, 2, 2, 2] exponent=10\n"
           "visits: conditional=4096 exhaustive=65536\n"
           "config: trials=20 snr_db=10.0 seed=0 rng=philox-ss-v1\n"
           "oracle agreement: 20/20 (worst metric gap 1.776e-15)\n"),
    "C5": ("code: example5-B2\n"
           "structure: conditioned=12 groups=[2, 2] exponent=14\n"
           "visits: conditional=32768 exhaustive=65536\n"
           "config: trials=20 snr_db=10.0 seed=0 rng=philox-ss-v1\n"
           "oracle agreement: 20/20 (worst metric gap 1.332e-15)\n"),
}


@pytest.mark.parametrize("code", sorted(DECODE_VERIFY_PINNED))
def test_decode_verify_output_is_pinned(capsys, code):
    # tied to the philox-ss-v1 draw scheme and to the decoders' arithmetic
    rc, out, err = run(capsys, ["decode-verify", "--code", code, "--trials", "20",
                                "--seed", "0", "--snr-db", "10"])
    assert rc == 0 and err == ""
    assert out == DECODE_VERIFY_PINNED[code]


@pytest.mark.parametrize("code", sorted(DECODE_VERIFY_PINNED))
def test_decode_verify_pins_hold_in_slices(capsys, monkeypatch, code):
    # 20 trials in slices of 8, 8 and 4 print what one slice of 20 prints
    monkeypatch.setattr(channel, "BATCH_SIZE", 8)
    rc, out, err = run(capsys, ["decode-verify", "--code", code, "--trials", "20",
                                "--seed", "0", "--snr-db", "10"])
    assert rc == 0 and err == ""
    assert out == DECODE_VERIFY_PINNED[code]


def test_decode_verify_rejects_negative_seed(capsys):
    rc, out, err = run(capsys, ["decode-verify", "--code", "C2", "--trials", "3", "--seed", "-1"])
    assert rc == 1 and err == "error: seed must be non-negative, got -1\n"
    assert out == ""


def test_simulate_csv_reproducible(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--code", "C2", "--snr", "10", "--seed", "5",
            "--min-errors", "10", "--max-trials", "256"]
    assert run(capsys, argv + ["--output", str(p1)])[0] == 0
    assert run(capsys, argv + ["--output", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    body = p1.read_text().splitlines()
    assert body[2] == "snr_db,trials,word_errors,wer"
    assert body[3].startswith("10,256,")


def test_simulate_output_is_pinned(capsys):
    # tied to the philox-ss-v1 draw scheme
    rc, out, _ = run(capsys, ["simulate", "--code", "C2", "--snr", "10,12", "--seed", "5",
                              "--min-errors", "10", "--max-trials", "512"])
    assert rc == 0
    assert out == (
        "# code=example1-B2 basis=B2 variant=plain snr_def=4/sigma2 seed=5\n"
        "# rng=philox-ss-v1 draw_order=symbols,channel,noise min_errors=10 "
        "max_trials=512 batch=256 threads=1\n"
        "snr_db,trials,word_errors,wer\n"
        "10,256,61,0.23828125\n"
        "12,256,22,0.0859375\n")


@pytest.mark.parametrize("argv, message", [
    (["--snr", "10", "--max-trials", "0"], "max_trials must be at least 1"),
    (["--snr", "10", "--min-errors", "0"], "min_errors must be at least 1"),
    (["--snr", "10", "--threads", "-3"], "threads must be at least 1"),
    (["--snr", "10:8:1"], "finite SNR points"),
    (["--snr", "nan"], "finite SNR points"),
    (["--snr", "10", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["--snr", "0:inf:1"], "SNR range '0:inf:1' needs a finite start, stop and step"),
    (["--snr=-inf:10:1"], "SNR range '-inf:10:1' needs a finite start, stop and step"),
    (["--snr", "0:10:nan"], "SNR range '0:10:nan' needs a finite start, stop and step"),
    (["--snr", "0:10:inf"], "SNR range '0:10:inf' needs a finite start, stop and step"),
    (["--snr", "0:10:0.00001"], "SNR range '0:10:0.00001' has more than 1000 points"),
], ids=["max-trials-0", "min-errors-0", "threads-negative", "empty-range", "nan", "seed-negative",
        "range-stop-inf", "range-start-minus-inf", "range-step-nan", "range-step-inf",
        "range-too-many-points"])
def test_simulate_rejects_bad_input(capsys, tmp_path, argv, message):
    path = tmp_path / "out.csv"
    rc, out, err = run(capsys, ["simulate", "--code", "C2", "--output", str(path)] + argv)
    assert rc == 1 and err.startswith("error: ") and message in err
    assert not path.exists()


def test_snr_range_point_limit():
    assert _parse_snr_list("0:999:1") == [float(v) for v in range(1000)]
    with pytest.raises(ValueError, match="has more than 1000 points"):
        _parse_snr_list("0:1000:1")


@pytest.mark.parametrize("argv, message", [
    (["decode-verify", "--code", "C2", "--trials", "5", "--snr-db=nan"], "got nan dB"),
    (["decode-verify", "--code", "C2", "--trials", "5", "--snr-db=-inf"], "got -inf dB"),
    (["decode-verify", "--code", "C2", "--trials", "5", "--snr-db=-4000"], "got -4000.0 dB"),
    (["decode-verify", "--code", "C2", "--trials", "0"], "at least one trial"),
    (["simulate", "--code", "C2", "--snr=10,-4000"], "got -4000.0 dB"),
    (["analyze", "--code", "C2", "--target", "99"], "target_conditioned must be in 0..15, got 99"),
    (["analyze", "--code", "C2", "--target=-3"], "target_conditioned must be in 0..15, got -3"),
    (["mindet", "--code", "C2", "--strategy", "random", "--samples", "0"], "samples must be at least 1"),
    (["mindet", "--code", "C2", "--strategy", "random", "--samples=-4"], "samples must be at least 1"),
    (["mindet", "--code", "C2", "--samples=-4"],
     "--strategy sparse_exhaustive cannot be combined with --samples"),
    (["mindet", "--code", "C2", "--seed", "3"],
     "--strategy sparse_exhaustive cannot be combined with --seed"),
    (["mindet", "--example", "2", "--strategy", "sparse_exhaustive", "--samples", "9", "--seed", "1"],
     "--strategy sparse_exhaustive cannot be combined with --samples, --seed"),
    (["analyze", "--code", "C2", "--basis", "B3", "--example", "5"],
     "--code C2 cannot be combined with --example, --basis"),
    (["simulate", "--code", "C5", "--variant", "plain", "--snr", "10"],
     "--code C5 cannot be combined with --variant"),
    (["decode-verify", "--code", "C3", "--c", "3", "--cprime", "1", "--u", "1,0,0,0", "--k", "2",
      "--lprime", "2"], "--code C3 cannot be combined with --c, --cprime, --u, --k, --lprime"),
    (["construct", "--example", "1", "--k", "4/7"], "--example 1 cannot be combined with --k"),
    (["mindet", "--example", "1", "--basis", "B1", "--lprime", "1"],
     "--example 1 cannot be combined with --lprime"),
    (["analyze", "--example", "3", "--c", "3", "--cprime", "1", "--u", "1,0,0,0"],
     "--example 3 cannot be combined with --c, --cprime, --u"),
    (["construct", "--c", "10000000000000061", "--cprime", "1", "--u=1,0,0,0"],
     "c and cprime must be at most MAX_C = 1000000000, got c=10000000000000061"),
    (["construct", "--c", "3", "--cprime", "1000000000000000003", "--u=1,0,0,0"],
     "c and cprime must be at most MAX_C = 1000000000, got c=3, cprime=1000000000000000003"),
    (["analyze", "--c", "10000000000000061", "--cprime", "1", "--u=1,0,0,0"],
     "c and cprime must be at most MAX_C = 1000000000, got c=10000000000000061"),
    (["analyze", "--c", "3", "--cprime", "1000000000000000003", "--u=1,0,0,0"],
     "c and cprime must be at most MAX_C = 1000000000, got c=3, cprime=1000000000000000003"),
], ids=["verify-snr-nan", "verify-snr-minus-inf", "verify-snr-overflow", "verify-trials-0",
        "simulate-snr-overflow", "analyze-target-99", "analyze-target-negative",
        "mindet-samples-0", "mindet-samples-negative", "mindet-sparse-samples", "mindet-sparse-seed",
        "mindet-sparse-samples-and-seed", "code-with-example-and-basis", "code-with-variant",
        "code-with-params", "example-with-k", "example-with-lprime", "example-with-unit",
        "construct-huge-c", "construct-huge-cprime", "analyze-huge-c", "analyze-huge-cprime"])
def test_out_of_range_options_are_errors(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 1 and err.startswith("error: ") and message in err
    assert out == ""


RAW = ["--c", "3", "--cprime", "1"]


@pytest.mark.parametrize("command", ["construct", "analyze", "mindet"])
@pytest.mark.parametrize("options, message", [
    (["--u=1/0,0,0,0"], "--u needs a finite rational such as 3, -1/2 or 0.25, got '1/0'"),
    (["--u=1,0,zero,0"], "--u needs a finite rational such as 3, -1/2 or 0.25, got 'zero'"),
    (["--u=1,0,0"], "--u needs four comma-separated rationals, got 3"),
    (["--u=-1/2,-1/2,-1/2,1/2", "--k", "nan"], "--k needs a finite rational such as 3, -1/2 or 0.25, got 'nan'"),
    (["--u=-1/2,-1/2,-1/2,1/2", "--k", "2/0"], "--k needs a finite rational such as 3, -1/2 or 0.25, got '2/0'"),
    (["--u=-1/2,-1/2,-1/2,1/2", "--lprime", "inf"],
     "--lprime needs a finite rational such as 3, -1/2 or 0.25, got 'inf'"),
], ids=["u-zero-denominator", "u-word", "u-three-parts", "k-nan", "k-zero-denominator", "lprime-inf"])
def test_unparsable_rationals_name_the_option(capsys, command, options, message):
    rc, out, err = run(capsys, [command, *RAW, *options])
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


def test_simulate_snr_range_parsing(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    argv = ["simulate", "--code", "C2", "--snr", "8:12:2", "--seed", "5",
            "--min-errors", "5", "--max-trials", "256", "--output", str(path)]
    assert run(capsys, argv)[0] == 0
    rows = path.read_text().strip().splitlines()[3:]
    assert [r.split(",")[0] for r in rows] == ["8", "10", "12"]


def test_simulate_rejects_bad_snr(capsys):
    rc, out, err = run(capsys, ["simulate", "--code", "C2", "--snr", "8:12"])
    assert rc == 1 and "start:stop:step" in err


def test_unknown_code_shortcut(capsys):
    rc, out, err = run(capsys, ["analyze", "--code", "C9"])
    assert rc == 1 and "unknown code shortcut" in err


def test_code_shortcuts_resolve(capsys):
    for name, expected in (("C3", "example1-B3"), ("C4", "example1-B2-C4"),
                           ("C5", "example5-B2")):
        rc, out, _ = run(capsys, ["analyze", "--code", name])
        assert rc == 0
        assert json.loads(out)["code"] == expected

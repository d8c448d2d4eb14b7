"""End-to-end checks of every CLI subcommand through main()."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import midostc
from midostc import algebra, channel, codebook, fastdecode
from midostc.cli import _parse_snr_list, build_parser, main


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
# slices of the search; the C5 witness has an exact zero determinant, which
# prints as 0 where the float determinant leaves a rounding residue
MINDET_RANDOM_SHA256 = {
    "C2": "8172c2ce96d2d00cd0b46069a21322f930171704a09198b092cccf75e32be19a",
    "C5": "5621e37c6dfe5e85353201ff7a36feb5010384a53194e190240f7ae9ea4e7951",
}


@pytest.mark.parametrize("code", sorted(MINDET_RANDOM_SHA256))
def test_mindet_random_output_is_pinned(capsys, code):
    rc, out, err = run(capsys, ["mindet", "--code", code, "--strategy", "random",
                                "--samples", "40000", "--seed", "3"])
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == MINDET_RANDOM_SHA256[code]


# (exit code, sha256 of stdout) of commands the certify_catalog pins leave
# out: a raw unit that fails the shaping conditions at k = l' = 1, and a
# fixed conditioning target
STDOUT_SHA256 = {
    "construct --c 2 --cprime 1 --u 0,0,1/2,1/2":
        (1, "5ee2f8109cf391af9a00c56b589b8a7c0b16c00331813b15f97191369ccd61a7"),
    "construct --c 2 --cprime 1 --u 0,0,1/2,1/2 --k -1":
        (0, "74f74c243df67909f8a14fdac54d286aba1d62ef90ece55b4cdc3cb51d007d9c"),
    "construct --c 2 --cprime 1 --u 0,0,1/2,1/2 --k 0":
        (1, "282f280d08c9f60af09dc206b0e2f83f69e7250cdbe1c8b1991b513dfaa7d0b2"),
    "construct --c 2 --cprime 1 --u 0,0,1/2,1/2 --k 4/7 --lprime 3/5":
        (1, "fae5a6d247d1298b63ae06c94a719911818489a76ba73f90deff3e7f656538ba"),
    "analyze --code C5 --target 13":
        (0, "9bea8346fea23d6ec710e8aeb7b1682966d4d3a97601c0878a14b02f5ed0f28b"),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_stdout_is_pinned(capsys, argv):
    rc, out, err = run(capsys, argv.split())
    assert err == ""
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_SHA256[argv]


def test_pooled_simulate_file_is_pinned(capsys, tmp_path):
    # tied to the philox-ss-v1 draw scheme; the three points stop after one,
    # two and three batches on a pool of two workers
    path = tmp_path / "sweep.csv"
    rc, out, err = run(capsys, ["simulate", "--code", "C2", "--snr", "8:12:2", "--seed", "5", "--min-errors", "60",
                                "--max-trials", "1024", "--threads", "2", "--output", str(path)])
    assert (rc, out, err) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "3c2f0ee26b046502f4806c084b628d3a3467f31a603d3f65f1a47b1ca8f0d74c"


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
           "oracle agreement: 20/20 (worst metric gap 0.000e+00)\n"),
    "C5": ("code: example5-B2\n"
           "structure: conditioned=12 groups=[2, 2] exponent=14\n"
           "visits: conditional=32768 exhaustive=65536\n"
           "config: trials=20 snr_db=10.0 seed=0 rng=philox-ss-v1\n"
           "oracle agreement: 20/20 (worst metric gap 0.000e+00)\n"),
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


def test_decode_verify_reports_an_oracle_mismatch(capsys, monkeypatch):
    # an oracle that disagrees on trial 7, by a metric gap of 1, fails the run
    oracle, calls = fastdecode.ml_exhaustive, []

    def wrong_on_trial_7(y, G, pam):
        res = oracle(y, G, pam)
        calls.append(None)
        if len(calls) != 8:
            return res
        return fastdecode.DecodeResult(-res.symbols, res.metric + 1.0, res.visits)

    monkeypatch.setattr(fastdecode, "ml_exhaustive", wrong_on_trial_7)
    rc, out, err = run(capsys, ["decode-verify", "--code", "C2", "--trials", "20"])
    assert rc == 1
    assert err == "MISMATCH against the exhaustive oracle\n"
    assert "oracle agreement: 19/20" in out


def test_decode_verify_rejects_negative_seed(capsys):
    rc, out, err = run(capsys, ["decode-verify", "--code", "C2", "--trials", "3", "--seed", "-1"])
    assert rc == 1 and err == "error: --seed must be non-negative, got -1\n"
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
    (["--snr", "10", "--max-trials", "0"], "--max-trials must be at least 1, got 0"),
    (["--snr", "10", "--min-errors", "0"], "--min-errors must be at least 1, got 0"),
    (["--snr", "10", "--threads", "-3"], "--threads must be at least 1, got -3"),
    (["--snr", "10:8:1"], "--snr range '10:8:1' needs a positive step and start <= stop"),
    (["--snr", "0:10:-1"], "--snr range '0:10:-1' needs a positive step and start <= stop"),
    (["--snr", "nan"], "--snr must be finite and give a finite noise variance, got nan dB"),
    (["--snr", "10", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["--snr", "0:inf:1"], "--snr range '0:inf:1' needs a finite start, stop and step"),
    (["--snr=-inf:10:1"], "--snr range '-inf:10:1' needs a finite start, stop and step"),
    (["--snr", "0:10:nan"], "--snr range '0:10:nan' needs a finite start, stop and step"),
    (["--snr", "0:10:inf"], "--snr range '0:10:inf' needs a finite start, stop and step"),
    (["--snr", "0:10:0.00001"], "--snr range '0:10:0.00001' has more than 1000 points"),
    (["--snr", ""], "--snr needs numbers in dB, got '' in ''"),
    (["--snr", "15,,16"], "--snr needs numbers in dB, got '' in '15,,16'"),
    (["--snr", "0:10"], "--snr range form is start:stop:step, got '0:10'"),
], ids=["max-trials-0", "min-errors-0", "threads-negative", "empty-range", "negative-step", "nan", "seed-negative",
        "range-stop-inf", "range-start-minus-inf", "range-step-nan", "range-step-inf",
        "range-too-many-points", "snr-empty", "snr-empty-item", "range-two-parts"])
def test_simulate_rejects_bad_input(capsys, tmp_path, argv, message):
    path = tmp_path / "out.csv"
    rc, out, err = run(capsys, ["simulate", "--code", "C2", "--output", str(path)] + argv)
    assert rc == 1 and err.startswith("error: ") and message in err
    assert not path.exists()


BAD_OUTPUT_WORK = {"simulate": ["--code", "C2", "--snr", "14", "--max-trials", "40000", "--min-errors", "100000"],
                   "mindet": ["--code", "C2"]}


@pytest.mark.parametrize("command", sorted(BAD_OUTPUT_WORK))
@pytest.mark.parametrize("target", ["missing/x.csv", "taken", "unwritable/x.csv", ""])
def test_bad_output_is_refused_before_any_work(capsys, monkeypatch, tmp_path, command, target):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --output was checked")

    monkeypatch.setattr(channel, "draw_trials", no_work)
    monkeypatch.setattr(codebook, "min_det_search", no_work)
    (tmp_path / "taken").mkdir()
    (tmp_path / "unwritable").mkdir()
    if target.startswith("unwritable"):
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    path = str(tmp_path / target) if target else ""      # "" names no file, not the working directory
    rc, out, err = run(capsys, [command, *BAD_OUTPUT_WORK[command], "--output", path])
    assert (rc, out) == (1, "")
    assert err == f"error: --output {path!r} is not a file in an existing, writable directory\n"
    assert not os.path.isfile(path)


@pytest.mark.parametrize("command", sorted(BAD_OUTPUT_WORK))
def test_existing_unwritable_output_is_refused_before_any_work(capsys, monkeypatch, tmp_path, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --output was checked")

    monkeypatch.setattr(channel, "draw_trials", no_work)
    monkeypatch.setattr(codebook, "min_det_search", no_work)
    path = str(tmp_path / "readonly.csv")
    with open(path, "w") as f:
        f.write("kept\n")
    access = os.access
    # file modes deny a superuser nothing, so deny this one file through os.access instead
    monkeypatch.setattr(os, "access", lambda p, mode: p != path and access(p, mode))
    rc, out, err = run(capsys, [command, *BAD_OUTPUT_WORK[command], "--output", path])
    assert (rc, out) == (1, "")
    assert err == f"error: --output {path!r} is not a file in an existing, writable directory\n"
    with open(path) as f:
        assert f.read() == "kept\n"


def test_output_relative_to_the_working_directory_is_accepted(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, ["division-table", "--output", "table.csv"])
    assert (rc, out, err) == (0, "", "")
    assert (tmp_path / "table.csv").read_text().startswith("c,minus_cprime,is_division,witness\n")


def test_only_the_cli_imports_json_or_io():
    # the library modules return values; the cli alone turns them into bytes
    imported = {}
    for path in sorted(Path(midostc.__file__).resolve().parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported[path.name] = ({alias.name.split(".")[0] for n in nodes if isinstance(n, ast.Import) for alias in n.names}
                               | {n.module.split(".")[0] for n in nodes if isinstance(n, ast.ImportFrom) and n.module})
    assert "json" in imported.pop("cli.py")
    assert {name: modules & {"json", "io"} for name, modules in imported.items()} == {name: set() for name in imported}


def _loaded_names(tree, with_strings=False) -> set:
    """Names that tree loads, as a variable or an attribute, and its string constants if with_strings."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            out.add(n.id if isinstance(n, ast.Name) else n.attr)
        elif with_strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_every_private_helper_has_a_caller():
    # a module-level _helper must be loaded by another top-level statement of
    # the package, or be named in bench/*.py, which patches some by name; a
    # docstring mention or a call from its own body does not count
    statements = [stmt for path in sorted(Path(midostc.__file__).resolve().parent.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    bench = set().union(*(_loaded_names(ast.parse(path.read_text()), True)
                          for path in sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))))
    helpers = [stmt for stmt in statements if isinstance(stmt, ast.FunctionDef)
               and stmt.name.startswith("_") and not stmt.name.startswith("__")]
    assert helpers
    uncalled = [f.name for f in helpers
                if f.name not in bench and not any(f.name in _loaded_names(stmt) for stmt in statements if stmt is not f)]
    assert uncalled == []


def test_snr_range_point_limit():
    assert _parse_snr_list("0:999:1") == [float(v) for v in range(1000)]
    with pytest.raises(ValueError, match="has more than 1000 points"):
        _parse_snr_list("0:1000:1")


@pytest.mark.parametrize("argv, message", [
    (["decode-verify", "--code", "C2", "--trials", "5", "--snr-db=nan"], "--snr-db must be finite and give a "
                                                                          "finite noise variance, got nan dB"),
    (["decode-verify", "--code", "C2", "--trials", "5", "--snr-db=-inf"], "--snr-db must be finite and give a "
                                                                           "finite noise variance, got -inf dB"),
    (["decode-verify", "--code", "C2", "--trials", "5", "--snr-db=-4000"], "got -4000.0 dB"),
    (["decode-verify", "--code", "C2", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["simulate", "--code", "C2", "--snr=10,-4000"], "--snr must be finite and give a finite noise variance, "
                                                     "got -4000.0 dB"),
    (["analyze", "--code", "C2", "--target", "99"], "--target must be in 0..15, got 99"),
    (["analyze", "--code", "C2", "--target=-3"], "--target must be in 0..15, got -3"),
    (["mindet", "--code", "C2", "--strategy", "random", "--samples", "0"], "samples must be at least 1"),
    (["mindet", "--code", "C2", "--strategy", "random", "--samples=-4"], "samples must be at least 1"),
    (["mindet", "--code", "C2", "--strategy", "random", "--samples", "5", "--seed=-1"],
     "seed must be non-negative, got -1"),
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
    (["analyze", "--code", "C5", "--target", "16"], "--target must be in 0..15, got 16"),
    (["mindet", "--example", "2", "--strategy", "random", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["mindet", "--code", "C4", "--strategy", "random", "--seed=-2"], "--seed must be non-negative, got -2"),
    (["mindet", "--code", "", "--k", "2"], "--code '' cannot be combined with --k"),
], ids=["verify-snr-nan", "verify-snr-minus-inf", "verify-snr-overflow", "verify-trials-0",
        "simulate-snr-overflow", "analyze-target-99", "analyze-target-negative",
        "mindet-samples-0", "mindet-samples-negative", "mindet-seed-negative", "mindet-sparse-samples",
        "mindet-sparse-seed", "mindet-sparse-samples-and-seed", "code-with-example-and-basis", "code-with-variant",
        "code-with-params", "example-with-k", "example-with-lprime", "example-with-unit",
        "construct-huge-c", "construct-huge-cprime", "analyze-huge-c", "analyze-huge-cprime",
        "analyze-target-16", "mindet-samples-names-option", "mindet-seed-names-option", "empty-code-is-visible"])
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


UNIT = "--u=-1/2,-1/2,-1/2,1/2"


@pytest.mark.parametrize("command, k", [
    *((command, k) for command in ("construct", "analyze", "mindet") for k in ("1e400", "1e-400")),
    ("analyze", "1e200"), ("mindet", "1e200"),      # the generators' energy overflows
    ("mindet", "1e-300"),                           # the exact minimum underflows
    ("construct", "1e-04300"),                      # the default int-string limit, padded
])
def test_parameters_outside_double_precision_are_refused(capsys, command, k):
    rc, out, err = run(capsys, [command, *RAW, UNIT, "--k", k])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the parameters leave double precision" in err


@pytest.mark.parametrize("option, value", [
    ("--k", "1e10000000"), ("--k", "1E-4301"), ("--lprime", "1e+1_000_000"), ("--u", "1e3000000"),
    ("--k", "1e" + "9" * 5000),
])
def test_decimal_exponents_past_the_int_string_limit_are_refused_at_once(capsys, monkeypatch, option, value):
    # Fraction("1e10000000") alone builds 10^10,000,000, which takes minutes
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    given = [f"--u={value},0,0,0"] if option == "--u" else [UNIT, option, value]
    start = time.perf_counter()
    rc, out, err = run(capsys, ["construct", *RAW, *given])
    assert time.perf_counter() - start < 2.0
    assert rc == 1 and out == ""
    assert err == f"error: {option} {value!r} has a decimal exponent beyond 4300 in magnitude\n"


def test_mindet_refuses_a_determinant_term_that_overflows(capsys):
    # at l' = 1e160 the generators' energy is a double, but their entries
    # reach 2.7e80 and a product of four of them is not
    rc, out, err = run(capsys, ["mindet", *RAW, UNIT, "--lprime", "1e160"])
    assert rc == 1 and out == ""
    assert err == "error: a determinant term overflows a double: the parameters leave double precision\n"


def test_lost_self_coupling_is_refused_alike_by_every_decoding_command(capsys):
    # at k = 1e-300 a generator's self-coupling underflows to 0
    opts = [*RAW, UNIT, "--k", "1e-300"]
    errs = []
    for argv in (["analyze", *opts], ["decode-verify", *opts], ["simulate", *opts, "--snr", "10"]):
        rc, out, err = run(capsys, argv)
        assert rc == 1 and out == "", argv
        errs.append(err)
    assert errs[0].startswith("error: symbol ") and errs[0].count("\n") == 1
    assert "the parameters leave double precision" in errs[0]
    assert errs == [errs[0]] * 3


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


# ----------------------------------------------------------------------
# every subcommand on generated argv

_SCALES = ("1", "4/7", "0", "-1", "1e-300", "1e-100", "1e160", "1e200", "1e250", "1e400", "nan", "inf", "1/0", "")
# (c, c', u) of the catalog entries 1 to 5, then junk units
_CATALOG_UNITS = (("3", "1", "-1/2,-1/2,-1/2,1/2"), ("6", "1", "-1,-1,-1/2,1/2"),
                  ("11", "1", "-3/2,-3/2,-1/2,1/2"), ("5", "2", "3,0,0,1"), ("3", "1", "0,1/2,0,-1/2"))
_JUNK_UNITS = ("1,0,0,0", "0,0,0,0", "1,2", "1/0,0,0,0", "nan,0,0,0", "")
_SNR_PARTS = ("10", "12.5", "-3", "0", "nan", "inf", "-inf", "")


def _option(name, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [f"--{name}={v}"]))


def _options(*strategies):
    return st.tuples(*strategies).map(lambda parts: [arg for part in parts for arg in part])


def _raw(c, cprime, u):
    return ["--c", c, "--cprime", cprime, f"--u={u}"]


_catalog_unit = st.sampled_from(_CATALOG_UNITS).map(lambda t: _raw(*t))
_code_selection = st.one_of(                # raw catalog units twice as often as the others
    st.sampled_from(("C2", "C3", "C4", "C5", "c2", "C9", "")).map(lambda v: ["--code", v]),
    st.tuples(st.sampled_from(("1", "2", "3", "4", "5", "0", "x")),
              _option("basis", ("B1", "B2", "B3", "B9"))).map(lambda t: ["--example", t[0], *t[1]]),
    _catalog_unit, _catalog_unit,
    st.tuples(st.sampled_from(("3", "2", "4", "0", "-3", "10000000000")), st.sampled_from(("1", "2", "3", "0")),
              st.sampled_from(_JUNK_UNITS + tuple(u for _, _, u in _CATALOG_UNITS))).map(lambda t: _raw(*t)),
    st.just([]))
_snr = st.one_of(
    st.lists(st.sampled_from(_SNR_PARTS), min_size=1, max_size=3).map(",".join),
    st.lists(st.sampled_from(("0", "10", "12", "1", "5", "-1", "nan", "inf", "")),
             min_size=2, max_size=4).map(":".join))
_EXTRA = {
    "construct": st.just([]),
    "division-table": st.just([]),
    "analyze": _option("target", range(-2, 18)),
    "mindet": _options(_option("strategy", ("sparse_exhaustive", "random")),
                       _option("samples", (1, 7, 2000, 0, -4)), _option("seed", (0, 3, -1))),
    "decode-verify": _options(_option("trials", (1, 3, 8, 0, -1)), _option("seed", (0, 5, -1)),
                              _option("snr-db", ("10", "-4000", "nan", "inf", ""))),
    "simulate": _options(_snr.map(lambda v: [f"--snr={v}"]), _option("max-trials", (1, 256, 512, 0)),
                         _option("min-errors", (1, 10, 0)), _option("threads", (1, 0, -1)),
                         _option("seed", (0, 5, -1))),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_EXTRA)))
    argv = [command]
    if command != "division-table":
        argv += draw(_options(_code_selection, _option("k", _SCALES), _option("lprime", _SCALES)))
    return argv + draw(_EXTRA[command])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["analyze", *RAW, UNIT, "--k=1e250"])       # the generators overflow a double
@example(argv=["mindet", *RAW, UNIT, "--lprime=1e160"])    # a determinant term overflows a double
@example(argv=["analyze", "--code", "C3", "--target=17"])   # range errors that name their option
@example(argv=["mindet", "--example", "2", "--strategy=random", "--samples=-4"])
@example(argv=["mindet", *RAW, UNIT, "--strategy=random", "--seed=-1"])
@example(argv=["decode-verify", "--code", "C2", "--trials=0"])
@example(argv=["decode-verify", "--code", "C2", "--seed=-1", "--snr-db=nan"])
@example(argv=["simulate", "--code", "C2", "--snr=10", "--threads=0", "--seed=-1"])
@example(argv=["simulate", "--code", "C2", "--snr=10", "--min-errors=0"])
@example(argv=["simulate", "--code", "C2", "--snr=10", "--max-trials=0"])
@example(argv=["simulate", "--code", "C2", "--snr=10:0:1"])
@example(argv=["simulate", "--code", "C2", "--snr=10,inf"])
def test_every_subcommand_exits_cleanly_on_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:           # argparse refuses the command line
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err
    if rc == 1 and argv[0] == "construct" and not err:
        # construct prints its certificate and exits 1 when the shaping conditions fail
        assert json.loads(out)["conditions"]["ok"] is False
    elif rc == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if any(bound in err for bound in ("must be at least 1", "must be non-negative", "must be in 0..",
                                      "positive step", "must be finite", "finite SNR", "at least one trial")):
        # a range error names its option
        assert err.startswith(tuple(f"error: --{option} " for option in (
            "target", "samples", "seed", "trials", "threads", "min-errors", "max-trials", "snr", "snr-db"))), (argv, err)


def run_module(*argv):
    """python -m midostc argv in a child process, with the package's src directory on PYTHONPATH."""
    src = str(Path(midostc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "midostc", *argv], env=env, capture_output=True, text=True)


def test_python_m_midostc_runs_the_cli():
    # the README's way to run the package
    table = run_module("division-table")
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected" / "division_table.csv"
    assert (table.returncode, table.stdout, table.stderr) == (0, expected.read_text(), "")
    refused = run_module("analyze", "--code", "C9")
    assert (refused.returncode, refused.stdout) == (1, "")
    assert len(refused.stderr.splitlines()) == 1 and refused.stderr.startswith("error: unknown code shortcut 'C9'")


def test_cached_parser_carries_nothing_between_calls(capsys):
    # build_parser is built once per process; a call's options must not
    # leak into the next call's namespace
    assert build_parser() is build_parser()
    assert run(capsys, ["mindet", "--code", "C2", "--strategy", "random", "--samples", "5"])[0] == 0
    rc, out, err = run(capsys, ["mindet", "--code", "C2"])
    fresh = run_module("mindet", "--code", "C2")
    assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert out.startswith("code,strategy,") and ",sparse_exhaustive,39360," in out

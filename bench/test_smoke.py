"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from midostc import fastdecode  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# A structure whose two groups are coupled for every channel.
WRONG = fastdecode.GroupStructure((), (tuple(range(8)), tuple(range(8, 16))), 8)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_untraced_emits_end_to_end_metrics(name):
    checks, metrics, _ = run.run_untraced(name, 3, 0.01, sizes=run.TINY)
    assert {k: u for k, (_, u, _) in metrics.items()} == END_TO_END
    assert all(v > 0 for v, _, _ in metrics.values())
    assert checks.attempted > 0
    if name != "wer_operating_point":    # WER bands need full-size runs
        assert checks.failed == 0, checks.misses


def test_traced_emits_per_layer_metrics():
    checks, metrics, details = run.run_traced("oracle_verify", 3, 0.01, sizes=run.TINY)
    assert {k: u for k, (_, u, _) in metrics.items()} == PER_LAYER
    assert checks.failed == 0, checks.misses
    assert metrics["fastdecode.visit_ratio"][0] == 4096 / 65536
    assert metrics["codebook.min_det_candidates"][0] == 39360
    assert details["spans"] > 0


@pytest.mark.parametrize("cls", [run.OracleVerify, run.WerOperatingPoint])
def test_wrong_structure_counts_as_failure(cls):
    checks = run.Checks()
    built = run.build_codes(cls.codes, run.Clock())
    built["C2"] = (built["C2"][0], WRONG)
    wl = cls(built, 3, run.TINY, checks)
    wl.round(0, run.Clock())
    assert checks.failed >= 1
    assert any("not orthogonal" in m for m in checks.misses)


def test_main_prints_result_line(capsys):
    assert run.main(["--workload", "oracle_verify", "--seed", "3",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    report = json.loads(lines[-2])["report"]
    assert report["provenance"]["seed"] == 3


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle_verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The package names the benchmark reaches into by name still exist.

bench/tracer.py patches functions by attribute name and bench/run.py
draws oracle instances through channel and fastdecode internals; a name
lost in a refactor would make every traced run fail with a KeyError, and
a changed return type would make every oracle check fail.
"""

import ast
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

from midostc import channel, fastdecode

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _load("bench_tracer", "tracer.py")
    assert tracer.TARGETS
    for owner, attr, _, _ in tracer.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert callable(channel._trial_rng)


def test_oracle_verify_names_exist():
    tree = ast.parse((BENCH / "run.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "OracleVerify")
    verify = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "verify")
    modules = {"channel": channel, "fastdecode": fastdecode}
    used = {(node.value.id, node.attr) for node in ast.walk(verify)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("channel", "_trial_rng"), ("channel", "ChannelInstance"), ("channel", "sample_channel"),
            ("channel", "transmit"), ("fastdecode", "stack_real"), ("fastdecode", "real_channel")} <= used
    for module, attr in sorted(used):
        assert hasattr(modules[module], attr), f"{module}.{attr}"


def _tiny_round(workload):
    """One TINY round of a bench workload, plus its untimed passes; its checks."""
    # loaded like tracer.py; bench/run.py puts bench/ on sys.path and sets
    # the BLAS thread variables, which are restored afterwards
    with mock.patch.object(sys, "path", list(sys.path)), mock.patch.dict(os.environ):
        run = _load("bench_run", "run.py")
    cls = getattr(run, workload)
    checks = run.Checks()
    built = run.build_codes(cls.codes, run.Clock())
    wl = cls(built, 3, run.TINY, checks)
    ops = wl.round(0, run.Clock())
    wl.finish(full=False)
    return run, ops, checks


def test_oracle_verify_round_has_no_failed_checks():
    run, ops, checks = _tiny_round("OracleVerify")
    assert ops == run.TINY.oracle_block
    assert checks.attempted > run.TINY.oracle_block
    assert checks.failed == 0, checks.misses


def test_wer_operating_point_round_has_no_failed_checks():
    run, ops, checks = _tiny_round("WerOperatingPoint")
    assert ops == sum(trials for _, trials in run.TINY.wer_trials)
    assert checks.attempted > len(run.TINY.wer_trials)
    assert checks.failed == 0, checks.misses


def test_certify_catalog_round_has_no_failed_checks():
    run, ops, checks = _tiny_round("CertifyCatalog")
    assert ops == 1
    assert checks.attempted > len(run.TINY.cert_argvs)
    assert checks.failed == 0, checks.misses

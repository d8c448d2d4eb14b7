"""The package names the benchmark reaches into by name still exist.

bench/tracer.py patches functions by attribute name and bench/run.py
draws oracle instances through channel and fastdecode internals; a name
lost in a refactor would make every traced run fail with a KeyError, and
a changed return type would make every oracle check fail.  Some names
(channel.wilson_interval, channel.RNG_SCHEME) are read only by full runs
and the report, which no test runs, so every package name either file
reaches is checked.  The commands that certify_catalog runs must also
keep printing the same bytes.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

import midostc
from midostc import algebra, channel, cli, codebook, fastdecode
from midostc.cli import main

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


SUBMODULES = ("algebra", "channel", "codebook", "fastdecode", "numberfield")


def test_fresh_import_loads_the_five_submodules_and_not_the_cli():
    # bench/run.py times a fresh `import midostc` as part of setup_s and reads
    # midostc.__version__ and midostc.__file__
    probe = ("import json, sys, midostc; print(json.dumps([sorted(m for m in sys.modules if m.startswith('midostc')),"
             f" midostc.__version__, [hasattr(midostc, n) for n in {SUBMODULES!r}]]))")
    src = str(Path(midostc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    loaded, version, present = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                                         capture_output=True, text=True).stdout)
    assert loaded == ["midostc", *(f"midostc.{name}" for name in SUBMODULES)]
    assert version == midostc.__version__ and isinstance(version, str)
    assert all(present)


MODULES = {"midostc": midostc, "algebra": algebra, "channel": channel, "cli": cli, "codebook": codebook,
           "fastdecode": fastdecode}


def _reached(tree):
    """(module, name) for every attribute of a package module read in tree and every name imported
    from the package, with modules keyed as MODULES or by their dotted path."""
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            reached.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "midostc":
            reached |= {(node.module, alias.name) for alias in node.names}
    return reached


def test_oracle_verify_names_exist():
    run_tree = ast.parse((BENCH / "run.py").read_text())
    cls = next(n for n in run_tree.body if isinstance(n, ast.ClassDef) and n.name == "OracleVerify")
    verify = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "verify")
    assert {("channel", "_trial_rng"), ("channel", "ChannelInstance"), ("channel", "sample_channel"),
            ("channel", "transmit"), ("fastdecode", "stack_real"), ("fastdecode", "real_channel")} <= _reached(verify)
    reached = _reached(run_tree) | _reached(ast.parse((BENCH / "tracer.py").read_text()))
    assert {("channel", "wilson_interval"), ("channel", "RNG_SCHEME"), ("midostc.numberfield", "FieldElement")} <= reached
    for module, attr in sorted(reached):
        owner = MODULES.get(module) or importlib.import_module(module)
        assert hasattr(owner, attr), f"{module}.{attr}"


def test_c4_variant_is_c4_transform():
    # bench/run.py builds C4 through c4_transform; both routes rebuild entry 1 with k = lprime = 4/7
    direct = codebook.build_code(algebra.catalog_entry(1), "B2", "C4")
    via = codebook.c4_transform(codebook.build_code(algebra.catalog_entry(1), "B2"))
    assert direct.name == via.name == "example1-B2-C4"
    assert direct.params.scale_k == Fraction(4, 7)
    assert np.array_equal(direct.generators, via.generators)


def _load_run():
    # loaded like tracer.py; bench/run.py puts bench/ on sys.path and sets
    # the BLAS thread variables, which are restored afterwards
    with mock.patch.object(sys, "path", list(sys.path)), mock.patch.dict(os.environ):
        return _load("bench_run", "run.py")


def _tiny_round(workload):
    """One TINY round of a bench workload, plus its untimed passes; its checks."""
    run = _load_run()
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


# sha256 of the stdout of every certify_catalog command: a change to any
# printed byte of construct, division-table, analyze or mindet shows here
CERT_STDOUT_SHA256 = {
    "construct --example 1":
        "88a24bba784c10fd22ad1a6f53f3af0a2656abc74fda303eeee58fa6b3953621",
    "construct --example 2":
        "d9894cff22478750851fcd08246576c12ed9b3dd37f613d6502f56ec5de9795a",
    "construct --example 3":
        "e4a101331ede4851f8f26e0640baa4b8d578ea0db8eef4ca9e09a1f06906b538",
    "construct --example 4":
        "c9588aec4163f9701e071f72d91f3d6acf1ed7e16946b7fbb83af33bcffa2d0b",
    "construct --example 5":
        "6f117e347bc7ac14143c9904339873ed5ace31b4efda0effdcbeccf8cd512e28",
    "division-table":
        "5dc06c3854f313ed2bf4addf9e853713cbc109d87958bcb6c38ea405f9b72473",
    "analyze --code C2":
        "64ec0c8fe357f5b12697a4690b82b8dccd74332c5a6bf93ce77a60d002804a76",
    "analyze --code C3":
        "72539b8359d3759555279b5520bf61541c99c0a57046e6a21b6199b8b4785ee5",
    "analyze --code C4":
        "7f752e34e84e75c7b4091f522e9fa9bfe776955210f059c38c83f4f405550080",
    "analyze --code C5":
        "3768c1aad01f03400e60f2dfb7034a1fa9f6069872e8538c1129f10135bb0489",
    "analyze --example 1 --basis B1":
        "1138ed74a7cf8ac2a60046af325ddd4a2bdcb0dc6962e135386b7b832f088dbf",
    "mindet --code C2":
        "85ba5a26141ffbfbd031b0d7b7a08c2f624925361cb8a82afb309453f0a875a3",
    "mindet --code C3":
        "1fc99314dfaa02336616bde6196e41bd6a6dfb9cbeef97ef4990abf2a4340c39",
    "mindet --code C4":
        "a101aaa0d2b4a9049ad6f46dbe1f087ea6a87b8371c3fc1b79e08fa0ce011e1c",
    "mindet --code C5":
        "fcfb47b534cf2ae615213d2abc07c3edd6405541a72d3a380dfd69d5859580a3",
    "mindet --example 1 --basis B1":
        "ff13f8742ebe045d95446cf55b3370016154d77028155246a5183f79e4a9db2a",
    "mindet --example 2":
        "25685c3b4bd790cbf0fdb36a05fa6aaed36262fc0df54f817eac67505ff399ac",
    "mindet --example 3":
        "5d0f32c5bd46f34639b89456227c959121f48b053e84e3b3df81ffec80200435",
}


def test_certify_commands_print_pinned_bytes(capsys):
    run = _load_run()
    printed = {}
    for argv in run.CERT_ARGVS:
        assert main(list(argv)) == 0, argv
        printed[" ".join(argv)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert printed == CERT_STDOUT_SHA256

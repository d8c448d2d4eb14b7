"""The package names the benchmark reaches into by name still exist.

bench/tracer.py patches functions by attribute name and bench/run.py
draws oracle instances through channel and fastdecode internals; a name
lost in a refactor would make every traced run fail with a KeyError.
"""

import ast
import importlib.util
from pathlib import Path

from midostc import channel, fastdecode

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _tracer()
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

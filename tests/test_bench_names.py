"""The benchmark's names and command lines still fit the package.

`perfbench/run.py --trace 1` can time only a public function that its
module defines, and exits 2 when a per-layer name of BENCHMARK.json has no
such function. Every workload runs `powerfree` command lines that the CLI
parser must accept. So a deletion or rename of one of these functions, or
of a flag the benchmark passes, fails here first.
"""
import functools
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

from powerfree.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in (ROOT / "src" / "powerfree").glob("*.py")}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pinned():
    """(module, function) of every per-layer name <module>.<function>.<metric>
    whose first part is a package module."""
    parts = [m["name"].split(".") for m in SPEC["per_layer"]]
    return sorted({(p[0], p[1]) for p in parts
                   if len(p) == 3 and p[0] in MODULES})


def test_benchmark_pins_package_functions():
    assert ("kfree", "kfree_mask") in _pinned()


@pytest.mark.parametrize("module,name", _pinned())
def test_pinned_name_is_a_public_function(module, name):
    mod = importlib.import_module(f"powerfree.{module}")
    obj = getattr(mod, name, None)
    assert not name.startswith("_")
    assert isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
    assert obj.__module__ == mod.__name__


@functools.cache
def _bench_run():
    """perfbench/run.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_command_lines_parse(name, tmp_path):
    # a `decompose` operation calls the library, not the CLI
    ops, _ = _bench_run().workload(name, 1, str(tmp_path))
    assert {op.command[0] for op in ops} <= {"cli", "decompose"}
    for op in ops:
        if op.command[0] == "cli":
            # argparse exits 2 on an unknown or removed flag
            build_parser().parse_args(list(op.command[1:]))

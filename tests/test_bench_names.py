"""The per-layer metrics of BENCHMARK.json name package functions.

`perfbench/run.py --trace 1` can time only a public function that its
module defines, and exits 2 when a per-layer name has no such function. So
a deletion or rename of one of these functions fails here first.
"""
import functools
import importlib
import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in (ROOT / "src" / "powerfree").glob("*.py")}


def _pinned():
    """(module, function) of every per-layer name <module>.<function>.<metric>
    whose first part is a package module."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parts = [m["name"].split(".") for m in spec["per_layer"]]
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

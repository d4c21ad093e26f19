"""Every function the benchmark traces (``bench/spans.py``) still exists.
The tracer skips a name it cannot find, so a traced function that is
renamed or deleted would make its per-layer metric read 0 unnoticed."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in SPANS["TARGETS"].items() for name in names])
def test_traced_function_is_module_level(layer, name):
    module = importlib.import_module(f"vaknh.{layer}")
    function = getattr(module, name, None)
    assert inspect.isfunction(function) and function.__module__ == module.__name__


@pytest.mark.parametrize("layer, cls, name, _span", SPANS["METHODS"])
def test_traced_method_exists(layer, cls, name, _span):
    owner = getattr(importlib.import_module(f"vaknh.{layer}"), cls)
    assert inspect.isfunction(owner.__dict__.get(name))

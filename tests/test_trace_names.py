"""Every name the benchmark tracer patches still resolves.

bench/spans.py replaces module attributes and methods by name while a
``--trace 1`` run is installed; a name dropped from the package breaks every
traced run.  The tracer is loaded by path, as bench/run.py loads it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr)
    for module_name, attrs in spans._PATCHED_NAMES.items()
    for attr in attrs
])
def test_patched_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, cls_name, attr", spans._PATCHED_METHODS)
def test_patched_method_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(cls.__dict__[attr])  # the tracer reads the class dict


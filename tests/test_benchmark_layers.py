"""The benchmark's tracer wraps sphyper functions by name: each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_layers():
    # tracing.py imports only the standard library, so loading it by path
    # needs neither perfbench on sys.path nor its workloads
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted(tracing.LAYERS)


@pytest.mark.parametrize("module, name", traced_layers())
def test_traced_name_is_a_sphyper_function(module, name):
    assert callable(getattr(importlib.import_module(f"sphyper.{module}"), name, None))

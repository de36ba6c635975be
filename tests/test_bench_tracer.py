"""The benchmark tracer wraps engine functions by name.

It reports a name it cannot find as zero calls, so a rename in the
engine would silently blank a per-layer metric.  This test resolves
every name in the tracer's tables the same way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS + mod.COUNTS


@pytest.mark.parametrize("metric, modname, path", _tracer_tables())
def test_traced_name_resolves(metric, modname, path):
    mod = importlib.import_module(modname)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    assert callable(owner.__dict__.get(attr)), f"{metric}: {modname}.{path}"

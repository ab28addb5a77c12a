"""The benchmark's tracer wraps package functions by name; keep those names alive.

``perfbench/tracing.py`` lists, per traced group, the functions it wraps on
their defining module.  A rename there fails a traced benchmark run after
tens of seconds; this test fails in well under one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _groups() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


GROUPS = _groups()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_traced_functions_exist(group):
    module_name, names = GROUPS[group]
    module = importlib.import_module(f"netred.{module_name}")
    for name in names:
        assert callable(getattr(module, name, None)), f"netred.{module_name}.{name}"

"""The benchmark's tracer wraps package functions by name; keep those names alive.

``perfbench/tracing.py`` lists, per traced group, the functions it wraps on
their defining module, and ``perfbench/run.py`` fails a traced run in which a
group it always expects records no call.  A rename, or a call path that
stops reaching a group, fails a traced benchmark run after tens of seconds;
these tests fail in about one.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from netred.cli import main
from netred.netfile import dump_json, generate_example

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as a module, leaving the environment (run.py pins the BLAS
    threads), ``sys.path`` and ``sys.modules`` as they were."""
    with (
        mock.patch.dict(os.environ),
        mock.patch.dict(sys.modules),
        mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]),
    ):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


RUN = _load("run")
GROUPS = RUN.tracing.GROUPS


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_traced_functions_exist(group):
    module_name, names = GROUPS[group]
    module = importlib.import_module(f"netred.{module_name}")
    for name in names:
        assert callable(getattr(module, name, None)), f"netred.{module_name}.{name}"


def test_always_expected_groups_record_calls_on_k3(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(dump_json(generate_example("k3-aep")), encoding="utf-8")
    argv = ["analyze", str(path), "--oracle-check", "--out", str(tmp_path / "report.json")]
    with RUN.tracing.Tracer() as tracer:
        assert main(argv) == 0
    assert [group for group in RUN._ALWAYS if tracer.stats[group].calls == 0] == []


def test_one_reduction_per_run(tmp_path):
    # the error system takes the Analysis's reduction instead of reducing again
    path = tmp_path / "general.json"
    path.write_text(dump_json(generate_example("random-general", seed=1)), encoding="utf-8")
    argv = ["analyze", str(path), "--triangle", "--oracle-check", "--out", str(tmp_path / "r.json")]
    with RUN.tracing.Tracer() as tracer:
        assert main(argv) == 0
    assert tracer.stats["graphcore.reduce"].calls == 1

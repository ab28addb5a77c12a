"""Smoke test of the benchmark at tiny sizes (a few seconds per run).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, refs=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", *args]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    return done.returncode, done.stdout.splitlines(), done.stderr


def check_printed(lines, workload, units):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"].keys() == units.keys()
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                   for line in lines)
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    code, lines, stderr = bench("--workload", workload, "--trace", str(trace))
    assert code == 0, stderr
    units = per_layer_units() if trace else END_TO_END
    result = check_printed(lines, workload, units)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("numpy", "scipy", "netred", "blas", "blas_threads", "nproc", "commit", "seed",
                "src_lines"):
        assert key in env


def test_corrupted_reference_is_a_failure(tmp_path):
    shutil.copytree(HERE / "refs", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "smoke-ladder-small.json.gz"
    with gzip.open(path, "rt") as handle:
        refs = json.load(handle)
    entry = refs["instances"]["path5-5/0"]["answers"]["bounds"]
    entry["triangle_h2_bound"] *= 1.001
    with gzip.open(path, "wt") as handle:
        json.dump(refs, handle)
    code, lines, stderr = bench("--workload", "ladder-small", "--trace", "0", refs=tmp_path)
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "triangle_h2_bound" in stderr


def test_missing_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

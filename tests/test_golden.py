"""Golden reports: ``netred analyze --triangle --oracle-check`` on the example ladder.

Each file under ``tests/golden/`` holds one full report minus ``timings``.
The report echoes its input, so the test rebuilds the input from the file
itself and does not depend on the example generators.  Besides the example
ladder, which has single integrators only, two files put other agents on a
random-aep graph: symmetric n=3 agents and dissipative (nonsymmetric) n=2
agents.  Keys, key order,
strings, booleans and nulls must match exactly, and numbers to a relative
1e-9; the absolute 1e-12 absorbs quantities whose exact value is zero
(residuals, zero eigenvalues).

Record a file again only when its report is meant to change, by naming it
(the file name without ``.json``); with no names the recorder writes only the
files that do not exist yet, so a new example leaves the old files as they are:

    PYTHONPATH=src python tests/test_golden.py k3-aep random-aep-3

The files are indented, unlike the compact reports ``netred analyze`` writes,
so that a re-recording shows as a readable diff.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from netred.cli import main
from netred.generators import random_dissipative_dynamics, random_symmetric_dynamics
from netred.netfile import dump_json, generate_example

GOLDEN = Path(__file__).resolve().parent / "golden"
FLAGS = ("--triangle", "--oracle-check")
# name -> (agent builder, n, r) for the agents put on the random-aep graph of a seed
AGENTS = {
    "symmetric-n3-aep": (random_symmetric_dynamics, 3, 2),
    "dissipative-n2-aep": (random_dissipative_dynamics, 2, 1),
}
EXAMPLES = (
    [("paper-section7", 0), ("k3-aep", 0)]
    + [(name, seed) for name in ("random-aep", "random-general") for seed in range(5)]
    + [("symmetric-n3-aep", 1), ("dissipative-n2-aep", 2)]
)
RTOL = 1e-9
ATOL = 1e-12


def golden_path(name: str, seed: int) -> Path:
    seeded = name.startswith("random-") or name in AGENTS
    return GOLDEN / (f"{name}-{seed}.json" if seeded else f"{name}.json")


def example_payload(name: str, seed: int) -> dict:
    if name not in AGENTS:
        return generate_example(name, seed=seed)
    build, n, r = AGENTS[name]
    dyn = build(np.random.default_rng(seed), n, r)
    payload = generate_example("random-aep", seed=seed)
    payload["agent"] = {"A": dyn.A.tolist(), "B": dyn.B.tolist(), "E": dyn.E.tolist()}
    payload["meta"] = {"name": name, "seed": seed}
    return payload


def analyze(payload: dict, tmp_dir: Path) -> dict:
    path, out = tmp_dir / "net.json", tmp_dir / "report.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    assert main(["analyze", str(path), "--out", str(out), *FLAGS]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("timings")
    return report


def differences(want, got, path="$") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} "
                    f"!= {list(want)}"]
        return [d for key in want for d in differences(want[key], got[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name,seed", EXAMPLES, ids=[f"{n}-{s}" for n, s in EXAMPLES])
def test_report_matches_golden(name, seed, tmp_path):
    want = json.loads(golden_path(name, seed).read_text(encoding="utf-8"))
    got = analyze(want["input"], tmp_path)
    assert differences(want, got) == []


def record(tmp_dir: Path, stems) -> None:
    """Write the golden file of each example whose file name without ``.json`` is in
    ``stems``; with no stems, of each example whose file is missing."""
    examples = {golden_path(name, seed).stem: (name, seed) for name, seed in EXAMPLES}
    unknown = sorted(set(stems) - set(examples))
    if unknown:
        raise SystemExit(f"unknown golden file(s) {unknown}; known: {sorted(examples)}")
    chosen = stems or [stem for stem, key in examples.items() if not golden_path(*key).exists()]
    GOLDEN.mkdir(exist_ok=True)
    for stem in chosen:
        report = analyze(example_payload(*examples[stem]), tmp_dir)
        path = golden_path(*examples[stem])
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp), sys.argv[1:])

"""The benchmark's tracer wraps package functions by name; keep those names alive.

``perfbench/tracing.py`` lists, per traced group, the functions it wraps on
their defining module, and ``perfbench/run.py`` fails a traced run in which a
group it always expects records no call.  A rename, or a call path that
stops reaching a group, fails a traced benchmark run after tens of seconds;
these tests fail in about one.  The same names are the only public package
functions that the package itself need not call.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from netred.bounds import Analysis
from netred.cli import main
from netred.generators import (
    random_connected_graph,
    random_partition,
    random_symmetric_dynamics,
)
from netred.netfile import dump_json, generate_example, network_from_payload

from .support import one_based_edges

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


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


def _symmetric_aep_payload() -> dict:
    """A lifted AEP with symmetric n = 3 agents, the shape of ``aep-symmetric-large``."""
    payload = generate_example("random-aep", seed=4)
    dyn = random_symmetric_dynamics(np.random.default_rng(45), 3, 2)
    payload["agent"] = {"A": dyn.A.tolist(), "B": dyn.B.tolist(), "E": dyn.E.tolist()}
    return payload


@pytest.mark.parametrize(
    "shape, flags",
    [("symmetric-n3-aep", ()), ("single-integrator-non-aep", ("--triangle",))],
    ids=["symmetric-n3-aep", "single-integrator-non-aep"],
)
def test_always_expected_groups_record_calls_at_large_shapes(tmp_path, shape, flags):
    # the runs of aep-symmetric-large and triangle-si-large, at small sizes: every group
    # the benchmark always expects records a call, and with symmetric agents (single
    # integrators included) no Kronecker product is formed on the analyze path
    if shape == "symmetric-n3-aep":
        payload = _symmetric_aep_payload()
    else:
        payload = _non_aep_single_integrator_payload(40)
    path = tmp_path / "net.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    kron_calls = []

    def spy_kron(*args, **kwargs):
        kron_calls.append(np.shape(args[0]))
        return kron(*args, **kwargs)

    kron = np.kron
    argv = ["analyze", str(path), *flags, "--out", str(tmp_path / "report.json")]
    with RUN.tracing.Tracer() as tracer, mock.patch.object(np, "kron", spy_kron):
        assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["analysis"]["aep"] is (shape == "symmetric-n3-aep")
    assert [group for group in RUN._ALWAYS if tracer.stats[group].calls == 0] == []
    assert kron_calls == []


def test_error_state_counter_reads_the_error_system(tmp_path):
    # the tracer's netsys.error_states observes assemble_error_system's result on the
    # analyze path
    payload = generate_example("k3-aep")
    path = tmp_path / "k3.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    with RUN.tracing.Tracer() as tracer:
        assert main(["analyze", str(path), "--out", str(tmp_path / "report.json")]) == 0
    ns, pi, _ = network_from_payload(payload)
    assert tracer.error_states == Analysis(ns, pi).error_system.n_states == 5


def test_one_reduction_per_run(tmp_path):
    # the error system takes the Analysis's reduction instead of reducing again
    path = tmp_path / "general.json"
    path.write_text(dump_json(generate_example("random-general", seed=1)), encoding="utf-8")
    argv = ["analyze", str(path), "--triangle", "--oracle-check", "--out", str(tmp_path / "r.json")]
    with RUN.tracing.Tracer() as tracer:
        assert main(argv) == 0
    assert tracer.stats["graphcore.reduce"].calls == 1


def _non_aep_single_integrator_payload(n_nodes: int) -> dict:
    rng = np.random.default_rng(n_nodes)
    graph = random_connected_graph(rng, n_nodes, extra_edge_prob=4.0 / n_nodes)
    pi = random_partition(rng, n_nodes, n_nodes // 8)
    return {
        "n_nodes": n_nodes,
        "edges": one_based_edges(graph),
        "leaders": [1, n_nodes // 2],
        "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
        "partition": [[int(v) + 1 for v in cell] for cell in pi.cells],
    }


def test_spectrum_work_does_not_grow_with_the_network(tmp_path):
    # one stacked Hurwitz test and one auxiliary-Gramian call per spectrum, at any N: the
    # network's synchronization and the surrogate's lost spectrum (the surrogate takes
    # connectivity and synchronization from the run), and the surrogate's lost and
    # nonzero Gramians
    counts = []
    for n_nodes in (20, 160):
        path, out = tmp_path / f"net{n_nodes}.json", tmp_path / f"report{n_nodes}.json"
        path.write_text(dump_json(_non_aep_single_integrator_payload(n_nodes)), encoding="utf-8")
        with RUN.tracing.Tracer() as tracer:
            assert main(["analyze", str(path), "--triangle", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["analysis"]["aep"] is False
        counts.append((tracer.stats["linalg.hurwitz"].calls, tracer.stats["norms.aux_gramian"].calls))
    assert counts[0] == counts[1]
    hurwitz_calls, gramian_calls = counts[0]
    assert 1 <= hurwitz_calls <= 3 and 1 <= gramian_calls <= 2


def test_triangle_run_factors_one_network(tmp_path):
    # a non-AEP triangle run builds no network on l_aep: one N-row eigh (of L) and one
    # N-row eigvalsh (of the complement (I - proj) L (I - proj), whose spectrum the
    # surrogate shares)
    n_nodes = 160
    path, out = tmp_path / "net.json", tmp_path / "report.json"
    path.write_text(dump_json(_non_aep_single_integrator_payload(n_nodes)), encoding="utf-8")
    calls = []

    def spy(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    with (
        mock.patch.object(np.linalg, "eigh", spy("eigh", np.linalg.eigh)),
        mock.patch.object(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh)),
    ):
        assert main(["analyze", str(path), "--triangle", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["analysis"]["aep"] is False
    network_sized = [name for name, shape in calls if n_nodes in shape[-2:]]
    assert sorted(network_sized) == ["eigh", "eigvalsh"]


def test_symmetric_eigendecompositions_stay_network_sized(tmp_path):
    # the only sym_eig calls on the analyze path are the Laplacian's and the reduced
    # Laplacian's; the DC-gain norm reuses the realization's form instead of factoring
    # an N n-state drift, and the H2 norms cut the rank of their Gramians in Schur
    # coordinates instead of factoring an N n-state Gramian, so no eigh sees more than
    # N rows
    payload = _symmetric_aep_payload()
    path = tmp_path / "sym.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    rows, eigh_rows = [], []

    class ShapeTracer(RUN.tracing.Tracer):
        def _observe_sym_eig(self, args, result):
            rows.append(np.shape(args[0])[0])

    def spy_eigh(a, *args, **kwargs):
        eigh_rows.append(np.shape(a)[-2])
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    argv = ["analyze", str(path), "--oracle-check", "--out", str(tmp_path / "r.json")]
    with ShapeTracer() as tracer, mock.patch.object(np.linalg, "eigh", spy_eigh):
        assert main(argv) == 0
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["analysis"]["aep"]
    assert tracer.stats["linalg.sym_eig"].calls == len(rows) == 2
    assert max(rows) <= payload["n_nodes"]
    assert eigh_rows and max(eigh_rows) <= payload["n_nodes"]


def test_cli_import_loads_no_optimizer_or_sparse_scipy():
    # setup_s times a fresh interpreter that imports netred.cli; netred uses scipy.linalg
    # only, and scipy.optimize would pull in scipy.sparse and some 230 more modules
    script = (
        "import sys\nimport netred.cli\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, timeout=120, capture_output=True, text=True,
    )
    assert done.stdout.strip() == "[]"


def _references(nodes) -> set:
    """The names that code refers to: every ``Name``, the attribute of every ``Attribute``
    and every imported name.  A docstring is a constant and refers to nothing."""
    refs = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_package_holds_no_test_only_code():
    # a public top-level function or class of netred is used by the package's code
    # elsewhere, by its own module outside its definition, or traced by the benchmark;
    # what only the tests use belongs in tests/support.py.  generators keeps its
    # randomized fixtures by design
    trees = {path.stem: ast.parse(path.read_text()).body for path in (SRC / "netred").glob("*.py")}
    traced = {(module, name) for module, names in GROUPS.values() for name in names}
    unused = []
    for module, body in trees.items():
        if module == "generators":
            continue
        others = _references(b for name, tree in trees.items() if name != module for b in tree)
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            own = _references(b for b in body if b is not node)
            if node.name not in others | own and (module, node.name) not in traced:
                unused.append(f"{module}.{node.name}")
    assert unused == []

"""Network description files and analysis reports (JSON, 1-based node indices).

Node indices in files are 1-based to match the usual drawing convention;
everything internal is 0-based.  Conversion happens here and only here.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from .errors import NetredError, UnknownExample
from .generators import EXAMPLES
from .graphcore import (
    Laplacian,
    Partition,
    WeightedGraph,
    laplacian_from_graph,
)
from .netsys import AgentDynamics, NetworkSystem

SCHEMA_VERSION = 1
# Off-diagonal Laplacian entries at or below this in magnitude are not edges.
EDGE_TOL = 1e-12

_TOP_LEVEL_FIELDS = {
    "schema_version",
    "n_nodes",
    "edges",
    "leaders",
    "agent",
    "partition",
    "options",
    "meta",
}
_OPTION_FIELDS = {"norms", "oracle_check", "tolerances"}
_TOLERANCE_FIELDS = {"aep_rtol", "zero_eig_tol"}


class FileFormatError(NetredError):
    """Schema violation in a network file; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise FileFormatError(field, message)


def _finite(value) -> bool:
    """True for a JSON number (not a bool) of finite magnitude: not NaN, not +-Infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _as_float_matrix(value, field: str) -> list:
    _require(isinstance(value, list) and value, field, "must be a nonempty nested list")
    width = None
    out = []
    for r_idx, row in enumerate(value):
        _require(isinstance(row, list) and row, f"{field}[{r_idx}]", "must be a nonempty list")
        if width is None:
            width = len(row)
        _require(len(row) == width, f"{field}[{r_idx}]", f"expected {width} entries")
        for c_idx, entry in enumerate(row):
            _require(_finite(entry), f"{field}[{r_idx}][{c_idx}]", "must be a finite number")
        out.append([float(entry) for entry in row])
    return out


def validate_network_payload(payload: dict) -> dict:
    """Check the raw JSON payload and return it normalized (still 1-based).

    Every failure names the offending field (and index) in the exception.
    """
    _require(isinstance(payload, dict), "$", "top level must be an object")
    unknown = sorted(set(payload) - _TOP_LEVEL_FIELDS)
    _require(not unknown, unknown[0] if unknown else "$", "unknown field")
    for name in ("n_nodes", "edges", "leaders", "agent", "partition"):
        _require(name in payload, name, "missing required field")
    version = payload.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}")

    n_nodes = payload["n_nodes"]
    _require(
        isinstance(n_nodes, int) and not isinstance(n_nodes, bool) and n_nodes >= 1,
        "n_nodes",
        "must be a positive integer",
    )

    edges = payload["edges"]
    _require(isinstance(edges, list), "edges", "must be a list")
    for e_idx, edge in enumerate(edges):
        field = f"edges[{e_idx}]"
        _require(isinstance(edge, list) and len(edge) == 3, field, "must be [i, j, weight]")
        i, j, w = edge
        for name, value in (("i", i), ("j", j)):
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{field}.{name}",
                "must be an integer node index",
            )
            _require(1 <= value <= n_nodes, f"{field}.{name}", f"must be in 1..{n_nodes}")
        _require(i != j, field, f"self-loop on node {i}")
        _require(_finite(w), f"{field}.weight", "must be a finite number")
        _require(w >= 0, f"{field}.weight", f"negative weight {w}")

    leaders = payload["leaders"]
    _require(isinstance(leaders, list), "leaders", "must be a list")
    seen = set()
    for l_idx, v in enumerate(leaders):
        field = f"leaders[{l_idx}]"
        _require(isinstance(v, int) and not isinstance(v, bool), field, "must be an integer")
        _require(1 <= v <= n_nodes, field, f"node {v} out of range 1..{n_nodes}")
        _require(v not in seen, field, f"leader {v} listed twice")
        seen.add(v)

    agent = payload["agent"]
    _require(isinstance(agent, dict), "agent", "must be an object with A, B, E")
    for name in ("A", "B", "E"):
        _require(name in agent, f"agent.{name}", "missing required field")
    unknown = sorted(set(agent) - {"A", "B", "E"})
    _require(not unknown, f"agent.{unknown[0] if unknown else ''}", "unknown field")
    a = _as_float_matrix(agent["A"], "agent.A")
    b = _as_float_matrix(agent["B"], "agent.B")
    e = _as_float_matrix(agent["E"], "agent.E")
    n = len(a)
    _require(all(len(row) == n for row in a), "agent.A", "must be square")
    _require(len(b) == n and all(len(row) == n for row in b), "agent.B", f"must be {n}x{n}")
    _require(len(e) == n, "agent.E", f"must have {n} rows")

    partition = payload["partition"]
    _require(isinstance(partition, list) and partition, "partition", "must be a nonempty list")
    owner = {}
    for c_idx, cell in enumerate(partition):
        field = f"partition[{c_idx}]"
        _require(isinstance(cell, list) and cell, field, "cell must be a nonempty list")
        for v in cell:
            _require(isinstance(v, int) and not isinstance(v, bool), field, "nodes are integers")
            _require(1 <= v <= n_nodes, field, f"node {v} out of range 1..{n_nodes}")
            _require(
                v not in owner, field, f"node {v} already in partition[{owner.get(v)}]"
            )
            owner[v] = c_idx
    missing = sorted(set(range(1, n_nodes + 1)) - owner.keys())
    _require(not missing, "partition", f"node {missing[0] if missing else 0} not covered")

    options = payload.get("options", {})
    _require(isinstance(options, dict), "options", "must be an object")
    unknown = sorted(set(options) - _OPTION_FIELDS)
    _require(not unknown, f"options.{unknown[0] if unknown else ''}", "unknown field")
    norms = options.get("norms", ["h2", "hinf"])
    _require(isinstance(norms, list) and norms, "options.norms", "must be a nonempty list")
    for n_idx, name in enumerate(norms):
        _require(name in ("h2", "hinf"), f"options.norms[{n_idx}]", "must be 'h2' or 'hinf'")
    oracle = options.get("oracle_check", False)
    _require(isinstance(oracle, bool), "options.oracle_check", "must be a boolean")
    tolerances = options.get("tolerances", {})
    _require(isinstance(tolerances, dict), "options.tolerances", "must be an object")
    unknown = sorted(set(tolerances) - _TOLERANCE_FIELDS)
    _require(
        not unknown, f"options.tolerances.{unknown[0] if unknown else ''}", "unknown field"
    )
    for name, value in tolerances.items():
        _require(
            _finite(value) and value > 0,
            f"options.tolerances.{name}",
            "must be a finite positive number",
        )
    return payload


def network_from_payload(payload: dict):
    """Build (NetworkSystem, Partition, options) from a validated payload."""
    payload = validate_network_payload(payload)
    n_nodes = payload["n_nodes"]
    edges = tuple((i - 1, j - 1, float(w)) for i, j, w in payload["edges"])
    graph = WeightedGraph(n_nodes=n_nodes, edges=edges)
    pi = Partition(
        n_nodes=n_nodes,
        cells=tuple(tuple(v - 1 for v in cell) for cell in payload["partition"]),
    )
    dyn = AgentDynamics(A=payload["agent"]["A"], B=payload["agent"]["B"], E=payload["agent"]["E"])
    leaders = tuple(v - 1 for v in payload["leaders"])
    ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=leaders, dyn=dyn)
    options = payload.get("options", {})
    return ns, pi, {
        "norms": tuple(options.get("norms", ("h2", "hinf"))),
        "oracle_check": bool(options.get("oracle_check", False)),
        "tolerances": dict(options.get("tolerances", {})),
    }


def report_to_dict(report) -> dict:
    """BoundReport -> JSON-ready dict; each NormResult becomes {value, method, certificate}."""
    return dataclasses.asdict(report)


def edges_from_laplacian(lap: Laplacian) -> list:
    """Recover the (1-based) edge list of the graph underlying a Laplacian."""
    mat = lap.mat
    n = lap.n_nodes
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = -mat[i, j]
            if abs(w) > EDGE_TOL:
                edges.append([i + 1, j + 1, float(w)])
    return edges


def _instance_payload(ns: NetworkSystem, pi: Partition, meta: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n_nodes": ns.n_agents,
        "edges": edges_from_laplacian(ns.laplacian),
        "leaders": [v + 1 for v in ns.leaders],
        "agent": {
            "A": ns.dyn.A.tolist(),
            "B": ns.dyn.B.tolist(),
            "E": ns.dyn.E.tolist(),
        },
        "partition": [[v + 1 for v in cell] for cell in pi.cells],
        "options": {"norms": ["h2", "hinf"], "oracle_check": False},
        "meta": meta,
    }


def generate_example(name: str, seed: int = 0) -> dict:
    """Ready-to-run input payload for a name in ``generators.EXAMPLES``.

    The random examples are drawn from ``seed``, which ``meta`` records.
    """
    if name not in EXAMPLES:
        raise UnknownExample(f"unknown example {name!r}; known: {', '.join(EXAMPLES)}")
    ns, pi = EXAMPLES[name](np.random.default_rng(seed))
    meta = {"name": name, "seed": seed} if name.startswith("random-") else {"name": name}
    return _instance_payload(ns, pi, meta)


def dump_json(payload: dict) -> str:
    """Canonical serialization: two-space indent, keys in construction order."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"

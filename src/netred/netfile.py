"""Network description files and analysis reports (JSON, 1-based node indices).

Node indices in files are 1-based to match the usual drawing convention;
everything internal is 0-based.  Conversion happens here and only here.

:func:`network_from_payload` reads a network file in one pass: each field is checked and
converted once, as it is read and in file order, and the graph, agent, leaders, partition
and options are built from the converted values.  The edge list is checked as a whole:
one pass over the list for the types, then the array checks of
:class:`~netred.graphcore.WeightedGraph` and the weight bound.  Only when that check
fails, or cannot decide, is the list scanned edge by edge (:func:`_edge_error`), so the
first failing edge is still the one named.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from itertools import chain

import numpy as np

from .errors import NegativeWeight, NetredError, UnknownExample
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
# Largest |value| of an agent entry or edge weight.  It stops the overflows of entries near
# 1e308 (nan/inf reports, a failed synchronization test), not every overflow in the norms.
MAX_MAGNITUDE = 1e100
_BOUNDED = f"must be a finite number of magnitude at most {MAX_MAGNITUDE:g}"

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


def _finite(value, bound=sys.float_info.max) -> bool:
    """True for a JSON number (not a bool) of magnitude at most ``bound`` (so not NaN)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= bound


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
            _require(_finite(entry, MAX_MAGNITUDE), f"{field}[{r_idx}][{c_idx}]", _BOUNDED)
        out.append([float(entry) for entry in row])
    return out


def _edge_error(edge, n_nodes: int, first: dict, e_idx: int):
    """``(field suffix, message)`` of the first check edge ``e_idx`` fails, else None, with
    ``first`` mapping each node pair seen to its first edge.  A passing edge formats nothing."""
    if not (isinstance(edge, list) and len(edge) == 3):
        return "", "must be [i, j, weight]"
    i, j, w = edge
    for name, value in (("i", i), ("j", j)):
        if not isinstance(value, int) or isinstance(value, bool):
            return f".{name}", "must be an integer node index"
        if not 1 <= value <= n_nodes:
            return f".{name}", f"must be in 1..{n_nodes}"
    if i == j:
        return "", f"self-loop on node {i}"
    pair = (min(i, j), max(i, j))
    at = first.setdefault(pair, e_idx)
    if at != e_idx:
        return "", f"duplicates the pair {pair} of edges[{at}]"
    if not _finite(w, MAX_MAGNITUDE):
        return ".weight", _BOUNDED
    if w < 0:
        return ".weight", f"negative weight {w}"
    return None


def _edge_graph(edges: list, n_nodes: int):
    """The 0-based :class:`WeightedGraph` of ``edges`` when no edge fails :func:`_edge_error`,
    checked over the whole list at once; else None, as also where that check cannot decide:
    numbers of a subclass of int or float, 2**53 nodes or more (indices are no longer exact
    floats), or an integer weight that rounds to ``MAX_MAGNITUDE``."""
    if n_nodes >= 2**53 or not all(
        type(e) is list and len(e) == 3 and type(e[0]) is int and type(e[1]) is int
        and (type(e[2]) is float or type(e[2]) is int)
        for e in edges
    ):
        return None
    try:
        arr = np.fromiter(chain.from_iterable(edges), float, 3 * len(edges)).reshape(-1, 3)
        if not (arr[:, 2] < MAX_MAGNITUDE).all():  # the graph refuses negative weights
            return None
        arr[:, :2] -= 1
        return WeightedGraph(n_nodes=n_nodes, edges=arr)
    except (OverflowError, ValueError, NegativeWeight):  # a huge integer; a failing edge
        return None


def network_from_payload(payload: dict):
    """Read the raw JSON payload, without changing it, into (NetworkSystem, Partition,
    options); nodes are 0-based from here on.

    Each field is checked and converted once, as it is read, in file order, and the objects
    are built from the converted values, so of two faulty fields the earlier is named.
    Every failure names the offending field (and index).  The edge list is checked as a
    whole; only when that check fails or cannot decide is it scanned edge by edge, so that
    the first failing edge is the one named.
    """
    _require(isinstance(payload, dict), "$", "top level must be an object")
    unknown = sorted(set(payload) - _TOP_LEVEL_FIELDS)
    _require(not unknown, unknown[0] if unknown else "$", "unknown field")
    for name in ("n_nodes", "edges", "leaders", "agent", "partition"):
        _require(name in payload, name, "missing required field")
    version = payload.get("schema_version", SCHEMA_VERSION)
    is_int = isinstance(version, int) and not isinstance(version, bool)  # True == 1.0 == 1
    _require(is_int and version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}")

    n_nodes = payload["n_nodes"]
    _require(
        isinstance(n_nodes, int) and not isinstance(n_nodes, bool) and n_nodes >= 1,
        "n_nodes",
        "must be a positive integer",
    )

    edges = payload["edges"]
    _require(isinstance(edges, list), "edges", "must be a list")
    graph = _edge_graph(edges, n_nodes)
    if graph is None:
        first = {}
        for e_idx, edge in enumerate(edges):
            error = _edge_error(edge, n_nodes, first, e_idx)
            if error is not None:
                raise FileFormatError(f"edges[{e_idx}]{error[0]}", error[1])

    leaders = payload["leaders"]
    _require(isinstance(leaders, list), "leaders", "must be a list")
    seen = set()
    for l_idx, v in enumerate(leaders):
        if not isinstance(v, int) or isinstance(v, bool):
            raise FileFormatError(f"leaders[{l_idx}]", "must be an integer")
        if not 1 <= v <= n_nodes:
            raise FileFormatError(f"leaders[{l_idx}]", f"node {v} out of range 1..{n_nodes}")
        if v in seen:
            raise FileFormatError(f"leaders[{l_idx}]", f"leader {v} listed twice")
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
            if not isinstance(v, int) or isinstance(v, bool):
                raise FileFormatError(field, "nodes are integers")
            if not 1 <= v <= n_nodes:
                raise FileFormatError(field, f"node {v} out of range 1..{n_nodes}")
            if v in owner:
                raise FileFormatError(field, f"node {v} already in partition[{owner[v]}]")
            owner[v] = c_idx
    # the first uncovered node is at most len(owner) + 1, so the scan stops there
    missing = next((v for v in range(1, n_nodes + 1) if v not in owner), None)
    if missing is not None:
        raise FileFormatError("partition", f"node {missing} not covered")

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

    # an edge list only the scan passed is built now, once the partition, which lists every
    # node, has bounded n_nodes: its indices are then exact as floats
    if graph is None:
        graph = WeightedGraph(n_nodes, np.array(edges, float).reshape(-1, 3) - (1, 1, 0))
    pi = Partition(n_nodes, tuple(tuple(v - 1 for v in cell) for cell in partition))
    dyn = AgentDynamics(A=a, B=b, E=e)
    ns = NetworkSystem(laplacian_from_graph(graph), tuple(v - 1 for v in leaders), dyn)
    return ns, pi, {"norms": tuple(norms), "oracle_check": oracle, "tolerances": dict(tolerances)}


def report_to_dict(report) -> dict:
    """BoundReport -> JSON-ready dict; each NormResult becomes {value, method, certificate}."""
    return dataclasses.asdict(report)


def edges_from_laplacian(lap: Laplacian) -> list:
    """Recover the (1-based) edge list of the graph underlying a Laplacian, row by row."""
    upper = -np.triu(lap.mat, 1)
    i, j = np.nonzero(np.abs(upper) > EDGE_TOL)
    return list(map(list, zip((i + 1).tolist(), (j + 1).tolist(), upper[i, j].tolist())))


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
    """Canonical serialization: compact (no indent, no spaces after separators, which keeps
    CPython on its C encoder), one trailing newline, keys in construction order."""
    return json.dumps(payload, allow_nan=False, separators=(",", ":")) + "\n"

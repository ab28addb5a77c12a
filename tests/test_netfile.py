"""The input layer: the whole-list edge check, the adjacency scatter and the edge list
read back from a Laplacian, each against its per-edge reference."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netred import netfile
from netred.generators import EXAMPLES, lift_aep_graph, random_connected_graph
from netred.netfile import (
    FileFormatError,
    generate_example,
    network_from_payload,
    validate_network_payload,
)

from .support import edges_by_entry_loop, laplacian_by_edge_loop


def _payload(n_nodes, edges, cells=None) -> dict:
    return {
        "n_nodes": n_nodes,
        "edges": edges,
        "leaders": [1],
        "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
        "partition": cells or [list(range(1, n_nodes + 1))],
    }


def _scan(edges, n_nodes):
    """(field, message) of the first edge ``netfile._edge_error`` fails, else None."""
    first = {}
    for e_idx, edge in enumerate(edges):
        error = netfile._edge_error(edge, n_nodes, first, e_idx)
        if error is not None:
            field = f"edges[{e_idx}]{error[0]}"
            return field, f"{field}: {error[1]}"
    return None


# each takes a valid edge [i, j, w] and the node count, and returns a defective entry
DEFECTS = {
    "bool index": lambda e, n: [True, e[1], e[2]],
    "float index": lambda e, n: [e[0], float(e[1]), e[2]],
    "index 0": lambda e, n: [0, e[1], e[2]],
    "index above n": lambda e, n: [e[0], n + 1, e[2]],
    "huge index": lambda e, n: [2**63, e[1], e[2]],
    "huger index": lambda e, n: [e[0], -(10**400), e[2]],
    "self-loop": lambda e, n: [e[0], e[0], e[2]],
    "nan weight": lambda e, n: [e[0], e[1], math.nan],
    "inf weight": lambda e, n: [e[0], e[1], math.inf],
    "-inf weight": lambda e, n: [e[0], e[1], -math.inf],
    "1e101 weight": lambda e, n: [e[0], e[1], 1e101],
    "10**400 weight": lambda e, n: [e[0], e[1], 10**400],
    "int weight past 1e100": lambda e, n: [e[0], e[1], int(1e100) + 1],
    "negative weight": lambda e, n: [e[0], e[1], -0.5],
    "bool weight": lambda e, n: [e[0], e[1], True],
    "wrong length": lambda e, n: [e[0], e[1]],
    "tuple": lambda e, n: tuple(e),
    "non-list": lambda e, n: "edge",
}
WEIGHTS = st.one_of(
    st.floats(0.0, 10.0), st.integers(0, 10), st.sampled_from([0.0, -0.0, 1e100, 1e-300])
)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_bulk_check_refuses_what_the_scan_refuses(data):
    # valid edges in either orientation, then up to three defects: of DEFECTS or a
    # reversed repeat of an earlier edge
    n = data.draw(st.integers(2, 6), label="n_nodes")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [
        [*(p if data.draw(st.booleans()) else p[::-1]), data.draw(WEIGHTS)] for p in chosen
    ]
    for kind in data.draw(st.lists(st.sampled_from([*DEFECTS, "repeat"]), max_size=3)):
        at = data.draw(st.integers(0, len(edges)))
        if kind == "repeat":
            if not edges[:at] or not isinstance(edges[at - 1], list) or len(edges[at - 1]) != 3:
                continue
            i, j, w = edges[at - 1]
            edges.insert(at, [j, i, w])
        else:
            base = [*data.draw(st.sampled_from(pairs)), data.draw(WEIGHTS)]
            edges.insert(at, DEFECTS[kind](base, n))
    payload = _payload(n, edges)
    before = copy.deepcopy(payload)
    expected = _scan(edges, n)
    if expected is None:
        graph = validate_network_payload(payload)
        assert graph.edges == tuple((i - 1, j - 1, float(w)) for i, j, w in edges)
    else:
        assert netfile._edge_graph(edges, n) is None
        with pytest.raises(FileFormatError) as err:
            validate_network_payload(payload)
        assert (err.value.field, str(err.value)) == expected
    assert repr(payload) == repr(before)


def test_valid_input_skips_the_scan(monkeypatch):
    rng = np.random.default_rng(0)
    graph, pi = lift_aep_graph(rng, [16, 16, 16, 16])
    edges = [[i + 1, j + 1, w] for i, j, w in graph.edges]
    payload = _payload(64, edges, [[v + 1 for v in cell] for cell in pi.cells])

    def scan(*args):
        raise AssertionError("a valid edge list was scanned edge by edge")

    monkeypatch.setattr(netfile, "_edge_error", scan)
    ns, _, _ = network_from_payload(payload)
    assert ns.n_agents == 64 and len(edges) > 400


def test_subclassed_numbers_are_scanned_and_read():
    # numpy scalars are int and float subclasses, which only the scan accepts
    payload = generate_example("k3-aep")
    edges = [[i, j, np.float64(w)] for i, j, w in payload["edges"]]
    assert netfile._edge_graph(edges, 3) is None
    ns, _, _ = network_from_payload({**payload, "edges": edges})
    assert np.array_equal(ns.laplacian.mat, laplacian_by_edge_loop(3, payload["edges"]))


@pytest.mark.parametrize("n_nodes", [5, 40, 120, 300])
@pytest.mark.parametrize("kind", ["lifted-aep", "random", "random-int-weights"])
def test_laplacian_is_bit_identical_to_the_edge_loop(n_nodes, kind):
    rng = np.random.default_rng(n_nodes)
    if kind == "lifted-aep":
        sizes = [int(s) for s in rng.multinomial(n_nodes - 4, [0.25] * 4) + 1]
        graph, _ = lift_aep_graph(rng, sizes)
    else:
        graph = random_connected_graph(rng, n_nodes, extra_edge_prob=min(1.0, 8.0 / n_nodes))
    edges = [[i + 1, j + 1, w] for i, j, w in graph.edges]
    if kind == "random-int-weights":
        edges = [[i, j, int(rng.integers(1, 100))] for i, j, _ in edges]
    # any order and orientation
    edges = [edges[k] for k in rng.permutation(len(edges))]
    edges = [[j, i, w] if k % 2 else [i, j, w] for k, (i, j, w) in enumerate(edges)]
    payload = _payload(n_nodes, edges)
    before = json.dumps(payload)
    ns, _, _ = network_from_payload(payload)
    assert np.array_equal(ns.laplacian.mat, laplacian_by_edge_loop(n_nodes, edges))
    assert json.dumps(payload) == before


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(EXAMPLES))
def test_example_edges_are_read_in_row_major_order(name, seed):
    ns, _ = EXAMPLES[name](np.random.default_rng(seed))
    edges = generate_example(name, seed)["edges"]
    assert json.dumps(edges) == json.dumps(edges_by_entry_loop(ns.laplacian.mat))

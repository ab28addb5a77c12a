"""Construction of example and randomized (network, partition) instances.

The AEP instances are built by lifting: draw a connected quotient graph,
blow each quotient node up into a cell, connect every cross-cell node pair
of adjacent cells with a uniform weight, and add arbitrary intra-cell
edges.  Cross-cell degrees are then constant across each cell by
construction, so the partition is almost equitable for the lifted graph.
"""

from __future__ import annotations

import numpy as np

from .graphcore import Partition, WeightedGraph, laplacian_from_graph
from .netsys import AgentDynamics, NetworkSystem


def path_graph(n_nodes: int) -> WeightedGraph:
    """Unit-weight path 0-1-...-(n-1)."""
    edges = tuple((i, i + 1, 1.0) for i in range(n_nodes - 1))
    return WeightedGraph(n_nodes=n_nodes, edges=edges)


def complete_graph(n_nodes: int) -> WeightedGraph:
    edges = tuple((i, j, 1.0) for i in range(n_nodes) for j in range(i + 1, n_nodes))
    return WeightedGraph(n_nodes=n_nodes, edges=edges)


def single_integrator() -> AgentDynamics:
    return AgentDynamics(A=[[0.0]], B=[[1.0]], E=[[1.0]])


def random_connected_graph(rng, n_nodes: int, extra_edge_prob: float = 0.25) -> WeightedGraph:
    """Random spanning tree plus extra edges, weights in [0.5, 2]."""
    edges = {}
    order = rng.permutation(n_nodes)
    for idx in range(1, n_nodes):
        i = int(order[idx])
        j = int(order[rng.integers(0, idx)])
        edges[(min(i, j), max(i, j))] = float(rng.uniform(0.5, 2.0))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges[(i, j)] = float(rng.uniform(0.5, 2.0))
    return WeightedGraph(
        n_nodes=n_nodes, edges=tuple((i, j, w) for (i, j), w in sorted(edges.items()))
    )


def random_symmetric_dynamics(rng, n: int, r: int = 1) -> AgentDynamics:
    """Symmetric negative definite A, symmetric PSD B: Hurwitz coupled at any lam >= 0."""
    g = rng.normal(size=(n, n))
    a = -(g @ g.T) - 0.3 * np.eye(n)
    h = rng.normal(size=(n, n))
    b = h @ h.T + 0.1 * np.eye(n)
    e = rng.normal(size=(n, r))
    return AgentDynamics(A=a, B=b, E=e)


def random_singular_symmetric_dynamics(rng, n: int, r: int = 1) -> AgentDynamics:
    """Symmetric A with a zero eigenvalue and B positive definite.

    The coupled drift A - lam B stays Hurwitz for every lam > 0, while the
    decoupled (lam = 0) block carries a marginal mode that the network
    output cannot see; exercises the kernel-conditioned code paths.
    """
    g = rng.normal(size=(n, max(n - 1, 1)))
    a = -(g @ g.T)
    h = rng.normal(size=(n, n))
    b = h @ h.T + 0.5 * np.eye(n)
    e = rng.normal(size=(n, r))
    return AgentDynamics(A=a, B=b, E=e)


def random_dissipative_dynamics(rng, n: int, r: int = 1) -> AgentDynamics:
    """Nonsymmetric A with A + A^T < 0 and B + B^T >= 0; synchronized by construction."""
    g = rng.normal(size=(n, n))
    skew_a = rng.normal(size=(n, n))
    a = 0.5 * (skew_a - skew_a.T) - (g @ g.T) - 0.3 * np.eye(n)
    h = rng.normal(size=(n, n))
    skew_b = rng.normal(size=(n, n))
    b = 0.3 * (skew_b - skew_b.T) + h @ h.T + 0.1 * np.eye(n)
    e = rng.normal(size=(n, r))
    return AgentDynamics(A=a, B=b, E=e)


def lift_aep_graph(rng, cell_sizes):
    """Lift a random connected quotient into a graph with a guaranteed AEP.

    Returns ``(graph, partition)``; the partition's cells follow the given
    sizes in order, and each intra-cell node pair is an edge with probability 1/2.
    """
    k = len(cell_sizes)
    starts = np.concatenate([[0], np.cumsum(cell_sizes)])
    n_nodes = int(starts[-1])
    cells = [tuple(range(int(starts[p]), int(starts[p + 1]))) for p in range(k)]
    edges = {}
    if k > 1:
        quotient = random_connected_graph(rng, k, extra_edge_prob=0.3)
        for (p, q), w in zip(quotient.pairs.tolist(), quotient.weights.tolist()):
            # uniform cross weight keeps every cross-cell degree constant
            for i in cells[p]:
                for j in cells[q]:
                    edges[(min(i, j), max(i, j))] = w
    for cell in cells:
        for a_idx, i in enumerate(cell):
            for j in cell[a_idx + 1 :]:
                if rng.random() < 0.5:
                    edges[(i, j)] = float(rng.uniform(0.5, 2.0))
    graph = WeightedGraph(
        n_nodes=n_nodes, edges=tuple((i, j, w) for (i, j), w in sorted(edges.items()))
    )
    return graph, Partition(n_nodes=n_nodes, cells=tuple(cells))


def _pick_leaders(rng, pi: Partition, n_leaders: int, mode: str):
    """Leader placement: 'any', 'shared' (two in one multi-node cell), or 'alone'."""
    n_nodes = pi.n_nodes
    if mode == "alone":
        singles = [cell[0] for cell in pi.cells if len(cell) == 1]
        count = min(n_leaders, len(singles))
        chosen = rng.choice(len(singles), size=count, replace=False) if count else []
        return tuple(sorted(singles[int(i)] for i in np.atleast_1d(chosen)))
    if mode == "shared":
        big = [cell for cell in pi.cells if len(cell) >= 2]
        cell = big[int(rng.integers(0, len(big)))]
        pair = rng.choice(len(cell), size=2, replace=False)
        leaders = {cell[int(pair[0])], cell[int(pair[1])]}
        pool = [v for v in range(n_nodes) if v not in leaders]
        while len(leaders) < n_leaders and pool:
            v = pool.pop(int(rng.integers(0, len(pool))))
            leaders.add(v)
        return tuple(sorted(leaders))
    return _random_leaders(rng, n_nodes, min(n_leaders, n_nodes))


def _random_leaders(rng, n_nodes: int, n_leaders: int) -> tuple:
    chosen = rng.choice(n_nodes, size=n_leaders, replace=False)
    return tuple(sorted(int(v) for v in np.atleast_1d(chosen)))


def random_aep_instance(
    rng,
    dynamics: AgentDynamics | None = None,
    max_cells: int = 6,
    max_cell_size: int = 4,
    n_leaders: int | None = None,
    leader_mode: str = "any",
):
    """Random synchronized network with an almost equitable partition.

    ``leader_mode`` controls placement: 'any', 'shared' forces two leaders
    into one multi-node cell, 'alone' restricts leaders to singleton cells
    (padding the partition with singletons if needed).
    """
    k = int(rng.integers(2, max_cells + 1))
    sizes = [int(rng.integers(1, max_cell_size + 1)) for _ in range(k)]
    if max(sizes) == 1:
        sizes[int(rng.integers(0, k))] = int(rng.integers(2, max_cell_size + 1))
    if leader_mode == "alone" and not any(s == 1 for s in sizes):
        sizes.append(1)
    graph, pi = lift_aep_graph(rng, sizes)
    if n_leaders is None:
        n_leaders = int(rng.integers(1, min(4, graph.n_nodes) + 1))
    leaders = _pick_leaders(rng, pi, n_leaders, leader_mode)
    dyn = dynamics if dynamics is not None else single_integrator()
    ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=leaders, dyn=dyn)
    return ns, pi


def random_partition(rng, n_nodes: int, n_cells: int) -> Partition:
    """Uniformly random assignment of nodes to n_cells nonempty cells."""
    while True:
        labels = rng.integers(0, n_cells, size=n_nodes)
        if len(set(labels.tolist())) == n_cells:
            break
    cells = tuple(
        tuple(int(v) for v in np.flatnonzero(labels == c)) for c in range(n_cells)
    )
    return Partition(n_nodes=n_nodes, cells=cells)


def random_general_instance(
    rng,
    dynamics: AgentDynamics | None = None,
    max_nodes: int = 12,
    n_leaders: int | None = None,
):
    """Random connected network with an arbitrary (typically non-AEP) partition."""
    n_nodes = int(rng.integers(4, max_nodes + 1))
    graph = random_connected_graph(rng, n_nodes)
    n_cells = int(rng.integers(2, n_nodes))
    pi = random_partition(rng, n_nodes, n_cells)
    if n_leaders is None:
        n_leaders = int(rng.integers(1, min(4, n_nodes) + 1))
    leaders = _random_leaders(rng, n_nodes, n_leaders)
    dyn = dynamics if dynamics is not None else single_integrator()
    ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=leaders, dyn=dyn)
    return ns, pi


def five_node_path_instance():
    """The worked 5-node unit path with clusters {0,1,2} and {3,4}, leader 0."""
    graph = path_graph(5)
    pi = Partition(n_nodes=5, cells=((0, 1, 2), (3, 4)))
    ns = NetworkSystem(
        laplacian=laplacian_from_graph(graph), leaders=(0,), dyn=single_integrator()
    )
    return ns, pi


def k3_aep_instance():
    """Complete graph on three nodes with the AEP {{0}, {1, 2}}, leader 0."""
    graph = complete_graph(3)
    pi = Partition(n_nodes=3, cells=((0,), (1, 2)))
    ns = NetworkSystem(
        laplacian=laplacian_from_graph(graph), leaders=(0,), dyn=single_integrator()
    )
    return ns, pi


def _random_aep_example(rng):
    """Single integrators on a lifted AEP graph: 2-5 cells of 1-4 nodes, 1-4 leaders."""
    sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 6)))]
    if max(sizes) == 1:
        sizes[0] = int(rng.integers(2, 5))
    graph, pi = lift_aep_graph(rng, sizes)
    n_leaders = int(rng.integers(1, min(4, graph.n_nodes) + 1))
    leaders = _random_leaders(rng, graph.n_nodes, n_leaders)
    return NetworkSystem(laplacian_from_graph(graph), leaders, single_integrator()), pi


def _random_general_example(rng):
    """Single integrators on a random connected graph of 5-12 nodes, any partition."""
    n_nodes = int(rng.integers(5, 13))
    graph = random_connected_graph(rng, n_nodes)
    pi = random_partition(rng, n_nodes, int(rng.integers(2, n_nodes)))
    leaders = _random_leaders(rng, n_nodes, int(rng.integers(1, 4)))
    return NetworkSystem(laplacian_from_graph(graph), leaders, single_integrator()), pi


# Example name -> builder rng -> (network, partition).  Only the random- ones draw
# from the rng.
EXAMPLES = {
    "paper-section7": lambda rng: five_node_path_instance(),
    "k3-aep": lambda rng: k3_aep_instance(),
    "random-aep": _random_aep_example,
    "random-general": _random_general_example,
}

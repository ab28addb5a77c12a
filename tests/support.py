"""Shared oracles and reference data for the test suite.

The oracles here deliberately avoid the production code paths they check:
the Lyapunov oracle solves the linear system by Kronecker vectorization,
and the equitability oracles test degree constancy cell by cell.
"""

from __future__ import annotations

import numpy as np

from netred.generators import (
    random_dissipative_dynamics,
    random_singular_symmetric_dynamics,
    random_symmetric_dynamics,
    single_integrator,
)

# Reference matrices for the worked 5-node unit path with clusters
# {0,1,2} and {3,4}.  Entries of the projected matrix are exact ninths
# (halves written as x.5/9).
PATH5_LAPLACIAN = np.array(
    [
        [1.0, -1.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, -1.0, 0.0],
        [0.0, 0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, 0.0, -1.0, 1.0],
    ]
)
PATH5_CELLS = ((0, 1, 2), (3, 4))
PATH5_AEP_PROJECTION = (
    np.array(
        [
            [11.0, -7.0, -1.0, 0.0, -3.0],
            [-7.0, 20.0, -10.0, 0.0, -3.0],
            [-1.0, -10.0, 14.0, -4.5, 1.5],
            [0.0, 0.0, -4.5, 13.5, -9.0],
            [-3.0, -3.0, 1.5, -9.0, 13.5],
        ]
    )
    / 9.0
)


def lyap_kron_oracle(a, q):
    """Brute-force Lyapunov solve: (I (x) A^T + A^T (x) I) vec(X) = -vec(Q)."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a.T) + np.kron(a.T, np.eye(n))
    x = np.linalg.solve(lhs, -q.reshape(-1, order="F"))
    return x.reshape((n, n), order="F")


class NodeInCell(ValueError):
    """A node was required to lie outside a cell but belongs to it."""


def degree_wrt_cell(graph, node: int, cell) -> float:
    """Total weight from ``node`` into the cell, for a node outside the cell."""
    members = {int(v) for v in cell}
    node = int(node)
    if node in members:
        raise NodeInCell(f"node {node} belongs to the cell")
    total = 0.0
    for i, j, w in graph.edges:
        if i == node and j in members:
            total += w
        elif j == node and i in members:
            total += w
    return total


def aep_by_degree_constancy(graph, pi, tol=1e-9) -> bool:
    """Definitional equitability test: cross-cell degrees constant per cell."""
    a = graph.adjacency_matrix()
    scale = 1.0 + a.max(initial=0.0)
    for p, cell_p in enumerate(pi.cells):
        rows = list(cell_p)
        for q, cell_q in enumerate(pi.cells):
            if p == q:
                continue
            degrees = [a[rows, j].sum() for j in cell_q]
            if max(degrees) - min(degrees) > tol * scale:
                return False
    return True


def random_hurwitz(rng, n: int, margin: float = 0.5) -> np.ndarray:
    """Random dense matrix shifted to have spectral abscissa <= -margin."""
    a = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(a).real.max() + margin
    return a - shift * np.eye(n)


def make_dynamics(rng, kind: str, n: int | None = None, r: int | None = None):
    """One of the four agent families used across the randomized corpora."""
    if kind == "single":
        return single_integrator()
    n = int(rng.integers(1, 4)) if n is None else n
    r = int(rng.integers(1, 3)) if r is None else r
    if kind == "symmetric":
        return random_symmetric_dynamics(rng, n, r)
    if kind == "singular":
        return random_singular_symmetric_dynamics(rng, n, r)
    if kind == "dissipative":
        return random_dissipative_dynamics(rng, n, r)
    raise ValueError(kind)

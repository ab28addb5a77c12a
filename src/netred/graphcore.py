"""Weighted undirected graphs, Laplacians, partitions, and quotient reductions.

A partition of the node set induces a characteristic matrix P and the
orthogonal projector onto its column span.  Compressing the Laplacian
through P yields the quotient (reduced) Laplacian; when the partition is
almost equitable the quotient spectrum embeds in the original one.  For an
arbitrary partition, :func:`project_to_aep_laplacian` returns the closest
PSD zero-row-sum matrix (in Frobenius norm) for which the partition is
almost equitable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidPartition, NegativeWeight
from .linalg import SymmetricEig, sym_eig

ZERO_EIG_TOL = 1e-9
ROW_SUM_TOL = 1e-10
AEP_RTOL = 1e-9
# Off-diagonal entries above this count as genuinely positive, i.e. a
# negative edge weight in the underlying graph.
NEG_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n_nodes-1.

    Edges are (i, j, weight) triples with nonnegative weights.
    """

    n_nodes: int
    edges: tuple

    def __post_init__(self):
        normalized = []
        seen = set()
        for idx, edge in enumerate(self.edges):
            i, j, w = edge
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge {idx} = ({i}, {j}) out of range for {self.n_nodes} nodes")
            if i == j:
                raise ValueError(f"edge {idx} is a self-loop on node {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"edge {idx} duplicates the pair {key}")
            seen.add(key)
            if w < 0:
                raise NegativeWeight(f"edge {idx} = ({i}, {j}) has negative weight {w}")
            normalized.append((i, j, w))
        object.__setattr__(self, "edges", tuple(normalized))

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        for i, j, w in self.edges:
            a[i, j] = a[j, i] = w
        return a


@dataclass(frozen=True)
class Laplacian:
    """Symmetric PSD matrix with zero row sums, plus a cached spectrum."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Laplacian must be square, got shape {m.shape}")
        scale = 1.0 + np.abs(m).max(initial=0.0)
        asym = np.abs(m - m.T).max(initial=0.0)
        if asym > ROW_SUM_TOL * scale:
            raise ValueError(f"Laplacian asymmetry {asym:.3e} exceeds tolerance")
        row_sums = np.abs(m.sum(axis=1)).max(initial=0.0)
        if row_sums > ROW_SUM_TOL * scale:
            raise ValueError(f"Laplacian row sums reach {row_sums:.3e}, expected zero")
        object.__setattr__(self, "mat", 0.5 * (m + m.T))
        if self.n_nodes and self.spectral.eigenvalues[0] < -ZERO_EIG_TOL:
            raise ValueError("Laplacian is not positive semi-definite")

    @property
    def n_nodes(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def spectral(self) -> SymmetricEig:
        return sym_eig(self.mat)

    @property
    def has_negative_weights(self) -> bool:
        """True iff an off-diagonal entry is positive, i.e. some edge weight is negative."""
        return bool((self.mat - np.diag(np.diag(self.mat)) > NEG_WEIGHT_TOL).any())


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of {0, ..., n_nodes-1} by nonempty cells.

    Cell order is preserved (it fixes the quotient node labels); nodes
    within a cell are sorted.
    """

    n_nodes: int
    cells: tuple

    def __post_init__(self):
        owner = {}
        normalized = []
        for c_idx, cell in enumerate(self.cells):
            nodes = tuple(sorted(int(v) for v in cell))
            if not nodes:
                raise InvalidPartition(f"cell {c_idx} is empty", cell_index=c_idx)
            for v in nodes:
                if not 0 <= v < self.n_nodes:
                    raise InvalidPartition(
                        f"node {v} in cell {c_idx} is out of range", node=v, cell_index=c_idx
                    )
                if v in owner:
                    raise InvalidPartition(
                        f"node {v} appears in cells {owner[v]} and {c_idx}",
                        node=v,
                        cell_index=c_idx,
                    )
                owner[v] = c_idx
            normalized.append(nodes)
        missing = sorted(set(range(self.n_nodes)) - owner.keys())
        if missing:
            raise InvalidPartition(f"node {missing[0]} is not covered by any cell", node=missing[0])
        object.__setattr__(self, "cells", tuple(normalized))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.cells], dtype=float)

    @cached_property
    def char_matrix(self) -> np.ndarray:
        p = np.zeros((self.n_nodes, self.n_cells))
        for c_idx, cell in enumerate(self.cells):
            p[list(cell), c_idx] = 1.0
        return p

    @cached_property
    def projector(self) -> np.ndarray:
        """Orthogonal projector P (P^T P)^{-1} P^T onto the column span of P."""
        p = self.char_matrix
        return (p / self.sizes[None, :]) @ p.T

    @cached_property
    def _cell_of(self) -> dict:
        return {v: c_idx for c_idx, cell in enumerate(self.cells) for v in cell}

    def cell_of(self, node: int) -> int:
        return self._cell_of[int(node)]


@dataclass(frozen=True)
class ReducedGraph:
    """Quotient of a network under a partition.

    ``laplacian_hat`` is the (generally nonsymmetric) quotient Laplacian
    (P^T P)^{-1} P^T L P, ``adjacency_hat`` holds the directed quotient
    weights, and ``m_hat`` is the compressed leader selector.
    """

    laplacian_hat: np.ndarray
    adjacency_hat: np.ndarray
    m_hat: np.ndarray


def leader_selector(n_nodes: int, leaders) -> np.ndarray:
    """N x m selector with column j equal to the standard basis vector of leader j."""
    leaders = [int(v) for v in leaders]
    if len(set(leaders)) != len(leaders):
        raise ValueError(f"leader list {leaders} contains duplicates")
    m = np.zeros((n_nodes, len(leaders)))
    for j, v in enumerate(leaders):
        if not 0 <= v < n_nodes:
            raise ValueError(f"leader {v} out of range for {n_nodes} nodes")
        m[v, j] = 1.0
    return m


def laplacian_from_graph(graph: WeightedGraph) -> Laplacian:
    """Laplacian with L_ii = sum_j a_ij and L_ij = -a_ij."""
    a = graph.adjacency_matrix()
    return Laplacian(np.diag(a.sum(axis=1)) - a)


def is_connected(lap: Laplacian, tol: float = ZERO_EIG_TOL) -> bool:
    """True iff the second-smallest Laplacian eigenvalue exceeds ``tol``."""
    if lap.n_nodes <= 1:
        return True
    return bool(lap.spectral.eigenvalues[1] > tol)


def is_almost_equitable(lap: Laplacian, pi: Partition, rtol: float = AEP_RTOL) -> bool:
    """Subspace test for almost equitability: (I - proj) L P vanishes.

    Equivalent to each node's total weight into any other cell depending
    only on its own cell.
    """
    lp = lap.mat @ pi.char_matrix
    residual = np.abs(lp - pi.projector @ lp).max(initial=0.0)
    return bool(residual <= rtol * (1.0 + np.abs(lap.mat).max(initial=0.0)))


def reduce_graph(lap: Laplacian, pi: Partition, leaders) -> ReducedGraph:
    """Compress Laplacian and leader selector through the partition.

    L_hat = (P^T P)^{-1} P^T L P and M_hat = (P^T P)^{-1} P^T M.  The
    quotient adjacency a_hat[p, q] = -L_hat[p, q] (p != q) describes a
    weighted directed graph; row sums of L_hat are always zero.
    """
    p = pi.char_matrix
    sizes = pi.sizes
    l_hat = (p.T @ lap.mat @ p) / sizes[:, None]
    m = leader_selector(lap.n_nodes, leaders)
    m_hat = (p.T @ m) / sizes[:, None]
    a_hat = -l_hat.copy()
    np.fill_diagonal(a_hat, 0.0)
    return ReducedGraph(laplacian_hat=l_hat, adjacency_hat=a_hat, m_hat=m_hat)


def project_to_aep_laplacian(lap: Laplacian, pi: Partition):
    """Closest PSD zero-row-sum matrix making the partition almost equitable.

    Solves, in closed form, the Frobenius-norm projection of L onto the set
    of symmetric PSD matrices X with X 1 = 0 and (I - proj) X P = 0:
    the minimizer is proj L proj + (I - proj) L (I - proj).  The result may
    carry positive off-diagonal entries (negative edge weights); its
    ``has_negative_weights`` flags them, they are not rejected.  Returns
    ``(l_aep, delta_frobenius)`` with ``delta_frobenius = ||L - l_aep||_F``.
    """
    proj = pi.projector
    comp = np.eye(lap.n_nodes) - proj
    mat = proj @ lap.mat @ proj + comp @ lap.mat @ comp
    mat = 0.5 * (mat + mat.T)
    delta = float(np.linalg.norm(lap.mat - mat, "fro"))
    return Laplacian(mat), delta

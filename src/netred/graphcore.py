"""Weighted undirected graphs, Laplacians, partitions, and quotient reductions.

A partition of the node set induces a characteristic matrix P and the
orthogonal projector onto its column span.  Compressing the Laplacian
through P yields the quotient (reduced) Laplacian; when the partition is
almost equitable the quotient spectrum embeds in the original one.  The
reduction also keeps the AEP residual R = (I - proj) L P, an N x k matrix made
from L P: it decides almost equitability and gives, for an arbitrary
partition, the closest PSD zero-row-sum matrix (in Frobenius norm) for which
the partition is almost equitable (:func:`project_to_aep_laplacian`), with no
N x N x N product.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n_nodes-1.

    ``edges`` is given as (i, j, weight) triples or as their (E, 3) float array, with
    integer indices in range, no self-loop, no repeated pair and finite nonnegative weights,
    and kept only as ``pairs``, an (E, 2) index array, and ``weights``, an (E,) float array.
    The checks run on whole arrays; only when they fail are the edges scanned one at a time,
    to name the first that fails.
    """

    n_nodes: int
    edges: InitVar[object]
    pairs: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, edges):
        # Python triples go through an object array, where a bool index is still a bool
        raw = edges if isinstance(edges, np.ndarray) else np.array(edges, object)
        raw = raw.reshape(len(raw), 3)
        try:
            arr = raw.astype(float)
        except OverflowError:  # an integer beyond the float range: the scan names its edge
            self._refuse(raw.tolist())
        pairs = self._pairs(arr)
        if pairs is None or (
            raw.dtype == object and np.frompyfunc(isinstance, 2, 1)(raw[:, :2], bool).any()
        ):
            self._refuse(raw.tolist())
            pairs = arr[:, :2].astype(np.intp)  # the scan passed: keys collided as floats
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", arr[:, 2])

    def _pairs(self, arr):
        """The (E, 2) index array of the (E, 3) float ``arr`` when every row is an edge,
        checked on whole arrays; else None."""
        i, j, w = arr.T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # NaN and inf fail these comparisons, so none reaches the cast or the keys
        if not ((0 <= lo) & (lo < hi) & (hi < self.n_nodes) & (0 <= w) & (w < np.inf)).all():
            return None
        pairs = arr[:, :2].astype(np.intp)
        keys = (lo * (self.n_nodes + 1) + hi).tolist()  # exact while (N + 1)**2 < 2**53
        return pairs if (pairs == arr[:, :2]).all() and len(set(keys)) == len(keys) else None

    def _refuse(self, rows: list):
        """Raise the error of the first edge of ``rows`` that fails a check, scanning them one
        at a time: where :meth:`_pairs` refuses the array, this names the edge."""
        n, seen = self.n_nodes, set()
        for k, (i, j, w) in enumerate(rows):
            if not all(
                type(v) is int or (type(v) is not bool and float(v).is_integer()) for v in (i, j)
            ):
                raise ValueError(f"edge {k} = ({i!r}, {j!r}) has a non-integer node index")
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {k} = ({i}, {j}) out of range for {n} nodes")
            if i == j:
                raise ValueError(f"edge {k} is a self-loop on node {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"edge {k} duplicates the pair {key}")
            seen.add(key)
            if w < 0:
                raise NegativeWeight(f"edge {k} = ({i}, {j}) has negative weight {w}")
            if not w < np.inf:
                raise ValueError(f"edge {k} = ({i}, {j}) has non-finite weight {w}")

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        i, j = self.pairs.T
        a[i, j] = a[j, i] = self.weights
        return a


@dataclass(frozen=True)
class Laplacian:
    """Symmetric PSD matrix with zero row sums, plus its spectrum."""

    mat: np.ndarray
    spectral: SymmetricEig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Laplacian must be square, got shape {m.shape}")
        scale = 1.0 + np.abs(m).max(initial=0.0)
        if not scale < np.inf:  # NaN and inf entries, which the checks below would pass
            raise ValueError("Laplacian has non-finite entries")
        asym = np.abs(m - m.T).max(initial=0.0)
        if asym > ROW_SUM_TOL * scale:
            raise ValueError(f"Laplacian asymmetry {asym:.3e} exceeds tolerance")
        row_sums = np.abs(m.sum(axis=1)).max(initial=0.0)
        if row_sums > ROW_SUM_TOL * scale:
            raise ValueError(f"Laplacian row sums reach {row_sums:.3e}, expected zero")
        object.__setattr__(self, "mat", 0.5 * (m + m.T))
        eig = sym_eig(self.mat)
        if self.n_nodes and eig.eigenvalues[0] < -ZERO_EIG_TOL * scale:
            raise ValueError("Laplacian is not positive semi-definite")
        eig.eigenvalues[:1] = 0.0  # L 1 = 0: exact once the PSD check has read it
        object.__setattr__(self, "spectral", eig)

    @property
    def n_nodes(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of {0, ..., n_nodes-1} by nonempty cells.

    Cell order is preserved (it fixes the quotient node labels); nodes
    within a cell are sorted.  ``labels`` holds the cell index of each node, so
    that P X = X[labels] and X P^T = X[:, labels] for the characteristic matrix P.
    """

    n_nodes: int
    cells: tuple
    labels: np.ndarray = field(init=False, repr=False, compare=False)

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
        # the first uncovered node is at most len(owner), so the scan stops there
        missing = next((v for v in range(self.n_nodes) if v not in owner), None)
        if missing is not None:
            raise InvalidPartition(f"node {missing} is not covered by any cell", node=missing)
        object.__setattr__(self, "cells", tuple(normalized))
        object.__setattr__(self, "labels", np.array([owner[v] for v in range(self.n_nodes)], int))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.cells], dtype=float)

    @cached_property
    def char_matrix(self) -> np.ndarray:
        return np.eye(self.n_cells)[self.labels]

    @cached_property
    def projector(self) -> np.ndarray:
        """Orthogonal projector P (P^T P)^{-1} P^T onto the column span of P."""
        p = self.char_matrix
        return (p / self.sizes[None, :]) @ p.T

    def cell_of(self, node: int) -> int:
        return int(self.labels[node])


@dataclass(frozen=True)
class ReducedGraph:
    """Quotient of a network under a partition.

    ``laplacian_hat`` is the (generally nonsymmetric) quotient Laplacian
    (P^T P)^{-1} P^T L P, ``adjacency_hat`` holds the directed quotient
    weights, and ``m_hat`` is the compressed leader selector.
    ``laplacian_bar`` is the size-symmetrized quotient
    (P^T P)^{-1/2} P^T L P (P^T P)^{-1/2}: similar to ``laplacian_hat``, hence
    with the same (real) spectrum, but symmetric PSD; ``spectral`` caches its
    eigendecomposition, whose smallest eigenvalue is 0.0: l_bar (P^T P)^{1/2} 1 = 0.
    ``residual`` is the AEP residual R = L P - P L_hat = (I - proj) L P, N x k, what the
    quotient misses: the partition is almost equitable exactly when R = 0.
    """

    laplacian_hat: np.ndarray
    adjacency_hat: np.ndarray
    m_hat: np.ndarray
    laplacian_bar: np.ndarray
    residual: np.ndarray

    @cached_property
    def spectral(self) -> SymmetricEig:
        eig = sym_eig(self.laplacian_bar)
        eig.eigenvalues[:1] = 0.0
        return eig


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


def has_negative_weights(mat) -> bool:
    """True iff an off-diagonal entry of the Laplacian-like ``mat`` is positive, i.e. some
    edge weight is negative."""
    return bool((mat - np.diag(np.diag(mat)) > NEG_WEIGHT_TOL).any())


def is_almost_equitable(lap: Laplacian, pi: Partition, rtol: float = AEP_RTOL, rg=None) -> bool:
    """True iff max |R| <= rtol (1 + max |L|) for the AEP residual R of the reduction ``rg``
    (:func:`reduce_graph`, computed when not given): each node's total weight into any
    other cell then depends, within the tolerance, only on its own cell."""
    residual = (rg or reduce_graph(lap, pi, ())).residual
    scale = 1.0 + np.abs(lap.mat).max(initial=0.0)
    return bool(np.abs(residual).max(initial=0.0) <= rtol * scale)


def reduce_graph(lap: Laplacian, pi: Partition, leaders) -> ReducedGraph:
    """Compress Laplacian and leader selector through the partition.

    L_hat = (P^T P)^{-1} P^T L P and M_hat = (P^T P)^{-1} P^T M.  The
    quotient adjacency a_hat[p, q] = -L_hat[p, q] (p != q) describes a
    weighted directed graph; row sums of L_hat are always zero.  P^T P is
    diagonal, so the square roots of the symmetrized quotient are exact.
    """
    p = pi.char_matrix
    sizes, root = pi.sizes, np.sqrt(pi.sizes)
    lp = lap.mat @ p
    compressed = p.T @ lp
    l_hat = compressed / sizes[:, None]
    m = leader_selector(lap.n_nodes, leaders)
    m_hat = (p.T @ m) / sizes[:, None]
    a_hat = -l_hat.copy()
    np.fill_diagonal(a_hat, 0.0)
    return ReducedGraph(
        laplacian_hat=l_hat,
        adjacency_hat=a_hat,
        m_hat=m_hat,
        laplacian_bar=compressed / root[:, None] / root[None, :],
        residual=lp - l_hat[pi.labels],
    )


def aep_deviation(pi: Partition, residual) -> np.ndarray:
    """dL = L - l_aep = H + H^T for the AEP residual R, H = R (P^T P)^{-1} P^T = (I - proj) L proj,
    of rank at most 2k and made by indexing.  Exact facts: dL is symmetric; dL 1 = 0, as
    H 1 = R 1 = (I - proj) L 1 = 0 and R^T 1 = 0; and H^T P = 0, so dL P = R."""
    h = (residual / pi.sizes[None, :])[:, pi.labels]
    return h + h.T


def project_to_aep_laplacian(lap: Laplacian, pi: Partition, d_l=None):
    """Closest PSD zero-row-sum matrix making the partition almost equitable.

    Solves, in closed form, the Frobenius-norm projection of L onto the set of symmetric
    PSD matrices X with X 1 = 0 and (I - proj) X P = 0: the minimizer is
    l_aep = proj L proj + (I - proj) L (I - proj) = L - dL, with dL the
    :func:`aep_deviation` (computed when not given).  l_aep is block diagonal on
    span(P) + span(P)^perp, so it is exactly symmetric with zero row sums, and PSD: its
    spectrum is that of l_bar and of (I - proj) L (I - proj).  It may carry positive
    off-diagonal entries (negative edge weights; see :func:`has_negative_weights`), which
    are not rejected.  Returns ``(l_aep, delta_frobenius)``, an ndarray and ||dL||_F.
    """
    d_l = aep_deviation(pi, reduce_graph(lap, pi, ()).residual) if d_l is None else d_l
    return lap.mat - d_l, float(np.linalg.norm(d_l, "fro"))

"""Assembly of the full, reduced and error realizations, and the synchronization test.

A network couples N identical agents (A, B, E) through a graph Laplacian L,
with external input entering at leader nodes selected by M:

    dx/dt = (I (x) A - L (x) B) x + (M (x) E) u,      y = (L (x) I) x

The reduced network is the Petrov-Galerkin projection of this realization
with V = P (x) I and W = P (P^T P)^{-1} (x) I for a partition's
characteristic matrix P, taken in the coordinates (P^T P)^{1/2} x where its
coupling is the symmetric quotient l_bar.  The error realization is the
parallel difference of the two: its transfer function is S - S_hat.

Each coupling, L and l_bar, is factored once, from its eigenbasis
(``kron_schur``: N factorizations of size n x n in place of one of size N n).
The error system's Schur form is the direct sum of the full and reduced
forms, and the triangle route's outer terms, which differ from those two
realizations only in their output, keep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .graphcore import ZERO_EIG_TOL, Laplacian, Partition, ReducedGraph, leader_selector
from .linalg import SYMMETRY_RTOL, StateSpace, is_hurwitz, sorted_schur


@dataclass(frozen=True)
class AgentDynamics:
    """Identical linear agent (A, B, E): A, B square n x n, E is n x r.  ``symmetric``,
    the one decision on agent symmetry, holds when |A - A^T| and |B - B^T| are at most
    SYMMETRY_RTOL (1 + max(|A|, |B|)); A and B are then kept as their symmetric parts."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        e = np.asarray(self.E, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"agent A must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"agent B must match A's shape {a.shape}, got {b.shape}")
        if e.ndim != 2 or e.shape[0] != a.shape[0]:
            raise ValueError(f"agent E must have {a.shape[0]} rows, got shape {e.shape}")
        ab, ab_t = np.stack([a, b]), np.stack([a.T, b.T])
        scale = 1.0 + np.abs(ab).max(initial=0.0)
        symmetric = bool(np.abs(ab - ab_t).max(initial=0.0) <= SYMMETRY_RTOL * scale)
        if symmetric:  # bit-identical for exactly symmetric input
            a, b = 0.5 * (ab + ab_t)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "symmetric", symmetric)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.E.shape[1]

    def is_single_integrator(self) -> bool:
        return np.array_equal(np.hstack([self.A, self.B, self.E]), [[0.0, 1.0, 1.0]])


@dataclass(frozen=True)
class NetworkSystem:
    """Leader-follower network: Laplacian, ordered leader nodes, agent dynamics."""

    laplacian: Laplacian
    leaders: tuple
    dyn: AgentDynamics

    def __post_init__(self):
        leaders = tuple(int(v) for v in self.leaders)
        # leader_selector validates distinctness and range
        leader_selector(self.laplacian.n_nodes, leaders)
        object.__setattr__(self, "leaders", leaders)

    @property
    def n_agents(self) -> int:
        return self.laplacian.n_nodes

    @property
    def n_leaders(self) -> int:
        return len(self.leaders)

    @cached_property
    def m_matrix(self) -> np.ndarray:
        return leader_selector(self.n_agents, self.leaders)


def kron_schur(dyn: AgentDynamics, lams: np.ndarray, u: np.ndarray) -> tuple:
    """``(T, Z, n_u)`` (see ``StateSpace.schur``) of the drift I (x) A - Lc (x) B for a
    symmetric coupling Lc = U diag(lams) U^T with U orthogonal.

    (U (x) I)^T (I (x) A - Lc (x) B) (U (x) I) is block diagonal with blocks
    A - lam_i B = Z_i T_i Z_i^H from one stacked ``sorted_schur`` (real diagonal for
    symmetric agents), so Z = (U (x) I) blockdiag(Z_i) and T = blockdiag(T_i).  Each
    block holds its closed-right-half-plane part first, and the columns are reordered
    so that every such part precedes every stable part: T stays upper triangular.
    """
    n, size = dyn.n, lams.size * dyn.n
    t_blocks, z_blocks, n_u = sorted_schur(dyn.A - lams[:, None, None] * dyn.B)
    unstable = np.arange(n) < n_u[:, None]
    order = np.argsort(~unstable.ravel(), kind="stable")
    z = (u[:, :, None, None] * z_blocks[None]).transpose(0, 2, 1, 3).reshape(size, size)
    at = np.argsort(order).reshape(lams.size, n)  # where each block's rows land in T
    t = np.zeros((size, size), dtype=t_blocks.dtype)
    t[at[:, :, None], at[:, None, :]] = t_blocks
    return t, z[:, order], int(unstable.sum())


def network_realization(dyn, coupling, eig, b, c) -> StateSpace:
    """(I (x) A - coupling (x) B, b, c) with the Schur form ``kron_schur`` from the
    coupling's eigendecomposition ``eig``."""
    drift = np.kron(np.eye(coupling.shape[0]), dyn.A) - np.kron(coupling, dyn.B)
    return StateSpace(drift, b, c, form=kron_schur(dyn, eig.eigenvalues, eig.eigenvectors))


def assemble_full(ns: NetworkSystem) -> StateSpace:
    """Full network realization (I (x) A - L (x) B, M (x) E, L (x) I)."""
    b = np.kron(ns.m_matrix, ns.dyn.E)
    c = np.kron(ns.laplacian.mat, np.eye(ns.dyn.n))
    return network_realization(ns.dyn, ns.laplacian.mat, ns.laplacian.spectral, b, c)


def assemble_reduced_bar(ns: NetworkSystem, pi: Partition, rg: ReducedGraph) -> StateSpace:
    """Reduced network realization in the symmetrized coordinates (P^T P)^{1/2} x,
    (I (x) A - l_bar (x) B, (P^T P)^{1/2} M_hat (x) E, L P (P^T P)^{-1/2} (x) I) for the
    partition's reduction ``rg``: similar to the Petrov-Galerkin projection, so with
    the same transfer function, and with a symmetric coupling."""
    root = np.sqrt(pi.sizes)
    b = np.kron(root[:, None] * rg.m_hat, ns.dyn.E)
    lp_scaled = (ns.laplacian.mat @ pi.char_matrix) / root[None, :]
    c = np.kron(lp_scaled, np.eye(ns.dyn.n))
    return network_realization(ns.dyn, rg.laplacian_bar, rg.spectral, b, c)


def assemble_error_system(full: StateSpace, reduced: StateSpace) -> StateSpace:
    """Parallel difference of the full and reduced realizations, whose transfer function
    is S - S_hat: block-diagonal drift, stacked input, output [C, -C_hat].  Its Schur
    form is the direct sum of theirs with the order ``kron_schur`` gives one: the full
    and then the reduced closed-right-half-plane parts, then their stable parts."""
    (t, z, n_u), (t_hat, z_hat, n_u_hat) = full.schur, reduced.schur
    n, n_hat = full.n_states, reduced.n_states
    order = np.r_[:n_u, n : n + n_u_hat, n_u:n, n + n_u_hat : n + n_hat]
    t_sum, z_sum = sla.block_diag(t, t_hat), sla.block_diag(z, z_hat)
    return StateSpace(
        sla.block_diag(full.A, reduced.A),
        np.vstack([full.B, reduced.B]),
        np.hstack([full.C, -reduced.C]),
        form=(t_sum[np.ix_(order, order)], z_sum[:, order], n_u + n_u_hat),
    )


def hurwitz_over(dyn: AgentDynamics, lams, zero_eig_tol: float) -> bool:
    """True iff A - lam B is Hurwitz for every lam in ``lams`` above zero_eig_tol: one
    ``is_hurwitz`` call on the stack of those blocks."""
    lams = np.asarray(lams, dtype=float)
    lams = lams[lams > zero_eig_tol]
    return is_hurwitz(dyn.A - lams[:, None, None] * dyn.B)


def is_synchronized(ns: NetworkSystem, zero_eig_tol: float = ZERO_EIG_TOL) -> bool:
    """True iff A - lam B is Hurwitz for every nonzero Laplacian eigenvalue."""
    return hurwitz_over(ns.dyn, ns.laplacian.spectral.eigenvalues, zero_eig_tol)

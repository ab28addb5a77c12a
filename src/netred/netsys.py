"""Assembly of full, reduced, auxiliary, and error realizations.

A network couples N identical agents (A, B, E) through a graph Laplacian L,
with external input entering at leader nodes selected by M:

    dx/dt = (I (x) A - L (x) B) x + (M (x) E) u,      y = (L (x) I) x

The reduced network is the Petrov-Galerkin projection of this realization
with V = P (x) I and W = P (P^T P)^{-1} (x) I for a partition's
characteristic matrix P.  The error realization stacks the full system with
a symmetrized similarity transform of the reduced one, so its transfer
function equals the difference of theirs for any partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import Disconnected
from .graphcore import (
    ZERO_EIG_TOL,
    Laplacian,
    Partition,
    is_connected,
    leader_selector,
    reduce_graph,
)
from .linalg import SYMMETRY_RTOL, StateSpace, is_hurwitz


@dataclass(frozen=True)
class AgentDynamics:
    """Identical linear agent (A, B, E): A, B square n x n, E is n x r."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray

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
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "E", e)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.E.shape[1]

    def is_single_integrator(self) -> bool:
        return (
            self.n == 1
            and self.r == 1
            and self.A[0, 0] == 0.0
            and self.B[0, 0] == 1.0
            and self.E[0, 0] == 1.0
        )

    def is_symmetric(self) -> bool:
        scale = 1.0 + max(np.abs(self.A).max(initial=0.0), np.abs(self.B).max(initial=0.0))
        return (
            np.abs(self.A - self.A.T).max(initial=0.0) <= SYMMETRY_RTOL * scale
            and np.abs(self.B - self.B.T).max(initial=0.0) <= SYMMETRY_RTOL * scale
        )


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


@dataclass(frozen=True)
class AuxSystem:
    """Scalar-coupled companion system (A - lam B, E, lam I) for one nonzero eigenvalue."""

    lam: float
    realization: StateSpace


def _drift(dyn: AgentDynamics, coupling: np.ndarray) -> np.ndarray:
    """Networked drift I (x) A - coupling (x) B for a square coupling matrix."""
    return np.kron(np.eye(coupling.shape[0]), dyn.A) - np.kron(coupling, dyn.B)


def assemble_full(ns: NetworkSystem) -> StateSpace:
    """Full network realization (I (x) A - L (x) B, M (x) E, L (x) I)."""
    b = np.kron(ns.m_matrix, ns.dyn.E)
    c = np.kron(ns.laplacian.mat, np.eye(ns.dyn.n))
    return StateSpace(_drift(ns.dyn, ns.laplacian.mat), b, c)


def assemble_reduced(ns: NetworkSystem, pi: Partition) -> StateSpace:
    """Reduced realization (I (x) A - L_hat (x) B, M_hat (x) E, LP (x) I).

    Coincides with the Petrov-Galerkin projection (W^T A V, W^T B, C V)
    for V = P (x) I and W = P (P^T P)^{-1} (x) I.
    """
    rg = reduce_graph(ns.laplacian, pi, ns.leaders)
    b = np.kron(rg.m_hat, ns.dyn.E)
    c = np.kron(ns.laplacian.mat @ pi.char_matrix, np.eye(ns.dyn.n))
    return StateSpace(_drift(ns.dyn, rg.laplacian_hat), b, c)


def symmetrized_reduced_coupling(lap: Laplacian, pi: Partition) -> np.ndarray:
    """Size-symmetrized quotient coupling (P^T P)^{-1/2} P^T L P (P^T P)^{-1/2}.

    Similar to the quotient Laplacian, hence shares its (real) spectrum,
    but symmetric PSD.  P^T P is diagonal, so the square roots are exact.
    """
    p = pi.char_matrix
    root = np.sqrt(pi.sizes)
    return (p.T @ lap.mat @ p) / root[:, None] / root[None, :]


def assemble_error_system(ns: NetworkSystem, pi: Partition) -> StateSpace:
    """Joint realization whose transfer function is S - S_hat for any partition.

    Block-diagonal drift over the full states and the symmetrized reduced
    states; the output subtracts the (similarity-transformed) reduced output
    from the full one.
    """
    rg = reduce_graph(ns.laplacian, pi, ns.leaders)
    l_bar = symmetrized_reduced_coupling(ns.laplacian, pi)
    eye = np.eye(ns.dyn.n)
    root = np.sqrt(pi.sizes)
    a = sla.block_diag(_drift(ns.dyn, ns.laplacian.mat), _drift(ns.dyn, l_bar))
    b = np.vstack([np.kron(ns.m_matrix, ns.dyn.E), np.kron(root[:, None] * rg.m_hat, ns.dyn.E)])
    lp_scaled = (ns.laplacian.mat @ pi.char_matrix) / root[None, :]
    c = np.hstack([np.kron(ns.laplacian.mat, eye), -np.kron(lp_scaled, eye)])
    return StateSpace(a, b, c)


def aux_systems(ns: NetworkSystem) -> list:
    """One AuxSystem per nonzero Laplacian eigenvalue, ascending, with multiplicity.

    Raises Disconnected when zero is not a simple eigenvalue.
    """
    if not is_connected(ns.laplacian):
        raise Disconnected("auxiliary systems require a connected graph")
    n = ns.dyn.n
    out = []
    for lam in ns.laplacian.spectral.eigenvalues:
        if lam > ZERO_EIG_TOL:
            real = StateSpace(ns.dyn.A - lam * ns.dyn.B, ns.dyn.E, lam * np.eye(n))
            out.append(AuxSystem(lam=float(lam), realization=real))
    return out


def _hurwitz_over(dyn: AgentDynamics, lams, zero_eig_tol: float) -> bool:
    """True iff A - lam B is Hurwitz for every lam in ``lams`` above zero_eig_tol."""
    return all(is_hurwitz(dyn.A - lam * dyn.B) for lam in lams if lam > zero_eig_tol)


def is_synchronized(ns: NetworkSystem, zero_eig_tol: float = ZERO_EIG_TOL) -> bool:
    """True iff A - lam B is Hurwitz for every nonzero Laplacian eigenvalue."""
    return _hurwitz_over(ns.dyn, ns.laplacian.spectral.eigenvalues, zero_eig_tol)


def reduced_laplacian_spectrum(lap: Laplacian, pi: Partition) -> np.ndarray:
    """Eigenvalues of the quotient Laplacian, ascending (real for any partition)."""
    return np.linalg.eigvalsh(symmetrized_reduced_coupling(lap, pi))


def reduced_synchronization_preserved(ns: NetworkSystem, pi: Partition) -> bool:
    """True iff A - lam B is Hurwitz for every nonzero quotient eigenvalue.

    Guaranteed whenever the partition is almost equitable and the original
    network is synchronized (the quotient spectrum embeds in the original);
    can fail for general partitions.
    """
    lams_hat = reduced_laplacian_spectrum(ns.laplacian, pi)
    return _hurwitz_over(ns.dyn, lams_hat, ZERO_EIG_TOL)
